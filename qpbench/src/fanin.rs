//! `des_fanin`: thousands of simulated clients fan 1 KB messages into
//! one QPIP server over Myrinet, through the public [`QpipWorld`] API.
//!
//! A batch job, repeated until the time budget is spent. Each job
//! builds a fresh world (set-up: server QPs with their receive WRs, the
//! connect storm, every handshake done), then every client posts its
//! burst and the world runs until idle. The benchmark drives
//! [`QpipWorld::step`] itself so the traced run can time each event.

use std::time::{Duration, Instant};

use qpip::world::QpipWorld;
use qpip::{CompletionKind, NicConfig, RecvWr, SendWr, ServiceType};
use qpip_fabric::FabricConfig;
use qpip_netstack::types::Endpoint;
use qpip_sim::rng::SplitMix64;
use qpip_trace::Snapshot;

use crate::alloc::AllocCount;
use crate::clock::Stopwatch;
use crate::spans::Spans;
use crate::{Epoch, Outcome};

/// Application message size.
pub const MESSAGE: usize = 1024;
/// Bytes of the seeded pattern message bodies are cut from.
const PATTERN: usize = 64 * 1024;
/// Message header: flow index and message index, big-endian `u32`s.
const HEADER: usize = 8;
const PORT: u16 = 5000;

/// Fleet size of one job.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Client nodes, one connection each.
    pub flows: usize,
    /// Messages in each client's burst.
    pub burst: usize,
}

/// The benchmark's job: 4096 clients, 4 messages each.
pub const FLEET: Scale = Scale { flows: 4096, burst: 4 };

/// The inputs of one job, all drawn from the seed.
struct Inputs {
    pattern: Vec<u8>,
    mix: u64,
}

impl Inputs {
    fn new(seed: u64, job: u64) -> Inputs {
        let mut rng = SplitMix64::new(seed ^ job.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let pattern = (0..PATTERN / 8).flat_map(|_| rng.next_u64().to_le_bytes()).collect();
        Inputs { pattern, mix: rng.next_u64() }
    }

    fn body(&self, flow: usize, msg: usize) -> &[u8] {
        let h = SplitMix64::new(self.mix ^ ((flow as u64) << 20 | msg as u64)).next_u64();
        let off = (h % (PATTERN - MESSAGE) as u64) as usize;
        &self.pattern[off..off + MESSAGE - HEADER]
    }

    fn message(&self, flow: usize, msg: usize) -> Vec<u8> {
        let mut m = Vec::with_capacity(MESSAGE);
        m.extend_from_slice(&(flow as u32).to_be_bytes());
        m.extend_from_slice(&(msg as u32).to_be_bytes());
        m.extend_from_slice(self.body(flow, msg));
        m
    }
}

/// World counters summed over a run's jobs.
#[derive(Debug, Default)]
struct Counters {
    events: u64,
    scopes: Vec<Snapshot>,
}

impl Counters {
    fn get(&self, scope: &str, name: &str) -> u64 {
        self.scopes.iter().find(|s| s.scope() == scope).and_then(|s| s.get(name)).unwrap_or(0)
    }
}

fn step(w: &mut QpipWorld, spans: &mut Spans) -> bool {
    spans.span("world.step", |_| w.step())
}

/// Runs jobs until `budget` is spent (at least one); each job's
/// traffic phase is one epoch.
pub fn run(seed: u64, budget: Duration, scale: Scale, spans: &mut Spans) -> Outcome {
    let start = Instant::now();
    let mut out = Outcome::default();
    let mut totals = Counters::default();
    let mut job = 0u64;
    let mut job_s = 0.0;
    while job == 0 || start.elapsed() < budget {
        job_s += one_job(&Inputs::new(seed, job), scale, spans, &mut out, &mut totals);
        job += 1;
    }
    let get = |scope: &str, name: &str| totals.get(scope, name) as f64;
    let (delivered, received) = (get("fabric", "delivered"), get("nic", "rx_packets"));
    out.layers.extend([
        ("world.events", totals.events as f64),
        ("world.ns_per_event", job_s * 1e9 / totals.events.max(1) as f64),
        ("fabric.delivered", delivered),
        ("fabric.dropped", get("fabric", "dropped")),
        ("fabric.in_flight", delivered - received),
        ("nic.rx_packets", received),
        ("nic.tx_packets", get("nic", "tx_packets")),
        ("nic.tcp_backlogged", get("nic", "tcp_backlogged")),
        ("engine.rto_retransmits", get("engine", "rto_retransmits")),
        ("engine.fast_retransmits", get("engine", "fast_retransmits")),
        ("engine.dupacks_rx", get("engine", "dupacks_rx")),
        ("engine.parse_drops", get("engine", "parse_drops")),
    ]);
    out.notes.push(format!(
        "conservation: fabric delivered {delivered} packets, NICs received {received}; {} still in flight at the end of {job} jobs",
        delivered - received
    ));
    out
}

fn one_job(
    inp: &Inputs,
    scale: Scale,
    spans: &mut Spans,
    out: &mut Outcome,
    totals: &mut Counters,
) -> f64 {
    let a0 = AllocCount::now();
    let t0 = Stopwatch::start();
    let nic = NicConfig::paper_default();
    let mut w = QpipWorld::new(FabricConfig { mtu: nic.mtu, ..FabricConfig::myrinet() });
    let server = w.add_node(nic.clone());
    let cq_s = w.create_cq(server);
    // one pooled listening QP per flow, each with a receive WR for
    // every message of the burst, so the window never closes
    for i in 0..scale.flows {
        let qp = w.create_qp(server, ServiceType::ReliableTcp, cq_s, cq_s).expect("server qp");
        for j in 0..scale.burst {
            let wr = RecvWr { wr_id: (i * scale.burst + j) as u64, capacity: MESSAGE };
            w.post_recv(server, qp, wr).expect("server recv");
        }
        w.tcp_listen(server, PORT, qp).expect("listen");
    }
    let remote = Endpoint::new(w.addr(server), PORT);
    let mut clients = Vec::with_capacity(scale.flows);
    for _ in 0..scale.flows {
        let node = w.add_node(nic.clone());
        let cq = w.create_cq(node);
        let qp = w.create_qp(node, ServiceType::ReliableTcp, cq, cq).expect("client qp");
        w.tcp_connect(node, qp, 4000, remote).expect("connect");
        clients.push((node, cq, qp));
    }
    while step(&mut w, spans) {}
    for &(node, cq, _) in &clients {
        let est = w.try_wait(node, cq).map(|c| c.kind);
        assert_eq!(est, Some(CompletionKind::ConnectionEstablished), "handshake incomplete");
    }
    let setup = t0.elapsed();
    let t1 = Stopwatch::start();

    for (flow, &(node, _, qp)) in clients.iter().enumerate() {
        for m in 0..scale.burst {
            let wr = SendWr { wr_id: m as u64, payload: inp.message(flow, m), dst: None };
            w.post_send(node, qp, wr).expect("post_send");
        }
    }
    while step(&mut w, spans) {}
    // exactly-once, in order per flow, bodies intact
    let mut next = vec![0usize; scale.flows];
    let (mut delivered, mut bytes, mut bad) = (0u64, 0u64, 0u64);
    while let Some(c) = w.try_wait(server, cq_s) {
        let CompletionKind::Recv { data, .. } = c.kind else { continue };
        delivered += 1;
        bytes += data.len() as u64;
        let ok = data.len() == MESSAGE && {
            let flow = u32::from_be_bytes(data[..4].try_into().expect("4 bytes")) as usize;
            let msg = u32::from_be_bytes(data[4..8].try_into().expect("4 bytes")) as usize;
            let fresh = flow < scale.flows && next[flow] == msg;
            if fresh {
                next[flow] += 1;
            }
            fresh && data[HEADER..] == *inp.body(flow, msg)
        };
        bad += u64::from(!ok);
    }
    let traffic = t1.elapsed();
    let alloc = AllocCount::now().since(a0);

    let want = (scale.flows * scale.burst) as u64;
    let lost = want.saturating_sub(delivered - bad);
    out.attempted += want;
    out.failed += lost.max(bad);
    if bytes != want * MESSAGE as u64 {
        out.failed = out.failed.max(1);
        out.notes.push(format!("byte count {bytes} != {}", want * MESSAGE as u64));
    }
    out.setup.push(setup);
    out.epochs.push(Epoch { class: 0, msgs: delivered, bytes, time: traffic });
    out.alloc.add(alloc);

    totals.events += w.events_processed();
    for snap in w.counter_snapshots() {
        match totals.scopes.iter_mut().find(|t| t.scope() == snap.scope()) {
            Some(t) => t.absorb(&snap),
            None => totals.scopes.push(snap),
        }
    }
    setup.wall + traffic.wall
}
