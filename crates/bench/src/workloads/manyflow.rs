//! Many-flow fan-in workload: N clients streaming into one QPIP server
//! over Myrinet, exercising the engine's timer index and connection
//! tables at fleet scale (64 → 4096 flows).
//!
//! Two measurements per scale:
//!
//! 1. **Fan-in run** — the full simulated workload; reports wall time,
//!    DES events, and events/sec. With the O(1) timer index and slab
//!    tables, events/sec should stay roughly flat per flow as the fleet
//!    grows; with the old scan-based timers it degraded quadratically.
//! 2. **Timer tick** — a microbenchmark of `next_deadline` + `on_timer`
//!    on a real [`Engine`] holding N armed connections, against
//!    [`ScanReplica`], an in-bench replica of the old O(n)
//!    scan-all-connections timer path.

use std::time::Instant;

use qpip::world::QpipWorld;
use qpip::{CompletionKind, NicConfig, RecvWr, SendWr, ServiceType};
use qpip_fabric::FabricConfig;
use qpip_netstack::engine::Engine;
use qpip_netstack::tcp::Tcb;
use qpip_netstack::types::{Endpoint, NetConfig, OpCounters};
use qpip_sim::time::SimTime;
use qpip_wire::tcp::SeqNum;

use crate::microbench::{compare, Comparison};

/// One fan-in run at a fixed fleet size.
#[derive(Debug, Clone)]
pub struct ManyflowScale {
    /// Number of client flows fanning into the one server.
    pub flows: usize,
    /// Host wall-clock seconds for the whole run (setup + stream).
    pub wall_s: f64,
    /// Simulated seconds the run covered.
    pub sim_s: f64,
    /// DES events delivered by the kernel.
    pub des_events: u64,
    /// DES events per wall-clock second (kernel meter).
    pub des_events_per_sec: f64,
    /// DES events per flow — the flatness metric.
    pub events_per_flow: f64,
    /// Application bytes delivered to the server.
    pub bytes_received: u64,
    /// Timer-tick cost: scan replica (baseline) vs timer index (current).
    pub timer: Comparison,
    /// Fleet-wide counter snapshots of the world at end of run
    /// (engine + NIC summed across all nodes, plus the fabric).
    pub counters: Vec<qpip_trace::Snapshot>,
}

/// Runs the fan-in workload at one scale: `flows` clients each stream
/// `messages_per_flow` messages of `message` bytes into a single server
/// node, all over one Myrinet switch.
pub fn run_scale(flows: usize, messages_per_flow: usize, message: usize) -> ManyflowScale {
    let wall_start = Instant::now();
    let nic = NicConfig::paper_default();
    let mut w = QpipWorld::new(FabricConfig { mtu: nic.mtu, ..FabricConfig::myrinet() });

    let server = w.add_node(nic.clone());
    let cq_s = w.create_cq(server);
    // One listening QP per expected flow, all pooled on port 5000; each
    // pre-posts enough receive buffers for the whole stream so the
    // advertised window never closes.
    for i in 0..flows {
        let qp = w.create_qp(server, ServiceType::ReliableTcp, cq_s, cq_s).unwrap();
        for j in 0..messages_per_flow {
            w.post_recv(
                server,
                qp,
                RecvWr { wr_id: (i * messages_per_flow + j) as u64, capacity: message },
            )
            .unwrap();
        }
        w.tcp_listen(server, 5000, qp).unwrap();
    }
    let remote = Endpoint::new(w.addr(server), 5000);

    // The connect storm: every client dials the server at once.
    let mut clients = Vec::with_capacity(flows);
    for _ in 0..flows {
        let node = w.add_node(nic.clone());
        let cq = w.create_cq(node);
        let qp = w.create_qp(node, ServiceType::ReliableTcp, cq, cq).unwrap();
        w.tcp_connect(node, qp, 4000, remote).unwrap();
        clients.push((node, cq, qp));
    }
    for &(node, cq, _) in &clients {
        w.wait_matching(node, cq, |c| c.kind == CompletionKind::ConnectionEstablished);
    }

    // Stream: each client posts its whole burst; the server drains.
    for &(node, _, qp) in &clients {
        for m in 0..messages_per_flow {
            w.post_send(
                node,
                qp,
                SendWr { wr_id: m as u64, payload: vec![0x5a; message], dst: None },
            )
            .unwrap();
        }
    }
    let want = (flows * messages_per_flow) as u64;
    let mut recv_done = 0u64;
    let mut bytes_received = 0u64;
    while recv_done < want {
        let c = w.wait(server, cq_s);
        if let CompletionKind::Recv { data, .. } = c.kind {
            recv_done += 1;
            bytes_received += data.len() as u64;
        }
    }

    let wall_s = wall_start.elapsed().as_secs_f64();
    let des_events = w.events_processed();
    ManyflowScale {
        flows,
        wall_s,
        sim_s: w.now().as_secs_f64(),
        des_events,
        des_events_per_sec: w.events_per_sec(),
        events_per_flow: des_events as f64 / flows as f64,
        bytes_received,
        timer: timer_tick_comparison(flows),
        counters: w.counter_snapshots(),
    }
}

/// The old engine's timer path, replicated in-bench: every deadline
/// query scans all connections for the minimum, and every tick walks the
/// whole table looking for due timers. O(n) per tick where the indexed
/// engine is O(1).
pub struct ScanReplica {
    cfg: NetConfig,
    tcbs: Vec<Tcb>,
    ops: OpCounters,
}

impl ScanReplica {
    /// Builds `flows` connections in SYN-SENT (retransmit timer armed),
    /// mirroring [`armed_engine`].
    pub fn new(flows: usize, now: SimTime) -> Self {
        let cfg = NetConfig::qpip(NicConfig::paper_default().segment_mtu());
        let local_addr = std::net::Ipv6Addr::new(0xfc00, 0, 0, 0, 0, 0, 0, 1);
        let remote = Endpoint::new(std::net::Ipv6Addr::new(0xfc00, 0, 0, 0, 0, 0, 0, 2), 80);
        let tcbs = (0..flows)
            .map(|i| {
                let local = Endpoint::new(local_addr, 1024 + i as u16);
                Tcb::connect(&cfg, local, remote, SeqNum(0x1000 + i as u32), now, &mut Vec::new())
            })
            .collect();
        ScanReplica { cfg, tcbs, ops: OpCounters::default() }
    }

    /// One timer tick, the way the pre-index engine did it: scan every
    /// connection for the minimum deadline, then scan again firing any
    /// that are due.
    pub fn tick(&mut self, now: SimTime) -> Option<SimTime> {
        let next = self.tcbs.iter().filter_map(Tcb::next_deadline).min();
        if next.is_some_and(|d| d <= now) {
            let (mut segs, mut events) = (Vec::new(), Vec::new());
            for tcb in &mut self.tcbs {
                if tcb.next_deadline().is_some_and(|d| d <= now) {
                    tcb.on_timer(&self.cfg, now, &mut self.ops, &mut segs, &mut events);
                }
            }
        }
        next
    }
}

/// Builds a real [`Engine`] with `flows` connections in SYN-SENT, each
/// with its retransmit timer armed in the timer index.
pub fn armed_engine(flows: usize, now: SimTime) -> Engine {
    let local_addr = std::net::Ipv6Addr::new(0xfc00, 0, 0, 0, 0, 0, 0, 1);
    let remote = Endpoint::new(std::net::Ipv6Addr::new(0xfc00, 0, 0, 0, 0, 0, 0, 2), 80);
    let mut engine =
        Engine::new(NetConfig::qpip(NicConfig::paper_default().segment_mtu()), local_addr);
    for i in 0..flows {
        engine.tcp_connect(now, 1024 + i as u16, remote, &mut Vec::new());
    }
    engine
}

/// Benchmarks one idle timer tick (`next_deadline` + `on_timer` with
/// nothing due) at `flows` armed connections: scan replica as baseline,
/// the engine's timer index as current.
pub fn timer_tick_comparison(flows: usize) -> Comparison {
    let t0 = SimTime::from_micros(1);
    // Tick just after arming: every RTO is hundreds of ms away, so the
    // tick is pure bookkeeping — exactly the per-event cost the worlds
    // pay when they refresh the timer after absorbing NIC output.
    let tick_at = SimTime::from_micros(2);
    let mut replica = ScanReplica::new(flows, t0);
    let mut engine = armed_engine(flows, t0);
    compare(
        &format!("timer_tick/{flows}"),
        move || replica.tick(tick_at),
        move || {
            let next = engine.next_deadline();
            let mut emits = Vec::new();
            engine.on_timer(tick_at, &mut emits);
            debug_assert!(emits.is_empty());
            (next, emits.len())
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fanin_delivers_every_message() {
        let r = run_scale(8, 3, 512);
        assert_eq!(r.bytes_received, 8 * 3 * 512);
        assert!(r.des_events > 0);
        assert!(r.events_per_flow > 0.0);
        let engine = r.counters.iter().find(|s| s.scope() == "engine").expect("engine counters");
        assert!(engine.get("rx_packets").expect("rx_packets counter") > 0);
    }

    #[test]
    fn scan_replica_matches_engine_deadline() {
        let t0 = SimTime::from_micros(1);
        let mut replica = ScanReplica::new(32, t0);
        let engine = armed_engine(32, t0);
        assert_eq!(replica.tick(SimTime::from_micros(2)), engine.next_deadline());
        assert_eq!(engine.timer_index_len(), 32);
    }
}
