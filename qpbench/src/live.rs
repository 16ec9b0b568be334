//! `live_rpc` and `live_stream`: one reliable QP connection between two
//! [`XportNode`]s on 127.0.0.1, both driven from this one thread in
//! lockstep — poll one node, and when it has nothing, pump the other.
//!
//! Thread-per-node drivers are left out on purpose: their scheduling,
//! not the transport, set most of their run-to-run spread.

use std::net::Ipv6Addr;
use std::time::{Duration, Instant};

use qpip_netstack::types::Endpoint;
use qpip_nic::types::{Completion, CompletionKind, CqId, QpId, RecvWr, SendWr, ServiceType};
use qpip_sim::rng::SplitMix64;
use qpip_trace::Snapshot;
use qpip_xport::{XportConfig, XportError, XportNode};

use crate::alloc::AllocCount;
use crate::clock::Stopwatch;
use crate::procfs::Probe;
use crate::spans::Spans;
use crate::{Epoch, Outcome};

const FABRIC_A: Ipv6Addr = Ipv6Addr::new(0xfc00, 0, 0, 0, 0, 0, 0, 0xa);
const FABRIC_B: Ipv6Addr = Ipv6Addr::new(0xfc00, 0, 0, 0, 0, 0, 0, 0xb);
const PORT: u16 = 5001;
/// Connections per run, one after another: each is set up (one set-up
/// sample), carries an equal share of the traffic, and is torn down.
const EPOCHS: u32 = 40;
/// Longest a single operation may take before it counts as lost.
const OP_TIMEOUT: Duration = Duration::from_secs(5);

/// `live_rpc` ping and pong size.
pub const RPC_BYTES: usize = 64;
/// `live_stream` message size.
pub const STREAM_BYTES: usize = 8192;
/// `live_stream` sends outstanding at once.
pub const STREAM_WINDOW: u64 = 32;
/// `live_stream` receive WRs kept posted.
pub const STREAM_RECV_WRS: u64 = 64;

/// Seeded message bodies: a sequence-number header, then bytes from
/// the seed, so a lost, duplicated, reordered or corrupted message is
/// caught by comparing against [`Payloads::expect`].
struct Payloads {
    pattern: Vec<u8>,
    len: usize,
}

impl Payloads {
    fn new(seed: u64, len: usize) -> Payloads {
        let mut rng = SplitMix64::new(seed);
        let pattern =
            (0..(len + 4096) / 8 + 1).flat_map(|_| rng.next_u64().to_le_bytes()).collect();
        Payloads { pattern, len }
    }

    fn body(&self, seq: u64) -> &[u8] {
        let off = (seq.wrapping_mul(0x9e37_79b9) % 4096) as usize;
        &self.pattern[off..off + self.len - 8]
    }

    fn make(&self, seq: u64) -> Vec<u8> {
        let mut m = Vec::with_capacity(self.len);
        m.extend_from_slice(&seq.to_be_bytes());
        m.extend_from_slice(self.body(seq));
        m
    }

    fn expect(&self, seq: u64, data: &[u8]) -> bool {
        data.len() == self.len && data[..8] == seq.to_be_bytes() && data[8..] == *self.body(seq)
    }
}

/// Verb-call counters of one node's driver.
#[derive(Debug, Default)]
struct Calls {
    polls: u64,
    hits: u64,
}

/// Two connected nodes: `a` dialled `b`.
struct Pair {
    a: XportNode,
    b: XportNode,
    cq_a: CqId,
    cq_b: CqId,
    qp_a: QpId,
    qp_b: QpId,
}

fn poll(
    node: &mut XportNode,
    cq: CqId,
    spans: &mut Spans,
    calls: &mut Calls,
) -> Result<Option<Completion>, XportError> {
    calls.polls += 1;
    let c = spans.span("xport.poll", |_| node.poll(cq))?;
    calls.hits += u64::from(c.is_some());
    Ok(c)
}

fn post_recv(
    node: &mut XportNode,
    qp: QpId,
    cap: usize,
    spans: &mut Spans,
) -> Result<(), XportError> {
    spans.span("xport.post_recv", |_| node.post_recv(qp, RecvWr { wr_id: 0, capacity: cap }))
}

fn post_send(
    node: &mut XportNode,
    qp: QpId,
    payload: Vec<u8>,
    spans: &mut Spans,
) -> Result<(), XportError> {
    spans.span("xport.post_send", |_| node.post_send(qp, SendWr { wr_id: 0, payload, dst: None }))
}

fn pump(node: &mut XportNode, spans: &mut Spans) -> Result<bool, XportError> {
    spans.span("xport.pump", |_| node.pump(Duration::ZERO))
}

/// Polls `target` until it yields a completion, pumping `other` after
/// each empty poll so the peer keeps answering.
fn next(
    target: &mut XportNode,
    cq: CqId,
    other: &mut XportNode,
    spans: &mut Spans,
    calls: &mut Calls,
) -> Result<Completion, String> {
    let deadline = Instant::now() + OP_TIMEOUT;
    loop {
        if let Some(c) = poll(target, cq, spans, calls).map_err(|e| e.to_string())? {
            return Ok(c);
        }
        if Instant::now() > deadline {
            return Err(format!("no completion within {OP_TIMEOUT:?}"));
        }
        pump(other, spans).map_err(|e| e.to_string())?;
    }
}

/// Binds both nodes and brings one connection up, with `recv_wrs`
/// receive WRs of `cap` bytes posted on each side.
fn connect(recv_wrs: u64, cap: usize) -> Result<Pair, String> {
    let cfg = XportConfig::default();
    let mut a = XportNode::bind(FABRIC_A, cfg.clone()).map_err(|e| e.to_string())?;
    let mut b = XportNode::bind(FABRIC_B, cfg).map_err(|e| e.to_string())?;
    a.add_peer(FABRIC_B, b.local_addr().map_err(|e| e.to_string())?);
    b.add_peer(FABRIC_A, a.local_addr().map_err(|e| e.to_string())?);
    let e = |e: XportError| e.to_string();
    let cq_a = a.create_cq();
    let cq_b = b.create_cq();
    let qp_a = a.create_qp(ServiceType::ReliableTcp, cq_a, cq_a).map_err(e)?;
    let qp_b = b.create_qp(ServiceType::ReliableTcp, cq_b, cq_b).map_err(e)?;
    for i in 0..recv_wrs {
        a.post_recv(qp_a, RecvWr { wr_id: i, capacity: cap }).map_err(e)?;
        b.post_recv(qp_b, RecvWr { wr_id: i, capacity: cap }).map_err(e)?;
    }
    b.tcp_listen(qp_b, PORT).map_err(e)?;
    a.tcp_connect(qp_a, 4000, Endpoint::new(FABRIC_B, PORT)).map_err(e)?;
    let mut spans = Spans::off();
    let mut calls = Calls::default();
    let up = [
        next(&mut a, cq_a, &mut b, &mut spans, &mut calls)?,
        next(&mut b, cq_b, &mut a, &mut spans, &mut calls)?,
    ];
    if let Some(c) = up.iter().find(|c| c.kind != CompletionKind::ConnectionEstablished) {
        return Err(format!("expected an established connection, got {:?}", c.kind));
    }
    Ok(Pair { a, b, cq_a, cq_b, qp_a, qp_b })
}

/// Pumps both nodes until neither has read a datagram for a while, so
/// every datagram sent has been read or dropped by the kernel.
fn quiesce(p: &mut Pair) -> Result<(), XportError> {
    let mut idle = 0;
    while idle < 50 {
        let got = p.a.pump(Duration::ZERO)? | p.b.pump(Duration::ZERO)?;
        idle = if got { 0 } else { idle + 1 };
    }
    Ok(())
}

/// Totals of one workload run over its epochs.
#[derive(Debug, Default)]
struct Tally {
    a: Calls,
    b: Calls,
    /// Both nodes' engine counters.
    engine: Snapshot,
    /// Both nodes' socket counters.
    xport: Snapshot,
    rcvbuf_drops: u64,
}

impl Tally {
    /// Drains the pair's datagrams, then adds its engine and socket
    /// counters and the kernel's receive-buffer drops since `udp0`.
    fn close(&mut self, mut p: Pair, udp0: &Probe) -> Result<(), String> {
        quiesce(&mut p).map_err(|e| e.to_string())?;
        for node in [&p.a, &p.b] {
            self.engine.absorb(&node.engine().stats().snapshot());
            self.xport.absorb(&node.stats().snapshot());
        }
        self.rcvbuf_drops += Probe::take().udp.rcvbuf_errors - udp0.udp.rcvbuf_errors;
        Ok(())
    }

    /// Per-layer values, and datagram conservation: every datagram
    /// either node sent was read by the other or dropped by the kernel
    /// for a full receive buffer.
    fn report(&self, out: &mut Outcome, spans: &Spans) {
        let med = |name: &str| {
            let d = spans.durations_ns(name);
            if d.is_empty() {
                0.0
            } else {
                crate::stats::median(&d)
            }
        };
        let polls = self.a.polls + self.b.polls;
        let hits = self.a.hits + self.b.hits;
        let engine = |name: &str| self.engine.get(name).unwrap_or(0) as f64;
        let tx = self.xport.get("datagrams_tx").unwrap_or(0);
        let rx = self.xport.get("datagrams_rx").unwrap_or(0);
        let gap = tx as i64 - rx as i64 - self.rcvbuf_drops as i64;
        out.layers.extend([
            ("xport.post_send_ns", med("xport.post_send")),
            ("xport.post_recv_ns", med("xport.post_recv")),
            ("xport.poll_ns", med("xport.poll")),
            ("xport.pump_ns", med("xport.pump")),
            ("xport.polls_per_msg", polls as f64 / out.msgs().max(1) as f64),
            ("xport.poll_hit_ratio", hits as f64 / polls.max(1) as f64),
            ("xport.datagrams_tx", tx as f64),
            ("xport.datagrams_rx", rx as f64),
            ("xport.conservation_gap", gap as f64),
            ("engine.rto_retransmits", engine("rto_retransmits")),
            ("engine.fast_retransmits", engine("fast_retransmits")),
            ("engine.dupacks_rx", engine("dupacks_rx")),
            ("engine.parse_drops", engine("parse_drops")),
        ]);
        out.notes.push(format!(
            "conservation: {tx} datagrams sent = {rx} read + {} kernel rcvbuf drops + {gap} unaccounted",
            self.rcvbuf_drops
        ));
    }
}

/// One epoch's traffic on a connected pair for its share of the budget.
type EpochFn<'a> =
    dyn FnMut(&mut Pair, Duration, &mut Spans, &mut Tally, &mut Outcome) -> Result<(), String> + 'a;

/// Runs `epoch` [`EPOCHS`] times, each on a freshly set-up connection
/// (whose set-up time is one sample) for an equal share of `budget`.
fn epochs(
    budget: Duration,
    recv_wrs: u64,
    cap: usize,
    spans: &mut Spans,
    epoch: &mut EpochFn<'_>,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut tally = Tally::default();
    for _ in 0..EPOCHS {
        let t = Stopwatch::start();
        let mut p = connect(recv_wrs, cap)?;
        out.setup.push(t.elapsed());
        let udp0 = Probe::take();
        let a0 = AllocCount::now();
        epoch(&mut p, budget / EPOCHS, spans, &mut tally, &mut out)?;
        out.alloc.add(AllocCount::now().since(a0));
        tally.close(p, &udp0)?;
    }
    tally.report(&mut out, spans);
    Ok(out)
}

/// `live_rpc`: lockstep ping-pong of [`RPC_BYTES`]; `b` echoes.
pub fn rpc(seed: u64, budget: Duration, spans: &mut Spans) -> Result<Outcome, String> {
    let pay = Payloads::new(seed, RPC_BYTES);
    let mut seq = 0u64;
    epochs(budget, 8, RPC_BYTES, spans, &mut |p, share, spans, tally, out| {
        let e = |e: XportError| e.to_string();
        let mut sends_done = 0u64;
        let first = seq;
        // probe first, so the probes do not eat into the epoch's share
        let sw = Stopwatch::start();
        let start = Instant::now();
        while start.elapsed() < share {
            out.attempted += 1;
            let t = Instant::now();
            post_send(&mut p.a, p.qp_a, pay.make(seq), spans).map_err(e)?;
            let ping = loop {
                match next(&mut p.b, p.cq_b, &mut p.a, spans, &mut tally.b)?.kind {
                    CompletionKind::Recv { data, .. } => break data,
                    CompletionKind::Send => sends_done += 1,
                    k => return Err(format!("unexpected completion {k:?}")),
                }
            };
            let ok = pay.expect(seq, &ping);
            post_recv(&mut p.b, p.qp_b, RPC_BYTES, spans).map_err(e)?;
            post_send(&mut p.b, p.qp_b, ping, spans).map_err(e)?;
            let pong = loop {
                match next(&mut p.a, p.cq_a, &mut p.b, spans, &mut tally.a)?.kind {
                    CompletionKind::Recv { data, .. } => break data,
                    CompletionKind::Send => sends_done += 1,
                    k => return Err(format!("unexpected completion {k:?}")),
                }
            };
            post_recv(&mut p.a, p.qp_a, RPC_BYTES, spans).map_err(e)?;
            out.rtt_ns.record(t.elapsed().as_nanos() as u64);
            out.failed += u64::from(!(ok && pay.expect(seq, &pong)));
            seq += 1;
        }
        let time = sw.elapsed();
        let msgs = seq - first;
        out.epochs.push(Epoch { class: 0, msgs, bytes: 2 * RPC_BYTES as u64 * msgs, time });
        // every ping and pong must also complete as a send
        let deadline = Instant::now() + OP_TIMEOUT;
        while sends_done < 2 * msgs && Instant::now() < deadline {
            for (node, cq) in [(&mut p.a, p.cq_a), (&mut p.b, p.cq_b)] {
                if let Some(c) = node.poll(cq).map_err(e)? {
                    sends_done += u64::from(c.kind == CompletionKind::Send);
                }
            }
        }
        if sends_done != 2 * msgs {
            out.failed += 1;
            out.notes.push(format!("{sends_done} send completions for {} sends", 2 * msgs));
        }
        Ok(())
    })
}

/// `live_stream`: `a` streams [`STREAM_BYTES`] messages to `b`, at most
/// [`STREAM_WINDOW`] unacknowledged; `b` keeps [`STREAM_RECV_WRS`]
/// receive WRs posted. The engine advertises more window than the
/// kernel's UDP receive buffer holds, so the kernel drops datagrams and
/// the engine recovers them — a known defect this workload shows.
pub fn stream(seed: u64, budget: Duration, spans: &mut Spans) -> Result<Outcome, String> {
    let pay = Payloads::new(seed, STREAM_BYTES);
    let mut seq = 0u64;
    epochs(budget, STREAM_RECV_WRS, STREAM_BYTES, spans, &mut |p, share, spans, tally, out| {
        let e = |e: XportError| e.to_string();
        let first = seq;
        let (mut posted, mut acked, mut delivered, mut bad) = (first, first, first, 0u64);
        // probe first, so the probes do not eat into the epoch's share
        let sw = Stopwatch::start();
        let start = Instant::now();
        let mut last_progress = start;
        loop {
            let sending = start.elapsed() < share;
            while sending && posted - acked < STREAM_WINDOW {
                post_send(&mut p.a, p.qp_a, pay.make(posted), spans).map_err(e)?;
                posted += 1;
            }
            if !sending && acked == posted && delivered == posted {
                break;
            }
            let mut progress = false;
            while let Some(c) = poll(&mut p.b, p.cq_b, spans, &mut tally.b).map_err(e)? {
                let CompletionKind::Recv { data, .. } = c.kind else { continue };
                bad += u64::from(!pay.expect(delivered, &data));
                delivered += 1;
                progress = true;
                post_recv(&mut p.b, p.qp_b, STREAM_BYTES, spans).map_err(e)?;
            }
            while let Some(c) = poll(&mut p.a, p.cq_a, spans, &mut tally.a).map_err(e)? {
                if c.kind == CompletionKind::Send {
                    acked += 1;
                    progress = true;
                }
            }
            if progress {
                last_progress = Instant::now();
            } else if last_progress.elapsed() > OP_TIMEOUT {
                out.notes.push(format!(
                    "stalled: {posted} posted, {acked} acked, {delivered} delivered"
                ));
                break;
            }
        }
        let good = delivered - first - bad;
        out.epochs.push(Epoch {
            class: 0,
            msgs: acked - first,
            bytes: good * STREAM_BYTES as u64,
            time: sw.elapsed(),
        });
        let sent = posted - first;
        out.attempted += sent;
        out.failed += sent.saturating_sub(good).max(posted - acked).max(bad);
        seq = posted;
        Ok(())
    })
}
