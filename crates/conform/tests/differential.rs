//! Differential checking: one workload, two execution substrates.
//!
//! The DES world (`QpipWorld`) and the live-socket transport
//! (`XportNode` over 127.0.0.1) both drive the stock protocol engine.
//! Run the same lockstep application workload through both and the
//! normalized per-connection flight-recorder streams — state
//! transitions and wire segments, timestamps stripped — must be
//! byte-identical: same handshake, same sequence numbers, same flags,
//! same windows, same teardown-free steady state. Any divergence means
//! one substrate drives the engine differently than the other.
//!
//! The verbs layer above the engine is compared too: every completion
//! either side pops, `visible_at` stripped, must form identical
//! per-CQ streams — same QP and CQ ids, same WR ids, kinds, statuses
//! and payloads, in the same order.
//!
//! The workload is `qpip_bench::workloads::lockstep::run`, written once
//! against the two-node verbs seam: one message outstanding at a time,
//! each acknowledged before the next is posted, so wall-clock scheduling
//! on the live side cannot reorder protocol events relative to the
//! deterministic simulation.
//!
//! A request-response leg answers every message before either end waits
//! for its send completion, so the two substrates must also share an
//! ACK policy: a delayed ACK rides on the answer, an immediate one goes
//! out ahead of it as an ack-advancing pure ACK, which the normalized
//! stream keeps.
//!
//! A lossy leg runs the same script with the DES fabric dropping at
//! random and the live wire crossing the impairment proxy. Retransmit
//! timing legitimately differs there, so only the completion streams
//! are compared: loss recovery must be invisible above the verbs.
//!
//! The two other workloads written once against the verbs seam, the
//! ping-pong of `pingpong::rtt` (TCP and UDP) and the ttcp stream of
//! `ttcp::Stream`, run through a [`Recorded`] pair that logs every
//! completion they pop, and their completion streams are compared the
//! same way.

use std::net::Ipv6Addr;
use std::sync::Arc;
use std::time::Duration;

use qpip::world::QpipWorld;
use qpip::{Completion, CqId, NicConfig, QpId, RecvWr, SendWr, ServiceType};
use qpip_bench::workloads::lockstep::{run, CqStreams, Exchange};
use qpip_bench::workloads::pingpong::rtt;
use qpip_bench::workloads::ttcp::Stream;
use qpip_bench::workloads::verbs::End::{self, A, B};
use qpip_bench::workloads::verbs::{DesPair, LivePair, VerbsPair};
use qpip_conform::differential::{first_divergence, normalize};
use qpip_fabric::FaultPlan;
use qpip_sim::time::SimTime;
use qpip_trace::{FlightRecorder, Rec, TraceEvent, Tracer};
use qpip_xport::ImpairConfig;

/// The shared workload, `(sender, length)` per message: end A serves,
/// end B is the client.
fn workload() -> Vec<(End, usize)> {
    vec![(B, 512), (B, 96), (A, 384), (B, 1500), (A, 64), (A, 700), (B, 1)]
}

/// Runs `script` on the DES, with `fault` on the fabric, tracing both
/// nodes (end A is scope 0, end B scope 1).
fn des_trace(
    script: &[(End, usize)],
    exchange: Exchange,
    fault: FaultPlan,
) -> (Vec<Rec>, CqStreams) {
    let mut w = QpipWorld::myrinet();
    let rec = Arc::new(FlightRecorder::new(65536));
    w.install_recorder(Arc::clone(&rec));
    w.set_fault_plan(fault);
    let streams = run(&mut DesPair::new(w, NicConfig::paper_default()), script, exchange);
    (rec.events(), streams)
}

/// Runs `script` on a live pair, tracing with the DES run's scopes.
fn live_trace(
    script: &[(End, usize)],
    exchange: Exchange,
    p: &mut LivePair,
) -> (Vec<Rec>, CqStreams) {
    let rec = Arc::new(FlightRecorder::new(65536));
    for (scope, n) in p.nodes.iter_mut().enumerate() {
        n.set_tracer(Tracer::new(Arc::clone(&rec), scope as u32));
    }
    let streams = run(p, script, exchange);
    (rec.events(), streams)
}

/// Asserts both substrates' normalized per-node streams are identical:
/// one connection each, with its state transitions.
fn assert_same_traces(des: &[Rec], live: &[Rec]) {
    for node in 0..2u32 {
        let a = normalize(des, node);
        let b = normalize(live, node);
        assert_eq!(a.len(), 1, "DES node {node}: expected one connection, got {}", a.len());
        assert_eq!(b.len(), 1, "live node {node}: expected one connection, got {}", b.len());
        if let Some(d) = first_divergence(&a[0], &b[0]) {
            panic!("node {node} ({}): {d}", if node == 0 { "server" } else { "client" });
        }
        assert!(
            a[0].iter().any(|l| l.starts_with("state")),
            "node {node} stream has no state transitions: {:?}",
            &a[0]
        );
    }
}

fn assert_same_streams(des: &CqStreams, live: &CqStreams) {
    for (key, stream) in des {
        assert_eq!(live.get(key), Some(stream), "CQ stream {key:?} diverges");
    }
    assert_eq!(des.len(), live.len(), "live popped from CQs the DES never used");
}

#[test]
fn des_and_live_transport_drive_the_engine_identically() {
    let script = workload();
    let (des, _) = des_trace(&script, Exchange::OneWay, FaultPlan::None);
    let (live, _) = live_trace(&script, Exchange::OneWay, &mut LivePair::direct());
    assert_same_traces(&des, &live);
    // the live NIC's stages take no time, so none is traced
    let fw_stage = |r: &Rec| matches!(r.ev, TraceEvent::FwFsm { .. });
    assert!(des.iter().any(fw_stage) && !live.iter().any(fw_stage));
}

/// The request-response leg: every message is answered before either
/// end waits for its send completion, so both substrates must run the
/// same ACK policy. A delayed ACK rides on the answer; an immediate one
/// would put an ack-advancing pure ACK on the wire ahead of it.
#[test]
fn des_and_live_transport_ack_a_request_alike() {
    let script = workload();
    let (des, des_streams) = des_trace(&script, Exchange::Answered, FaultPlan::None);
    let (live, live_streams) = live_trace(&script, Exchange::Answered, &mut LivePair::direct());
    assert_same_traces(&des, &live);
    // handshake + a send and a receive entry per message and per answer
    let popped: usize = des_streams.values().map(Vec::len).sum();
    assert_eq!(popped, 2 + 4 * script.len(), "DES streams: {des_streams:?}");
    assert_same_streams(&des_streams, &live_streams);
}

#[test]
fn des_and_live_transport_pop_identical_completion_streams() {
    let script = workload();
    let (_, des) = des_trace(&script, Exchange::OneWay, FaultPlan::None);
    let (_, live) = live_trace(&script, Exchange::OneWay, &mut LivePair::direct());
    // handshake + one send and one receive entry per message
    let popped: usize = des.values().map(Vec::len).sum();
    assert_eq!(popped, 2 + 2 * script.len(), "DES streams: {des:?}");
    assert_same_streams(&des, &live);
}

/// The lossy leg: the DES fabric drops 5% of packets, the live proxy
/// drops 5% of datagrams and holds 3% back. Both engines recover, and
/// the completions above them match the lossless run's exactly.
#[test]
fn lossy_des_and_live_pop_identical_completion_streams() {
    let script: Vec<_> = workload().into_iter().cycle().take(28).collect();
    let drop = FaultPlan::DropRandom { permille: 50, seed: 3 };
    let (des_events, des) = des_trace(&script, Exchange::OneWay, drop);
    let mut pair = LivePair::impaired(ImpairConfig {
        seed: 3,
        drop_per_mille: 50,
        reorder_per_mille: 30,
        hold_at_most: Duration::from_millis(10),
    });
    let (_, live) = live_trace(&script, Exchange::OneWay, &mut pair);

    let retransmitted = des_events.iter().any(|r| matches!(r.ev, TraceEvent::Retransmit { .. }));
    assert!(retransmitted, "the DES fabric dropped nothing the engine had to resend");
    let proxy = pair.proxy.as_ref().expect("impaired pair").stats();
    assert!(proxy.dropped > 0, "the proxy dropped nothing: {proxy:?}");
    assert_eq!(des.values().map(Vec::len).sum::<usize>(), 2 + 2 * script.len());
    assert_same_streams(&des, &live);
}

/// A pair that logs every completion a workload pops from it, per end
/// and CQ, in pop order.
struct Recorded<P> {
    pair: P,
    cqs: Vec<(End, CqId)>,
    streams: CqStreams,
}

impl<P: VerbsPair> Recorded<P> {
    fn new(pair: P) -> Self {
        Recorded { pair, cqs: Vec::new(), streams: CqStreams::new() }
    }

    fn log(&mut self, end: End, cq: CqId, c: &Completion) {
        let popped = (c.qp, c.wr_id, c.kind.clone(), c.status.clone());
        self.streams.entry((end, cq)).or_default().push(popped);
    }

    /// Waits until every CQ the workload created has yielded `each`
    /// entries, so completions a workload leaves behind (the last
    /// ACKs' send completions) are compared too, then returns the
    /// streams.
    fn drained(mut self, each: usize) -> CqStreams {
        for (end, cq) in self.cqs.clone() {
            while self.streams.get(&(end, cq)).map_or(0, Vec::len) < each {
                self.wait(end, cq);
            }
        }
        self.streams
    }
}

impl<P: VerbsPair> VerbsPair for Recorded<P> {
    fn create_cq(&mut self, end: End) -> CqId {
        let cq = self.pair.create_cq(end);
        self.cqs.push((end, cq));
        cq
    }

    fn create_qp(&mut self, end: End, service: ServiceType, send_cq: CqId, recv_cq: CqId) -> QpId {
        self.pair.create_qp(end, service, send_cq, recv_cq)
    }

    fn udp_bind(&mut self, end: End, qp: QpId, port: u16) {
        self.pair.udp_bind(end, qp, port);
    }

    fn tcp_listen(&mut self, end: End, qp: QpId, port: u16) {
        self.pair.tcp_listen(end, qp, port);
    }

    fn tcp_connect(&mut self, end: End, qp: QpId, local_port: u16, remote_port: u16) {
        self.pair.tcp_connect(end, qp, local_port, remote_port);
    }

    fn post_send(&mut self, end: End, qp: QpId, wr: SendWr) {
        self.pair.post_send(end, qp, wr);
    }

    fn post_recv(&mut self, end: End, qp: QpId, wr: RecvWr) {
        self.pair.post_recv(end, qp, wr);
    }

    fn wait(&mut self, end: End, cq: CqId) -> Completion {
        let c = self.pair.wait(end, cq);
        self.log(end, cq, &c);
        c
    }

    fn try_wait(&mut self, end: End, cq: CqId) -> Option<Completion> {
        let c = self.pair.try_wait(end, cq)?;
        self.log(end, cq, &c);
        Some(c)
    }

    fn now(&self, end: End) -> SimTime {
        self.pair.now(end)
    }

    fn retransmissions(&self, end: End) -> u64 {
        self.pair.retransmissions(end)
    }

    fn packets_sent(&self, end: End) -> u64 {
        self.pair.packets_sent(end)
    }

    fn addr(&self, end: End) -> Ipv6Addr {
        self.pair.addr(end)
    }

    fn max_tcp_message(&self, end: End) -> usize {
        self.pair.max_tcp_message(end)
    }

    fn settle(&mut self) {
        self.pair.settle();
    }
}

fn des_pair() -> Recorded<DesPair> {
    Recorded::new(DesPair::new(QpipWorld::myrinet(), NicConfig::paper_default()))
}

fn live_pair() -> Recorded<LivePair> {
    Recorded::new(LivePair::direct())
}

/// Ping-pong rounds, after the workload's four warm-up rounds.
const ROUNDS: usize = 12;

/// `pingpong::rtt` on both substrates: each end's one CQ carries its
/// handshake (TCP only), then a send and a receive entry per round.
fn rtt_streams_match(service: ServiceType) {
    let tcp = usize::from(service == ServiceType::ReliableTcp);
    let each = tcp + 2 * (ROUNDS + 4);
    let mut des = des_pair();
    rtt(&mut des, service, 64, ROUNDS);
    let mut live = live_pair();
    rtt(&mut live, service, 64, ROUNDS);
    assert_same_streams(&des.drained(each), &live.drained(each));
}

#[test]
fn des_and_live_tcp_ping_pong_pop_identical_completion_streams() {
    rtt_streams_match(ServiceType::ReliableTcp);
}

#[test]
fn des_and_live_udp_ping_pong_pop_identical_completion_streams() {
    rtt_streams_match(ServiceType::UnreliableUdp);
}

/// `ttcp::Stream` on both substrates: the sender's CQ carries its
/// handshake and a send entry per message, the receiver's its
/// handshake and a receive entry per message.
#[test]
fn des_and_live_ttcp_streams_pop_identical_completion_streams() {
    const MESSAGES: u64 = 200;
    let each = 1 + MESSAGES as usize;
    let mut des = des_pair();
    Stream::connect(&mut des, 1024).run(&mut des, MESSAGES);
    let mut live = live_pair();
    Stream::connect(&mut live, 1024).run(&mut live, MESSAGES);
    assert_same_streams(&des.drained(each), &live.drained(each));
}
