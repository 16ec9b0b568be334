//! The ttcp stream over live loopback sockets — real sockets, real wall
//! clock — directly and under a seeded fault plan.
//!
//! [`Stream::run`](qpip_bench::workloads::ttcp::Stream::run) checks
//! every delivery exactly-once and in order (it panics on a lost,
//! duplicated, corrupted or misordered message and returns only once
//! every message has arrived), so these tests assert what surrounds
//! delivery: that loss happened and that the engine's recovery, not the
//! wire, repaired it. Nothing here asserts a latency: the wall clock
//! jitters.

use std::sync::Arc;
use std::time::Duration;

use qpip::{Completion, CompletionKind, CqId, RecvWr, SendWr, ServiceType};
use qpip_bench::workloads::pingpong;
use qpip_bench::workloads::ttcp::ttcp;
use qpip_bench::workloads::verbs::End::{A, B};
use qpip_bench::workloads::verbs::{wait_for, LivePair, VerbsPair};
use qpip_fabric::FaultPlan;
use qpip_sim::params::NIC_DELAYED_ACK;
use qpip_trace::{FlightRecorder, TraceEvent, Tracer};
use qpip_xport::quiesce;

#[test]
fn tcp_transfer_direct() {
    // returning at all means all 100 messages arrived exactly once, in
    // order and intact
    ttcp(&mut LivePair::direct(), 100, 1024);
}

/// A direct 8 KB stream fits in the receiver's socket: the node never
/// advertises more window than the kernel buffer holds, so every
/// datagram either end sends is read by the other and no loss is
/// repaired. RTOs are not asserted: a scheduler stall can still fire
/// one, and what it re-sends (the first segment, or go-back-N when a
/// duplicate ACK came first) the receiver already holds, so duplicate
/// ACKs may draw a fast retransmit; fast retransmits are asserted only
/// on a run without an RTO.
#[test]
fn direct_8k_stream_loses_nothing_to_the_kernel() {
    let mut pair = LivePair::direct();
    ttcp(&mut pair, 2000, 8192);
    let [a, b] = &mut pair.nodes;
    quiesce(a, b).unwrap();
    let (sa, sb) = (a.stats(), b.stats());
    assert_eq!(sa.datagrams_tx, sb.datagrams_rx, "a -> b lost datagrams: {sa:?} {sb:?}");
    assert_eq!(sb.datagrams_tx, sa.datagrams_rx, "b -> a lost datagrams: {sa:?} {sb:?}");
    let e = a.engine().stats();
    if e.tcp.rto_retransmits == 0 {
        assert_eq!(e.tcp.fast_retransmits, 0, "{e:?}");
    }
}

/// The engine builds a packet only when the node sends it: every
/// packet either engine counts went out as a datagram, window updates
/// included.
#[test]
fn every_engine_packet_becomes_a_datagram() {
    let mut pair = LivePair::direct();
    ttcp(&mut pair, 2000, 8192);
    let [a, b] = &mut pair.nodes;
    quiesce(a, b).unwrap();
    for n in &pair.nodes {
        assert_eq!(n.engine().stats().tx_packets, n.stats().datagrams_tx, "{n:?}");
    }
}

/// Lockstep 64 B request-response in `live_rpc`'s shape: each end keeps
/// 8 × 64 B receive WRs posted and reposts before it answers. Every
/// datagram after set-up carries a message: the pong carries the
/// ping's ACK, the next ping the pong's, and a one-WR repost onto an
/// open window announces nothing. A stall longer than the delayed-ACK
/// timeout can let a pure ACK out, so the count is exact only when no
/// round trip took that long.
#[test]
fn a_lockstep_rpc_costs_two_datagrams() {
    const RPCS: u64 = 1000;
    const LEN: usize = 64;
    let mut p = LivePair::direct();
    let cqs = [p.create_cq(A), p.create_cq(B)];
    let qps = [
        p.create_qp(A, ServiceType::ReliableTcp, cqs[0], cqs[0]),
        p.create_qp(B, ServiceType::ReliableTcp, cqs[1], cqs[1]),
    ];
    for (end, qp) in [(A, qps[0]), (B, qps[1])] {
        for wr_id in 0..8 {
            p.post_recv(end, qp, RecvWr { wr_id, capacity: LEN });
        }
    }
    p.tcp_listen(B, qps[1], 5000);
    p.tcp_connect(A, qps[0], 4000, 5000);
    let up = |c: &Completion| c.kind == CompletionKind::ConnectionEstablished;
    wait_for(&mut p, A, cqs[0], up);
    wait_for(&mut p, B, cqs[1], up);

    let sent = |p: &LivePair| p.packets_sent(A) + p.packets_sent(B);
    let before = sent(&p);
    let mut sends = [0; 2];
    let mut slowest = Duration::ZERO;
    let mut recv = |p: &mut LivePair, i: usize| loop {
        let end = [A, B][i];
        let c = p.wait(end, cqs[i]);
        match c.kind {
            CompletionKind::Send => sends[i] += 1,
            CompletionKind::Recv { data, .. } => {
                assert_eq!(data.len(), LEN);
                p.post_recv(end, qps[i], RecvWr { wr_id: c.wr_id, capacity: LEN });
                return;
            }
            other => panic!("{end:?}: unexpected {other:?}"),
        }
    };
    for i in 0..RPCS {
        let t0 = std::time::Instant::now();
        p.post_send(A, qps[0], SendWr { wr_id: i, payload: vec![1; LEN], dst: None });
        recv(&mut p, 1);
        p.post_send(B, qps[1], SendWr { wr_id: i, payload: vec![2; LEN], dst: None });
        recv(&mut p, 0);
        slowest = slowest.max(t0.elapsed());
    }
    let datagrams = sent(&p) - before;
    if slowest < Duration::from_nanos(NIC_DELAYED_ACK.as_nanos()) {
        assert_eq!(datagrams, 2 * RPCS, "slowest round trip {slowest:?}");
    } else {
        assert!(datagrams < 3 * RPCS, "{datagrams} datagrams, slowest round trip {slowest:?}");
    }

    // the last pong's send completes once a's delayed ACK fires
    for (i, end) in [A, B].into_iter().enumerate() {
        while sends[i] < RPCS {
            let c = p.wait(end, cqs[i]);
            assert_eq!(c.kind, CompletionKind::Send, "{end:?}");
            sends[i] += 1;
        }
    }
}

/// `settle` leaves nothing owed: the last pong of a lockstep TCP
/// ping-pong completes only when the pinger's delayed ACK (300 µs)
/// reaches the ponger, so settling must outlast that timer, as the DES
/// pair's settle runs until no event is left.
#[test]
fn settle_waits_out_the_delayed_ack() {
    for run in 0..20 {
        let mut pair = LivePair::direct();
        pingpong::rtt(&mut pair, ServiceType::ReliableTcp, 64, 4);
        pair.settle();
        for n in &pair.nodes {
            assert_eq!(n.engine().next_deadline(), None, "run {run}: a timer is pending\n{n:?}");
        }
        // end B's CQ (its first) holds its last pong's send completion
        let last = pair.try_wait(B, CqId(1)).map(|c| (c.kind, c.wr_id));
        assert_eq!(last, Some((CompletionKind::Send, 2)), "run {run}");
    }
}

/// The acceptance test: a transfer under 2 % loss plus 3 % holds
/// completes with exactly-once, in-order delivery using the stock
/// engine — its retransmission machinery, not the wire, provides
/// reliability. Under this seed the sender drops its 41st datagram,
/// which is a data segment, so every run loses and repairs data; its
/// receiver holds its 27th, an ACK, reordering the ACK stream.
#[test]
fn tcp_transfer_survives_loss_and_reordering() {
    let mut pair =
        LivePair::impaired(FaultPlan::Impair { drop_permille: 20, hold_permille: 30, seed: 42 });
    let r = ttcp(&mut pair, 300, 1024);
    let [a, b] = pair.nodes.each_ref().map(|n| n.stats());
    assert!(a.injected_drops > 0, "the sender's plan never dropped anything: {a:?}");
    assert!(b.injected_holds > 0, "the receiver's plan never held anything: {b:?}");
    assert!(r.retransmissions > 0, "loss recovery never ran; {a:?}");
}

/// Flight recorder on real wires: a lossy transfer must leave ≥1
/// retransmit event in the sender's trace, and every retransmit's
/// sequence number must name a segment the trace also shows re-sent.
/// Event ordering and counts are wall-clock-dependent; the seq linkage
/// is not.
#[test]
fn lossy_transfer_traces_retransmits() {
    let mut pair =
        LivePair::impaired(FaultPlan::Impair { drop_permille: 30, hold_permille: 20, seed: 7 });
    let rec = Arc::new(FlightRecorder::new(65536));
    pair.nodes[0].set_tracer(Tracer::new(Arc::clone(&rec), 0));
    let r = ttcp(&mut pair, 300, 1024);
    assert!(r.retransmissions > 0, "loss recovery never ran");

    let events = rec.events();
    let retransmits: Vec<_> =
        events.iter().filter(|r| matches!(r.ev, TraceEvent::Retransmit { .. })).collect();
    assert!(!retransmits.is_empty(), "engine retransmitted but the trace recorded none");
    for r in &retransmits {
        let TraceEvent::Retransmit { seq, .. } = r.ev else { unreachable!() };
        let matched = events.iter().any(|e| {
            e.conn == r.conn
                && matches!(e.ev,
                    TraceEvent::SegTx { seq: s, retransmit: true, .. } if s == seq)
        });
        assert!(matched, "retransmit seq {seq} has no matching retransmitted SegTx");
    }
    // socket-level events landed too (node scope): the live transport
    // stamps rx/tx datagrams into the same recorder
    assert!(
        events.iter().any(|r| matches!(r.ev, TraceEvent::Sock { .. })),
        "no socket-level events traced"
    );
}
