//! The ttcp stream over live loopback sockets — real sockets, real wall
//! clock — directly and through the impairment proxy.
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

use qpip_bench::workloads::ttcp::ttcp;
use qpip_bench::workloads::verbs::LivePair;
use qpip_trace::{FlightRecorder, TraceEvent, Tracer};
use qpip_xport::{quiesce, ImpairConfig};

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
/// one, and the go-back-N after it re-sends delivered segments whose
/// duplicate ACKs may draw a fast retransmit, so fast retransmits are
/// asserted only on a run without an RTO.
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
    if e.rto_retransmits == 0 {
        assert_eq!(e.fast_retransmits, 0, "{e:?}");
    }
}

/// The acceptance test: a transfer through the impairment proxy at 2%
/// loss plus reordering completes with exactly-once, in-order delivery
/// using the stock engine — its retransmission machinery, not the
/// wire, provides reliability.
#[test]
fn tcp_transfer_survives_loss_and_reordering() {
    let mut pair = LivePair::impaired(ImpairConfig {
        seed: 42,
        drop_per_mille: 20,    // 2% loss
        reorder_per_mille: 30, // 3% held for reordering
        hold_at_most: Duration::from_millis(15),
    });
    let r = ttcp(&mut pair, 300, 1024);
    let stats = pair.proxy.as_ref().expect("impaired pair").stats();
    assert!(stats.dropped > 0, "the proxy never dropped anything: {stats:?}");
    assert!(r.retransmissions > 0, "loss recovery never ran; proxy stats {stats:?}");
}

/// Flight recorder on real wires: a lossy proxied transfer must leave
/// ≥1 retransmit event in the sender's trace, and every retransmit's
/// sequence number must name a segment the trace also shows re-sent.
/// Event ordering and counts are wall-clock-dependent; the seq linkage
/// is not.
#[test]
fn lossy_proxied_transfer_traces_retransmits() {
    let mut pair = LivePair::impaired(ImpairConfig {
        seed: 7,
        drop_per_mille: 30, // 3% loss
        reorder_per_mille: 20,
        hold_at_most: Duration::from_millis(15),
    });
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
