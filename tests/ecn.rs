//! Full-system ECN/RED: §5.2 — "Inter-network protocols do not bar the
//! use of intelligence in the SAN fabric that can improve performance …
//! network-based mechanisms such as RED or ECN."
//!
//! Two QPIP senders blast one receiver through a single switch output
//! port. With RED/ECN in the switch and ECN-negotiating firmware, the
//! queue buildup is signaled by marks instead of loss: the senders'
//! windows come down, everything is delivered, and not a single segment
//! is retransmitted.

use qpip::world::QpipWorld;
use qpip::{CompletionKind, NicConfig, NodeIdx, RecvWr, SendWr, ServiceType};
use qpip_fabric::FabricConfig;
use qpip_netstack::tcp::TcpCounters;
use qpip_netstack::types::Endpoint;
use qpip_sim::time::SimDuration;

struct Incast {
    w: QpipWorld,
    senders: Vec<(NodeIdx, qpip::QpId, qpip::CqId)>,
    sink: NodeIdx,
    sink_cq: qpip::CqId,
    sink_qps: Vec<qpip::QpId>,
}

/// Builds a 2-senders → 1-receiver incast over Myrinet, with optional
/// RED/ECN marking at the switch.
fn incast(ecn: bool, mark_threshold: Option<SimDuration>) -> Incast {
    let fabric = FabricConfig { ecn_mark_threshold: mark_threshold, ..FabricConfig::myrinet() };
    let mut w = QpipWorld::new(fabric);
    let nic = NicConfig { ecn, ..NicConfig::paper_default() };
    let sink = w.add_node(nic.clone());
    let s1 = w.add_node(nic.clone());
    let s2 = w.add_node(nic.clone());
    let sink_cq = w.create_cq(sink);
    let mut sink_qps = Vec::new();
    for _ in 0..2 {
        let qp = w.create_qp(sink, ServiceType::ReliableTcp, sink_cq, sink_cq).unwrap();
        for i in 0..64 {
            w.post_recv(sink, qp, RecvWr { wr_id: i, capacity: 16 * 1024 }).unwrap();
        }
        w.tcp_listen(sink, 5000, qp).unwrap();
        sink_qps.push(qp);
    }
    let dst = Endpoint::new(w.addr(sink), 5000);
    let mut senders = Vec::new();
    for (i, n) in [s1, s2].into_iter().enumerate() {
        let cq = w.create_cq(n);
        let qp = w.create_qp(n, ServiceType::ReliableTcp, cq, cq).unwrap();
        w.tcp_connect(n, qp, 4000 + i as u16, dst).unwrap();
        w.wait_matching(n, cq, |c| c.kind == CompletionKind::ConnectionEstablished);
        senders.push((n, qp, cq));
    }
    Incast { w, senders, sink, sink_cq, sink_qps }
}

/// Drives `messages` × 16 KB from each sender; returns total messages
/// delivered at the sink.
fn drive(rig: &mut Incast, messages: u64) -> u64 {
    let size = 16 * 1024 - 72;
    let mut posted = vec![0u64; rig.senders.len()];
    let mut done = vec![0u64; rig.senders.len()];
    let window = 8u64;
    let mut delivered = 0u64;
    let total = messages * rig.senders.len() as u64;
    let mut recv_seq = 1000u64;
    while delivered < total {
        for (i, (n, qp, cq)) in rig.senders.iter().enumerate() {
            while posted[i] < messages && posted[i] - done[i] < window {
                rig.w
                    .post_send(
                        *n,
                        *qp,
                        SendWr { wr_id: posted[i], payload: vec![i as u8; size], dst: None },
                    )
                    .unwrap();
                posted[i] += 1;
            }
            while let Some(c) = rig.w.try_wait(*n, *cq) {
                if c.kind == CompletionKind::Send {
                    done[i] += 1;
                }
            }
        }
        let c = rig.w.wait(rig.sink, rig.sink_cq);
        if matches!(c.kind, CompletionKind::Recv { .. }) {
            delivered += 1;
            recv_seq += 1;
            // recycle a buffer on the QP that completed
            rig.w
                .post_recv(rig.sink, c.qp, RecvWr { wr_id: recv_seq, capacity: 16 * 1024 })
                .unwrap();
            let _ = rig.sink_qps.len();
        }
    }
    delivered
}

/// The senders' TCP counters, summed.
fn senders_tcp(rig: &Incast) -> TcpCounters {
    let mut sum = TcpCounters::default();
    for (n, _, _) in &rig.senders {
        sum += rig.w.nic(*n).engine_stats().tcp;
    }
    sum
}

#[test]
fn incast_with_ecn_signals_congestion_without_loss() {
    let mut rig = incast(true, Some(SimDuration::from_micros(150)));
    let delivered = drive(&mut rig, 40);
    assert_eq!(delivered, 80, "every message arrived");
    assert!(rig.w.fabric().stats().ecn_marks > 0, "the switch marked packets");
    let tcp = senders_tcp(&rig);
    assert!(tcp.ecn_reductions >= 1, "senders reduced their windows");
    assert_eq!(tcp.retransmissions(), 0, "congestion handled without a single retransmission");
}

#[test]
fn incast_without_ecn_never_marks_or_reduces() {
    let mut rig = incast(false, Some(SimDuration::from_micros(150)));
    let delivered = drive(&mut rig, 20);
    assert_eq!(delivered, 40);
    // the switch marks only ECN-capable packets; none were ECT
    assert_eq!(senders_tcp(&rig).ecn_reductions, 0);
}

#[test]
fn marking_disabled_means_no_marks_even_with_ecn_endpoints() {
    let mut rig = incast(true, None);
    let delivered = drive(&mut rig, 20);
    assert_eq!(delivered, 40);
    assert_eq!(rig.w.fabric().stats().ecn_marks, 0);
}
