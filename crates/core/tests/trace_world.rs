//! Flight recorder against a lossy DES world: seeded fabric loss must
//! show up in the trace as retransmit events whose sequence numbers
//! match actually-retransmitted segments, and the `qpip-trace` summary
//! rollup must agree exactly with the engine's own counters — the
//! recorder and `EngineStats` are two views of one history.

use std::sync::Arc;

use qpip::world::QpipWorld;
use qpip::{CompletionKind, NicConfig, RecvWr, SendWr, ServiceType};
use qpip_fabric::FaultPlan;
use qpip_netstack::types::Endpoint;
use qpip_trace::export::summarize;
use qpip_trace::{FlightRecorder, TraceEvent};

const MESSAGES: usize = 64;
const MESSAGE_LEN: usize = 2048;

/// One client streaming into one server through a fabric dropping 2%
/// of packets from a seeded stream, with a recorder installed.
fn lossy_traced_world() -> (QpipWorld, Arc<FlightRecorder>) {
    let nic = NicConfig::paper_default();
    let mut w = QpipWorld::myrinet();
    let rec = Arc::new(FlightRecorder::new(8192));
    w.install_recorder(Arc::clone(&rec));
    w.set_fault_plan(FaultPlan::DropRandom { permille: 20, seed: 0xfeed_beef });

    let server = w.add_node(nic.clone());
    let cq_s = w.create_cq(server);
    let qp_s = w.create_qp(server, ServiceType::ReliableTcp, cq_s, cq_s).unwrap();
    for i in 0..MESSAGES {
        w.post_recv(server, qp_s, RecvWr { wr_id: i as u64, capacity: MESSAGE_LEN }).unwrap();
    }
    w.tcp_listen(server, 5000, qp_s).unwrap();

    let client = w.add_node(nic);
    let cq_c = w.create_cq(client);
    let qp_c = w.create_qp(client, ServiceType::ReliableTcp, cq_c, cq_c).unwrap();
    w.tcp_connect(client, qp_c, 4000, Endpoint::new(w.addr(server), 5000)).unwrap();
    w.wait_matching(client, cq_c, |c| c.kind == CompletionKind::ConnectionEstablished);

    for m in 0..MESSAGES {
        w.post_send(
            client,
            qp_c,
            SendWr { wr_id: m as u64, payload: vec![0xd7; MESSAGE_LEN], dst: None },
        )
        .unwrap();
    }
    let mut got = 0usize;
    while got < MESSAGES {
        if let CompletionKind::Recv { .. } = w.wait(server, cq_s).kind {
            got += 1;
        }
    }
    (w, rec)
}

#[test]
fn lossy_transfer_traces_retransmits_with_matching_seq() {
    let (w, rec) = lossy_traced_world();
    let events = rec.events();

    // no ring overwrote, so every count below is exact
    for (node, conn) in rec.scopes() {
        assert_eq!(rec.overwritten(node, conn), 0, "ring ({node},{conn}) overwrote");
    }

    // 2% loss over ~100+ data packets must force at least one
    // retransmission, and each retransmit event's seq must name a
    // segment the same connection actually re-sent on the wire
    let retransmits: Vec<_> =
        events.iter().filter(|r| matches!(r.ev, TraceEvent::Retransmit { .. })).collect();
    assert!(!retransmits.is_empty(), "lossy run traced no retransmit events");
    for r in &retransmits {
        let TraceEvent::Retransmit { seq, .. } = r.ev else { unreachable!() };
        let matched = events.iter().any(|e| {
            e.node == r.node
                && e.conn == r.conn
                && matches!(e.ev,
                    TraceEvent::SegTx { seq: s, retransmit: true, .. } if s == seq)
        });
        assert!(matched, "retransmit seq {seq} has no matching retransmitted SegTx");
    }

    // the fabric attributed every injected drop to a node-scoped event
    let injected = w.fabric().stats().snapshot().get("injected_drops").unwrap();
    let traced_drops = events
        .iter()
        .filter(|r| matches!(r.ev, TraceEvent::FabricDrop { reason: "injected", .. }))
        .count() as u64;
    assert!(injected > 0, "fault plan never fired");
    assert_eq!(traced_drops, injected, "fabric drop events vs injected_drops counter");
}

#[test]
fn trace_summary_matches_engine_counters_exactly() {
    let (w, rec) = lossy_traced_world();
    for (node, conn) in rec.scopes() {
        assert_eq!(rec.overwritten(node, conn), 0, "ring ({node},{conn}) overwrote");
    }

    // the per-connection summaries the CLI prints, summed per node, use
    // the engine's counter names, so each field is compared by name
    let summaries = summarize(&rec.events());
    for node in 0..2u32 {
        let tcp = w.engine_stats(qpip::world::NodeIdx(node as usize)).tcp;
        let conns = summaries.iter().filter(|s| s.node == node);
        macro_rules! same_totals {
            ($($field:ident),*) => {$(
                let traced: u64 = conns.clone().map(|s| s.$field).sum();
                assert_eq!(traced, tcp.$field, "node {node} {}", stringify!($field));
            )*};
        }
        same_totals!(rto_retransmits, fast_retransmits, dupacks_rx, zero_window_events);
    }
}
