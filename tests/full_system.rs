//! Whole-system integration tests: QPIP node pairs over the simulated
//! SAN, exercised through the public verbs API exactly as the examples
//! and experiment harnesses use it.

use qpip::world::QpipWorld;
use qpip::{
    ChecksumMode, CompletionKind, CompletionStatus, NicConfig, NodeIdx, RecvWr, SendWr, ServiceType,
};
use qpip_fabric::FaultPlan;
use qpip_netstack::types::Endpoint;

struct Pair {
    w: QpipWorld,
    a: NodeIdx,
    b: NodeIdx,
    qa: qpip::QpId,
    qb: qpip::QpId,
    cqa: qpip::CqId,
    cqb: qpip::CqId,
}

fn connected(cfg: NicConfig) -> Pair {
    let mut w = QpipWorld::myrinet();
    let a = w.add_node(cfg.clone());
    let b = w.add_node(cfg);
    let cqa = w.create_cq(a);
    let cqb = w.create_cq(b);
    let qa = w.create_qp(a, ServiceType::ReliableTcp, cqa, cqa).unwrap();
    let qb = w.create_qp(b, ServiceType::ReliableTcp, cqb, cqb).unwrap();
    for i in 0..16 {
        w.post_recv(a, qa, RecvWr { wr_id: i, capacity: 16 * 1024 }).unwrap();
        w.post_recv(b, qb, RecvWr { wr_id: i, capacity: 16 * 1024 }).unwrap();
    }
    w.tcp_listen(b, 5000, qb).unwrap();
    let dst = Endpoint::new(w.addr(b), 5000);
    w.tcp_connect(a, qa, 4000, dst).unwrap();
    w.wait_matching(a, cqa, |c| c.kind == CompletionKind::ConnectionEstablished);
    w.wait_matching(b, cqb, |c| c.kind == CompletionKind::ConnectionEstablished);
    Pair { w, a, b, qa, qb, cqa, cqb }
}

#[test]
fn bidirectional_traffic_on_one_queue_pair() {
    let mut p = connected(NicConfig::paper_default());
    for round in 0..10u64 {
        p.w.post_recv(p.b, p.qb, RecvWr { wr_id: 100 + round, capacity: 16 * 1024 }).unwrap();
        p.w.post_recv(p.a, p.qa, RecvWr { wr_id: 100 + round, capacity: 16 * 1024 }).unwrap();
        p.w.post_send(p.a, p.qa, SendWr { wr_id: round, payload: vec![1; 2048], dst: None })
            .unwrap();
        let c = p.w.wait_matching(p.b, p.cqb, |c| matches!(c.kind, CompletionKind::Recv { .. }));
        assert!(matches!(c.kind, CompletionKind::Recv { ref data, .. } if data.len() == 2048));
        p.w.post_send(p.b, p.qb, SendWr { wr_id: round, payload: vec![2; 1024], dst: None })
            .unwrap();
        let c = p.w.wait_matching(p.a, p.cqa, |c| matches!(c.kind, CompletionKind::Recv { .. }));
        assert!(matches!(c.kind, CompletionKind::Recv { ref data, .. } if data.len() == 1024));
    }
    assert_eq!(p.w.nic(p.a).retransmissions(), 0);
    assert_eq!(p.w.nic(p.b).retransmissions(), 0);
}

#[test]
fn data_integrity_end_to_end_across_the_san() {
    let mut p = connected(NicConfig::paper_default());
    // distinct per-message patterns survive DMA, wire, checksum, delivery
    for i in 0..20u64 {
        let len = 1 + (i as usize * 761) % 16_000;
        let payload: Vec<u8> = (0..len).map(|j| ((i as usize * 31 + j * 7) % 256) as u8).collect();
        p.w.post_recv(p.b, p.qb, RecvWr { wr_id: 200 + i, capacity: 16 * 1024 }).unwrap();
        p.w.post_send(p.a, p.qa, SendWr { wr_id: i, payload: payload.clone(), dst: None }).unwrap();
        let c = p.w.wait_matching(p.b, p.cqb, |c| matches!(c.kind, CompletionKind::Recv { .. }));
        match c.kind {
            CompletionKind::Recv { data, .. } => assert_eq!(data, payload, "message {i}"),
            _ => unreachable!(),
        }
    }
}

#[test]
fn firmware_checksum_configuration_works_end_to_end() {
    let mut p = connected(NicConfig::firmware_checksum());
    p.w.post_send(p.a, p.qa, SendWr { wr_id: 1, payload: vec![9; 8192], dst: None }).unwrap();
    let c = p.w.wait_matching(p.b, p.cqb, |c| matches!(c.kind, CompletionKind::Recv { .. }));
    assert!(matches!(c.kind, CompletionKind::Recv { ref data, .. } if data.len() == 8192));
}

#[test]
fn heavy_loss_does_not_break_reliability_or_ordering() {
    let mut p = connected(NicConfig::paper_default());
    p.w.set_fault_plan(FaultPlan::DropRandom { permille: 100, seed: 99 }); // 10%
    let mut received = Vec::new();
    for i in 0..40u64 {
        p.w.post_recv(p.b, p.qb, RecvWr { wr_id: 300 + i, capacity: 16 * 1024 }).unwrap();
        p.w.post_send(p.a, p.qa, SendWr { wr_id: i, payload: vec![i as u8; 512], dst: None })
            .unwrap();
        let c = p.w.wait_matching(p.b, p.cqb, |c| matches!(c.kind, CompletionKind::Recv { .. }));
        if let CompletionKind::Recv { data, .. } = c.kind {
            received.push(data[0]);
        }
    }
    assert_eq!(received, (0..40).map(|i| i as u8).collect::<Vec<_>>(), "in order");
    assert!(p.w.fabric().injected_drops() > 0, "loss actually happened");
    assert!(p.w.nic(p.a).retransmissions() > 0);
}

#[test]
fn all_completions_report_success_statuses() {
    let mut p = connected(NicConfig::paper_default());
    for i in 0..5u64 {
        p.w.post_recv(p.b, p.qb, RecvWr { wr_id: 400 + i, capacity: 16 * 1024 }).unwrap();
        p.w.post_send(p.a, p.qa, SendWr { wr_id: i, payload: vec![0; 100], dst: None }).unwrap();
        let c = p.w.wait_matching(p.b, p.cqb, |c| matches!(c.kind, CompletionKind::Recv { .. }));
        assert_eq!(c.status, CompletionStatus::Success);
        let c = p.w.wait_matching(p.a, p.cqa, |c| c.kind == CompletionKind::Send);
        assert_eq!(c.status, CompletionStatus::Success);
        assert_eq!(c.wr_id, i);
    }
}

#[test]
fn udp_qps_are_unreliable_but_preserve_datagram_boundaries() {
    let mut w = QpipWorld::myrinet();
    let a = w.add_node(NicConfig::paper_default());
    let b = w.add_node(NicConfig::paper_default());
    let cqa = w.create_cq(a);
    let cqb = w.create_cq(b);
    let qa = w.create_qp(a, ServiceType::UnreliableUdp, cqa, cqa).unwrap();
    let qb = w.create_qp(b, ServiceType::UnreliableUdp, cqb, cqb).unwrap();
    w.udp_bind(a, qa, 9000).unwrap();
    w.udp_bind(b, qb, 9001).unwrap();
    let to_b = Endpoint::new(w.addr(b), 9001);
    // only 2 receive WRs posted but 4 datagrams sent: 2 must be dropped
    for i in 0..2 {
        w.post_recv(b, qb, RecvWr { wr_id: i, capacity: 4096 }).unwrap();
    }
    for i in 0..4u64 {
        w.post_send(
            a,
            qa,
            SendWr { wr_id: i, payload: vec![i as u8; 100 + i as usize], dst: Some(to_b) },
        )
        .unwrap();
        w.wait_matching(a, cqa, |c| c.kind == CompletionKind::Send);
    }
    w.run_until_idle();
    let mut sizes = Vec::new();
    while let Some(c) = w.try_wait(b, cqb) {
        if let CompletionKind::Recv { data, .. } = c.kind {
            sizes.push(data.len());
        }
    }
    assert_eq!(sizes, vec![100, 101], "first two consumed WRs, rest dropped");
    assert_eq!(w.nic(b).stats().udp_no_wr_drops, 2);
}

#[test]
fn three_nodes_share_the_fabric() {
    let mut w = QpipWorld::myrinet();
    let hub = w.add_node(NicConfig::paper_default());
    let n1 = w.add_node(NicConfig::paper_default());
    let n2 = w.add_node(NicConfig::paper_default());
    let cq_hub = w.create_cq(hub);
    // two QPs on the hub, one per peer, both bound to ONE CQ — "the
    // binding of multiple queues to a CQ permits applications to group
    // related QPs into a single monitoring point" (§2.1)
    let q_h1 = w.create_qp(hub, ServiceType::ReliableTcp, cq_hub, cq_hub).unwrap();
    let q_h2 = w.create_qp(hub, ServiceType::ReliableTcp, cq_hub, cq_hub).unwrap();
    for i in 0..8 {
        w.post_recv(hub, q_h1, RecvWr { wr_id: i, capacity: 8192 }).unwrap();
        w.post_recv(hub, q_h2, RecvWr { wr_id: 50 + i, capacity: 8192 }).unwrap();
    }
    w.tcp_listen(hub, 5000, q_h1).unwrap();
    w.tcp_listen(hub, 5000, q_h2).unwrap(); // second idle QP in the pool
    let dst = Endpoint::new(w.addr(hub), 5000);
    for (n, port) in [(n1, 4001u16), (n2, 4002u16)] {
        let cq = w.create_cq(n);
        let q = w.create_qp(n, ServiceType::ReliableTcp, cq, cq).unwrap();
        w.post_recv(n, q, RecvWr { wr_id: 1, capacity: 8192 }).unwrap();
        w.tcp_connect(n, q, port, dst).unwrap();
        w.wait_matching(n, cq, |c| c.kind == CompletionKind::ConnectionEstablished);
        w.post_send(n, q, SendWr { wr_id: 9, payload: vec![port as u8; 256], dst: None }).unwrap();
    }
    // the hub drains both peers' messages from the single CQ
    let mut got = Vec::new();
    for _ in 0..20 {
        let c = w.wait(hub, cq_hub);
        if let CompletionKind::Recv { data, .. } = c.kind {
            got.push(data[0]);
            if got.len() == 2 {
                break;
            }
        }
    }
    got.sort_unstable();
    assert_eq!(got, vec![4001u16 as u8, 4002u16 as u8]);
}

#[test]
fn deterministic_replay_bit_for_bit() {
    let run = || {
        let mut p = connected(NicConfig::paper_default());
        for i in 0..8u64 {
            p.w.post_recv(p.b, p.qb, RecvWr { wr_id: 500 + i, capacity: 16 * 1024 }).unwrap();
            p.w.post_send(p.a, p.qa, SendWr { wr_id: i, payload: vec![3; 1000], dst: None })
                .unwrap();
            p.w.wait_matching(p.b, p.cqb, |c| matches!(c.kind, CompletionKind::Recv { .. }));
        }
        (p.w.now(), p.w.fabric().stats().delivered, p.w.cpu(p.a).total_cycles())
    };
    assert_eq!(run(), run(), "simulation is fully deterministic");
}

#[test]
fn checksum_modes_interoperate() {
    // one node with hardware checksum, one with firmware: the wire
    // format is identical, only the cycle cost differs
    let mut w = QpipWorld::myrinet();
    let a = w.add_node(NicConfig::paper_default());
    let b =
        w.add_node(NicConfig { checksum: ChecksumMode::Firmware, ..NicConfig::paper_default() });
    let cqa = w.create_cq(a);
    let cqb = w.create_cq(b);
    let qa = w.create_qp(a, ServiceType::ReliableTcp, cqa, cqa).unwrap();
    let qb = w.create_qp(b, ServiceType::ReliableTcp, cqb, cqb).unwrap();
    for i in 0..4 {
        w.post_recv(b, qb, RecvWr { wr_id: i, capacity: 16 * 1024 }).unwrap();
    }
    w.tcp_listen(b, 5000, qb).unwrap();
    let dst = Endpoint::new(w.addr(b), 5000);
    w.tcp_connect(a, qa, 4000, dst).unwrap();
    w.wait_matching(a, cqa, |c| c.kind == CompletionKind::ConnectionEstablished);
    w.post_send(a, qa, SendWr { wr_id: 1, payload: vec![0xee; 4000], dst: None }).unwrap();
    let c = w.wait_matching(b, cqb, |c| matches!(c.kind, CompletionKind::Recv { .. }));
    assert!(matches!(c.kind, CompletionKind::Recv { ref data, .. } if data.len() == 4000));
}

#[test]
fn multi_switch_san_adds_hop_latency_but_works_identically() {
    // same workload on a 1-switch and a 4-switch SAN (endpoints at the
    // chain's far ends): everything still delivers; RTT grows by the
    // extra cut-through hop latency only
    let rtt_of = |switches: usize| {
        let mut w =
            if switches == 1 { QpipWorld::myrinet() } else { QpipWorld::myrinet_chain(switches) };
        let a = w.add_node_at(NicConfig::paper_default(), 0);
        let b = w.add_node_at(NicConfig::paper_default(), switches - 1);
        let cqa = w.create_cq(a);
        let cqb = w.create_cq(b);
        let qa = w.create_qp(a, ServiceType::ReliableTcp, cqa, cqa).unwrap();
        let qb = w.create_qp(b, ServiceType::ReliableTcp, cqb, cqb).unwrap();
        for i in 0..8 {
            w.post_recv(a, qa, RecvWr { wr_id: i, capacity: 16 * 1024 }).unwrap();
            w.post_recv(b, qb, RecvWr { wr_id: i, capacity: 16 * 1024 }).unwrap();
        }
        w.tcp_listen(b, 5000, qb).unwrap();
        let dst = Endpoint::new(w.addr(b), 5000);
        w.tcp_connect(a, qa, 4000, dst).unwrap();
        w.wait_matching(a, cqa, |c| c.kind == CompletionKind::ConnectionEstablished);
        w.wait_matching(b, cqb, |c| c.kind == CompletionKind::ConnectionEstablished);
        let t0 = w.app_time(a);
        w.post_send(a, qa, SendWr { wr_id: 1, payload: vec![1], dst: None }).unwrap();
        w.wait_matching(b, cqb, |c| matches!(c.kind, CompletionKind::Recv { .. }));
        w.post_send(b, qb, SendWr { wr_id: 2, payload: vec![1], dst: None }).unwrap();
        w.wait_matching(a, cqa, |c| matches!(c.kind, CompletionKind::Recv { .. }));
        w.app_time(a).duration_since(t0).as_micros_f64()
    };
    let one = rtt_of(1);
    let four = rtt_of(4);
    assert!(four > one, "{four} vs {one}");
    // 3 extra hops each way at 0.4 µs per hop = +2.4 µs RTT; allow slack
    let delta = four - one;
    assert!((1.5..5.0).contains(&delta), "hop latency delta {delta} µs");
}

#[test]
fn reset_flushes_in_flight_send_wrs_with_connection_error() {
    // sender's data never arrives (dropped); the peer's RST (from a
    // local abort we provoke via protection-error-free path: use fabric
    // loss + retry exhaustion would be slow, so abort from the peer by
    // letting the peer's NIC answer a bad-rkey RDMA — instead simplest:
    // drop all data and watch retry exhaustion flush the WR)
    let mut p = connected(NicConfig::paper_default());
    // every subsequent packet is lost: retries exhaust and the conn resets
    p.w.set_fault_plan(FaultPlan::DropEveryNth(1));
    p.w.post_send(p.a, p.qa, SendWr { wr_id: 77, payload: vec![1; 256], dst: None }).unwrap();
    // drive timers until the reset completions land
    let mut flushed = None;
    let mut disconnected = false;
    for _ in 0..200 {
        let Some(c) = p.w.try_wait(p.a, p.cqa) else {
            if !p.w.step() {
                break;
            }
            continue;
        };
        match c.kind {
            CompletionKind::Send => {
                assert_eq!(c.status, CompletionStatus::ConnectionError);
                assert_eq!(c.wr_id, 77);
                flushed = Some(c);
            }
            CompletionKind::PeerDisconnected => disconnected = true,
            _ => {}
        }
        if flushed.is_some() && disconnected {
            break;
        }
    }
    assert!(disconnected, "reset surfaced");
    assert!(flushed.is_some(), "in-flight WR flushed with ConnectionError");
}

#[test]
fn occupancy_media_counts_conserve_with_nic_packet_counters() {
    use qpip_fabric::FabricConfig;
    use qpip_nic::{PacketClass, Stage};

    // 8 KB messages over a 1,500-byte wire: data moves as IPv6
    // fragments, handshakes and ACKs as whole packets
    let cfg = NicConfig::fragmented(1500);
    let mut w = QpipWorld::new(FabricConfig { mtu: 1500, ..FabricConfig::myrinet() });
    let server = w.add_node(cfg.clone());
    let cq_s = w.create_cq(server);
    let flows = 4;
    for i in 0..flows {
        let qp = w.create_qp(server, ServiceType::ReliableTcp, cq_s, cq_s).unwrap();
        for j in 0..3 {
            w.post_recv(server, qp, RecvWr { wr_id: i * 3 + j, capacity: 8192 }).unwrap();
        }
        w.tcp_listen(server, 5000, qp).unwrap();
    }
    let remote = Endpoint::new(w.addr(server), 5000);
    let mut clients = Vec::new();
    for _ in 0..flows {
        let node = w.add_node(cfg.clone());
        let cq = w.create_cq(node);
        let qp = w.create_qp(node, ServiceType::ReliableTcp, cq, cq).unwrap();
        w.tcp_connect(node, qp, 4000, remote).unwrap();
        clients.push((node, qp));
    }
    for &(node, qp) in &clients {
        for m in 0..3 {
            w.post_send(node, qp, SendWr { wr_id: m, payload: vec![m as u8; 8192], dst: None })
                .unwrap();
        }
    }
    w.run_until_idle();
    let mut received = 0;
    while let Some(c) = w.try_wait(server, cq_s) {
        if let CompletionKind::Recv { data, .. } = c.kind {
            assert_eq!(data.len(), 8192);
            received += 1;
        }
    }
    assert_eq!(received, flows * 3);

    // a stage's executions summed over every packet class
    let media = |node: NodeIdx, stage: Stage| -> u64 {
        let cells = w.nic(node).occupancy().cells();
        cells.iter().filter(|((s, _), _, _)| *s == stage).map(|&(_, _, n)| n as u64).sum()
    };
    let server_occ = w.nic(server).occupancy();
    assert!(server_occ.count(Stage::MediaRcv, PacketClass::DataRecv) > 0, "no fragments arrived");
    assert!(
        server_occ.count(Stage::MediaRcv, PacketClass::Control) > 0,
        "no whole packets arrived"
    );
    for node in std::iter::once(server).chain(clients.iter().map(|&(n, _)| n)) {
        let stats = w.nic(node).stats();
        assert_eq!(media(node, Stage::MediaRcv), stats.rx_packets, "node {node:?} receive");
        assert_eq!(media(node, Stage::MediaXmt), stats.tx_packets, "node {node:?} transmit");
    }
    // the fragmented data really was split on the wire
    assert!(w.nic(server).stats().rx_packets > flows * 3 * 6);
}
