//! A lossless many-to-one incast: 1,024 clients each fan a burst of
//! four 1 KB messages into one QPIP server NIC, after every handshake
//! has completed. The server's queue holds segments past the clients'
//! 10 ms RTO floor, so clients time out although nothing is lost. Each
//! such timeout must be judged spurious (Eifel detection, RFC 3522) and
//! undone (RFC 4015): no client sends again what the server NIC already
//! holds, and every message arrives exactly once.

use qpip::world::QpipWorld;
use qpip::{CompletionKind, NicConfig, RecvWr, SendWr, ServiceType};
use qpip_fabric::FabricConfig;
use qpip_netstack::types::Endpoint;

const FLOWS: usize = 1024;
const BURST: usize = 4;
const MESSAGE: usize = 1024;
const PORT: u16 = 5000;

/// The fleet's `[rto_episodes, spurious_rtos, gobackn_resends]`.
fn rto_counts(w: &QpipWorld) -> [u64; 3] {
    let snaps = w.counter_snapshots();
    let engine = snaps.iter().find(|s| s.scope() == "engine").expect("engine scope");
    ["rto_episodes", "spurious_rtos", "gobackn_resends"].map(|name| engine.get(name).expect(name))
}

/// A message that names its flow and index in its first 8 bytes.
fn message(flow: usize, msg: usize) -> Vec<u8> {
    let mut m = vec![(flow ^ msg) as u8; MESSAGE];
    m[..4].copy_from_slice(&(flow as u32).to_be_bytes());
    m[4..8].copy_from_slice(&(msg as u32).to_be_bytes());
    m
}

#[test]
fn lossless_incast_timeouts_are_spurious_and_undone() {
    let nic = NicConfig::paper_default();
    let mut w = QpipWorld::new(FabricConfig { mtu: nic.mtu, ..FabricConfig::myrinet() });
    let server = w.add_node(nic.clone());
    let cq_s = w.create_cq(server);
    for i in 0..FLOWS {
        let qp = w.create_qp(server, ServiceType::ReliableTcp, cq_s, cq_s).unwrap();
        for j in 0..BURST {
            let wr = RecvWr { wr_id: (i * BURST + j) as u64, capacity: MESSAGE };
            w.post_recv(server, qp, wr).unwrap();
        }
        w.tcp_listen(server, PORT, qp).unwrap();
    }
    let remote = Endpoint::new(w.addr(server), PORT);
    let mut clients = Vec::with_capacity(FLOWS);
    for _ in 0..FLOWS {
        let node = w.add_node(nic.clone());
        let cq = w.create_cq(node);
        let qp = w.create_qp(node, ServiceType::ReliableTcp, cq, cq).unwrap();
        w.tcp_connect(node, qp, 4000, remote).unwrap();
        clients.push((node, cq, qp));
    }
    while w.step() {}
    for &(node, cq, _) in &clients {
        let est = w.try_wait(node, cq).map(|c| c.kind);
        assert_eq!(est, Some(CompletionKind::ConnectionEstablished));
    }
    let before = rto_counts(&w);

    for (flow, &(node, _, qp)) in clients.iter().enumerate() {
        for m in 0..BURST {
            let wr = SendWr { wr_id: m as u64, payload: message(flow, m), dst: None };
            w.post_send(node, qp, wr).unwrap();
        }
    }
    while w.step() {}

    let mut next = vec![0usize; FLOWS];
    while let Some(c) = w.try_wait(server, cq_s) {
        let CompletionKind::Recv { data, .. } = c.kind else { continue };
        let flow = u32::from_be_bytes(data[..4].try_into().unwrap()) as usize;
        let msg = u32::from_be_bytes(data[4..8].try_into().unwrap()) as usize;
        assert_eq!(msg, next[flow], "flow {flow}: message out of order or repeated");
        assert_eq!(data, message(flow, msg), "flow {flow} message {msg}");
        next[flow] += 1;
    }
    assert!(next.iter().all(|&n| n == BURST), "a message was lost");

    let after = rto_counts(&w);
    let [episodes, spurious, resends] = [0, 1, 2].map(|i| after[i] - before[i]);
    assert!(episodes > 0, "the incast timed out no client: nothing was tested");
    assert_eq!(spurious, episodes, "a timeout was not spurious");
    assert_eq!(resends, 0, "a client went back N");
}
