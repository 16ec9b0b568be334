//! QPIP ↔ socket interoperability on one fabric (§3), with both cost
//! models live: "Communication can occur between QPIP applications or
//! QPIP and traditional (socket) systems."

use qpip::mixed::MixedWorld;
use qpip::{CompletionKind, NicConfig, RecvWr, SendWr, ServiceType};
use qpip_fabric::FabricConfig;
use qpip_host::cpu::WorkClass;
use qpip_host::stack::StackConfig;
use qpip_netstack::types::Endpoint;

/// A Myrinet fabric carrying both node kinds at the GM MTU.
fn world() -> MixedWorld {
    MixedWorld::new(FabricConfig::myrinet_gm())
}

fn gm_host() -> StackConfig {
    StackConfig::gm_myrinet()
}

fn qpip_nic() -> NicConfig {
    NicConfig { mtu: 9000, ..NicConfig::paper_default() }
}

#[test]
fn socket_client_connects_to_qpip_server() {
    let mut w = world();
    let q = w.add_qpip_node(qpip_nic());
    let h = w.add_host_node(gm_host());

    // QPIP server: QP + receive buffers + monitored port
    let cq = w.create_cq(q);
    let qp = w.create_qp(q, ServiceType::ReliableTcp, cq, cq).unwrap();
    for i in 0..8 {
        w.post_recv(q, qp, RecvWr { wr_id: i, capacity: 8 * 1024 }).unwrap();
    }
    w.tcp_listen(q, 5000, qp).unwrap();

    // socket client: an entirely conventional connect + write
    let cs = w.tcp_socket(h);
    let remote = Endpoint::new(w.addr(q), 5000);
    w.connect_blocking(h, cs, 4000, remote).unwrap();
    let c = w.wait_matching(q, cq, |c| c.kind == CompletionKind::ConnectionEstablished);
    assert_eq!(c.status, qpip::CompletionStatus::Success);

    w.send_blocking(h, cs, b"from a plain socket".to_vec()).unwrap();
    let c = w.wait_matching(q, cq, |c| matches!(c.kind, CompletionKind::Recv { .. }));
    let CompletionKind::Recv { data, .. } = c.kind else { unreachable!() };
    // the socket side streamed; here the write was small enough to
    // arrive as one unit in one posted buffer
    assert_eq!(data, b"from a plain socket");
}

#[test]
fn qpip_client_talks_to_socket_server_and_back() {
    let mut w = world();
    let h = w.add_host_node(gm_host());
    let q = w.add_qpip_node(qpip_nic());

    let ls = w.tcp_socket(h);
    w.listen(h, ls, 80).unwrap();

    let cq = w.create_cq(q);
    let qp = w.create_qp(q, ServiceType::ReliableTcp, cq, cq).unwrap();
    for i in 0..8 {
        w.post_recv(q, qp, RecvWr { wr_id: i, capacity: 8 * 1024 }).unwrap();
    }
    let remote = Endpoint::new(w.addr(h), 80);
    w.tcp_connect(q, qp, 7000, remote).unwrap();
    let ss = w.accept_blocking(h, ls);
    w.wait_matching(q, cq, |c| c.kind == CompletionKind::ConnectionEstablished);

    // QP → socket: two messages become one byte stream at the server
    w.post_send(q, qp, SendWr { wr_id: 1, payload: b"hello ".to_vec(), dst: None }).unwrap();
    w.post_send(q, qp, SendWr { wr_id: 2, payload: b"socket".to_vec(), dst: None }).unwrap();
    let got = w.recv_exact(h, ss, 12);
    assert_eq!(got, b"hello socket", "the remote end sees a conventional stream (§3)");

    // socket → QP: the reply surfaces as a receive completion
    w.send_blocking(h, ss, b"and hello queue pair".to_vec()).unwrap();
    let c = w.wait_matching(q, cq, |c| matches!(c.kind, CompletionKind::Recv { .. }));
    let CompletionKind::Recv { data, .. } = c.kind else { unreachable!() };
    assert_eq!(data, b"and hello queue pair");
}

#[test]
fn cost_models_differ_across_the_same_wire() {
    let mut w = world();
    let h = w.add_host_node(gm_host());
    let q = w.add_qpip_node(qpip_nic());
    let ls = w.tcp_socket(h);
    w.listen(h, ls, 80).unwrap();
    let cq = w.create_cq(q);
    let qp = w.create_qp(q, ServiceType::ReliableTcp, cq, cq).unwrap();
    for i in 0..32 {
        w.post_recv(q, qp, RecvWr { wr_id: i, capacity: 8 * 1024 }).unwrap();
    }
    w.tcp_connect(q, qp, 7000, Endpoint::new(w.addr(h), 80)).unwrap();
    let ss = w.accept_blocking(h, ls);
    w.wait_matching(q, cq, |c| c.kind == CompletionKind::ConnectionEstablished);

    // socket host streams 128 KB to the QPIP node (inside the posted
    // 32-buffer window: a single blocking write cannot deadlock against
    // the receiver's buffer posting)
    let total = 128 * 1024;
    w.send_blocking(h, ss, vec![0x7e; total]).unwrap();
    let mut got = 0usize;
    while got < total {
        let c = w.wait_matching(q, cq, |c| matches!(c.kind, CompletionKind::Recv { .. }));
        let CompletionKind::Recv { data, .. } = c.kind else { unreachable!() };
        assert!(data.iter().all(|&b| b == 0x7e));
        got += data.len();
    }
    assert_eq!(got, total);
    // the socket host ran the stack on its CPU and took interrupts…
    let host = w.cpu(h);
    assert!(host.cycles(WorkClass::Protocol) > 0, "socket host charged no protocol cycles");
    assert!(host.cycles(WorkClass::Interrupt) > 0, "socket host charged no interrupt cycles");
    // …while the QPIP node's host only made verbs calls
    let qpip = w.cpu(q);
    assert_eq!(qpip.cycles(WorkClass::Protocol), 0, "QPIP host ran protocol code");
    assert_eq!(qpip.cycles(WorkClass::Interrupt), 0, "QPIP host took interrupts");
    assert!(qpip.cycles(WorkClass::Verbs) > 0, "QPIP host made no verbs calls");
}
