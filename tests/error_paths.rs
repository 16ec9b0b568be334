//! Error paths the paper's API sketch leaves implicit: what happens
//! when ports collide, when handles are stale, and when a reaped
//! connection's slot is reused. Covered across all three worlds —
//! QPIP, baseline sockets, and mixed — plus the engine-level
//! generation check that makes stale [`ConnId`]s safe to hold.

use std::net::Ipv6Addr;

use qpip::baseline::SocketWorld;
use qpip::mixed::MixedWorld;
use qpip::world::QpipWorld;
use qpip::{CompletionKind, CqId, NicConfig, NicError, QpId, RecvWr, SendWr, ServiceType};
use qpip_fabric::FabricConfig;
use qpip_host::stack::StackConfig;
use qpip_host::SockError;
use qpip_netstack::engine::{Engine, EngineError};
use qpip_netstack::types::{Endpoint, NetConfig, SendToken};

// ----- QpipWorld ---------------------------------------------------------

#[test]
fn qpip_udp_bind_rejects_port_collisions_and_wrong_service() {
    let mut w = QpipWorld::myrinet();
    let n = w.add_node(NicConfig::paper_default());
    let cq = w.create_cq(n);
    let qp1 = w.create_qp(n, ServiceType::UnreliableUdp, cq, cq).unwrap();
    let qp2 = w.create_qp(n, ServiceType::UnreliableUdp, cq, cq).unwrap();
    let tcp = w.create_qp(n, ServiceType::ReliableTcp, cq, cq).unwrap();

    w.udp_bind(n, qp1, 9000).unwrap();
    // same port again: the engine owns the port namespace and says no
    match w.udp_bind(n, qp2, 9000) {
        Err(NicError::Engine(EngineError::PortInUse(9000))) => {}
        other => panic!("expected PortInUse(9000), got {other:?}"),
    }
    // the failed bind must not have poisoned qp2: a free port still works
    w.udp_bind(n, qp2, 9001).unwrap();
    // service mismatch is a verbs-level error, not an engine error
    assert!(matches!(w.udp_bind(n, tcp, 9002), Err(NicError::InvalidState(_))));
    assert!(matches!(w.tcp_listen(n, 5000, qp1), Err(NicError::InvalidState(_))));
}

#[test]
fn qpip_tcp_listen_collision_joins_the_accept_pool() {
    // §3: an incoming connection is mated to an idle QP from the pool —
    // so a second listen on the same port is not an error, it deepens
    // the pool. This test pins that deliberate asymmetry with udp_bind.
    let mut w = QpipWorld::myrinet();
    let n = w.add_node(NicConfig::paper_default());
    let cq = w.create_cq(n);
    let qp1 = w.create_qp(n, ServiceType::ReliableTcp, cq, cq).unwrap();
    let qp2 = w.create_qp(n, ServiceType::ReliableTcp, cq, cq).unwrap();
    w.tcp_listen(n, 5000, qp1).unwrap();
    w.tcp_listen(n, 5000, qp2).unwrap();
}

#[test]
fn qpip_listen_and_connect_accept_only_an_idle_qp() {
    // A QP is mated to at most one connection and sits in at most one
    // accept pool: a second mating would point two connections at one
    // receive queue.
    let mut w = QpipWorld::myrinet();
    let a = w.add_node(NicConfig::paper_default());
    let b = w.add_node(NicConfig::paper_default());
    let cq_a = w.create_cq(a);
    let cq_b = w.create_cq(b);
    let pooled = w.create_qp(a, ServiceType::ReliableTcp, cq_a, cq_a).unwrap();
    let active = w.create_qp(b, ServiceType::ReliableTcp, cq_b, cq_b).unwrap();
    let (addr_a, addr_b) = (w.addr(a), w.addr(b));
    let refused = |r: Result<(), NicError>| matches!(r, Err(NicError::InvalidState(_)));

    w.tcp_listen(a, 5000, pooled).unwrap();
    // a pooled QP joins no second pool and opens no connection
    assert!(refused(w.tcp_listen(a, 5000, pooled)));
    assert!(refused(w.tcp_listen(a, 5001, pooled)));
    assert!(refused(w.tcp_connect(a, pooled, 4000, Endpoint::new(addr_b, 6000))));
    // a connecting QP joins no pool and opens no second connection
    w.tcp_connect(b, active, 4000, Endpoint::new(addr_a, 5000)).unwrap();
    assert!(refused(w.tcp_listen(b, 5000, active)));
    assert!(refused(w.tcp_connect(b, active, 4001, Endpoint::new(addr_a, 5000))));

    // the refusals left the pool intact: the one connection mates
    w.wait_matching(a, cq_a, |c| c.kind == CompletionKind::ConnectionEstablished);
    w.wait_matching(b, cq_b, |c| c.kind == CompletionKind::ConnectionEstablished);
    // and a mated QP is no more idle than a connecting one
    assert!(refused(w.tcp_listen(a, 5002, pooled)));
    assert!(refused(w.tcp_connect(a, pooled, 4002, Endpoint::new(addr_b, 6000))));
}

#[test]
fn qpip_stale_qp_and_cq_handles_are_rejected() {
    let mut w = QpipWorld::myrinet();
    let a = w.add_node(NicConfig::paper_default());
    let b = w.add_node(NicConfig::paper_default());
    let cq_a = w.create_cq(a);
    let qp_a = w.create_qp(a, ServiceType::ReliableTcp, cq_a, cq_a).unwrap();

    // a QP handle is scoped to its NIC: node b has never created one,
    // so node a's perfectly valid handle is garbage over there
    assert!(matches!(
        w.post_recv(b, qp_a, RecvWr { wr_id: 1, capacity: 1024 }),
        Err(NicError::UnknownQp(_))
    ));
    // never-issued handles fail on every verb that takes a QP
    let bogus = QpId(999);
    assert!(matches!(
        w.post_send(a, bogus, SendWr { wr_id: 1, payload: vec![0], dst: None }),
        Err(NicError::UnknownQp(_))
    ));
    assert!(matches!(w.udp_bind(a, bogus, 9000), Err(NicError::UnknownQp(_))));
    assert!(matches!(w.tcp_listen(a, 5000, bogus), Err(NicError::UnknownQp(_))));
    // CQ handles are issued from 1; 0 and beyond-the-counter are both stale
    assert!(matches!(
        w.create_qp(a, ServiceType::ReliableTcp, CqId(0), cq_a),
        Err(NicError::UnknownCq(CqId(0)))
    ));
    assert!(matches!(
        w.create_qp(a, ServiceType::ReliableTcp, cq_a, CqId(999)),
        Err(NicError::UnknownCq(CqId(999)))
    ));
}

// ----- SocketWorld (baseline) --------------------------------------------

#[test]
fn socket_world_rejects_port_collisions_and_wrong_kind() {
    let mut w = SocketWorld::gige();
    let n = w.add_node(StackConfig::gige());
    let u1 = w.udp_socket(n);
    let u2 = w.udp_socket(n);
    let t1 = w.tcp_socket(n);
    let t2 = w.tcp_socket(n);

    w.udp_bind(n, u1, 9000).unwrap();
    assert!(matches!(
        w.udp_bind(n, u2, 9000),
        Err(SockError::Engine(EngineError::PortInUse(9000)))
    ));
    w.listen(n, t1, 80).unwrap();
    // the host stack has no accept pool: a second listener is an error
    assert!(matches!(w.listen(n, t2, 80), Err(SockError::Engine(EngineError::PortInUse(80)))));
    // kind mismatches are caught before the engine sees them
    assert!(matches!(w.udp_bind(n, t2, 9001), Err(SockError::InvalidState(_))));
    assert!(matches!(w.listen(n, u2, 81), Err(SockError::InvalidState(_))));
}

#[test]
fn socket_world_rejects_stale_and_unbound_handles() {
    let mut w = SocketWorld::gige();
    let n = w.add_node(StackConfig::gige());
    let bogus = qpip_host::stack::SockId(999);
    assert!(matches!(w.udp_bind(n, bogus, 9000), Err(SockError::UnknownSock(_))));
    assert!(matches!(w.listen(n, bogus, 80), Err(SockError::UnknownSock(_))));
    assert!(matches!(w.close(n, bogus), Err(SockError::UnknownSock(_))));
    // operations that need a bound/connected socket say so
    let u = w.udp_socket(n);
    let dst = Endpoint::new(w.addr(n), 9000);
    assert!(matches!(w.udp_send(n, u, dst, b"x"), Err(SockError::InvalidState(_))));
    let t = w.tcp_socket(n);
    assert!(matches!(w.close(n, t), Err(SockError::InvalidState(_))));
}

// ----- MixedWorld --------------------------------------------------------

#[test]
fn mixed_world_rejects_bad_handles_on_both_sides() {
    let mut w = MixedWorld::new(FabricConfig::myrinet_gm());
    let q = w.add_qpip_node(NicConfig { mtu: 9000, ..NicConfig::paper_default() });
    let h = w.add_host_node(StackConfig::gm_myrinet());

    // verbs side: stale QP and CQ handles
    let cq = w.create_cq(q);
    assert!(matches!(
        w.post_send(q, QpId(999), SendWr { wr_id: 1, payload: vec![0], dst: None }),
        Err(NicError::UnknownQp(_))
    ));
    assert!(matches!(
        w.create_qp(q, ServiceType::ReliableTcp, cq, CqId(999)),
        Err(NicError::UnknownCq(_))
    ));

    // socket side: port collision and stale handle, same stack as the
    // pure baseline world
    let s1 = w.tcp_socket(h);
    let s2 = w.tcp_socket(h);
    w.listen(h, s1, 80).unwrap();
    assert!(matches!(w.listen(h, s2, 80), Err(SockError::Engine(EngineError::PortInUse(80)))));
    assert!(matches!(
        w.listen(h, qpip_host::stack::SockId(999), 81),
        Err(SockError::UnknownSock(_))
    ));
}

/// A starved `wait()` on a mixed world's QPIP node gets the same
/// deadlock report as a pure QPIP world: the starved CQ, the node, and
/// its per-QP state.
#[test]
fn mixed_world_wait_deadlock_reports_pending_state() {
    let mut w = MixedWorld::new(FabricConfig::myrinet_gm());
    let h = w.add_host_node(StackConfig::gm_myrinet());
    let q = w.add_qpip_node(NicConfig { mtu: 9000, ..NicConfig::paper_default() });
    let ls = w.tcp_socket(h);
    w.listen(h, ls, 80).unwrap();
    let cq = w.create_cq(q);
    let qp = w.create_qp(q, ServiceType::ReliableTcp, cq, cq).unwrap();
    w.post_recv(q, qp, RecvWr { wr_id: 1, capacity: 8 * 1024 }).unwrap();
    w.tcp_connect(q, qp, 7000, Endpoint::new(w.addr(h), 80)).unwrap();
    let starved = w.create_cq(q);
    let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
        w.wait(q, starved);
    }))
    .expect_err("wait() on a starved CQ must panic, not hang");
    let msg = panic
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .expect("panic payload is a message");
    assert!(msg.contains("wait() deadlocked"), "headline missing: {msg}");
    assert!(
        msg.contains(&format!("{starved} empty on node {}", q.0)),
        "starved wait not named: {msg}"
    );
    assert!(msg.contains("ConnectionEstablished"), "the pending entry is not shown: {msg}");
    assert!(msg.contains("qp#"), "per-QP state not dumped: {msg}");
}

// ----- ConnId generation check -------------------------------------------

/// The slab behind the engine's connection table reuses slots; the
/// generation bits in [`ConnId`] are what keep a handle from a reaped
/// connection from aliasing its successor. Abort a connection, let a
/// new one take the slot, and every verb must reject the stale id.
#[test]
fn stale_conn_id_generation_is_rejected_after_slot_reuse() {
    let mut eng = Engine::new(NetConfig::qpip(9000), Ipv6Addr::new(0xfc00, 0, 0, 0, 0, 0, 0, 1));
    let now = qpip_sim::time::SimTime::ZERO;
    let remote = Endpoint::new(Ipv6Addr::new(0xfc00, 0, 0, 0, 0, 0, 0, 2), 5000);

    let out = &mut Vec::new();
    let stale = eng.tcp_connect(now, 4000, remote, out);
    eng.tcp_abort(now, stale, out).unwrap();
    let fresh = eng.tcp_connect(now, 4001, remote, out);

    // the successor reuses the slot under a bumped generation, so the
    // two handles differ even though they name the same table entry
    let slot_bits = (1u32 << 20) - 1;
    assert_eq!(stale.0 & slot_bits, fresh.0 & slot_bits, "slot was not reused");
    assert_ne!(stale, fresh, "generation did not advance");

    // every conn-taking verb rejects the stale handle...
    assert!(matches!(
        eng.tcp_send(now, stale, vec![0], SendToken(1), out),
        Err(EngineError::UnknownConn(c)) if c == stale
    ));
    assert!(matches!(eng.set_recv_space(stale, 4096), Err(EngineError::UnknownConn(_))));
    assert!(matches!(eng.announce_window(now, stale, out), Err(EngineError::UnknownConn(_))));
    assert!(matches!(eng.tcp_close(now, stale, out), Err(EngineError::UnknownConn(_))));
    assert!(matches!(eng.tcp_abort(now, stale, out), Err(EngineError::UnknownConn(_))));

    // ...while the live handle in the same slot keeps working
    eng.tcp_abort(now, fresh, out).unwrap();
    assert_eq!(eng.conn_count(), 0);
}
