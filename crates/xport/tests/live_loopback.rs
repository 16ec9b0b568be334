//! Live two-node tests over 127.0.0.1 — real sockets, real wall clock.
//!
//! These tests assert delivery, ordering and exactly-once semantics,
//! never latencies: the wall clock jitters and the kernel schedules
//! datagrams as it pleases. The streaming transfers, clean and under a
//! seeded drop-and-hold fault plan, run the shared ttcp workload and
//! live in `qpip-bench`'s `tests/live_stream.rs`.

use std::net::Ipv6Addr;
use std::time::{Duration, Instant};

use qpip_netstack::types::Endpoint;
use qpip_nic::types::{
    CompletionKind, CompletionStatus, CqId, NicError, QpId, RecvWr, SendWr, ServiceType,
};
use qpip_xport::{quiesce, XportConfig, XportError, XportNode};

const FABRIC_A: Ipv6Addr = Ipv6Addr::new(0xfc00, 0, 0, 0, 0, 0, 0, 1);
const FABRIC_B: Ipv6Addr = Ipv6Addr::new(0xfc00, 0, 0, 0, 0, 0, 0, 2);

fn node(fabric: Ipv6Addr) -> XportNode {
    XportNode::bind(fabric, XportConfig::default()).expect("bind loopback")
}

#[test]
fn udp_datagram_crosses_live_sockets() {
    let mut a = node(FABRIC_A);
    let mut b = node(FABRIC_B);
    a.add_peer(FABRIC_B, b.local_addr().unwrap());
    b.add_peer(FABRIC_A, a.local_addr().unwrap());

    let (a_cq, b_cq) = (a.create_cq(), b.create_cq());
    let a_qp = a.create_qp(ServiceType::UnreliableUdp, a_cq, a_cq).unwrap();
    let b_qp = b.create_qp(ServiceType::UnreliableUdp, b_cq, b_cq).unwrap();
    a.udp_bind(a_qp, 7000).unwrap();
    b.udp_bind(b_qp, 7001).unwrap();
    b.post_recv(b_qp, RecvWr { wr_id: 1, capacity: 2048 }).unwrap();

    // UDP is unreliable even on loopback in principle: retry the send
    // until the datagram shows up rather than asserting on one shot
    let payload = vec![7; 512];
    let deadline = Instant::now() + Duration::from_secs(10);
    let got = loop {
        assert!(Instant::now() < deadline, "datagram never arrived");
        a.post_send(
            a_qp,
            SendWr { wr_id: 9, payload: payload.clone(), dst: Some(Endpoint::new(FABRIC_B, 7001)) },
        )
        .unwrap();
        // the send CQ entry is immediate for UDP (handed to the wire)
        let sc = a.wait(a_cq).unwrap();
        assert_eq!(sc.kind, CompletionKind::Send);
        let mut found = None;
        for _ in 0..20 {
            if let Some(c) = b.poll(b_cq).unwrap() {
                found = Some(c);
                break;
            }
            b.pump(Duration::from_millis(10)).unwrap();
        }
        if let Some(c) = found {
            break c;
        }
    };
    match got.kind {
        CompletionKind::Recv { data, src } => {
            assert_eq!(data, payload);
            assert_eq!(src, Some(Endpoint::new(FABRIC_A, 7000)));
        }
        other => panic!("expected Recv, got {other:?}"),
    }
    assert_eq!(got.status, CompletionStatus::Success);
}

#[test]
fn messages_backlog_until_recv_wrs_are_posted() {
    let mut client = node(FABRIC_A);
    let mut server = node(FABRIC_B);
    client.add_peer(FABRIC_B, server.local_addr().unwrap());
    server.add_peer(FABRIC_A, client.local_addr().unwrap());

    // §5.1 flow control counts *bytes*, but one message consumes one
    // whole WR regardless of its size: two 1024-byte WRs advertise a
    // 2048-byte window, into which the client can land eight 100-byte
    // messages. Six of them find no WR and must park in the backlog.
    let scq = server.create_cq();
    let sqp = server.create_qp(ServiceType::ReliableTcp, scq, scq).unwrap();
    server.tcp_listen(sqp, 5001).unwrap();
    server.post_recv(sqp, RecvWr { wr_id: 0, capacity: 1024 }).unwrap();
    server.post_recv(sqp, RecvWr { wr_id: 1, capacity: 1024 }).unwrap();

    let cq = client.create_cq();
    let qp = client.create_qp(ServiceType::ReliableTcp, cq, cq).unwrap();
    client.tcp_connect(qp, 5000, Endpoint::new(FABRIC_B, 5001)).unwrap();
    for i in 0..8u32 {
        client
            .post_send(qp, SendWr { wr_id: u64::from(i), payload: vec![i as u8; 100], dst: None })
            .unwrap();
    }

    let mut got = Vec::new();
    while got.len() < 2 {
        let c = server.wait_pumping(scq, &mut client).expect("server completion");
        if let CompletionKind::Recv { data, .. } = c.kind {
            got.push(data);
        }
    }
    // both WRs are consumed but 1848 bytes of window remain: the
    // other six messages arrive and must park
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.stats().qp.tcp_backlogged == 0 {
        assert!(Instant::now() < deadline, "backlog never formed: {:?}", server.stats());
        server.pump(Duration::ZERO).unwrap();
        client.pump(Duration::ZERO).unwrap();
    }
    // now resupply; the backlog drains through the fresh WRs
    for _ in 0..6 {
        server.post_recv(sqp, RecvWr { wr_id: 0, capacity: 1024 }).unwrap();
    }
    while got.len() < 8 {
        let c = server.wait_pumping(scq, &mut client).expect("server completion");
        if let CompletionKind::Recv { data, .. } = c.kind {
            got.push(data);
        }
    }

    let mut established = false;
    let mut sends_done = 0;
    while !(established && sends_done == 8) {
        match client.wait_pumping(cq, &mut server).expect("client completion").kind {
            CompletionKind::ConnectionEstablished => established = true,
            CompletionKind::Send => sends_done += 1,
            other => panic!("unexpected {other:?}"),
        }
    }
    for (i, data) in got.iter().enumerate() {
        assert_eq!(data, &vec![i as u8; 100], "message {i} misordered");
    }
    let sstats = server.stats();
    assert!(sstats.qp.tcp_backlogged > 0, "nothing ever backlogged: {sstats:?}");
}

/// A window update lost on the wire is recovered by the sender's
/// persist timer, not by the node re-sending windows: the receiver's
/// only update goes to a socket nobody reads, and the sender's
/// zero-window probe draws the open window back.
#[test]
fn lost_window_update_is_recovered_by_a_persist_probe() {
    let mut a = node(FABRIC_A);
    let mut b = node(FABRIC_B);
    let a_addr = a.local_addr().unwrap();
    a.add_peer(FABRIC_B, b.local_addr().unwrap());
    b.add_peer(FABRIC_A, a_addr);

    // the receiver posts nothing yet: the handshake leaves a zero window
    let bcq = b.create_cq();
    let bqp = b.create_qp(ServiceType::ReliableTcp, bcq, bcq).unwrap();
    b.tcp_listen(bqp, 5001).unwrap();
    let acq = a.create_cq();
    let aqp = a.create_qp(ServiceType::ReliableTcp, acq, acq).unwrap();
    a.tcp_connect(aqp, 5000, Endpoint::new(FABRIC_B, 5001)).unwrap();
    let up = a.wait_pumping(acq, &mut b).expect("client established");
    assert_eq!(up.kind, CompletionKind::ConnectionEstablished);
    let up = b.wait_pumping(bcq, &mut a).expect("server established");
    assert_eq!(up.kind, CompletionKind::ConnectionEstablished);
    // let the zero-window announcement land before sending into it
    quiesce(&mut a, &mut b).unwrap();
    a.post_send(aqp, SendWr { wr_id: 1, payload: vec![1; 1000], dst: None }).unwrap();

    // post 4 KB, room for the 1000-byte message, while the route to
    // `a` leads into a hole
    let hole = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
    b.add_peer(FABRIC_A, hole.local_addr().unwrap());
    b.post_recv(bqp, RecvWr { wr_id: 7, capacity: 4096 }).unwrap();
    b.add_peer(FABRIC_A, a_addr);

    let c = b.wait_pumping(bcq, &mut a).expect("persist probe recovers the window");
    match c.kind {
        CompletionKind::Recv { data, .. } => assert_eq!(data, vec![1; 1000]),
        other => panic!("expected Recv, got {other:?}"),
    }
    assert!(a.engine().stats().tcp.persist_probes >= 1, "{:?}", a.engine().stats());

    // the hole holds the lost update: a pure ACK with an open window
    hole.set_read_timeout(Some(Duration::from_secs(1))).unwrap();
    let mut buf = [0u8; 2048];
    let (n, _) = hole.recv_from(&mut buf).expect("the window update went into the hole");
    match qpip_netstack::codec::decode_packet(&buf[..n]) {
        Ok(qpip_netstack::codec::Decoded::Tcp { tcp, payload, .. }) => {
            assert!(payload.is_empty() && tcp.window > 0, "not a window update: {tcp:?}");
        }
        other => panic!("hole holds a non-TCP datagram: {other:?}"),
    }
}

/// A poll that finds an entry on its CQ pops it without touching the
/// socket, even with a datagram waiting there; only a poll of an empty
/// CQ reads. A pump with no timer due reads one datagram and leaves the
/// next in the socket.
#[test]
fn a_poll_that_finds_an_entry_makes_no_syscall() {
    let mut a = node(FABRIC_A);
    let mut b = node(FABRIC_B);
    a.add_peer(FABRIC_B, b.local_addr().unwrap());
    let (a_cq, b_cq) = (a.create_cq(), b.create_cq());
    let a_qp = a.create_qp(ServiceType::UnreliableUdp, a_cq, a_cq).unwrap();
    let b_qp = b.create_qp(ServiceType::UnreliableUdp, b_cq, b_cq).unwrap();
    a.udp_bind(a_qp, 7000).unwrap();
    b.udp_bind(b_qp, 7001).unwrap();
    for (wr_id, byte) in [(1, 1), (2, 2)] {
        b.post_recv(b_qp, RecvWr { wr_id, capacity: 64 }).unwrap();
        let dst = Some(Endpoint::new(FABRIC_B, 7001));
        a.post_send(a_qp, SendWr { wr_id, payload: vec![byte; 64], dst }).unwrap();
    }

    // a UDP QP arms no timer, so each pump reads at most one datagram
    let deadline = Instant::now() + Duration::from_secs(10);
    while b.stats().datagrams_rx == 0 {
        assert!(Instant::now() < deadline, "datagram never arrived");
        b.pump(Duration::from_millis(10)).unwrap();
    }
    let before = b.stats();
    assert_eq!(before.datagrams_rx, 1, "{before:?}");
    let first = b.poll(b_cq).unwrap().expect("the first datagram's entry");
    assert_eq!(first.wr_id, 1);
    let after = b.stats();
    assert_eq!(after.datagrams_rx, before.datagrams_rx, "{after:?}");
    assert_eq!(after.empty_reads, before.empty_reads, "{after:?}");

    // the CQ is empty now: the next poll reads the second datagram
    let second = loop {
        assert!(Instant::now() < deadline, "second datagram never arrived");
        if let Some(c) = b.poll(b_cq).unwrap() {
            break c;
        }
    };
    assert_eq!(second.wr_id, 2);
    assert_eq!(b.stats().datagrams_rx, 2);
}

/// Every blocking pump sets its read timeout, one socket-option call;
/// a change of mode costs one more, so pumps with a zero budget stay
/// nonblocking and pay none after the first.
#[test]
fn socket_option_calls_are_counted() {
    let mut n = node(FABRIC_A);
    let bound = n.stats();
    assert_eq!(bound.sockopt_calls, 1, "bind sets the read timeout: {bound:?}");
    for _ in 0..2 {
        assert!(!n.pump(Duration::from_micros(300)).unwrap());
    }
    let s = n.stats();
    assert_eq!(s.sockopt_calls, bound.sockopt_calls + 2, "{s:?}");
    assert_eq!(s.empty_reads, bound.empty_reads + 2, "{s:?}");
    for _ in 0..2 {
        n.pump(Duration::ZERO).unwrap();
    }
    assert_eq!(n.stats().sockopt_calls, s.sockopt_calls + 1, "{:?}", n.stats());
    n.pump(Duration::from_micros(300)).unwrap();
    assert_eq!(n.stats().sockopt_calls, s.sockopt_calls + 3, "{:?}", n.stats());
}

/// After the thread stalls past the RTO, a pump must read the ACK that
/// is already waiting before it fires timers: the ACK cancels the
/// retransmission timer instead of losing to it, even behind a burst
/// of other datagrams.
#[test]
fn an_ack_waiting_in_the_socket_beats_an_overdue_rto() {
    let mut a = node(FABRIC_A);
    let mut b = node(FABRIC_B);
    a.add_peer(FABRIC_B, b.local_addr().unwrap());
    b.add_peer(FABRIC_A, a.local_addr().unwrap());

    let bcq = b.create_cq();
    let bqp = b.create_qp(ServiceType::ReliableTcp, bcq, bcq).unwrap();
    b.post_recv(bqp, RecvWr { wr_id: 1, capacity: 4096 }).unwrap();
    b.tcp_listen(bqp, 5001).unwrap();
    let acq = a.create_cq();
    let aqp = a.create_qp(ServiceType::ReliableTcp, acq, acq).unwrap();
    a.tcp_connect(aqp, 5000, Endpoint::new(FABRIC_B, 5001)).unwrap();
    assert_eq!(a.wait_pumping(acq, &mut b).unwrap().kind, CompletionKind::ConnectionEstablished);
    assert_eq!(b.wait_pumping(bcq, &mut a).unwrap().kind, CompletionKind::ConnectionEstablished);
    quiesce(&mut a, &mut b).unwrap();

    // a stranger's datagrams, which the NIC cannot parse, queue in a's
    // socket ahead of the ACK
    const JUNK: u64 = 3;
    let stranger = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
    for _ in 0..JUNK {
        stranger.send_to(&[0; 40], a.local_addr().unwrap()).unwrap();
    }
    // b reads the message and ACKs it once its delayed-ACK timer fires;
    // the ACK waits in a's socket. The count is taken before the send:
    // a stall inside `wait` can let the timer fire before it returns.
    let sent = b.stats().datagrams_tx;
    a.post_send(aqp, SendWr { wr_id: 2, payload: vec![3; 100], dst: None }).unwrap();
    assert!(matches!(b.wait(bcq).unwrap().kind, CompletionKind::Recv { .. }));
    while b.stats().datagrams_tx == sent {
        b.pump(Duration::from_millis(1)).unwrap();
    }
    // stall a past its retransmission deadline
    let rto = a.engine().next_deadline().expect("the send armed the RTO");
    while a.now() <= rto {
        std::thread::sleep(Duration::from_millis(1));
    }
    let rx = a.stats().datagrams_rx;
    a.pump(Duration::ZERO).unwrap();
    assert_eq!(a.engine().stats().tcp.rto_retransmits, 0, "{:?}", a.engine().stats());
    assert_eq!(a.stats().datagrams_rx - rx, JUNK + 1, "one pump reads the burst and the ACK");
    assert_eq!(a.engine().stats().parse_drops, JUNK, "{:?}", a.engine().stats());
    let c = a.poll(acq).unwrap().expect("the ACK completed the send");
    assert_eq!(c.kind, CompletionKind::Send);
}

#[test]
fn wait_times_out_with_diagnostic_instead_of_hanging() {
    let cfg = XportConfig { wait_timeout: Duration::from_millis(200), ..XportConfig::default() };
    let mut n = XportNode::bind(FABRIC_A, cfg).expect("bind");
    let cq = n.create_cq();
    let qp = n.create_qp(ServiceType::ReliableTcp, cq, cq).unwrap();
    let _ = qp;
    let err = n.wait(cq).expect_err("nothing can complete");
    match err {
        XportError::WaitTimeout(d) => {
            assert!(d.contains("cq#1"), "diagnostic names the CQ: {d}");
            assert!(d.contains("qp#1"), "diagnostic lists QPs: {d}");
            assert!(d.contains("fabric"), "diagnostic names the node: {d}");
        }
        other => panic!("expected WaitTimeout, got {other:?}"),
    }
}

/// A starved wait between two nodes on one thread names both ends and
/// shows what their CQs hold: the entry a waiter misses is often
/// sitting on the other node.
#[test]
fn pumping_wait_timeout_reports_both_nodes_cq_contents() {
    let cfg = XportConfig { wait_timeout: Duration::from_millis(200), ..XportConfig::default() };
    let mut a = XportNode::bind(FABRIC_A, cfg.clone()).expect("bind");
    let mut b = XportNode::bind(FABRIC_B, cfg).expect("bind");
    a.add_peer(FABRIC_B, b.local_addr().unwrap());
    b.add_peer(FABRIC_A, a.local_addr().unwrap());

    let bcq = b.create_cq();
    let bqp = b.create_qp(ServiceType::ReliableTcp, bcq, bcq).unwrap();
    b.post_recv(bqp, RecvWr { wr_id: 1, capacity: 4096 }).unwrap();
    b.tcp_listen(bqp, 5001).unwrap();
    let acq = a.create_cq();
    let aqp = a.create_qp(ServiceType::ReliableTcp, acq, acq).unwrap();
    a.tcp_connect(aqp, 5000, Endpoint::new(FABRIC_B, 5001)).unwrap();
    assert_eq!(a.wait_pumping(acq, &mut b).unwrap().kind, CompletionKind::ConnectionEstablished);
    assert_eq!(b.wait_pumping(bcq, &mut a).unwrap().kind, CompletionKind::ConnectionEstablished);

    // one message is delivered and left on b's CQ (its Send completes
    // once b acknowledged it); a then waits on a CQ nothing feeds
    a.post_send(aqp, SendWr { wr_id: 2, payload: vec![4; 100], dst: None }).unwrap();
    assert_eq!(a.wait_pumping(acq, &mut b).unwrap().kind, CompletionKind::Send);
    let starved = a.create_cq();
    let err = a.wait_pumping(starved, &mut b).expect_err("nothing feeds the CQ");
    let XportError::WaitTimeout(d) = err else { panic!("expected WaitTimeout, got {err:?}") };
    assert!(d.contains(&format!("no completion on {starved}")), "starved CQ not named: {d}");
    assert!(d.contains(&format!("fabric {FABRIC_A}")), "waiting node not named: {d}");
    assert!(d.contains(&format!("fabric {FABRIC_B}")), "peer not named: {d}");
    assert!(d.contains("Recv(100B)"), "peer's pending Recv entry not shown: {d}");
}

#[test]
fn verb_errors_on_bad_handles() {
    let mut n = node(FABRIC_A);
    let cq = n.create_cq();
    // unknown CQ on QP creation
    assert!(n.create_qp(ServiceType::ReliableTcp, cq, CqId(99)).is_err());
    // unknown QP and CQ handles on the hot verbs
    assert!(n.post_recv(QpId(99), RecvWr { wr_id: 0, capacity: 64 }).is_err());
    assert!(n.poll(CqId(99)).is_err());
    // service-type misuse
    let qp = n.create_qp(ServiceType::UnreliableUdp, cq, cq).unwrap();
    assert!(n.tcp_listen(qp, 9).is_err());
    assert!(n.tcp_connect(qp, 1, Endpoint::new(FABRIC_B, 2)).is_err());
    let tqp = n.create_qp(ServiceType::ReliableTcp, cq, cq).unwrap();
    assert!(n.udp_bind(tqp, 9).is_err());
    assert!(n.tcp_close(tqp).is_err(), "close before connect");

    // a QP is mated at most once: a pooled QP joins no second pool and
    // opens no connection, a connected one joins no pool
    let refused =
        |r: Result<(), XportError>| matches!(r, Err(XportError::Nic(NicError::InvalidState(_))));
    n.tcp_listen(tqp, 5000).unwrap();
    assert!(refused(n.tcp_listen(tqp, 5000)), "second listen on a pooled QP");
    assert!(refused(n.tcp_listen(tqp, 5001)), "pooled QP joining another pool");
    assert!(refused(n.tcp_connect(tqp, 4000, Endpoint::new(FABRIC_B, 5000))));
    let active = n.create_qp(ServiceType::ReliableTcp, cq, cq).unwrap();
    n.tcp_connect(active, 4001, Endpoint::new(FABRIC_B, 5000)).unwrap();
    assert!(refused(n.tcp_listen(active, 5002)), "listen on a connected QP");
    assert!(refused(n.tcp_connect(active, 4002, Endpoint::new(FABRIC_B, 5000))));
}

#[test]
fn poll_on_a_bad_handle_services_nothing() {
    let mut a = node(FABRIC_A);
    let mut b = node(FABRIC_B);
    a.add_peer(FABRIC_B, b.local_addr().unwrap());
    let a_cq = a.create_cq();
    let a_qp = a.create_qp(ServiceType::UnreliableUdp, a_cq, a_cq).unwrap();
    a.udp_bind(a_qp, 7000).unwrap();
    let wr = SendWr { wr_id: 1, payload: vec![1; 64], dst: Some(Endpoint::new(FABRIC_B, 7001)) };
    a.post_send(a_qp, wr).unwrap();

    // the datagram waits on b's socket; a poll with a bad handle must
    // refuse before reading it
    assert!(matches!(b.poll(CqId(99)), Err(XportError::Nic(NicError::UnknownCq(CqId(99))))));
    assert_eq!(b.stats().datagrams_rx, 0, "bad poll read the socket");
    let deadline = Instant::now() + Duration::from_secs(10);
    while b.stats().datagrams_rx == 0 {
        assert!(Instant::now() < deadline, "datagram never arrived");
        b.pump(Duration::from_millis(10)).unwrap();
    }
}

#[test]
fn oversized_message_completes_with_length_error() {
    let mut client = node(FABRIC_A);
    let mut server = node(FABRIC_B);
    client.add_peer(FABRIC_B, server.local_addr().unwrap());
    server.add_peer(FABRIC_A, client.local_addr().unwrap());

    // one message consumes one whole WR: the 16 + 1024-byte window
    // admits a 100-byte message, which lands on the 16-byte WR
    let cq_s = server.create_cq();
    let qp_s = server.create_qp(ServiceType::ReliableTcp, cq_s, cq_s).unwrap();
    server.post_recv(qp_s, RecvWr { wr_id: 1, capacity: 16 }).unwrap();
    server.post_recv(qp_s, RecvWr { wr_id: 2, capacity: 1024 }).unwrap();
    server.tcp_listen(qp_s, 5001).unwrap();
    let cq_c = client.create_cq();
    let qp_c = client.create_qp(ServiceType::ReliableTcp, cq_c, cq_c).unwrap();
    client.tcp_connect(qp_c, 5000, Endpoint::new(FABRIC_B, 5001)).unwrap();
    client.post_send(qp_c, SendWr { wr_id: 7, payload: vec![0; 100], dst: None }).unwrap();

    let deadline = Instant::now() + Duration::from_secs(10);
    let got = loop {
        assert!(Instant::now() < deadline, "message never arrived: {:?}", server.stats());
        match server.poll(cq_s).unwrap() {
            Some(c) if matches!(c.kind, CompletionKind::Recv { .. }) => break c,
            Some(_) => {}
            None => {
                client.pump(Duration::from_millis(1)).unwrap();
            }
        }
    };
    assert_eq!(got.wr_id, 1);
    assert_eq!(got.status, CompletionStatus::LocalLengthError { len: 100, capacity: 16 });
    assert_eq!(server.stats().qp.length_errors, 1);
    assert_eq!(server.stats().snapshot().get("length_errors"), Some(1));
}
