//! Live two-node tests over 127.0.0.1 — real sockets, real wall clock.
//!
//! These tests assert delivery, ordering and exactly-once semantics,
//! never latencies: the wall clock jitters and the kernel schedules
//! datagrams as it pleases. The acceptance test drives the stock
//! protocol engine through a 2%-loss + reordering proxy and checks the
//! byte stream survives intact.

use std::net::Ipv6Addr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use qpip_netstack::types::Endpoint;
use qpip_nic::types::{
    Completion, CompletionKind, CompletionStatus, CqId, NicError, QpId, RecvWr, SendWr, ServiceType,
};
use qpip_trace::{FlightRecorder, TraceEvent, Tracer};
use qpip_xport::{ImpairConfig, ImpairProxy, XportConfig, XportError, XportNode};

const FABRIC_A: Ipv6Addr = Ipv6Addr::new(0xfc00, 0, 0, 0, 0, 0, 0, 1);
const FABRIC_B: Ipv6Addr = Ipv6Addr::new(0xfc00, 0, 0, 0, 0, 0, 0, 2);

fn node(fabric: Ipv6Addr) -> XportNode {
    XportNode::bind(fabric, XportConfig::default()).expect("bind loopback")
}

/// Deterministic payload for message `seq`: a 4-byte sequence header
/// followed by a seq-derived fill, so corruption and misordering are
/// both detectable.
fn message(seq: u32, len: usize) -> Vec<u8> {
    let mut m = Vec::with_capacity(len);
    m.extend_from_slice(&seq.to_be_bytes());
    m.extend((4..len).map(|i| (seq as usize).wrapping_mul(31).wrapping_add(i) as u8));
    m
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
    let payload = message(7, 512);
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

/// Pumps both nodes until neither has read a datagram for 50 rounds in
/// a row, so the FIN exchange and any last ACKs are answered.
fn quiesce(a: &mut XportNode, b: &mut XportNode) {
    let mut idle = 0;
    while idle < 50 {
        let got = a.pump(Duration::ZERO).unwrap() | b.pump(Duration::ZERO).unwrap();
        idle = if got { 0 } else { idle + 1 };
    }
}

/// Runs a TCP transfer of `count` messages of `len` bytes from a
/// client node to a server node whose sockets are already wired
/// (directly or through a proxy). This thread drives both: the client
/// waits on acknowledgments while pumping the server, and the server's
/// CQ is drained between waits. Returns the messages the server
/// received, in order, plus the client's retransmission count.
fn transfer(
    mut client: XportNode,
    mut server: XportNode,
    count: u32,
    len: usize,
) -> (Vec<Vec<u8>>, u64) {
    // server: one listening QP that keeps QUEUE receive WRs posted
    const QUEUE: u32 = 64;
    let srv_cq = server.create_cq();
    let srv_qp = server.create_qp(ServiceType::ReliableTcp, srv_cq, srv_cq).unwrap();
    server.tcp_listen(srv_qp, 5001).unwrap();
    for i in 0..QUEUE {
        server.post_recv(srv_qp, RecvWr { wr_id: u64::from(i), capacity: len }).unwrap();
    }
    let serve = |server: &mut XportNode, got: &mut Vec<Vec<u8>>, c: Completion| match c.kind {
        CompletionKind::ConnectionEstablished => {}
        CompletionKind::Recv { data, .. } => {
            assert_eq!(c.status, CompletionStatus::Success);
            got.push(data);
            // recycle the consumed WR to keep the window open
            if (got.len() as u32) < count {
                server.post_recv(srv_qp, RecvWr { wr_id: 0, capacity: len }).unwrap();
            }
        }
        CompletionKind::PeerDisconnected => {
            panic!("peer closed after {} of {count} messages", got.len())
        }
        other => panic!("unexpected completion {other:?}"),
    };
    let mut got = Vec::new();

    let cq_conn = client.create_cq();
    let cq_send = client.create_cq();
    let qp = client.create_qp(ServiceType::ReliableTcp, cq_send, cq_conn).unwrap();
    client.tcp_connect(qp, 5000, Endpoint::new(FABRIC_B, 5001)).unwrap();
    let c = client.wait_pumping(cq_conn, &mut server).expect("connection established");
    assert_eq!(c.kind, CompletionKind::ConnectionEstablished);

    // windowed submission: at most 32 sends in flight, refilled as
    // acknowledgment completions retire them (§3 semantics)
    let mut next = 0u32;
    let mut inflight = 0u32;
    let mut completed = 0u32;
    while completed < count {
        while next < count && inflight < 32 {
            client
                .post_send(
                    qp,
                    SendWr { wr_id: u64::from(next), payload: message(next, len), dst: None },
                )
                .unwrap();
            next += 1;
            inflight += 1;
        }
        while let Some(c) = server.poll(srv_cq).unwrap() {
            serve(&mut server, &mut got, c);
        }
        let done = client.wait_pumping(cq_send, &mut server).expect("send completion");
        assert_eq!(done.kind, CompletionKind::Send);
        assert_eq!(done.status, CompletionStatus::Success, "send {} failed", done.wr_id);
        inflight -= 1;
        completed += 1;
    }

    // sample before close: the engine's per-connection counters die
    // with the connection slab entry
    let retransmissions = client.engine().retransmissions();
    client.tcp_close(qp).unwrap();
    while (got.len() as u32) < count {
        let c = server.wait_pumping(srv_cq, &mut client).expect("server completion");
        serve(&mut server, &mut got, c);
    }
    let _ = server.tcp_close(srv_qp);
    // let the FIN handshake drain; nothing is asserted about it (under
    // loss the teardown may outlive our patience — data already landed)
    quiesce(&mut client, &mut server);
    (got, retransmissions)
}

fn assert_exactly_once_in_order(received: &[Vec<u8>], count: u32, len: usize) {
    assert_eq!(received.len() as u32, count, "message count");
    for (i, data) in received.iter().enumerate() {
        assert_eq!(data, &message(i as u32, len), "message {i} corrupted or misordered");
    }
}

#[test]
fn tcp_transfer_direct() {
    let mut client = node(FABRIC_A);
    let mut server = node(FABRIC_B);
    client.add_peer(FABRIC_B, server.local_addr().unwrap());
    server.add_peer(FABRIC_A, client.local_addr().unwrap());

    let (received, _retrans) = transfer(client, server, 100, 1024);
    assert_exactly_once_in_order(&received, 100, 1024);
}

/// The acceptance test: a transfer through the impairment proxy at 2%
/// loss plus reordering completes with exactly-once, in-order delivery
/// using the stock engine — its retransmission machinery, not the
/// wire, provides reliability.
#[test]
fn tcp_transfer_survives_loss_and_reordering() {
    let mut client = node(FABRIC_A);
    let mut server = node(FABRIC_B);
    let proxy = ImpairProxy::new(ImpairConfig {
        seed: 42,
        drop_per_mille: 20,    // 2% loss
        reorder_per_mille: 30, // 3% held for reordering
        hold_at_most: Duration::from_millis(15),
    })
    .route(FABRIC_A, client.local_addr().unwrap())
    .route(FABRIC_B, server.local_addr().unwrap())
    .spawn()
    .expect("spawn proxy");
    // both directions pass through the proxy
    client.add_peer(FABRIC_B, proxy.addr());
    server.add_peer(FABRIC_A, proxy.addr());

    let (count, len) = (300, 1024);
    let (received, retransmissions) = transfer(client, server, count, len);
    assert_exactly_once_in_order(&received, count, len);

    let stats = proxy.stats();
    assert!(stats.dropped > 0, "the proxy never dropped anything: {stats:?}");
    assert!(retransmissions > 0, "loss recovery never ran; proxy stats {stats:?}");
    proxy.stop();
}

/// Flight recorder on real wires: a lossy proxied transfer must leave
/// ≥1 retransmit event in the client's trace, and every retransmit's
/// sequence number must name a segment the trace also shows re-sent.
/// Event ordering and counts are wall-clock-dependent; the seq linkage
/// is not.
#[test]
fn lossy_proxied_transfer_traces_retransmits() {
    let mut client = node(FABRIC_A);
    let mut server = node(FABRIC_B);
    let rec = Arc::new(FlightRecorder::new(65536));
    client.set_tracer(Tracer::new(Arc::clone(&rec), 0));
    let proxy = ImpairProxy::new(ImpairConfig {
        seed: 7,
        drop_per_mille: 30, // 3% loss
        reorder_per_mille: 20,
        hold_at_most: Duration::from_millis(15),
    })
    .route(FABRIC_A, client.local_addr().unwrap())
    .route(FABRIC_B, server.local_addr().unwrap())
    .spawn()
    .expect("spawn proxy");
    client.add_peer(FABRIC_B, proxy.addr());
    server.add_peer(FABRIC_A, proxy.addr());

    let (count, len) = (300, 1024);
    let (received, retransmissions) = transfer(client, server, count, len);
    assert_exactly_once_in_order(&received, count, len);
    assert!(retransmissions > 0, "loss recovery never ran");
    proxy.stop();

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
            .post_send(qp, SendWr { wr_id: u64::from(i), payload: message(i, 100), dst: None })
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
    while server.stats().tcp_backlogged == 0 {
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
        assert_eq!(data, &message(i as u32, 100));
    }
    let sstats = server.stats();
    assert!(sstats.tcp_backlogged > 0, "nothing ever backlogged: {sstats:?}");
}

/// A node blocked in `wait` on a CQ that never completes still
/// re-advertises its established windows every `window_refresh`: the
/// socket block inside `wait` is cut short by the next refresh, not
/// only by the next engine deadline or the wait timeout.
#[test]
fn waiting_on_an_empty_cq_still_refreshes_windows() {
    let cfg = XportConfig { wait_timeout: Duration::from_millis(350), ..XportConfig::default() };
    let mut client = XportNode::bind(FABRIC_A, cfg).expect("bind");
    let mut server = node(FABRIC_B);
    client.add_peer(FABRIC_B, server.local_addr().unwrap());
    server.add_peer(FABRIC_A, client.local_addr().unwrap());

    let scq = server.create_cq();
    let sqp = server.create_qp(ServiceType::ReliableTcp, scq, scq).unwrap();
    server.post_recv(sqp, RecvWr { wr_id: 0, capacity: 1024 }).unwrap();
    server.tcp_listen(sqp, 5001).unwrap();
    let cq = client.create_cq();
    let qp = client.create_qp(ServiceType::ReliableTcp, cq, cq).unwrap();
    client.tcp_connect(qp, 5000, Endpoint::new(FABRIC_B, 5001)).unwrap();
    let up = client.wait_pumping(cq, &mut server).expect("client established");
    assert_eq!(up.kind, CompletionKind::ConnectionEstablished);
    let up = server.wait_pumping(scq, &mut client).expect("server established");
    assert_eq!(up.kind, CompletionKind::ConnectionEstablished);

    let idle = client.create_cq();
    let tx0 = client.stats().datagrams_tx;
    let err = client.wait(idle).expect_err("nothing can complete on an unused CQ");
    assert!(matches!(err, XportError::WaitTimeout(_)), "{err:?}");
    let refreshes = client.stats().datagrams_tx - tx0;
    assert!(refreshes >= 2, "{refreshes} window refreshes sent in a 350 ms wait");
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
    client.post_send(qp_c, SendWr { wr_id: 7, payload: message(0, 100), dst: None }).unwrap();

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
    assert_eq!(server.stats().length_errors, 1);
    assert_eq!(server.stats().snapshot().get("length_errors"), Some(1));
}
