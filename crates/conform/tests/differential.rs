//! Differential checking: one workload, two execution substrates.
//!
//! The DES world (`QpipWorld`) and the live-socket transport
//! (`XportNode` over 127.0.0.1) both drive the stock protocol engine.
//! Run the same lockstep application workload through both and the
//! normalized per-connection flight-recorder streams — state
//! transitions and wire segments, timestamps stripped — must be
//! byte-identical: same handshake, same sequence numbers, same flags,
//! same windows, same teardown-free steady state. Any divergence means
//! one substrate drives the engine differently than the other.
//!
//! The verbs layer above the engine is compared too: every completion
//! either side pops, `visible_at` stripped, must form identical
//! per-CQ streams — same QP and CQ ids, same WR ids, kinds, statuses
//! and payloads, in the same order.
//!
//! The workload is lockstep (one message outstanding at a time, each
//! acknowledged before the next is posted) so wall-clock scheduling on
//! the live side cannot reorder protocol events relative to the
//! deterministic simulation.

use std::collections::BTreeMap;
use std::net::Ipv6Addr;
use std::sync::Arc;
use std::time::Duration;

use qpip::world::QpipWorld;
use qpip::{Completion, CompletionKind, CompletionStatus, CqId, NicConfig, QpId, RecvWr};
use qpip::{SendWr, ServiceType};
use qpip_conform::differential::{first_divergence, normalize};
use qpip_netstack::types::Endpoint;
use qpip_trace::{FlightRecorder, Tracer};
use qpip_xport::{XportConfig, XportNode};

const PORT: u16 = 5001;
const RECV_CAP: usize = 4096;

/// Direction of one workload message.
#[derive(Clone, Copy)]
enum Dir {
    ClientToServer,
    ServerToClient,
}
use Dir::{ClientToServer, ServerToClient};

/// The shared workload: a handshake followed by lockstep bidirectional
/// messages of varying sizes. No close — the DES NIC has no app-close
/// verb, so the comparison ends in steady state.
fn workload() -> Vec<(Dir, usize)> {
    vec![
        (ClientToServer, 512),
        (ClientToServer, 96),
        (ServerToClient, 384),
        (ClientToServer, 1500),
        (ServerToClient, 64),
        (ServerToClient, 700),
        (ClientToServer, 1),
    ]
}

/// One popped completion without its timestamp: the payload rides in
/// the kind.
type Popped = (QpId, u64, CompletionKind, CompletionStatus);

/// Every completion a run popped, per (node, CQ), in pop order.
type CqStreams = BTreeMap<(u32, CqId), Vec<Popped>>;

fn record(streams: &mut CqStreams, node: u32, cq: CqId, c: &Completion) {
    streams.entry((node, cq)).or_default().push((c.qp, c.wr_id, c.kind.clone(), c.status.clone()));
}

fn payload(i: usize, len: usize) -> Vec<u8> {
    (0..len).map(|b| (i.wrapping_mul(37).wrapping_add(b)) as u8).collect()
}

/// Waits on `cq` until `pred` matches, recording every completion
/// popped on the way.
fn des_wait(
    w: &mut QpipWorld,
    streams: &mut CqStreams,
    node: qpip::world::NodeIdx,
    cq: CqId,
    pred: impl Fn(&Completion) -> bool,
) -> Completion {
    loop {
        let c = w.wait(node, cq);
        record(streams, node.0 as u32, cq, &c);
        if pred(&c) {
            return c;
        }
    }
}

/// Runs the workload through the DES world. Node 0 is the server,
/// node 1 the client (matching the tracer scopes of the live run).
fn des_run(script: &[(Dir, usize)]) -> (Vec<qpip_trace::Rec>, CqStreams) {
    let nic = NicConfig::paper_default();
    let mut w = QpipWorld::myrinet();
    let rec = Arc::new(FlightRecorder::new(65536));
    w.install_recorder(Arc::clone(&rec));

    let server = w.add_node(nic.clone());
    let cq_s = w.create_cq(server);
    let qp_s = w.create_qp(server, ServiceType::ReliableTcp, cq_s, cq_s).unwrap();
    for i in 0..script.len() {
        w.post_recv(server, qp_s, RecvWr { wr_id: i as u64, capacity: RECV_CAP }).unwrap();
    }
    w.tcp_listen(server, PORT, qp_s).unwrap();

    let client = w.add_node(nic);
    let cq_c = w.create_cq(client);
    let qp_c = w.create_qp(client, ServiceType::ReliableTcp, cq_c, cq_c).unwrap();
    for i in 0..script.len() {
        w.post_recv(client, qp_c, RecvWr { wr_id: i as u64, capacity: RECV_CAP }).unwrap();
    }
    w.tcp_connect(client, qp_c, 4000, Endpoint::new(w.addr(server), PORT)).unwrap();
    let mut streams = CqStreams::new();
    let up = |c: &Completion| c.kind == CompletionKind::ConnectionEstablished;
    des_wait(&mut w, &mut streams, client, cq_c, up);
    des_wait(&mut w, &mut streams, server, cq_s, up);

    for (i, &(dir, len)) in script.iter().enumerate() {
        let (snode, sqp, scq, rnode, rcq) = match dir {
            ClientToServer => (client, qp_c, cq_c, server, cq_s),
            ServerToClient => (server, qp_s, cq_s, client, cq_c),
        };
        w.post_send(snode, sqp, SendWr { wr_id: i as u64, payload: payload(i, len), dst: None })
            .unwrap();
        let recv = |c: &Completion| matches!(c.kind, CompletionKind::Recv { .. });
        let got = des_wait(&mut w, &mut streams, rnode, rcq, recv);
        let CompletionKind::Recv { ref data, .. } = got.kind else { unreachable!() };
        assert_eq!(data, &payload(i, len), "DES message {i} corrupted");
        des_wait(&mut w, &mut streams, snode, scq, |c| c.kind == CompletionKind::Send);
    }
    w.run_until_idle();
    (rec.events(), streams)
}

/// Waits for the next completion on `target`'s `cq`, pumping `other`
/// so each side's engine keeps making progress, records it under the
/// target's tracer scope `node`, and checks it is the one expected.
fn poll_until(
    (target, node): (&mut XportNode, u32),
    other: &mut XportNode,
    streams: &mut CqStreams,
    cq: CqId,
    pred: impl Fn(&Completion) -> bool,
    what: &str,
) -> Completion {
    let c = target.wait_pumping(cq, other).unwrap_or_else(|e| panic!("waiting for {what}: {e}"));
    record(streams, node, cq, &c);
    assert!(pred(&c), "unexpected completion while waiting for {what}: {:?}", c.kind);
    c
}

/// Runs the workload over real loopback sockets. Tracer scopes match
/// the DES run: node 0 server, node 1 client.
fn live_run(script: &[(Dir, usize)]) -> (Vec<qpip_trace::Rec>, CqStreams) {
    const FABRIC_S: Ipv6Addr = Ipv6Addr::new(0xfc00, 0, 0, 0, 0, 0, 0, 1);
    const FABRIC_C: Ipv6Addr = Ipv6Addr::new(0xfc00, 0, 0, 0, 0, 0, 0, 2);
    let rec = Arc::new(FlightRecorder::new(65536));
    // the periodic window re-advertisement is a wall-clock artifact the
    // DES world has no counterpart for; push it past the test horizon
    let cfg =
        || XportConfig { window_refresh: Duration::from_secs(3600), ..XportConfig::default() };

    let mut server = XportNode::bind(FABRIC_S, cfg()).expect("bind server");
    let mut client = XportNode::bind(FABRIC_C, cfg()).expect("bind client");
    server.set_tracer(Tracer::new(Arc::clone(&rec), 0));
    client.set_tracer(Tracer::new(Arc::clone(&rec), 1));
    server.add_peer(FABRIC_C, client.local_addr().unwrap());
    client.add_peer(FABRIC_S, server.local_addr().unwrap());

    let cq_s = server.create_cq();
    let qp_s = server.create_qp(ServiceType::ReliableTcp, cq_s, cq_s).unwrap();
    for i in 0..script.len() {
        server.post_recv(qp_s, RecvWr { wr_id: i as u64, capacity: RECV_CAP }).unwrap();
    }
    server.tcp_listen(qp_s, PORT).unwrap();

    let cq_c = client.create_cq();
    let qp_c = client.create_qp(ServiceType::ReliableTcp, cq_c, cq_c).unwrap();
    for i in 0..script.len() {
        client.post_recv(qp_c, RecvWr { wr_id: i as u64, capacity: RECV_CAP }).unwrap();
    }
    client.tcp_connect(qp_c, 4000, Endpoint::new(FABRIC_S, PORT)).unwrap();
    let mut streams = CqStreams::new();
    let up = |c: &Completion| c.kind == CompletionKind::ConnectionEstablished;
    poll_until((&mut client, 1), &mut server, &mut streams, cq_c, up, "client established");
    poll_until((&mut server, 0), &mut client, &mut streams, cq_s, up, "server established");

    for (i, &(dir, len)) in script.iter().enumerate() {
        let c2s = matches!(dir, ClientToServer);
        let (snd_qp, snd_cq, rcv_cq) = if c2s { (qp_c, cq_c, cq_s) } else { (qp_s, cq_s, cq_c) };
        {
            let sender = if c2s { &mut client } else { &mut server };
            sender
                .post_send(snd_qp, SendWr { wr_id: i as u64, payload: payload(i, len), dst: None })
                .unwrap();
        }
        let ((sender, snode), (receiver, rnode)) = if c2s {
            ((&mut client, 1), (&mut server, 0))
        } else {
            ((&mut server, 0), (&mut client, 1))
        };
        let recv = |c: &Completion| matches!(c.kind, CompletionKind::Recv { .. });
        let got =
            poll_until((receiver, rnode), sender, &mut streams, rcv_cq, recv, "message delivery");
        let CompletionKind::Recv { ref data, .. } = got.kind else { unreachable!() };
        assert_eq!(data, &payload(i, len), "live message {i} corrupted");
        let sent = |c: &Completion| c.kind == CompletionKind::Send;
        poll_until((sender, snode), receiver, &mut streams, snd_cq, sent, "send completion");
    }
    (rec.events(), streams)
}

#[test]
fn des_and_live_transport_drive_the_engine_identically() {
    let script = workload();
    let (des, _) = des_run(&script);
    let (live, _) = live_run(&script);

    for node in 0..2u32 {
        let a = normalize(&des, node);
        let b = normalize(&live, node);
        assert_eq!(a.len(), 1, "DES node {node}: expected one connection, got {}", a.len());
        assert_eq!(b.len(), 1, "live node {node}: expected one connection, got {}", b.len());
        if let Some(d) = first_divergence(&a[0], &b[0]) {
            panic!("node {node} ({}): {d}", if node == 0 { "server" } else { "client" });
        }
        assert!(
            a[0].iter().any(|l| l.starts_with("state")),
            "node {node} stream has no state transitions: {:?}",
            &a[0]
        );
    }
}

#[test]
fn des_and_live_transport_pop_identical_completion_streams() {
    let script = workload();
    let (_, des) = des_run(&script);
    let (_, live) = live_run(&script);
    // handshake + one send and one receive entry per message
    let popped: usize = des.values().map(Vec::len).sum();
    assert_eq!(popped, 2 + 2 * script.len(), "DES streams: {des:?}");
    for (key, stream) in &des {
        assert_eq!(live.get(key), Some(stream), "CQ stream {key:?} diverges");
    }
    assert_eq!(des.len(), live.len(), "live popped from CQs the DES never used");
}
