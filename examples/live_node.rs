//! Two live nodes on 127.0.0.1: the DES protocol engine driving real
//! UDP sockets through `qpip-xport`, first over a clean wire and then
//! through the deterministic impairment proxy at 2% loss + reordering.
//!
//! The exact same `qpip-netstack` engine that powers the Figures 3–7
//! simulations produces every byte on the wire here — `XportNode` only
//! swaps the discrete-event scheduler for a wall clock and a
//! nonblocking socket.
//!
//! Run with: `cargo run --example live_node`

use std::net::Ipv6Addr;
use std::time::{Duration, Instant};

use qpip_netstack::types::Endpoint;
use qpip_nic::types::{Completion, CompletionKind, CompletionStatus, RecvWr, SendWr, ServiceType};
use qpip_xport::{ImpairConfig, ImpairProxy, XportConfig, XportNode};

const FABRIC_A: Ipv6Addr = Ipv6Addr::new(0xfc00, 0, 0, 0, 0, 0, 0, 1);
const FABRIC_B: Ipv6Addr = Ipv6Addr::new(0xfc00, 0, 0, 0, 0, 0, 0, 2);
const PORT: u16 = 5001;
const MESSAGES: u32 = 64;
const LEN: usize = 2048;

fn message(seq: u32, len: usize) -> Vec<u8> {
    let mut m = Vec::with_capacity(len);
    m.extend_from_slice(&seq.to_be_bytes());
    m.extend((4..len).map(|i| (seq as usize).wrapping_mul(31).wrapping_add(i) as u8));
    m
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

/// One transfer with the sockets already wired (directly or through a
/// proxy), both nodes driven from this thread. The client connects and
/// streams `MESSAGES` messages with at most 16 in flight, waiting on
/// acknowledgments while pumping the server; between waits the server
/// drains its CQ, keeps receive WRs posted and checks that every
/// message arrived exactly once and in order. Returns the wall time and
/// how many retransmissions the engine's loss recovery issued.
fn run_pair(mut client: XportNode, mut server: XportNode) -> (Duration, u64) {
    let srv_cq = server.create_cq();
    let srv_qp = server.create_qp(ServiceType::ReliableTcp, srv_cq, srv_cq).unwrap();
    server.tcp_listen(srv_qp, PORT).unwrap();
    for i in 0..64u32 {
        server.post_recv(srv_qp, RecvWr { wr_id: u64::from(i), capacity: LEN }).unwrap();
    }
    let serve = |server: &mut XportNode, got: &mut u32, c: Completion| match c.kind {
        CompletionKind::ConnectionEstablished => {}
        CompletionKind::Recv { data, .. } => {
            assert_eq!(c.status, CompletionStatus::Success);
            assert_eq!(data, message(*got, LEN), "message {got} corrupted or misordered");
            *got += 1;
            if *got < MESSAGES {
                server.post_recv(srv_qp, RecvWr { wr_id: 0, capacity: LEN }).unwrap();
            }
        }
        other => panic!("unexpected completion {other:?}"),
    };
    let mut got = 0u32;

    let cq_conn = client.create_cq();
    let cq_send = client.create_cq();
    let qp = client.create_qp(ServiceType::ReliableTcp, cq_send, cq_conn).unwrap();
    client.tcp_connect(qp, 5000, Endpoint::new(FABRIC_B, PORT)).unwrap();
    let c = client.wait_pumping(cq_conn, &mut server).expect("connection established");
    assert_eq!(c.kind, CompletionKind::ConnectionEstablished);

    let t0 = Instant::now();
    let (mut next, mut inflight, mut completed) = (0u32, 0u32, 0u32);
    while completed < MESSAGES {
        while next < MESSAGES && inflight < 16 {
            client
                .post_send(
                    qp,
                    SendWr { wr_id: u64::from(next), payload: message(next, LEN), dst: None },
                )
                .unwrap();
            next += 1;
            inflight += 1;
        }
        while let Some(c) = server.poll(srv_cq).unwrap() {
            serve(&mut server, &mut got, c);
        }
        let done = client.wait_pumping(cq_send, &mut server).expect("send completion");
        assert_eq!(done.status, CompletionStatus::Success);
        inflight -= 1;
        completed += 1;
    }
    let elapsed = t0.elapsed();
    // sample before close: per-connection counters die with the TCB
    let retrans = client.engine().retransmissions();
    client.tcp_close(qp).unwrap();
    while got < MESSAGES {
        let c = server.wait_pumping(srv_cq, &mut client).expect("server completion");
        serve(&mut server, &mut got, c);
    }
    let _ = server.tcp_close(srv_qp);
    quiesce(&mut client, &mut server);
    (elapsed, retrans)
}

fn main() {
    let kb = (u64::from(MESSAGES) * LEN as u64) / 1024;
    println!("live two-node transfer: {MESSAGES} x {LEN} B ({kb} KiB) over 127.0.0.1\n");

    // Pass 1: clean wire, node A talks straight to node B.
    let mut a = XportNode::bind(FABRIC_A, XportConfig::default()).expect("bind node A");
    let mut b = XportNode::bind(FABRIC_B, XportConfig::default()).expect("bind node B");
    a.add_peer(FABRIC_B, b.local_addr().unwrap());
    b.add_peer(FABRIC_A, a.local_addr().unwrap());
    let (wall, retrans) = run_pair(a, b);
    println!(
        "  clean wire     : delivered in-order in {:6.1} ms, {} retransmissions",
        wall.as_secs_f64() * 1e3,
        retrans
    );

    // Pass 2: same engine, but every datagram now crosses the
    // impairment proxy — 2% dropped, 3% held back for reordering.
    let mut a = XportNode::bind(FABRIC_A, XportConfig::default()).expect("bind node A");
    let mut b = XportNode::bind(FABRIC_B, XportConfig::default()).expect("bind node B");
    let proxy = ImpairProxy::new(ImpairConfig {
        seed: 42,
        drop_per_mille: 20,
        reorder_per_mille: 30,
        hold_at_most: Duration::from_millis(10),
    })
    .route(FABRIC_A, a.local_addr().unwrap())
    .route(FABRIC_B, b.local_addr().unwrap())
    .spawn()
    .expect("spawn impairment proxy");
    a.add_peer(FABRIC_B, proxy.addr());
    b.add_peer(FABRIC_A, proxy.addr());
    let (wall, retrans) = run_pair(a, b);
    let stats = proxy.stats();
    println!(
        "  2% loss proxy  : delivered in-order in {:6.1} ms, {} retransmissions \
         ({} datagrams dropped, {} reordered)",
        wall.as_secs_f64() * 1e3,
        retrans,
        stats.dropped,
        stats.reordered
    );

    println!("\nboth transfers exactly-once, in-order — the engine's TCP, not the wire,");
    println!("provides reliability (the DES worlds remain byte-identical; see DESIGN.md §12)");
}
