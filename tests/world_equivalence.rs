//! One script, two worlds: a `MixedWorld` holding only one node kind
//! must simulate exactly what the matching pure world simulates — the
//! same completions at the same instants, the same clock after every
//! call and the same number of events. Node addresses differ between
//! the worlds, but neither the ISS counter nor the fabric timing
//! depends on them.

use qpip::baseline::SocketWorld;
use qpip::mixed::MixedWorld;
use qpip::world::QpipWorld;
use qpip::{Completion, CompletionKind, CqId, NicConfig, NodeIdx, RecvWr, SendWr, ServiceType};
use qpip_fabric::FabricConfig;
use qpip_host::stack::StackConfig;
use qpip_netstack::types::Endpoint;
use qpip_sim::time::SimTime;

/// What one run of a script observed.
#[derive(Debug, PartialEq)]
struct Run {
    /// Completions as `(wr_id, kind, visible_at)`, or the clocks after
    /// each socket call, in order.
    trace: Vec<String>,
    now: SimTime,
    events: u64,
}

fn nic() -> NicConfig {
    NicConfig { mtu: 9000, ..NicConfig::paper_default() }
}

fn entry(c: &Completion) -> String {
    let kind = match &c.kind {
        CompletionKind::Recv { data, .. } => format!("Recv({}B)", data.len()),
        k => format!("{k:?}"),
    };
    format!("({}, {kind}, {:?})", c.wr_id, c.visible_at)
}

fn is_recv(k: &CompletionKind) -> bool {
    matches!(k, CompletionKind::Recv { .. })
}

fn is_established(k: &CompletionKind) -> bool {
    *k == CompletionKind::ConnectionEstablished
}

/// Defines `$name`, which runs the verbs script on a world of type
/// `$World` whose QPIP nodes are added by `$add`: connect, 20
/// ping-pong rounds of growing size, then 32 × 8 KB back to back.
macro_rules! verbs_script {
    ($name:ident, $World:ty, $add:ident) => {
        fn $name(mut w: $World) -> Run {
            let (a, b) = (w.$add(nic()), w.$add(nic()));
            let mut trace = Vec::new();
            // waits for a `want` completion, logging every entry consumed
            let mut until =
                |w: &mut $World, node: NodeIdx, cq: CqId, want: fn(&CompletionKind) -> bool| loop {
                    let c = w.wait(node, cq);
                    trace.push(entry(&c));
                    if want(&c.kind) {
                        break;
                    }
                };
            let (cqa, cqb) = (w.create_cq(a), w.create_cq(b));
            let qa = w.create_qp(a, ServiceType::ReliableTcp, cqa, cqa).unwrap();
            let qb = w.create_qp(b, ServiceType::ReliableTcp, cqb, cqb).unwrap();
            for i in 0..64 {
                w.post_recv(a, qa, RecvWr { wr_id: 100 + i, capacity: 16 * 1024 }).unwrap();
                w.post_recv(b, qb, RecvWr { wr_id: 200 + i, capacity: 16 * 1024 }).unwrap();
            }
            w.tcp_listen(b, 5000, qb).unwrap();
            let remote = Endpoint::new(w.addr(b), 5000);
            w.tcp_connect(a, qa, 4000, remote).unwrap();
            until(&mut w, a, cqa, is_established);
            until(&mut w, b, cqb, is_established);
            for round in 0..20u64 {
                let len = 1 + round as usize * 440;
                let ping = SendWr { wr_id: 1000 + round, payload: vec![1; len], dst: None };
                w.post_send(a, qa, ping).unwrap();
                until(&mut w, b, cqb, is_recv);
                let pong = SendWr { wr_id: 2000 + round, payload: vec![2; len], dst: None };
                w.post_send(b, qb, pong).unwrap();
                until(&mut w, a, cqa, is_recv);
            }
            for i in 0..32 {
                let bulk = SendWr { wr_id: 3000 + i, payload: vec![3; 8192], dst: None };
                w.post_send(a, qa, bulk).unwrap();
            }
            for _ in 0..32 {
                until(&mut w, b, cqb, is_recv);
            }
            w.run_until_idle();
            for (node, cq) in [(a, cqa), (b, cqb)] {
                while let Some(c) = w.try_wait(node, cq) {
                    trace.push(entry(&c));
                }
            }
            Run { trace, now: w.now(), events: w.events_processed() }
        }
    };
}

verbs_script!(verbs_on_qpip_world, QpipWorld, add_node);
verbs_script!(verbs_on_mixed_world, MixedWorld, add_qpip_node);

/// Defines `$name`, which runs the socket script on a world of type
/// `$World` whose hosts are added by `$add`: connect, accept, a
/// 300,000-byte blocking send and receive, then 10 small replies.
macro_rules! socket_script {
    ($name:ident, $World:ty, $add:ident) => {
        fn $name(mut w: $World) -> Run {
            let a = w.$add(StackConfig::gm_myrinet());
            let b = w.$add(StackConfig::gm_myrinet());
            let mut trace = Vec::new();
            let mut mark = |w: &$World, call: &str, node: NodeIdx| {
                trace.push(format!("{call}: now {:?} app {:?}", w.now(), w.app_time(node)));
            };
            let ls = w.tcp_socket(b);
            w.listen(b, ls, 5000).unwrap();
            let cs = w.tcp_socket(a);
            let remote = Endpoint::new(w.addr(b), 5000);
            w.connect_blocking(a, cs, 4000, remote).unwrap();
            mark(&w, "connect_blocking", a);
            let ss = w.accept_blocking(b, ls);
            mark(&w, "accept_blocking", b);
            let data: Vec<u8> = (0..300_000u32).map(|i| (i % 251) as u8).collect();
            w.send_blocking(a, cs, data.clone()).unwrap();
            mark(&w, "send_blocking", a);
            assert_eq!(w.recv_exact(b, ss, data.len()), data);
            mark(&w, "recv_exact", b);
            for i in 0..10u8 {
                let reply = vec![i; 64 + 16 * i as usize];
                w.send_blocking(b, ss, reply.clone()).unwrap();
                mark(&w, "reply send_blocking", b);
                assert_eq!(w.recv_exact(a, cs, reply.len()), reply);
                mark(&w, "reply recv_exact", a);
            }
            w.run_until_idle();
            Run { trace, now: w.now(), events: w.events_processed() }
        }
    };
}

socket_script!(sockets_on_socket_world, SocketWorld, add_node);
socket_script!(sockets_on_mixed_world, MixedWorld, add_host_node);

#[test]
fn mixed_world_of_qpip_nodes_matches_qpip_world() {
    let pure = verbs_on_qpip_world(QpipWorld::new(FabricConfig::myrinet_gm()));
    let mixed = verbs_on_mixed_world(MixedWorld::new(FabricConfig::myrinet_gm()));
    assert!(pure.trace.len() > 100, "script too short: {} completions", pure.trace.len());
    for (i, (p, m)) in pure.trace.iter().zip(&mixed.trace).enumerate() {
        assert_eq!(p, m, "completion {i} differs");
    }
    assert_eq!(pure, mixed);
}

#[test]
fn mixed_world_of_socket_hosts_matches_socket_world() {
    let pure = sockets_on_socket_world(SocketWorld::gm_myrinet());
    let mixed = sockets_on_mixed_world(MixedWorld::new(FabricConfig::myrinet_gm()));
    for (i, (p, m)) in pure.trace.iter().zip(&mixed.trace).enumerate() {
        assert_eq!(p, m, "call {i} returned at a different instant");
    }
    assert_eq!(pure, mixed);
}
