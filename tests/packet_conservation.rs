//! Packet conservation across the NIC/fabric boundary: at idle, every
//! packet a NIC handed to the fabric was either delivered or dropped
//! there, and every delivered packet reached a NIC's receive path.
//!
//! Σ `nic.tx_packets` = `fabric.delivered` + `fabric.dropped`
//! `fabric.delivered` = Σ `nic.rx_packets`
//!
//! Checked on a lossless many-flow fan-in, on a two-node stream losing
//! packets to random injected drops, and on datagrams a fault plan
//! holds until the world goes idle.

use qpip::world::QpipWorld;
use qpip::{CompletionKind, NicConfig, RecvWr, SendWr, ServiceType};
use qpip_bench::workloads::manyflow::run_scale;
use qpip_fabric::FaultPlan;
use qpip_netstack::types::Endpoint;
use qpip_trace::Snapshot;

/// Counter `name` of the snapshot scoped `scope`.
fn counter(snaps: &[Snapshot], scope: &str, name: &str) -> u64 {
    let snap = snaps.iter().find(|s| s.scope() == scope).unwrap_or_else(|| panic!("no {scope}"));
    snap.get(name).unwrap_or_else(|| panic!("no {scope}.{name}"))
}

/// Asserts both identities on a world's fleet-wide snapshots and
/// returns `(delivered, dropped)`.
fn assert_conserved(snaps: &[Snapshot]) -> (u64, u64) {
    let tx = counter(snaps, "nic", "tx_packets");
    let rx = counter(snaps, "nic", "rx_packets");
    let delivered = counter(snaps, "fabric", "delivered");
    let dropped = counter(snaps, "fabric", "dropped");
    assert_eq!(
        tx,
        delivered + dropped,
        "nic tx {tx} != fabric delivered {delivered} + dropped {dropped}"
    );
    assert_eq!(delivered, rx, "fabric delivered {delivered} != nic rx {rx}");
    (delivered, dropped)
}

#[test]
fn lossless_fan_in_conserves_packets() {
    let r = run_scale(64, 2, 512);
    assert_eq!(r.bytes_received, 64 * 2 * 512);
    let (delivered, dropped) = assert_conserved(&r.counters);
    assert!(delivered > 0);
    assert_eq!(dropped, 0, "the fan-in is lossless");
}

#[test]
fn lossy_stream_conserves_packets() {
    let mut w = QpipWorld::myrinet();
    let a = w.add_node(NicConfig::paper_default());
    let b = w.add_node(NicConfig::paper_default());
    let cqa = w.create_cq(a);
    let cqb = w.create_cq(b);
    let qa = w.create_qp(a, ServiceType::ReliableTcp, cqa, cqa).unwrap();
    let qb = w.create_qp(b, ServiceType::ReliableTcp, cqb, cqb).unwrap();
    w.tcp_listen(b, 5000, qb).unwrap();
    w.tcp_connect(a, qa, 4000, Endpoint::new(w.addr(b), 5000)).unwrap();
    w.wait_matching(a, cqa, |c| c.kind == CompletionKind::ConnectionEstablished);
    w.set_fault_plan(FaultPlan::DropRandom { permille: 50, seed: 7 }); // 5%

    const MESSAGES: u64 = 200;
    for i in 0..MESSAGES {
        w.post_recv(b, qb, RecvWr { wr_id: i, capacity: 4096 }).unwrap();
        w.post_send(a, qa, SendWr { wr_id: i, payload: vec![i as u8; 4096], dst: None }).unwrap();
    }
    let mut received = 0;
    while received < MESSAGES {
        if let CompletionKind::Recv { data, .. } = w.wait(b, cqb).kind {
            assert_eq!(data, vec![received as u8; 4096], "message {received}");
            received += 1;
        }
    }
    w.run_until_idle();

    let (delivered, dropped) = assert_conserved(&w.counter_snapshots());
    assert!(delivered > MESSAGES);
    assert!(dropped > 0, "loss actually happened");
    assert_eq!(dropped, w.fabric().stats().injected_drops, "every drop was injected");
}

/// A held packet waits for its sender's next one; UDP resends nothing,
/// so these datagrams reach the fabric only because the world releases
/// what is held before it reports idle.
#[test]
fn held_datagrams_are_released_before_idle() {
    let mut w = QpipWorld::myrinet();
    let [a, b] = [(); 2].map(|()| w.add_node(NicConfig::paper_default()));
    let [cqa, cqb] = [a, b].map(|n| w.create_cq(n));
    let qa = w.create_qp(a, ServiceType::UnreliableUdp, cqa, cqa).unwrap();
    let qb = w.create_qp(b, ServiceType::UnreliableUdp, cqb, cqb).unwrap();
    w.udp_bind(a, qa, 9000).unwrap();
    w.udp_bind(b, qb, 9001).unwrap();
    w.set_fault_plan(FaultPlan::Impair { drop_permille: 0, hold_permille: 1000, seed: 1 });
    let dst = Some(Endpoint::new(w.addr(b), 9001));
    for i in 0..3 {
        w.post_recv(b, qb, RecvWr { wr_id: i, capacity: 64 }).unwrap();
        w.post_send(a, qa, SendWr { wr_id: i, payload: vec![i as u8], dst }).unwrap();
    }
    w.run_until_idle();
    let (delivered, _) = assert_conserved(&w.counter_snapshots());
    assert_eq!((delivered, w.injected_holds()), (3, 3));
}
