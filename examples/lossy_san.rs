//! TCP recovery on a lossy SAN: the paper assumes "packet loss or
//! reordering seldom occurs" (§4.1) but keeps full TCP reliability in
//! the firmware. This demo injects random loss into the Myrinet fabric
//! and shows the offloaded stack recovering transparently — the
//! application only sees completions.
//!
//! Run with: `cargo run --example lossy_san`

use qpip::world::QpipWorld;
use qpip::{CompletionKind, NicConfig, RecvWr, SendWr, ServiceType};
use qpip_fabric::FaultPlan;
use qpip_netstack::types::Endpoint;

fn main() {
    let mut world = QpipWorld::myrinet();
    let a = world.add_node(NicConfig::paper_default());
    let b = world.add_node(NicConfig::paper_default());
    let cqa = world.create_cq(a);
    let cqb = world.create_cq(b);
    let qa = world.create_qp(a, ServiceType::ReliableTcp, cqa, cqa).unwrap();
    let qb = world.create_qp(b, ServiceType::ReliableTcp, cqb, cqb).unwrap();
    for i in 0..16 {
        world.post_recv(b, qb, RecvWr { wr_id: i, capacity: 8 * 1024 }).unwrap();
        world.post_recv(a, qa, RecvWr { wr_id: i, capacity: 8 * 1024 }).unwrap();
    }
    world.tcp_listen(b, 5000, qb).unwrap();
    let dst = Endpoint::new(world.addr(b), 5000);
    world.tcp_connect(a, qa, 4000, dst).unwrap();
    world.wait_matching(a, cqa, |c| c.kind == CompletionKind::ConnectionEstablished);
    world.wait_matching(b, cqb, |c| c.kind == CompletionKind::ConnectionEstablished);
    println!("connected; now injecting 5% random loss into the fabric\n");
    world.set_fault_plan(FaultPlan::DropRandom { permille: 50, seed: 7 });

    let messages = 60u64;
    let t0 = world.app_time(a);
    for i in 0..messages {
        world.post_recv(b, qb, RecvWr { wr_id: 100 + i, capacity: 8 * 1024 }).unwrap();
        world
            .post_send(a, qa, SendWr { wr_id: i, payload: vec![i as u8; 4096], dst: None })
            .unwrap();
        let c = world.wait_matching(b, cqb, |c| matches!(c.kind, CompletionKind::Recv { .. }));
        if let CompletionKind::Recv { data, .. } = &c.kind {
            assert_eq!(data.len(), 4096);
            assert!(data.iter().all(|&x| x == i as u8), "payload intact");
        }
    }
    let elapsed = world.app_time(a).duration_since(t0);

    println!("delivered {} x 4 KB messages, every byte intact", messages);
    println!("elapsed (simulated): {:.2} ms", elapsed.as_secs_f64() * 1e3);
    println!(
        "fabric dropped {} packets; the NIC's TCP retransmitted {} segments",
        world.fabric().stats().injected_drops,
        world.nic(a).engine_stats().tcp.retransmissions()
            + world.nic(b).engine_stats().tcp.retransmissions(),
    );
    println!("the application never noticed: reliability lives below the QP.");
}
