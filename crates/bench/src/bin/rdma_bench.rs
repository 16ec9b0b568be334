//! RDMA extension benchmark: the §2.1 transaction class QPIP's
//! prototype left unimplemented, measured against send-receive on the
//! same simulated hardware.
//!
//! Three comparisons per message size:
//! * send-receive (two-sided: the target posts buffers and takes a
//!   completion per message);
//! * RDMA Write (one-sided: direct placement, target silent);
//! * RDMA Read (one-sided fetch: request/response through the target's
//!   NIC only).

use qpip::world::QpipWorld;
use qpip::{
    CompletionKind, NicConfig, NodeIdx, RdmaReadWr, RdmaWriteWr, RecvWr, SendWr, ServiceType,
};
use qpip_bench::report::{f1, Checks, Table};
use qpip_netstack::types::Endpoint;

struct Rig {
    w: QpipWorld,
    a: NodeIdx,
    b: NodeIdx,
    qa: qpip::QpId,
    qb: qpip::QpId,
    cqa: qpip::CqId,
    cqb: qpip::CqId,
    region: qpip::MrKey,
}

fn rig() -> Rig {
    let mut w = QpipWorld::myrinet();
    let a = w.add_node(NicConfig::with_rdma());
    let b = w.add_node(NicConfig::with_rdma());
    let cqa = w.create_cq(a);
    let cqb = w.create_cq(b);
    let qa = w.create_qp(a, ServiceType::ReliableTcp, cqa, cqa).unwrap();
    let qb = w.create_qp(b, ServiceType::ReliableTcp, cqb, cqb).unwrap();
    for i in 0..64 {
        w.post_recv(a, qa, RecvWr { wr_id: i, capacity: 16 * 1024 }).unwrap();
        w.post_recv(b, qb, RecvWr { wr_id: i, capacity: 16 * 1024 }).unwrap();
    }
    w.tcp_listen(b, 5000, qb).unwrap();
    let dst = Endpoint::new(w.addr(b), 5000);
    w.tcp_connect(a, qa, 4000, dst).unwrap();
    w.wait_matching(a, cqa, |c| c.kind == CompletionKind::ConnectionEstablished);
    w.wait_matching(b, cqb, |c| c.kind == CompletionKind::ConnectionEstablished);
    let region = w.register_mr(b, 1 << 20);
    Rig { w, a, b, qa, qb, cqa, cqb, region }
}

/// Round-trip completion latency of one operation, averaged.
fn latency_us(rounds: usize, size: usize, mut op: impl FnMut(&mut Rig, u64) -> f64) -> f64 {
    let mut r = rig();
    let _ = size;
    let mut total = 0.0;
    let warmup = 3;
    for i in 0..rounds + warmup {
        let us = op(&mut r, i as u64);
        if i >= warmup {
            total += us;
        }
    }
    total / rounds as f64
}

fn main() {
    println!("RDMA extension: one-sided ops vs send-receive (completion latency)\n");
    let rounds = 12;
    let mut t = Table::new(
        "Completion latency (µs) by message size",
        &["size", "send-recv", "rdma write", "rdma read", "target completions"],
    );
    for size in [64usize, 1024, 8192] {
        // operations are issued in pairs so the second segment triggers
        // the firmware's every-other-segment ACK; an isolated operation
        // instead completes on the 300 µs delayed-ACK timer (a real
        // property of the BSD-derived firmware, reported separately)
        let sr = latency_us(rounds, size, |r, i| {
            let t0 = r.w.app_time(r.a);
            for k in 0..2u64 {
                r.w.post_recv(r.b, r.qb, RecvWr { wr_id: 500 + 2 * i + k, capacity: 16 * 1024 })
                    .unwrap();
                r.w.post_send(
                    r.a,
                    r.qa,
                    SendWr { wr_id: 2 * i + k, payload: vec![7; size], dst: None },
                )
                .unwrap();
            }
            // two-sided: target takes completions, initiator completes on ack
            for _ in 0..2 {
                r.w.wait_matching(r.b, r.cqb, |c| matches!(c.kind, CompletionKind::Recv { .. }));
                r.w.wait_matching(r.a, r.cqa, |c| c.kind == CompletionKind::Send);
            }
            r.w.app_time(r.a).duration_since(t0).as_micros_f64() / 2.0
        });
        let (wr_lat, target_quiet) = {
            let mut r = rig();
            let mut total = 0.0;
            let warmup = 3;
            for i in 0..rounds + warmup {
                let t0 = r.w.app_time(r.a);
                for k in 0..2u64 {
                    r.w.post_rdma_write(
                        r.a,
                        r.qa,
                        RdmaWriteWr {
                            wr_id: 2 * i as u64 + k,
                            data: vec![7; size],
                            rkey: r.region,
                            remote_offset: 0,
                        },
                    )
                    .unwrap();
                }
                r.w.wait_matching(r.a, r.cqa, |c| c.kind == CompletionKind::RdmaWrite);
                r.w.wait_matching(r.a, r.cqa, |c| c.kind == CompletionKind::RdmaWrite);
                if i >= warmup {
                    total += r.w.app_time(r.a).duration_since(t0).as_micros_f64() / 2.0;
                }
            }
            // the target application saw nothing throughout
            let quiet = r.w.try_wait(r.b, r.cqb).is_none();
            (total / rounds as f64, quiet)
        };
        let rd = latency_us(rounds, size, |r, i| {
            let t0 = r.w.app_time(r.a);
            r.w.post_rdma_read(
                r.a,
                r.qa,
                RdmaReadWr { wr_id: i, len: size as u32, rkey: r.region, remote_offset: 0 },
            )
            .unwrap();
            r.w.wait_matching(r.a, r.cqa, |c| matches!(c.kind, CompletionKind::RdmaRead { .. }));
            r.w.app_time(r.a).duration_since(t0).as_micros_f64()
        });
        t.row(&[
            size.to_string(),
            f1(sr),
            f1(wr_lat),
            f1(rd),
            if target_quiet { "none (one-sided)" } else { "UNEXPECTED" }.into(),
        ]);
    }
    t.print();
    println!(
        "\n(two-sided/write ops are issued in pairs: the firmware acks every\n second segment; a lone operation completes on the 300 µs delayed-ACK\n timer instead. RDMA Read has no such floor — the response data is its\n own completion.)"
    );

    println!("\nShape checks:");
    let mut checks = Checks::default();
    let rd_small = latency_us(8, 64, |r, i| {
        let t0 = r.w.app_time(r.a);
        r.w.post_rdma_read(
            r.a,
            r.qa,
            RdmaReadWr { wr_id: i, len: 64, rkey: r.region, remote_offset: 0 },
        )
        .unwrap();
        r.w.wait_matching(r.a, r.cqa, |c| matches!(c.kind, CompletionKind::RdmaRead { .. }));
        r.w.app_time(r.a).duration_since(t0).as_micros_f64()
    });
    checks.check(
        "RDMA read ≈ one round trip through both NICs (tens of µs)",
        (30.0..200.0).contains(&rd_small),
    );
    checks.finish();
}
