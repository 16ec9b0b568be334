//! Tables 2 & 3 — network-interface per-stage processing costs.
//!
//! Reproduces the LANai-cycle-counter measurement of §4.2.2: one-way
//! 1-byte TCP messages from node A to node B, with the hardware-assisted
//! receive checksum the paper's figures assume. A flight recorder
//! installed after the handshake captures every firmware stage charge;
//! node A's charges yield Table 2's data-send column and Table 3's
//! ACK-receive column, node B's yield Table 3's data-receive column and
//! Table 2's ACK-send column.
//!
//! Pass `--hw-multiply` to ablate the software-multiply penalty the
//! paper calls out ("A more specialized interface design would
//! dramatically reduce these costs").

use std::sync::Arc;

use qpip::world::QpipWorld;
use qpip::{CompletionKind, NicConfig, RecvWr, SendWr, ServiceType};
use qpip_bench::report::{Checks, Table};
use qpip_netstack::types::Endpoint;
use qpip_nic::{Occupancy, PacketClass, Stage};
use qpip_trace::{FlightRecorder, NODE_SCOPE};

/// Node A's and node B's occupancy over the steady-state data flow.
fn run(hw_multiply: bool) -> (Occupancy, Occupancy) {
    let cfg = NicConfig { hw_multiply, ..NicConfig::paper_default() };
    let mut w = QpipWorld::myrinet();
    let a = w.add_node(cfg.clone());
    let b = w.add_node(cfg);
    let cqa = w.create_cq(a);
    let cqb = w.create_cq(b);
    let qa = w.create_qp(a, ServiceType::ReliableTcp, cqa, cqa).unwrap();
    let qb = w.create_qp(b, ServiceType::ReliableTcp, cqb, cqb).unwrap();
    for i in 0..8 {
        w.post_recv(b, qb, RecvWr { wr_id: i, capacity: 4096 }).unwrap();
    }
    w.tcp_listen(b, 5000, qb).unwrap();
    let remote = Endpoint::new(w.addr(b), 5000);
    w.tcp_connect(a, qa, 4000, remote).unwrap();
    w.wait_matching(a, cqa, |c| c.kind == CompletionKind::ConnectionEstablished);
    w.wait_matching(b, cqb, |c| c.kind == CompletionKind::ConnectionEstablished);
    // instrument only the steady-state data flow
    let rec = Arc::new(FlightRecorder::new(4096));
    w.install_recorder(Arc::clone(&rec));
    for i in 0..32u64 {
        w.post_recv(b, qb, RecvWr { wr_id: 100 + i, capacity: 4096 }).unwrap();
        w.post_send(a, qa, SendWr { wr_id: i, payload: vec![0x5a], dst: None }).unwrap();
        w.wait_matching(b, cqb, |c| matches!(c.kind, CompletionKind::Recv { .. }));
        // harvest send completions (arrive with the ACKs)
        while w.try_wait(a, cqa).is_some() {}
    }
    w.run_until_idle();
    let (a, b) = (a.0 as u32, b.0 as u32);
    for node in [a, b] {
        assert_eq!(rec.overwritten(node, NODE_SCOPE), 0, "recorder ring too small");
    }
    let events = rec.events();
    (Occupancy::from_trace(&events, a), Occupancy::from_trace(&events, b))
}

fn cell(occ: &Occupancy, stage: Stage, class: PacketClass) -> String {
    match occ.mean_us(stage, class) {
        Some(us) => format!("{us:.1}"),
        None => "-".into(),
    }
}

fn main() {
    let hw_multiply = std::env::args().any(|a| a == "--hw-multiply");
    let (a, b) = run(hw_multiply);
    let title_suffix = if hw_multiply { " [ablation: hardware multiply]" } else { "" };

    println!("Tables 2 & 3: NIC per-stage processing costs, 1-byte TCP messages{title_suffix}\n");

    let mut t2 = Table::new(
        "Table 2 — transmit side (µs)",
        &["stage", "data send", "paper", "ACK send", "paper"],
    );
    let rows2: &[(&str, Stage, &str, &str)] = &[
        ("Doorbell Process", Stage::DoorbellProcess, "1", "1"),
        ("Schedule", Stage::Schedule, "2", "2"),
        ("Get WR", Stage::GetWr, "5.5", "-"),
        ("Get Data", Stage::GetData, "4.5", "-"),
        ("Build TCP Hdr", Stage::BuildTcpHdr, "5", "5"),
        ("Build IP Hdr", Stage::BuildIpHdr, "1", "1"),
        ("Send", Stage::MediaXmt, "1", "1"),
        ("Update", Stage::UpdateTx, "1.5", "1.5"),
    ];
    for (label, stage, p_data, p_ack) in rows2 {
        t2.row(&[
            label.to_string(),
            cell(&a, *stage, PacketClass::DataSend),
            p_data.to_string(),
            cell(&b, *stage, PacketClass::AckSend),
            p_ack.to_string(),
        ]);
    }
    t2.print();

    println!();
    let mut t3 = Table::new(
        "Table 3 — receive side (µs)",
        &["stage", "data recv", "paper", "ACK recv", "paper"],
    );
    let rows3: &[(&str, Stage, &str, &str)] = &[
        ("Doorbell Process", Stage::DoorbellProcess, "1", "1"),
        ("Media Rcv", Stage::MediaRcv, "1", "1"),
        ("IP Parse", Stage::IpParse, "1.5", "1.5"),
        ("TCP Parse", Stage::TcpParse, "7", "14"),
        ("Get WR", Stage::GetWr, "5.5", "-"),
        ("Put Data", Stage::PutData, "4.5", "-"),
        ("Update", Stage::UpdateRx, "1.5", "9 (WR+QP)"),
    ];
    for (label, stage, p_data, p_ack) in rows3 {
        t3.row(&[
            label.to_string(),
            cell(&b, *stage, PacketClass::DataRecv),
            p_data.to_string(),
            cell(&a, *stage, PacketClass::AckRecv),
            p_ack.to_string(),
        ]);
    }
    t3.print();

    println!("\nShape checks (paper §4.2.2):");
    let mut checks = Checks::default();
    let parse_data = b.mean_us(Stage::TcpParse, PacketClass::DataRecv);
    let parse_ack = a.mean_us(Stage::TcpParse, PacketClass::AckRecv);
    match (parse_data, parse_ack, hw_multiply) {
        (Some(d), Some(ack), false) => {
            checks
                .check("TCP parse of an ACK costs ~2x a data parse (soft multiply)", ack > 1.6 * d);
            checks.check("ACK parse near the paper's 14 µs", (ack - 14.0).abs() < 2.0);
            checks.check("data parse near the paper's 7 µs", (d - 7.0).abs() < 1.5);
        }
        (Some(d), Some(ack), true) => {
            checks
                .check("hardware multiply collapses the ACK-parse penalty", (ack - d).abs() < 2.0);
        }
        _ => checks.check("both parse cells populated", false),
    }
    let upd_ack = a.mean_us(Stage::UpdateRx, PacketClass::AckRecv);
    checks.check(
        "ACK-receive update (WR retire + CQ) near the paper's 9 µs",
        upd_ack.is_some_and(|u| (u - 9.0).abs() < 1.5),
    );
    checks.finish();
}
