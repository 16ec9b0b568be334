//! Latency vs. message size — not a paper figure, but the natural
//! companion series: where does each implementation's RTT go as the
//! payload grows from the 1-byte point of Figure 3 toward the 16 KB
//! messages of Figure 4?

use qpip::NicConfig;
use qpip_bench::report::{f1, Checks, Table};
use qpip_bench::workloads::pingpong::{qpip_tcp_rtt, socket_tcp_rtt, Baseline};

fn main() {
    println!("Latency sweep: TCP request-response RTT vs message size\n");
    let rounds = 16;
    let sizes = [1usize, 64, 256, 1024, 4096, 8192];
    let mut t =
        Table::new("TCP RTT (µs) by payload size", &["size", "IP/GigE", "IP/Myrinet", "QPIP"]);
    let mut series = Vec::new();
    for &s in &sizes {
        // GigE cannot carry >1428 in one segment; the stream splits it —
        // still a valid RTT, just more packets
        let ge = socket_tcp_rtt(Baseline::GigE, s, rounds).mean_us;
        let gm = socket_tcp_rtt(Baseline::GmMyrinet, s, rounds).mean_us;
        let qp = qpip_tcp_rtt(NicConfig::paper_default(), s, rounds).mean_us;
        series.push((s, ge, gm, qp));
        t.row(&[s.to_string(), f1(ge), f1(gm), f1(qp)]);
    }
    t.print();

    println!("\nShape checks:");
    let mut checks = Checks::default();
    checks.check(
        "RTT grows monotonically-ish with size on every implementation",
        series
            .windows(2)
            .all(|w| w[1].1 >= w[0].1 * 0.95 && w[1].2 >= w[0].2 * 0.95 && w[1].3 >= w[0].3 * 0.95),
    );
    checks.check("QPIP's size sensitivity is dominated by the PCI read path", {
        // going 1 B → 8 KB should add roughly 2 × (DMA read + wire)
        let delta = series.last().unwrap().3 - series.first().unwrap().3;
        // 8 KB at 80 MB/s ≈ 102 µs each way, plus wire ≈ 33 µs each way
        (150.0..400.0).contains(&delta)
    });
    checks.check(
        "QPIP beats both baselines at every size",
        series.iter().all(|&(_, ge, gm, qp)| qp <= ge.max(gm) * 1.05),
    );
    checks.finish();
}
