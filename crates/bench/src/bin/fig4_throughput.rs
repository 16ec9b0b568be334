//! Figure 4 — application-to-application throughput and CPU
//! utilization.
//!
//! ttcp v1.4 methodology (§4.2.1): 10 MB transferred in 16 KB writes
//! with TCP_NODELAY, native MTUs (GigE 1500, Myrinet/GM 9000, QPIP
//! 16 KB). Paper results: QPIP 75.6 MB/s at <1% CPU natively;
//! 35.4 MB/s at 1500 (22% below GigE); 70.1 MB/s at 9000; 26.4 MB/s
//! with the firmware checksum; the host stacks burn ½–¾ of a CPU.

use qpip::NicConfig;
use qpip_bench::report::{f1, pct, Checks, Table};
use qpip_bench::workloads::pingpong::Baseline;
use qpip_bench::workloads::ttcp::{qpip_ttcp, socket_ttcp};
use qpip_sim::params;

fn main() {
    let total = params::TTCP_TRANSFER_BYTES; // 10 MB
    let chunk = params::TTCP_CHUNK_BYTES; // 16 KB
    println!("Figure 4: ttcp throughput & CPU utilization (10 MB / 16 KB writes)\n");

    let gige = socket_ttcp(Baseline::GigE, total, chunk);
    let gm = socket_ttcp(Baseline::GmMyrinet, total, chunk);
    let qpip_native = qpip_ttcp(NicConfig::paper_default(), total, chunk);
    let qpip_1500 = qpip_ttcp(NicConfig { mtu: 1500, ..NicConfig::paper_default() }, total, chunk);
    let qpip_9000 = qpip_ttcp(NicConfig { mtu: 9000, ..NicConfig::paper_default() }, total, chunk);
    let qpip_fw = qpip_ttcp(NicConfig::firmware_checksum(), total, chunk);
    let qpip_1500_frag = qpip_ttcp(NicConfig::fragmented(1500), total, chunk);

    let mut t = Table::new(
        "Throughput & CPU utilization",
        &["implementation", "MB/s", "CPU (send)", "CPU (recv)", "paper MB/s"],
    );
    let row = |name: &str, r: &qpip_bench::workloads::ttcp::TtcpResult, paper: &str| {
        [
            name.to_string(),
            f1(r.mbytes_per_sec),
            pct(r.sender_cpu),
            pct(r.receiver_cpu),
            paper.to_string(),
        ]
    };
    t.row(&row("IP/GigE (1500)", &gige, "~45 (bar)"));
    t.row(&row("IP/Myrinet (9000)", &gm, "~55 (bar)"));
    t.row(&row("QPIP native (16K)", &qpip_native, "75.6"));
    t.row(&row("QPIP @1500", &qpip_1500, "35.4"));
    t.row(&row("QPIP @9000", &qpip_9000, "70.1"));
    t.row(&row("QPIP fw csum (16K)", &qpip_fw, "26.4"));
    t.row(&row("QPIP @1500 +ipfrag", &qpip_1500_frag, "(ext)"));
    t.print();

    println!("\nShape checks (paper §4.2.1):");
    let mut checks = Checks::default();
    checks.check(
        "QPIP native beats both host baselines",
        qpip_native.mbytes_per_sec > gige.mbytes_per_sec
            && qpip_native.mbytes_per_sec > gm.mbytes_per_sec,
    );
    checks.check(
        "QPIP CPU utilization < 1% at native MTU and with fw checksum",
        qpip_native.sender_cpu < 0.01
            && qpip_native.receiver_cpu < 0.01
            && qpip_fw.sender_cpu < 0.01,
    );
    checks.check(
        "QPIP CPU stays single-digit at small MTUs (paper: <1%; our
       per-segment WR posting inflates it slightly — see EXPERIMENTS.md)",
        qpip_1500.sender_cpu < 0.06 && qpip_9000.sender_cpu < 0.03,
    );
    checks.check(
        "host ttcp processes consume half to three quarters of a CPU",
        (0.35..=0.85).contains(&gige.sender_cpu) && (0.35..=0.85).contains(&gm.sender_cpu),
    );
    checks.check(
        "QPIP @1500 loses to GigE (paper: by 22%)",
        qpip_1500.mbytes_per_sec < gige.mbytes_per_sec,
    );
    checks.check("QPIP @9000 beats IP/Myrinet", qpip_9000.mbytes_per_sec > gm.mbytes_per_sec);
    checks.check(
        "firmware checksum limits QPIP to the mid-20s MB/s",
        (20.0..33.0).contains(&qpip_fw.mbytes_per_sec),
    );
    checks.check(
        "QPIP native within 25% of paper's 75.6 MB/s",
        (qpip_native.mbytes_per_sec - 75.6).abs() / 75.6 < 0.25,
    );
    checks.check(
        "IPv6 fragmentation restores <1% host CPU at the small MTU",
        qpip_1500_frag.sender_cpu < 0.01,
    );
    println!(
        "\nQPIP@1500 vs GigE deficit: {:.0}% (paper: 22%)",
        (1.0 - qpip_1500.mbytes_per_sec / gige.mbytes_per_sec) * 100.0
    );
    checks.finish();
}
