//! Figure 7 — NBD client throughput and CPU effectiveness.
//!
//! §4.2.3: a 409 MB sequential write (flushed with `sync`) and read over
//! an ext2 filesystem on an NBD device, for socket NBD over GigE and
//! Myrinet/GM versus the QPIP NBD at a 9000-byte MTU. Paper: QPIP gives
//! 40–137 % higher throughput at up to 133 % better CPU effectiveness
//! (MB per CPU-second), with ≥ 26 % of CPU going to the filesystem in
//! every configuration.
//!
//! Pass `--full` to run the complete 409 MB transfer (the default runs
//! 64 MB, which reaches the same steady state in a fraction of the
//! time).

use qpip_bench::report::{f1, pct, Checks, Table};
use qpip_nbd::socket_impl::{self, Transport};
use qpip_nbd::{qpip_impl, NbdConfig, NbdResult};
use qpip_sim::params;

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let total = if full { params::NBD_TRANSFER_BYTES } else { 64 * 1024 * 1024 };
    let cfg = NbdConfig { total_bytes: total, ..NbdConfig::default() };
    println!(
        "Figure 7: NBD client performance ({} MB sequential write+sync, then read)\n",
        total / (1024 * 1024)
    );

    let gige = socket_impl::run(Transport::GigE, cfg);
    let gm = socket_impl::run(Transport::GmMyrinet, cfg);
    let qpip = qpip_impl::run(cfg);
    let rdma_read = qpip_nbd::rdma_impl::run_read(cfg);

    let mut t = Table::new(
        "NBD client throughput & CPU effectiveness",
        &[
            "implementation",
            "write MB/s",
            "read MB/s",
            "write MB/CPU·s",
            "read MB/CPU·s",
            "fs CPU (read)",
        ],
    );
    let row = |name: &str, r: &NbdResult| {
        [
            name.to_string(),
            f1(r.write.mbytes_per_sec),
            f1(r.read.mbytes_per_sec),
            f1(r.write.mb_per_cpu_sec),
            f1(r.read.mb_per_cpu_sec),
            pct(r.read.fs_fraction),
        ]
    };
    t.row(&row("IP/GigE", &gige));
    t.row(&row("IP/Myrinet", &gm));
    t.row(&row("QPIP (9000 MTU)", &qpip));
    t.row(&[
        "QPIP+RDMA reads (ext)".into(),
        "-".into(),
        f1(rdma_read.mbytes_per_sec),
        "-".into(),
        f1(rdma_read.mb_per_cpu_sec),
        pct(rdma_read.fs_fraction),
    ]);
    t.print();

    let imp = |q: f64, b: f64| (q / b - 1.0) * 100.0;
    println!("\nQPIP throughput improvement over baselines (paper: +40%…+137%):");
    println!(
        "  write vs GigE:    {:+.0}%",
        imp(qpip.write.mbytes_per_sec, gige.write.mbytes_per_sec)
    );
    println!(
        "  write vs Myrinet: {:+.0}%",
        imp(qpip.write.mbytes_per_sec, gm.write.mbytes_per_sec)
    );
    println!(
        "  read  vs GigE:    {:+.0}%",
        imp(qpip.read.mbytes_per_sec, gige.read.mbytes_per_sec)
    );
    println!("  read  vs Myrinet: {:+.0}%", imp(qpip.read.mbytes_per_sec, gm.read.mbytes_per_sec));
    println!("\nQPIP CPU-effectiveness improvement (paper: up to +133%):");
    println!(
        "  write: {:+.0}%  read: {:+.0}%",
        imp(qpip.write.mb_per_cpu_sec, gige.write.mb_per_cpu_sec.max(gm.write.mb_per_cpu_sec)),
        imp(qpip.read.mb_per_cpu_sec, gige.read.mb_per_cpu_sec.max(gm.read.mb_per_cpu_sec))
    );

    println!("\nShape checks (paper §4.2.3):");
    let mut checks = Checks::default();
    checks.check(
        "QPIP beats both baselines on read and write throughput",
        qpip.write.mbytes_per_sec > gige.write.mbytes_per_sec
            && qpip.write.mbytes_per_sec > gm.write.mbytes_per_sec
            && qpip.read.mbytes_per_sec > gige.read.mbytes_per_sec
            && qpip.read.mbytes_per_sec > gm.read.mbytes_per_sec,
    );
    checks.check("throughput improvement lands in the paper's 40–137% envelope", {
        let worst = imp(qpip.read.mbytes_per_sec, gm.read.mbytes_per_sec)
            .min(imp(qpip.write.mbytes_per_sec, gm.write.mbytes_per_sec));
        let best = imp(qpip.read.mbytes_per_sec, gige.read.mbytes_per_sec)
            .max(imp(qpip.write.mbytes_per_sec, gige.write.mbytes_per_sec));
        worst > 15.0 && best < 250.0
    });
    checks.check(
        "QPIP is more CPU-effective than both baselines",
        qpip.read.mb_per_cpu_sec > gige.read.mb_per_cpu_sec
            && qpip.read.mb_per_cpu_sec > gm.read.mb_per_cpu_sec,
    );
    checks.check(
        "filesystem processing is a large share of QPIP's client CPU",
        qpip.read.fs_fraction > 0.5 * qpip.read.client_cpu,
    );
    checks.finish();
}
