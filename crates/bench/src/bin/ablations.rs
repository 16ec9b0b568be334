//! Ablation sweeps over the design choices DESIGN.md calls out:
//!
//! * **checksum placement** (§4.2.1): hardware-assisted vs firmware;
//! * **hardware multiply** (§4.2.2): the LANai's missing multiplier;
//! * **MTU sweep** (§4.2.1): where the NIC processor becomes the
//!   bottleneck;
//! * **segmentation mapping** (§4.1): the message-per-segment design
//!   against conventional MSS streaming on the same hardware budget.

use qpip::NicConfig;
use qpip_bench::report::{f1, Checks, Table};
use qpip_bench::workloads::pingpong::{qpip_tcp_rtt, qpip_udp_rtt};
use qpip_bench::workloads::ttcp::qpip_ttcp;
use qpip_sim::params;

fn main() {
    let total = 4 * 1024 * 1024u64;
    let chunk = params::TTCP_CHUNK_BYTES;

    // -- checksum placement ------------------------------------------------
    let mut t = Table::new(
        "Ablation: checksum placement (16 KB messages)",
        &["configuration", "ttcp MB/s", "UDP RTT µs", "TCP RTT µs"],
    );
    for (name, cfg) in [
        ("hardware (DMA-engine)", NicConfig::paper_default()),
        ("firmware (5 cyc/B)", NicConfig::firmware_checksum()),
    ] {
        let thr = qpip_ttcp(cfg.clone(), total, chunk);
        let udp = qpip_udp_rtt(cfg.clone(), 1, 12);
        let tcp = qpip_tcp_rtt(cfg, 1, 12);
        t.row(&[name.into(), f1(thr.mbytes_per_sec), f1(udp.mean_us), f1(tcp.mean_us)]);
    }
    t.print();
    println!();

    // -- hardware multiply ---------------------------------------------------
    let mut t = Table::new(
        "Ablation: NIC multiplier (§4.2.2: \"a more specialized interface\n   design would dramatically reduce these costs\")",
        &["configuration", "TCP RTT µs", "ttcp MB/s @1500"],
    );
    for (name, hw_multiply) in [("software multiply (LANai)", false), ("hardware multiply", true)] {
        let cfg = NicConfig { hw_multiply, ..NicConfig::paper_default() };
        let rtt = qpip_tcp_rtt(cfg.clone(), 1, 12);
        let thr = qpip_ttcp(NicConfig { mtu: 1500, ..cfg }, total, chunk);
        t.row(&[name.into(), f1(rtt.mean_us), f1(thr.mbytes_per_sec)]);
    }
    t.print();
    println!();

    // -- MTU sweep ---------------------------------------------------------
    let mut t = Table::new(
        "Ablation: MTU sweep (one message per segment)",
        &["MTU", "ttcp MB/s", "NIC-bound?"],
    );
    for mtu in [1500usize, 3000, 4500, 9000, 16 * 1024] {
        let cfg = NicConfig { mtu, ..NicConfig::paper_default() };
        let r = qpip_ttcp(cfg, total, chunk);
        // below the PCI-read ceiling the per-message processor cost rules
        let nic_bound = r.mbytes_per_sec < 70.0;
        t.row(&[
            mtu.to_string(),
            f1(r.mbytes_per_sec),
            if nic_bound { "processor" } else { "PCI DMA" }.into(),
        ]);
    }
    t.print();

    println!("\nShape checks:");
    let mut checks = Checks::default();
    let sweep: Vec<f64> = [1500usize, 3000, 4500, 9000, 16 * 1024]
        .into_iter()
        .map(|mtu| {
            qpip_ttcp(NicConfig { mtu, ..NicConfig::paper_default() }, total, chunk).mbytes_per_sec
        })
        .collect();
    checks.check(
        "throughput grows monotonically with MTU",
        sweep.windows(2).all(|w| w[1] >= w[0] * 0.98),
    );
    let hw = qpip_tcp_rtt(NicConfig { hw_multiply: true, ..NicConfig::paper_default() }, 1, 12);
    let sw = qpip_tcp_rtt(NicConfig::paper_default(), 1, 12);
    checks.check(
        "hardware multiply shaves the RTT (RTT-estimator math off the path)",
        hw.mean_us < sw.mean_us - 5.0,
    );
    checks.finish();
}
