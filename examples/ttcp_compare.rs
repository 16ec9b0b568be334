//! ttcp across all three implementations — the workload behind
//! Figure 4, runnable as a demo with a smaller transfer.
//!
//! Run with: `cargo run --release --example ttcp_compare`

use qpip::baseline::Transport;
use qpip::NicConfig;
use qpip_bench::workloads::ttcp::{qpip_ttcp, socket_ttcp, TtcpResult};

fn show(name: &str, r: &TtcpResult) {
    println!(
        "{name:<22} {:>7.1} MB/s   sender CPU {:>5.1}%   receiver CPU {:>5.1}%   ({:.3}s simulated)",
        r.mbytes_per_sec,
        r.sender_cpu * 100.0,
        r.receiver_cpu * 100.0,
        r.elapsed_s
    );
}

fn main() {
    let total = 4 * 1024 * 1024; // 4 MB keeps the demo quick
    let chunk = 16 * 1024;
    println!("ttcp: {total} bytes in 16 KB writes, TCP_NODELAY (§4.2.1)\n");

    show("IP over GigE", &socket_ttcp(Transport::GigE, total, chunk));
    show("IP over Myrinet/GM", &socket_ttcp(Transport::GmMyrinet, total, chunk));
    show("QPIP (native 16K)", &qpip_ttcp(NicConfig::paper_default(), total, chunk));
    show(
        "QPIP (1500 MTU)",
        &qpip_ttcp(NicConfig { mtu: 1500, ..NicConfig::paper_default() }, total, chunk),
    );
    show("QPIP (fw checksum)", &qpip_ttcp(NicConfig::firmware_checksum(), total, chunk));

    println!("\nThe shape of Figure 4: QPIP matches or beats the host stacks at");
    println!("a tiny fraction of the host CPU — the stack lives in the NIC.");
}
