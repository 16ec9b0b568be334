//! The paper's headline quantitative claims, encoded as integration
//! tests over the experiment harnesses (at reduced transfer sizes that
//! reach the same steady state). These are the "shape" guarantees of
//! the reproduction — who wins, by roughly what factor, and where the
//! crossovers fall.

use qpip::baseline::Transport;
use qpip::NicConfig;
use qpip_bench::workloads::pingpong::{qpip_tcp_rtt, qpip_udp_rtt, socket_tcp_rtt, socket_udp_rtt};
use qpip_bench::workloads::ttcp::{qpip_ttcp, socket_ttcp};

const MB: u64 = 1024 * 1024;

/// §4.2.1 / Figure 3: "Using a firmware checksum, the QPIP latency is
/// 73µsec (UDP) and 113 µsec (TCP)."
#[test]
fn figure3_qpip_firmware_checksum_rtt_near_paper_values() {
    let udp = qpip_udp_rtt(NicConfig::firmware_checksum(), 1, 16);
    let tcp = qpip_tcp_rtt(NicConfig::firmware_checksum(), 1, 16);
    assert!((udp.mean_us - 73.0).abs() / 73.0 < 0.25, "udp {}", udp.mean_us);
    assert!((tcp.mean_us - 113.0).abs() / 113.0 < 0.25, "tcp {}", tcp.mean_us);
}

/// Figure 3's shape: QPIP (figures' hardware-checksum configuration)
/// performs equal to or better than the host baselines.
#[test]
fn figure3_qpip_latency_competitive_with_baselines() {
    let q = qpip_tcp_rtt(NicConfig::paper_default(), 1, 12).mean_us;
    let ge = socket_tcp_rtt(Transport::GigE, 1, 12).mean_us;
    let gm = socket_tcp_rtt(Transport::GmMyrinet, 1, 12).mean_us;
    assert!(q <= ge.max(gm) * 1.1, "qpip {q} vs gige {ge} / gm {gm}");
    let qu = qpip_udp_rtt(NicConfig::paper_default(), 1, 12).mean_us;
    let geu = socket_udp_rtt(Transport::GigE, 1, 12).mean_us;
    assert!(qu < geu, "qpip udp {qu} vs gige udp {geu}");
}

/// §4.2.1 / Figure 4: QPIP native ≈ 75.6 MB/s at < 1 % CPU while host
/// stacks burn half to three quarters of a processor.
#[test]
fn figure4_native_throughput_and_cpu_shape() {
    let q = qpip_ttcp(NicConfig::paper_default(), 4 * MB, 16 * 1024);
    assert!((q.mbytes_per_sec - 75.6).abs() / 75.6 < 0.25, "{q:?}");
    assert!(q.sender_cpu < 0.01 && q.receiver_cpu < 0.01, "{q:?}");

    let ge = socket_ttcp(Transport::GigE, 4 * MB, 16 * 1024);
    assert!(q.mbytes_per_sec > ge.mbytes_per_sec, "QPIP wins: {q:?} vs {ge:?}");
    assert!((0.35..=0.85).contains(&ge.sender_cpu), "{ge:?}");
}

/// §4.2.1: at the 1500-byte MTU "the limited CPU capacity of the
/// interface becomes apparent and performs … less than the gigabit
/// Ethernet"; at 9000 "QPIP outperforms the IP over Myrinet case".
#[test]
fn figure4_mtu_crossover_shape() {
    let q1500 = qpip_ttcp(NicConfig { mtu: 1500, ..NicConfig::paper_default() }, 4 * MB, 16 * 1024);
    let ge = socket_ttcp(Transport::GigE, 4 * MB, 16 * 1024);
    assert!(q1500.mbytes_per_sec < ge.mbytes_per_sec, "{q1500:?} vs {ge:?}");

    let q9000 = qpip_ttcp(NicConfig { mtu: 9000, ..NicConfig::paper_default() }, 4 * MB, 16 * 1024);
    let gm = socket_ttcp(Transport::GmMyrinet, 4 * MB, 16 * 1024);
    assert!(q9000.mbytes_per_sec > gm.mbytes_per_sec, "{q9000:?} vs {gm:?}");
}

/// §4.2.1: "Using a firmware based checksum on the QPIP prototype, the
/// throughput is 26.4 MB/sec" — the 5-cycle/byte loop on the 133 MHz
/// LANai is the bottleneck.
#[test]
fn figure4_firmware_checksum_throughput() {
    let q = qpip_ttcp(NicConfig::firmware_checksum(), 4 * MB, 16 * 1024);
    assert!((20.0..31.0).contains(&q.mbytes_per_sec), "{q:?}");
}

/// Table 1's ratio: host-based overhead ≈ 12× the QPIP verbs path.
#[test]
fn table1_overhead_ratio() {
    use qpip_sim::params;
    let host = params::host_tx_path_cycles_1b() + params::host_rx_path_cycles_1b();
    let qpip = params::qpip_post_cycles() * 2 + params::QPIP_POLL_HIT_CYCLES;
    let ratio = host as f64 / qpip as f64;
    assert!((10.0..14.0).contains(&ratio), "{ratio}");
}
