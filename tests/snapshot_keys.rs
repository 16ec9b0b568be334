//! The counter names of each snapshot scope, in order. Reports and the
//! benchmark look counters up by name and read a missing one as 0, so a
//! renamed counter would not fail there: it would read 0.

use qpip::world::QpipWorld;
use qpip::NicConfig;
use qpip_xport::XportStats;

#[test]
fn snapshot_keys_are_pinned() {
    let mut w = QpipWorld::myrinet();
    w.add_node(NicConfig::paper_default());
    let mut snaps = w.counter_snapshots();
    snaps.push(XportStats::default().snapshot());
    let keys: Vec<(&str, Vec<&str>)> =
        snaps.iter().map(|s| (s.scope(), s.pairs().iter().map(|&(k, _)| k).collect())).collect();
    let engine = vec![
        "rx_packets",
        "tx_packets",
        "checksum_drops",
        "demux_drops",
        "addr_drops",
        "parse_drops",
        "rto_retransmits",
        "fast_retransmits",
        "dupacks_rx",
        "zero_window_events",
        "persist_probes",
        "spurious_rtos",
        "rto_episodes",
        "gobackn_resends",
        "ooo_drops",
        "ecn_reductions",
    ];
    let nic = vec![
        "tx_packets",
        "rx_packets",
        "udp_no_wr_drops",
        "tcp_backlogged",
        "length_errors",
        "rdma_writes",
        "rdma_reads_served",
        "rdma_protection_errors",
    ];
    let fabric = vec!["delivered", "dropped", "bytes", "ecn_marks", "injected_drops"];
    let xport = vec![
        "datagrams_rx",
        "datagrams_tx",
        "empty_reads",
        "sockopt_calls",
        "unroutable_drops",
        "udp_no_wr_drops",
        "tcp_backlogged",
        "length_errors",
        "injected_drops",
        "injected_holds",
    ];
    assert_eq!(keys, [("engine", engine), ("nic", nic), ("fabric", fabric), ("xport", xport)]);
}
