//! Metric records, the per-layer catalogue and the result line.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, made only of `[A-Za-z0-9_.-]`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit, e.g. `s`, `1/s`, `count`.
    pub unit: &'static str,
}

/// Whether `name` is a valid metric name: starts with a letter or
/// digit, at most 64 characters of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// End-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: [(&str, &str); 4] =
    [("setup_s", "s"), ("msgs_per_s", "1/s"), ("goodput_mb_s", "MB/s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics, reported by every workload's traced run. A layer
/// the workload does not exercise reads zero.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("world.events", "count"),
    ("world.ns_per_event", "ns"),
    ("world.step_ns_p50", "ns"),
    ("world.step_ns_p99", "ns"),
    ("nbd.gige_s", "s"),
    ("nbd.gm_s", "s"),
    ("nbd.qpip_s", "s"),
    ("nbd.rdma_read_s", "s"),
    ("alloc.per_msg", "count"),
    ("alloc.bytes_per_msg", "B"),
    ("xport.post_send_ns", "ns"),
    ("xport.post_recv_ns", "ns"),
    ("xport.poll_ns", "ns"),
    ("xport.pump_ns", "ns"),
    ("xport.polls_per_msg", "count"),
    ("xport.poll_hit_ratio", "ratio"),
    ("xport.datagrams_tx", "count"),
    ("xport.datagrams_rx", "count"),
    ("xport.conservation_gap", "count"),
    ("cpu.user_us_per_msg", "us"),
    ("cpu.sys_us_per_msg", "us"),
    ("udp.rcvbuf_errors", "count"),
    ("udp.in_errors", "count"),
    ("engine.rto_retransmits", "count"),
    ("engine.fast_retransmits", "count"),
    ("engine.dupacks_rx", "count"),
    ("engine.parse_drops", "count"),
    ("fabric.delivered", "count"),
    ("fabric.dropped", "count"),
    ("fabric.in_flight", "count"),
    ("nic.rx_packets", "count"),
    ("nic.tx_packets", "count"),
    ("nic.tcp_backlogged", "count"),
    ("host.steal_ms", "ms"),
    ("host.nonvoluntary_ctx_switches", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
];

/// Renders the one-line result object.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // `{:?}` prints the shortest text that reads back as the same f64
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    s.push_str("}}");
    s
}
