//! Table/figure output helpers: every experiment binary prints the same
//! paper-vs-measured layout so EXPERIMENTS.md can be assembled directly
//! from harness output.
//!
//! One binary also writes a JSON document: `xport_ttcp --json` renders
//! `BENCH_xport.json` through [`xport_json`]. The document stamps
//! [`SCHEMA_VERSION`] so downstream dashboards can detect layout
//! changes, and it may embed nothing host- or time-identifying
//! (hostnames, usernames, paths, dates): measured *values* naturally
//! vary with the machine, but the document itself must not say which
//! machine or when.

use std::io::Write as _;

use qpip_trace::snapshot::{counters_json, Snapshot};

use crate::workloads::pingpong::RttResult;
use crate::workloads::ttcp::TtcpResult;

/// Version of the [`xport_json`] layout. Bump when a field is added,
/// renamed or removed.
///
/// v3: the document gains a `counters` section — the unified
/// [`Snapshot`] rendering of the workload's stats structs — and the
/// per-stream `retransmissions`/`proxy_dropped` fields moved into it
/// (as `<scenario>_engine.*_retransmits` and `<scenario>_proxy.dropped`).
///
/// v4: the `rtt` object gives the live RTT as a distribution —
/// `p50_us`, `p99_us`, `p999_us` — in place of `min_us`.
///
/// v5: the `<scenario>_proxy` counters are gone; each node's fault-plan
/// drops and holds are `injected_drops` and `injected_holds` in
/// `<scenario>_xport` and `<scenario>_receiver_xport`.
///
/// v6: `<scenario>_engine` gains `ooo_drops` and `ecn_reductions`, the
/// two TCP counters it did not report before.
///
/// v7: `<scenario>_xport` and `<scenario>_receiver_xport` gain
/// `empty_reads` and `sockopt_calls`, so every socket call is counted:
/// reads that returned data are `datagrams_rx`, sends `datagrams_tx`.
pub const SCHEMA_VERSION: u32 = 7;

/// A simple fixed-width table printer.
#[derive(Debug, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let line = |cells: &[String], widths: &[usize]| -> String {
            let mut s = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    s.push_str("  ");
                }
                s.push_str(&format!("{:<w$}", c, w = widths[i]));
            }
            s.push('\n');
            s
        };
        out.push_str(&line(&self.headers, &widths));
        out.push_str(&format!(
            "{}\n",
            "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1))
        ));
        for row in &self.rows {
            out.push_str(&line(row, &widths));
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// The shape checks every experiment binary ends with: one
/// `  [ok] name` or `  [MISS] name` line per check, and
/// [`Checks::finish`] exits with status 1 if any missed, so a binary run
/// by hand fails on its own.
#[derive(Debug, Default)]
pub struct Checks {
    missed: usize,
}

impl Checks {
    /// Prints the outcome of one check.
    pub fn check(&mut self, name: &str, ok: bool) {
        println!("  [{}] {}", if ok { "ok" } else { "MISS" }, name);
        self.missed += usize::from(!ok);
    }

    /// Ends the binary with exit status 1 if any check missed. Call it
    /// after the last line of output.
    pub fn finish(self) {
        if self.missed > 0 {
            let _ = std::io::stdout().flush();
            std::process::exit(1);
        }
    }
}

/// Renders the live-socket (xport) ttcp report as JSON: one RTT
/// object, one streaming object per `(scenario, message length,
/// result)`, and the DES references the live numbers sit next to.
///
/// ```json
/// {
///   "schema_version": 7,
///   "rtt": {"rounds": 200, "payload": 64, "mean_us": 90.0, "p50_us": 85.0,
///           "p99_us": 140.0, "p999_us": 210.0},
///   "streams": [
///     {"scenario": "direct", "messages": 2000, "message_len": 8928,
///      "bytes": 17856000, "wall_s": 0.5, "mbytes_per_sec": 35.7}
///   ],
///   "des_reference": {"fig3_rtt_us": 73.1, "fig4_mbytes_per_sec": 100.0},
///   "counters": {"direct_engine": {"rto_retransmits": 0}}
/// }
/// ```
///
/// Retransmission and injected drop and hold counts live in
/// `counters`, scoped per scenario (`direct_engine`, `impaired_xport`,
/// …).
pub fn xport_json(
    rtt: &RttResult,
    payload: usize,
    streams: &[(&str, usize, TtcpResult)],
    des_rtt_us: f64,
    des_mbytes_per_sec: f64,
    counters: &[Snapshot],
) -> String {
    let mut out = format!("{{\n  \"schema_version\": {SCHEMA_VERSION},\n");
    let [p50, p99, p999] = rtt.percentiles();
    out.push_str(&format!(
        "  \"rtt\": {{\"rounds\": {}, \"payload\": {payload}, \"mean_us\": {:.1}, \
         \"p50_us\": {p50:.1}, \"p99_us\": {p99:.1}, \"p999_us\": {p999:.1}}},\n",
        rtt.samples.count(),
        rtt.mean_us,
    ));
    out.push_str("  \"streams\": [\n");
    for (i, (scenario, len, s)) in streams.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"scenario\": \"{scenario}\", \"messages\": {}, \"message_len\": {len}, \
             \"bytes\": {}, \"wall_s\": {:.3}, \"mbytes_per_sec\": {:.1}}}{}\n",
            s.bytes / *len as u64,
            s.bytes,
            s.elapsed_s,
            s.mbytes_per_sec,
            if i + 1 < streams.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"des_reference\": {{\"fig3_rtt_us\": {des_rtt_us:.1}, \
         \"fig4_mbytes_per_sec\": {des_mbytes_per_sec:.1}}},\n"
    ));
    out.push_str(&format!("  \"counters\": {}\n}}\n", counters_json(counters, 2)));
    out
}

/// Asserts a JSON document carries nothing host- or time-identifying.
/// Used by the emitter tests; exported so binaries can self-check in
/// debug builds.
pub fn assert_host_independent(json: &str) {
    let lower = json.to_lowercase();
    for needle in ["hostname", "username", "/root", "/home", "date", "timestamp", "epoch"] {
        assert!(!lower.contains(needle), "JSON embeds host/time marker {needle:?}: {json}");
    }
}

/// Formats a float with one decimal.
pub fn f1(v: f64) -> String {
    format!("{v:.1}")
}

/// Formats a float with two decimals.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats a percentage.
pub fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpip_netstack::tcp::TcpCounters;
    use qpip_netstack::EngineStats;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("T", &["name", "value"]);
        t.row(&["a".into(), "1".into()]);
        t.row(&["longer".into(), "2.5".into()]);
        let s = t.render();
        assert!(s.contains("== T =="));
        assert!(s.contains("longer  2.5"));
        // header aligned with widest cell
        assert!(s.lines().nth(1).unwrap().starts_with("name  "));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn rejects_mismatched_rows() {
        Table::new("T", &["a"]).row(&["1".into(), "2".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(f1(1.25), "1.2");
        assert_eq!(f2(1.256), "1.26");
        assert_eq!(pct(0.756), "75.6%");
    }

    fn fixture_rtt() -> RttResult {
        let mut samples = qpip_sim::stats::Summary::new();
        for us in [61.2, 88.0, 88.5, 140.0] {
            samples.record(us);
        }
        RttResult { mean_us: samples.mean(), samples, packets: None }
    }

    fn fixture_stream() -> (&'static str, usize, TtcpResult) {
        let stream = TtcpResult {
            bytes: 17_856_000,
            mbytes_per_sec: 35.7,
            sender_cpu: f64::NAN,
            receiver_cpu: f64::NAN,
            elapsed_s: 0.5,
            retransmissions: 3,
        };
        ("direct", 8928, stream)
    }

    fn fixture_counters() -> Vec<Snapshot> {
        let tcp = TcpCounters { rto_retransmits: 2, ooo_drops: 1, ..TcpCounters::default() };
        let engine = EngineStats { rx_packets: 96, tcp, ..EngineStats::default() };
        let engine = engine.snapshot().rescoped("direct_engine");
        let mut fabric = Snapshot::new("fabric");
        fabric.push("delivered", 96).push("dropped", 1);
        vec![engine, fabric]
    }

    #[test]
    fn json_emitters_stamp_schema_version_and_stay_host_independent() {
        let cnt = fixture_counters();
        let xp = xport_json(&fixture_rtt(), 64, &[fixture_stream()], 73.1, 100.0, &cnt);
        // the live RTT is a distribution: nearest-rank percentiles of
        // the four fixture samples
        assert!(xp.contains("\"p50_us\": 88.0, \"p99_us\": 140.0, \"p999_us\": 140.0"), "{xp}");
        assert!(xp.contains("\"messages\": 2000, \"message_len\": 8928"), "{xp}");
        assert!(
            xp.contains(&format!("\"schema_version\": {SCHEMA_VERSION}")),
            "missing schema_version: {xp}"
        );
        assert!(
            xp.contains("\"counters\": {") && xp.contains("\"rto_retransmits\": 2"),
            "missing counters section: {xp}"
        );
        // the engine record renders every TCP counter, the last two
        // new in v6
        assert!(
            xp.contains("\"direct_engine\": {\"rx_packets\": 96, ")
                && xp.contains("\"gobackn_resends\": 0, \"ooo_drops\": 1, \"ecn_reductions\": 0}"),
            "engine counters: {xp}"
        );
        assert_host_independent(&xp);
    }

    #[test]
    fn json_emitters_are_deterministic_for_fixed_input() {
        // same input, same bytes — nothing may read clocks, tempdirs,
        // map iteration order or the environment
        let cnt = fixture_counters();
        let a = xport_json(&fixture_rtt(), 64, &[fixture_stream()], 73.1, 100.0, &cnt);
        let b = xport_json(&fixture_rtt(), 64, &[fixture_stream()], 73.1, 100.0, &cnt);
        assert_eq!(a, b);
    }

    #[test]
    fn host_marker_check_catches_leaks() {
        let result = std::panic::catch_unwind(|| {
            assert_host_independent("{\"path\": \"/root/repo/out.json\"}");
        });
        assert!(result.is_err(), "a /root path must be rejected");
    }
}
