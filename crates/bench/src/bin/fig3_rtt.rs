//! Figure 3 — application-to-application round-trip time.
//!
//! "The round-trip time refers to the latency of a single 1 byte
//! message to travel from one application to another and back" (§4.2.1),
//! for IP/GigE, IP/Myrinet and QPIP, over both UDP and TCP. The paper
//! quotes QPIP's firmware-checksum latencies explicitly: 73 µs (UDP)
//! and 113 µs (TCP); the figure's bars use the emulated hardware
//! checksum.

//! With `--trace FILE`, additionally re-runs the QPIP TCP pingpong with
//! a flight recorder installed and writes the JSONL trace export to
//! FILE (inspect with the `qpip-trace` CLI). Tracing is passive: the
//! traced run produces the same RTT numbers as the untraced ones.

use std::sync::Arc;

use qpip::NicConfig;
use qpip_bench::report::{f1, Checks, Table};
use qpip_bench::workloads::pingpong::{
    qpip_tcp_rtt, qpip_tcp_rtt_observed, qpip_udp_rtt, socket_tcp_rtt, socket_udp_rtt, Baseline,
};
use qpip_trace::FlightRecorder;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let trace_path = args
        .iter()
        .position(|a| a == "--trace")
        .map(|i| args.get(i + 1).expect("--trace needs a file path").clone());
    let rounds = 40;
    println!("Figure 3: application-to-application RTT, 1-byte message\n");

    let gige_udp = socket_udp_rtt(Baseline::GigE, 1, rounds);
    let gige_tcp = socket_tcp_rtt(Baseline::GigE, 1, rounds);
    let gm_udp = socket_udp_rtt(Baseline::GmMyrinet, 1, rounds);
    let gm_tcp = socket_tcp_rtt(Baseline::GmMyrinet, 1, rounds);
    let qpip_udp = qpip_udp_rtt(NicConfig::paper_default(), 1, rounds);
    let qpip_tcp = qpip_tcp_rtt(NicConfig::paper_default(), 1, rounds);
    let qpip_udp_fw = qpip_udp_rtt(NicConfig::firmware_checksum(), 1, rounds);
    let qpip_tcp_fw = qpip_tcp_rtt(NicConfig::firmware_checksum(), 1, rounds);

    let mut t =
        Table::new("Application RTT (µs)", &["implementation", "UDP", "TCP", "paper (TCP ref)"]);
    t.row(&["IP/GigE".into(), f1(gige_udp.mean_us), f1(gige_tcp.mean_us), "(bars only)".into()]);
    t.row(&["IP/Myrinet".into(), f1(gm_udp.mean_us), f1(gm_tcp.mean_us), "(bars only)".into()]);
    t.row(&[
        "QPIP (hw csum, as figures)".into(),
        f1(qpip_udp.mean_us),
        f1(qpip_tcp.mean_us),
        "≤ baselines".into(),
    ]);
    t.row(&[
        "QPIP (fw csum)".into(),
        f1(qpip_udp_fw.mean_us),
        f1(qpip_tcp_fw.mean_us),
        "73 / 113".into(),
    ]);
    t.print();

    println!("\nShape checks (paper §4.2.1):");
    let mut checks = Checks::default();
    checks.check(
        "QPIP (hw csum) TCP RTT is comparable to or better than host baselines",
        qpip_tcp.mean_us <= gige_tcp.mean_us.max(gm_tcp.mean_us) * 1.1,
    );
    checks.check(
        "UDP is faster than TCP on every implementation",
        gige_udp.mean_us < gige_tcp.mean_us
            && gm_udp.mean_us < gm_tcp.mean_us
            && qpip_udp.mean_us < qpip_tcp.mean_us,
    );
    checks.check(
        "firmware checksum costs extra latency (73→ vs hw UDP)",
        qpip_udp_fw.mean_us > qpip_udp.mean_us && qpip_tcp_fw.mean_us > qpip_tcp.mean_us,
    );
    checks.check(
        "QPIP fw-csum UDP within 25% of paper's 73 µs",
        (qpip_udp_fw.mean_us - 73.0).abs() / 73.0 < 0.25,
    );
    checks.check(
        "QPIP fw-csum TCP within 25% of paper's 113 µs",
        (qpip_tcp_fw.mean_us - 113.0).abs() / 113.0 < 0.25,
    );

    if let Some(path) = trace_path {
        let rec = Arc::new(FlightRecorder::new(4096));
        let (traced, _) =
            qpip_tcp_rtt_observed(NicConfig::paper_default(), 1, rounds, Some(Arc::clone(&rec)));
        assert_eq!(traced.mean_us, qpip_tcp.mean_us, "tracing must not perturb the simulation");
        std::fs::write(&path, rec.export_jsonl()).expect("write trace JSONL");
        println!("\nwrote {} trace events to {path}", rec.total_recorded());
    }
    checks.finish();
}
