//! Self-tests of the benchmark: its statistics, names, `/proc` parsers,
//! span recorder, and a tiny-scale run of every workload.

use std::time::Duration;

use qpbench::clock::{Elapsed, Stopwatch, NOMINAL_CACHE_S, NOMINAL_CORE_S};
use qpbench::procfs::{parse_cpu_model, parse_snmp_udp, parse_stat, parse_status, parse_steal};
use qpbench::report::{result_json, valid_name, END_TO_END, PER_LAYER};
use qpbench::spans::Spans;
use qpbench::stats::{median, percentile, quantile, Histogram};
use qpbench::{fanin, run, Config, Epoch, Outcome, Workload};

fn ramp(n: usize) -> Vec<f64> {
    (1..=n).map(|i| i as f64).collect()
}

#[test]
fn percentile_needs_ten_samples_beyond_it() {
    // p99 of 100 samples has one sample beyond it
    assert_eq!(percentile(&ramp(100), 99.0), None);
    assert_eq!(percentile(&ramp(999), 99.0), None);
    assert_eq!(percentile(&ramp(1000), 99.0), Some(990.0));
    assert_eq!(percentile(&ramp(1100), 99.0), Some(1089.0));
    // the median of 20 has ten beyond it, of 19 only nine
    assert_eq!(percentile(&ramp(20), 50.0), Some(10.0));
    assert_eq!(percentile(&ramp(19), 50.0), None);
    assert_eq!(percentile(&[], 50.0), None);
    assert_eq!(percentile(&ramp(100), 0.0), None);
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
}

#[test]
fn quantile_interpolates_between_order_statistics() {
    assert_eq!(quantile(&[5.0, 1.0, 3.0, 2.0, 4.0], 0.9), 4.6);
    assert_eq!(quantile(&ramp(5), 0.0), 1.0);
    assert_eq!(quantile(&ramp(5), 1.0), 5.0);
    assert_eq!(quantile(&ramp(5), 0.5), median(&ramp(5)));
    assert_eq!(quantile(&[7.0], 0.9), 7.0);
}

fn epoch(class: u8, msgs: u64, wall: f64) -> Epoch {
    let time = Elapsed { wall, core_s: NOMINAL_CORE_S, cache_s: NOMINAL_CACHE_S };
    Epoch { class, msgs, bytes: msgs * 1000, time }
}

#[test]
fn rates_take_each_class_at_its_fast_decile_and_scale_to_the_nominal_host() {
    let mut out = Outcome::default();
    // class 0 runs at 10 msgs/s, except one epoch a neighbour slowed to 5
    for wall in [1.0, 1.0, 2.0, 1.0, 1.0] {
        out.epochs.push(epoch(0, 10, wall));
    }
    // class 1 runs at 20 msgs/s
    for _ in 0..5 {
        out.epochs.push(epoch(1, 10, 0.5));
    }
    // 100 messages: 50 at 10/s and 50 at 20/s take 7.5 s
    let want = 100.0 / 7.5;
    assert!((out.msgs_per_s(false) / want - 1.0).abs() < 1e-12, "{}", out.msgs_per_s(false));
    assert!((out.goodput_mb_s(false) / (want * 1e-3) - 1.0).abs() < 1e-12);
    // on the nominal host the probes are as fast: same figures
    assert!((out.msgs_per_s(true) / want - 1.0).abs() < 1e-12);
    // a host whose core probe took twice as long, and cache probe four
    // times as long, is taken to run the workloads four times as slow
    for e in &mut out.epochs {
        e.time.core_s = 2.0 * NOMINAL_CORE_S;
        e.time.cache_s = 4.0 * NOMINAL_CACHE_S;
    }
    assert!((out.msgs_per_s(true) / (4.0 * want) - 1.0).abs() < 1e-12);
    assert!((out.msgs_per_s(false) / want - 1.0).abs() < 1e-12);
    assert_eq!(Outcome::default().msgs_per_s(true), 0.0);
}

#[test]
fn stopwatch_probes_around_the_phase() {
    let t = Stopwatch::start();
    std::thread::sleep(std::time::Duration::from_millis(5));
    let e = t.elapsed();
    assert!(e.wall >= 0.005, "wall {}", e.wall);
    assert!(e.core_s > 0.0 && e.core_s < 1.0, "core probe {}", e.core_s);
    assert!(e.cache_s > 0.0 && e.cache_s < 1.0, "cache probe {}", e.cache_s);
    let want = e.wall * NOMINAL_CORE_S / e.core_s * (NOMINAL_CACHE_S / e.cache_s).sqrt();
    assert!((e.nominal() / want - 1.0).abs() < 1e-12);
}

#[test]
fn histogram_follows_the_same_rule_within_a_bucket() {
    let filled = |n: u64| {
        let mut h = Histogram::default();
        (1..=n).for_each(|v| h.record(v * 1000));
        h
    };
    assert_eq!(filled(999).percentile(99.0), None);
    let p99 = filled(1000).percentile(99.0).expect("ten samples beyond");
    assert!((p99 / 990_000.0 - 1.0).abs() < 0.016, "p99 {p99}");
    let p50 = filled(1000).percentile(50.0).expect("median");
    assert!((p50 / 500_000.0 - 1.0).abs() < 0.016, "p50 {p50}");
    assert_eq!(Histogram::default().percentile(50.0), None);
}

#[test]
fn metric_names_are_valid_unique_and_match_benchmark_json() {
    let names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER.iter()).map(|(n, _)| *n).collect();
    for n in &names {
        assert!(valid_name(n), "invalid metric name {n}");
    }
    let mut sorted = names.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), names.len(), "duplicate metric names");
    for bad in ["", "_x", "a b", "a/b", "é", &"x".repeat(65)] {
        assert!(!valid_name(bad), "{bad:?} accepted");
    }

    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark directory");
    let declared: Vec<&str> =
        json.split("\"name\": \"").skip(1).filter_map(|s| s.split('"').next()).collect();
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    let mut expected: Vec<&str> = workloads.iter().chain(names.iter()).copied().collect();
    let mut got = declared.clone();
    expected.sort_unstable();
    got.sort_unstable();
    assert_eq!(got, expected, "BENCHMARK.json names differ from the benchmark's catalogue");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
}

#[test]
fn result_line_is_one_json_object_with_the_contract_keys() {
    let m = [qpbench::report::Metric { name: "setup_s", value: 0.25, unit: "s" }];
    assert_eq!(
        result_json(true, 3, 0, &m),
        r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"setup_s": {"value": 0.25, "unit": "s"}}}"#
    );
}

const STAT: &str = "4242 (qp bench) (x) R 1 4242 4242 0 -1 4194304 700 0 0 0 1234 567 0 0 20 0 1 0 99 1000 200 18446744073709551615";
const STATUS: &str = "Name:\tqpbench\nVmPeak:\t  20000 kB\nVmHWM:\t   8123 kB\nVmRSS:\t   8000 kB\nvoluntary_ctxt_switches:\t17\nnonvoluntary_ctxt_switches:\t5\n";
const PROC_STAT: &str =
    "cpu  100 2 300 40000 5 0 7 88 0 0\ncpu0 50 1 150 20000 2 0 3 44 0 0\nintr 1\n";
const SNMP: &str = "Ip: Forwarding DefaultTTL\nIp: 1 64\nUdp: InDatagrams NoPorts InErrors OutDatagrams RcvbufErrors SndbufErrors InCsumErrors IgnoredMulti MemErrors\nUdp: 1000 3 339 990 339 0 0 0 0\nUdpLite: InDatagrams NoPorts InErrors OutDatagrams RcvbufErrors SndbufErrors InCsumErrors IgnoredMulti MemErrors\nUdpLite: 0 0 0 0 0 0 0 0 0\n";
const CPUINFO: &str = "processor\t: 0\nvendor_id\t: GenuineIntel\nmodel name\t: Intel(R) Xeon(R) Processor\nflags\t\t: fpu\n";

#[test]
fn proc_parsers_read_fixture_text() {
    let cpu = parse_stat(STAT).expect("stat parses");
    assert_eq!((cpu.user, cpu.sys), (1234, 567));
    assert_eq!(parse_stat("garbage"), None);
    let st = parse_status(STATUS);
    assert_eq!((st.vm_hwm_kib, st.nonvoluntary_ctxt_switches), (8123, 5));
    assert_eq!(parse_status(""), Default::default());
    assert_eq!(parse_steal(PROC_STAT), Some(88));
    let udp = parse_snmp_udp(SNMP).expect("Udp lines");
    assert_eq!((udp.rcvbuf_errors, udp.in_errors), (339, 339));
    assert_eq!(parse_snmp_udp("Ip: a\nIp: 1\n"), None);
    assert_eq!(parse_cpu_model(CPUINFO).as_deref(), Some("Intel(R) Xeon(R) Processor"));
}

#[test]
fn spans_record_only_when_on() {
    let mut off = Spans::off();
    assert_eq!(off.span("a", |s| s.span("b", |_| 7)), 7);
    assert!(off.all().is_empty());

    let mut on = Spans::on();
    on.span("a", |s| s.span("b", |_| ()));
    let all = on.all();
    assert_eq!(all.len(), 2);
    assert_eq!((all[0].name, all[0].parent), ("a", None));
    assert_eq!((all[1].name, all[1].parent), ("b", Some(0)));
    assert!(all[0].start_ns <= all[1].start_ns && all[1].end_ns <= all[0].end_ns);
}

fn smoke(workload: Workload, trace: bool) {
    let cfg = Config {
        workload,
        seed: 7,
        budget: Duration::from_millis(200),
        trace,
        fleet: fanin::Scale { flows: 16, burst: 2 },
    };
    let r = run(&cfg).unwrap_or_else(|e| panic!("{} failed: {e}", workload.name()));
    assert!(
        r.correct(),
        "{} trace={trace}: {} of {} failed\n{}",
        workload.name(),
        r.failed,
        r.attempted,
        r.lines.join("\n")
    );
    let want: Vec<&str> =
        if trace { PER_LAYER.iter() } else { END_TO_END.iter() }.map(|(n, _)| *n).collect();
    let got: Vec<&str> = r.metrics.iter().map(|m| m.name).collect();
    assert_eq!(got, want);
    for m in &r.metrics {
        assert!(
            m.value.is_finite() && m.value >= 0.0 || m.name == "fabric.in_flight",
            "{} = {}",
            m.name,
            m.value
        );
        if !trace {
            assert!(m.value > 0.0, "{} end-to-end {} is zero", workload.name(), m.name);
        }
    }
    if trace {
        let spans = r.metrics.iter().find(|m| m.name == "trace.spans").expect("trace.spans").value;
        assert!(spans > 0.0, "traced {} recorded no spans", workload.name());
    }
}

#[test]
fn smoke_des_fanin() {
    smoke(Workload::DesFanin, false);
    smoke(Workload::DesFanin, true);
}

#[test]
fn smoke_des_nbd() {
    smoke(Workload::DesNbd, false);
    smoke(Workload::DesNbd, true);
}

#[test]
fn smoke_live_rpc() {
    smoke(Workload::LiveRpc, false);
    smoke(Workload::LiveRpc, true);
}

#[test]
fn smoke_live_stream() {
    smoke(Workload::LiveStream, false);
    smoke(Workload::LiveStream, true);
}
