//! End-to-end and per-layer benchmark of the QPIP reproduction: the
//! DES (`des_fanin`, `des_nbd`) and the live-socket transport
//! (`live_rpc`, `live_stream`). See `README.md` beside this crate for
//! why each workload exists and which metric each layer should move.

pub mod alloc;
pub mod clock;
pub mod fanin;
pub mod live;
pub mod nbd;
pub mod procfs;
pub mod report;
pub mod spans;
pub mod stats;

use std::time::Duration;

use alloc::AllocCount;
use clock::Elapsed;
use procfs::{Probe, TICKS_PER_SEC};
use report::{Metric, END_TO_END, PER_LAYER};
use spans::Spans;
use stats::Histogram;

/// What one workload segment did, as the workload measured it.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (messages, block requests, round trips).
    pub attempted: u64,
    /// Operations lost, duplicated, corrupted or mismatched.
    pub failed: u64,
    /// Host time of each set-up the segment performed.
    pub setup: Vec<Elapsed>,
    /// Measured traffic phases, one per job, runner call or connection.
    pub epochs: Vec<Epoch>,
    /// Allocations made inside the measured phases.
    pub alloc: AllocCount,
    /// Round-trip times in nanoseconds (`live_rpc`).
    pub rtt_ns: Histogram,
    /// Workload-specific per-layer values, by catalogue name.
    pub layers: Vec<(&'static str, f64)>,
    /// Human-readable remarks printed with the run.
    pub notes: Vec<String>,
}

/// One measured traffic phase.
#[derive(Debug, Clone, Copy)]
pub struct Epoch {
    /// Epochs of one class do the same work (each NBD runner is a class
    /// of its own; other workloads have one), so their rates compare.
    pub class: u8,
    /// Application messages completed.
    pub msgs: u64,
    /// Payload bytes delivered.
    pub bytes: u64,
    /// Host time the phase took.
    pub time: Elapsed,
}

/// Where in each class's epoch rates, ranked from slowest, the
/// reported rate lies: the edge of the fastest tenth. The host's
/// neighbours only ever slow an epoch down, so the fast end of the
/// distribution is the workload's own speed and moves far less from
/// run to run than the median.
const RATE_QUANTILE: f64 = 0.9;

impl Outcome {
    /// Messages completed over all epochs.
    pub fn msgs(&self) -> u64 {
        self.epochs.iter().map(|e| e.msgs).sum()
    }

    /// Seconds of an epoch or set-up: wall time, or with `nominal` the
    /// wall time scaled to the nominal host ([`Elapsed::nominal`]).
    fn secs(time: &Elapsed, nominal: bool) -> f64 {
        if nominal {
            time.nominal()
        } else {
            time.wall
        }
    }

    /// Rate of `amount` per second: each class at its
    /// [`RATE_QUANTILE`] epoch rate, the classes combined as the time
    /// their whole amounts would take at those rates.
    fn rate(&self, amount: fn(&Epoch) -> f64, nominal: bool) -> f64 {
        let mut classes: Vec<(u8, f64, Vec<f64>)> = Vec::new();
        for e in &self.epochs {
            let (a, r) = (amount(e), amount(e) / Self::secs(&e.time, nominal));
            match classes.iter_mut().find(|c| c.0 == e.class) {
                Some(c) => {
                    c.1 += a;
                    c.2.push(r);
                }
                None => classes.push((e.class, a, vec![r])),
            }
        }
        let total: f64 = classes.iter().map(|c| c.1).sum();
        let secs: f64 = classes.iter().map(|c| c.1 / stats::quantile(&c.2, RATE_QUANTILE)).sum();
        if total > 0.0 {
            total / secs
        } else {
            0.0
        }
    }

    /// Application messages per second: each epoch class at its
    /// 90th-percentile epoch rate, the classes combined by time.
    pub fn msgs_per_s(&self, nominal: bool) -> f64 {
        self.rate(|e| e.msgs as f64, nominal)
    }

    /// Payload MB (10⁶ bytes) per second, computed like
    /// [`Outcome::msgs_per_s`].
    pub fn goodput_mb_s(&self, nominal: bool) -> f64 {
        self.rate(|e| e.bytes as f64 / 1e6, nominal)
    }

    /// Median set-up seconds.
    pub fn setup_s(&self, nominal: bool) -> f64 {
        stats::median(&self.setup.iter().map(|t| Self::secs(t, nominal)).collect::<Vec<_>>())
    }
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Thousands of DES clients fanning into one QPIP server.
    DesFanin,
    /// The paper's Figure 7 NBD run in the DES.
    DesNbd,
    /// Lockstep 64 B ping-pong over live loopback sockets.
    LiveRpc,
    /// Lockstep 8 KB stream over live loopback sockets.
    LiveStream,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] =
        [Workload::DesFanin, Workload::DesNbd, Workload::LiveRpc, Workload::LiveStream];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DesFanin => "des_fanin",
            Workload::DesNbd => "des_nbd",
            Workload::LiveRpc => "live_rpc",
            Workload::LiveStream => "live_stream",
        }
    }

    /// Whether the workload's traffic runs at its thread's CPU speed,
    /// so its rates are scaled to the nominal host. `live_stream` is
    /// paced by the engine's retransmission timers and reports
    /// wall-clock rates. Set-up times are scaled in every workload.
    pub fn cpu_bound(self) -> bool {
        self != Workload::LiveStream
    }

    /// Parses a command-line workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Everything one invocation needs.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Seed of the workload's inputs.
    pub seed: u64,
    /// Measuring time.
    pub budget: Duration,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// `des_fanin` job size.
    pub fleet: fanin::Scale,
}

/// Result of one invocation.
#[derive(Debug)]
pub struct RunResult {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Reported metrics: every end-to-end metric, or with tracing every
    /// per-layer metric.
    pub metrics: Vec<Metric>,
    /// Lines printed before the result line.
    pub lines: Vec<String>,
}

impl RunResult {
    /// Whether every operation succeeded.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// One measured segment: the workload plus `/proc` readings around it.
struct Segment {
    out: Outcome,
    nominal: bool,
    before: Probe,
    after: Probe,
    spans: Spans,
}

fn segment(cfg: &Config, budget: Duration, mut spans: Spans) -> Result<Segment, String> {
    let before = Probe::take();
    let out = match cfg.workload {
        Workload::DesFanin => fanin::run(cfg.seed, budget, cfg.fleet, &mut spans),
        Workload::DesNbd => nbd::run(budget, &mut spans),
        Workload::LiveRpc => live::rpc(cfg.seed, budget, &mut spans)?,
        Workload::LiveStream => live::stream(cfg.seed, budget, &mut spans)?,
    };
    Ok(Segment { out, nominal: cfg.workload.cpu_bound(), before, after: Probe::take(), spans })
}

impl Segment {
    fn end_to_end(&self) -> Vec<Metric> {
        let values = [
            // a set-up is CPU work in every workload, `live_stream`'s too
            self.out.setup_s(true),
            self.out.msgs_per_s(self.nominal),
            self.out.goodput_mb_s(self.nominal),
            self.after.status.vm_hwm_kib as f64 / 1024.0,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric { name, value, unit })
            .collect()
    }

    fn per_layer(&self, overhead_ratio: f64) -> Vec<Metric> {
        let (a, b, o) = (&self.after, &self.before, &self.out);
        let msgs = o.msgs().max(1) as f64;
        let tick_us = 1e6 / TICKS_PER_SEC as f64;
        let steps = self.spans.durations_ns("world.step");
        let pct = |p| stats::percentile(&steps, p).unwrap_or(0.0);
        let mut values: Vec<(&'static str, f64)> = vec![
            ("world.step_ns_p50", pct(50.0)),
            ("world.step_ns_p99", pct(99.0)),
            ("alloc.per_msg", o.alloc.allocs as f64 / msgs),
            ("alloc.bytes_per_msg", o.alloc.bytes as f64 / msgs),
            ("cpu.user_us_per_msg", (a.cpu.user - b.cpu.user) as f64 * tick_us / msgs),
            ("cpu.sys_us_per_msg", (a.cpu.sys - b.cpu.sys) as f64 * tick_us / msgs),
            ("udp.rcvbuf_errors", (a.udp.rcvbuf_errors - b.udp.rcvbuf_errors) as f64),
            ("udp.in_errors", (a.udp.in_errors - b.udp.in_errors) as f64),
            ("host.steal_ms", (a.steal_ticks - b.steal_ticks) as f64 * 1e3 / TICKS_PER_SEC as f64),
            (
                "host.nonvoluntary_ctx_switches",
                (a.status.nonvoluntary_ctxt_switches - b.status.nonvoluntary_ctxt_switches) as f64,
            ),
            ("trace.overhead_ratio", overhead_ratio),
            ("trace.spans", self.spans.all().len() as f64),
        ];
        values.extend(o.layers.iter().copied());
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = values.iter().find(|(n, _)| *n == name).map_or(0.0, |&(_, v)| v);
                Metric { name, value, unit }
            })
            .collect()
    }

    fn lines(&self) -> Vec<String> {
        let mut lines = Vec::new();
        let o = &self.out;
        let secs: f64 = o.epochs.iter().map(|e| e.time.wall).sum();
        lines.push(format!(
            "{} ops attempted, {} failed; {} msgs in {} epochs, {secs:.3} s measured; {} set-ups",
            o.attempted,
            o.failed,
            o.msgs(),
            o.epochs.len(),
            o.setup.len()
        ));
        if !o.epochs.is_empty() {
            let probe_ms = |f: fn(&Epoch) -> f64| {
                stats::median(&o.epochs.iter().map(f).collect::<Vec<_>>()) * 1e3
            };
            lines.push(format!(
                "wall-clock msgs_per_s {:.1}, goodput_mb_s {:.3}, setup_s {:.9}; median probes: core {:.3} ms, cache {:.3} ms{}",
                o.msgs_per_s(false),
                o.goodput_mb_s(false),
                o.setup_s(false),
                probe_ms(|e| e.time.core_s),
                probe_ms(|e| e.time.cache_s),
                if self.nominal { " (the reported figures are scaled to the nominal host)" } else { "" },
            ));
        }
        if !o.rtt_ns.is_empty() {
            let n = o.rtt_ns.len();
            for (name, p) in [("rtt_p50_us", 50.0), ("rtt_p99_us", 99.0)] {
                let v = o
                    .rtt_ns
                    .percentile(p)
                    .map_or("n/a (too few samples)".into(), |v| format!("{:.2}", v / 1e3));
                lines.push(format!("{name} {v} us (n={n})"));
            }
        }
        lines.extend(o.notes.iter().cloned());
        lines
    }
}

/// The warm-up runs for the budget divided by this.
const WARM_UP_SHARE: u32 = 10;

/// Runs one invocation, after a warm-up that is checked but not
/// measured. The end-to-end run measures with tracing off.
/// The traced run spends half the budget untraced and half traced; the
/// throughput ratio of the two halves is the tracing overhead.
///
/// # Errors
///
/// A live-socket failure that stopped the workload.
pub fn run(cfg: &Config) -> Result<RunResult, String> {
    let mut lines = vec![format!(
        "# qpbench workload={} seed={} seconds={} trace={}",
        cfg.workload.name(),
        cfg.seed,
        cfg.budget.as_secs_f64(),
        u8::from(cfg.trace),
    )];
    // The first seconds of a process run slower than the rest (caches,
    // the allocator's heap and the host's pages warming up); a tenth of
    // the budget, checked like the rest but not measured, absorbs them.
    let warm = segment(cfg, cfg.budget / WARM_UP_SHARE, Spans::off())?;
    lines
        .push(format!("warm-up: {} ops attempted, {} failed", warm.out.attempted, warm.out.failed));
    lines.extend(warm.out.notes.iter().cloned());
    let (attempted, failed) = (warm.out.attempted, warm.out.failed);
    if !cfg.trace {
        let seg = segment(cfg, cfg.budget, Spans::off())?;
        lines.extend(seg.lines());
        let metrics = seg.end_to_end();
        return Ok(RunResult {
            attempted: attempted + seg.out.attempted,
            failed: failed + seg.out.failed,
            metrics,
            lines,
        });
    }
    let half = cfg.budget / 2;
    let plain = segment(cfg, half, Spans::off())?;
    let traced = segment(cfg, half, Spans::on())?;
    lines.push("untraced half:".into());
    lines.extend(plain.lines());
    lines.push("traced half:".into());
    lines.extend(traced.lines());
    let nominal = cfg.workload.cpu_bound();
    let metrics = traced.per_layer(plain.out.msgs_per_s(nominal) / traced.out.msgs_per_s(nominal));
    Ok(RunResult {
        attempted: attempted + plain.out.attempted + traced.out.attempted,
        failed: failed + plain.out.failed + traced.out.failed,
        metrics,
        lines,
    })
}
