//! `qpbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the run's figures, one per line, then as its last line a JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. Exits 1
//! when any operation failed its correctness check, 2 on bad arguments.

use std::process::ExitCode;
use std::time::Duration;

use qpbench::alloc::CountingAlloc;
use qpbench::report::result_json;
use qpbench::{fanin, Config, Workload};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str = "usage: qpbench --workload <des_fanin|des_nbd|live_rpc|live_stream> --seed <n> --seconds <s> --trace <0|1>";

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Pins the process to the highest-numbered CPU it may run on and
/// returns that CPU, so the scheduler cannot migrate the workload's
/// thread between CPUs mid-run (the README's steadiness table shows the
/// effect). Every workload is single-threaded, so one CPU is enough.
fn pin_to_last_cpu() -> Option<usize> {
    // a `cpu_set_t`: 1024 CPU bits
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of exactly `size` bytes, and
    // pid 0 names this process.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let (word, bits) = mask.iter().enumerate().rev().find(|(_, w)| **w != 0)?;
    let cpu = word * 64 + 63 - bits.leading_zeros() as usize;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly `size` bytes, and
    // pid 0 names this process.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
}

fn parse(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        workload: Workload::DesFanin,
        seed: 0,
        budget: Duration::from_secs(10),
        trace: false,
        fleet: fanin::FLEET,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {val:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(val).ok_or_else(|| format!("unknown workload {val:?}"))?)
            }
            "--seed" => cfg.seed = val.parse().map_err(bad)?,
            "--seconds" => {
                let s: f64 = val.parse().map_err(|_| format!("bad value {val:?} for {flag}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                cfg.budget = Duration::from_secs_f64(s);
            }
            "--trace" => {
                cfg.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {val:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    cfg.workload = workload.ok_or("--workload is required")?;
    Ok(cfg)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // fingerprint first: pinning narrows what the process can see
    let host = qpbench::procfs::fingerprint();
    let pinned = pin_to_last_cpu().map_or("unpinned".to_string(), |c| format!("pinned to cpu {c}"));
    println!("# {host}, {pinned}");
    let res = match qpbench::run(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("workload {} failed: {e}", cfg.workload.name());
            return ExitCode::FAILURE;
        }
    };
    for l in &res.lines {
        println!("{l}");
    }
    for m in &res.metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_json(res.correct(), res.attempted, res.failed, &res.metrics));
    if res.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
