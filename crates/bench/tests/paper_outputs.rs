//! The deterministic experiment binaries' stdout, byte for byte.
//!
//! Each binary's output is committed under `scripts/paper_outputs/`.
//! A change that moves a simulated figure fails here with the lines
//! that moved; a change meant to move one updates the golden file (and
//! `scripts/paper_outputs.md5`) in the same commit and says why. To
//! regenerate a file, run the binary with the arguments below and
//! redirect its stdout over it.

use std::path::Path;
use std::process::Command;

/// Runs `bin` with `args` and compares its stdout with
/// `scripts/paper_outputs/<golden>.txt`.
fn check(bin: &str, args: &[&str], golden: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../scripts/paper_outputs")
        .join(format!("{golden}.txt"));
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let out = Command::new(bin).args(args).output().expect("run experiment binary");
    let got = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert!(out.status.success(), "{golden} exited {}:\n{got}", out.status);
    if got == want {
        return;
    }
    let (want_lines, got_lines): (Vec<&str>, Vec<&str>) =
        (want.lines().collect(), got.lines().collect());
    let mut diff = String::new();
    for i in 0..want_lines.len().max(got_lines.len()) {
        let (w, g) = (want_lines.get(i), got_lines.get(i));
        if w != g {
            diff +=
                &format!("line {}:\n  - {}\n  + {}\n", i + 1, w.unwrap_or(&""), g.unwrap_or(&""));
        }
    }
    if diff.is_empty() {
        diff = "(line endings differ)\n".to_string();
    }
    panic!("{golden} stdout differs from {}:\n{diff}", path.display());
}

#[test]
fn fig3_rtt() {
    check(env!("CARGO_BIN_EXE_fig3_rtt"), &[], "fig3_rtt");
}

#[test]
fn fig4_throughput() {
    check(env!("CARGO_BIN_EXE_fig4_throughput"), &[], "fig4_throughput");
}

#[test]
fn table1_overhead() {
    check(env!("CARGO_BIN_EXE_table1_overhead"), &[], "table1_overhead");
}

#[test]
fn tables23_occupancy() {
    check(env!("CARGO_BIN_EXE_tables23_occupancy"), &[], "tables23_occupancy");
}

#[test]
fn tables23_occupancy_hw_multiply() {
    check(
        env!("CARGO_BIN_EXE_tables23_occupancy"),
        &["--hw-multiply"],
        "tables23_occupancy_hw_multiply",
    );
}

#[test]
fn fig7_nbd() {
    check(env!("CARGO_BIN_EXE_fig7_nbd"), &[], "fig7_nbd");
}

#[test]
fn ablations() {
    check(env!("CARGO_BIN_EXE_ablations"), &[], "ablations");
}

#[test]
fn latency_sweep() {
    check(env!("CARGO_BIN_EXE_latency_sweep"), &[], "latency_sweep");
}

#[test]
fn rdma_bench() {
    check(env!("CARGO_BIN_EXE_rdma_bench"), &[], "rdma_bench");
}
