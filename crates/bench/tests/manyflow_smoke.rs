//! The many-flow fan-in smoke run, as the test build compiles it.
//!
//! In a debug build `World::step` runs the per-event TCB invariant
//! oracle and the lent-buffer checks, so this is the one multi-flow
//! fan-in through the world loop with every debug-only check switched
//! on. `scripts/check.sh` also runs the release build.

use std::process::Command;

#[test]
fn manyflow_smoke_passes_its_checks() {
    let out =
        Command::new(env!("CARGO_BIN_EXE_manyflow")).arg("--smoke").output().expect("run manyflow");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success() && !stdout.contains("[MISS]"),
        "manyflow --smoke exited {}:\n{stdout}{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
}
