//! The deterministic fuzzer's fixed-seed smoke pass: 10,000 random
//! cases, each checked by the TCB invariant oracle. A failing case
//! prints its minimized script and a `--case` replay line.
//! `scripts/check.sh` also runs the release build.

use std::process::Command;

#[test]
fn conform_fuzz_fixed_seed_smoke() {
    let out = Command::new(env!("CARGO_BIN_EXE_conform_fuzz"))
        .args(["--seed", "0xfeedbeef", "--iters", "10000"])
        .output()
        .expect("run conform_fuzz");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success() && !stdout.contains("[MISS]"),
        "conform_fuzz exited {}:\n{stdout}{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
}
