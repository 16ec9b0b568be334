#!/usr/bin/env bash
# One-command CI gate: build, test, lint, format.
#
# Everything runs against the whole workspace; clippy treats warnings
# as errors so new code cannot regress the lint baseline, and rustfmt
# enforces the style pinned in rustfmt.toml.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --workspace (bins + examples)"
cargo build --release --workspace
cargo build --release --workspace --examples

# Compile the tests first, then run them under a hard timeout: the
# live-socket tests block on real UDP sockets, so a bug there can hang
# rather than fail, and the timeout turns a hang into a failure. The
# build stays outside it, so a cold compile cannot eat the budget.
echo "==> cargo test --workspace --no-run"
cargo test --workspace --no-run -q
echo "==> cargo test --workspace (600s timeout)"
timeout 600 cargo test --workspace -q

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -q -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

# rustdoc warnings are errors too: a deleted item must not leave a
# dangling intra-doc link behind.
echo "==> cargo doc --workspace --no-deps (-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# Smoke-run every experiment binary: each must exit cleanly and report
# zero [MISS] shape checks. fig7_nbd without --full and manyflow with
# --smoke are the quick configurations; the rest are already fast. A
# binary with a missed check exits 1 after its last line; the gate
# prints its output before failing on that status.
#
# The five paper binaries and the three extra experiments (ablations,
# latency_sweep, rdma_bench: the firmware-checksum, multiplier and MTU
# paths the paper binaries leave out) are deterministic simulations,
# so their stdout is also an oracle: a refactor must leave it
# byte-identical. scripts/paper_outputs/ holds each run's stdout (the
# debug build is compared with it, line by line, by the qpip-bench
# test paper_outputs under `cargo test`); scripts/paper_outputs.md5
# pins the md5 of each golden file, and the release outputs here must
# match both. A change that is meant to move a simulated figure
# updates the golden file and the md5 in the same commit
# (`md5sum *.txt > ../paper_outputs.md5` run in scripts/paper_outputs).
paper_out="$(mktemp -d)"
gated_run() {
    local name=$1
    shift
    echo "==> smoke: $*"
    local status=0
    "./target/release/$1" "${@:2}" >"$paper_out/$name.txt" || status=$?
    if grep -q '\[MISS\]' "$paper_out/$name.txt" || [[ $status -ne 0 ]]; then
        cat "$paper_out/$name.txt"
        echo "FAIL: $* reported a missed shape check or exited $status"
        exit 1
    fi
}
for bin in fig3_rtt fig4_throughput table1_overhead tables23_occupancy fig7_nbd \
    ablations latency_sweep rdma_bench; do
    gated_run "$bin" "$bin"
done
gated_run tables23_occupancy_hw_multiply tables23_occupancy --hw-multiply
echo "==> gate: golden outputs md5-identical to scripts/paper_outputs.md5"
if ! (cd scripts/paper_outputs && md5sum --check --quiet ../paper_outputs.md5) ||
    [[ $(ls scripts/paper_outputs | wc -l) -ne $(wc -l <scripts/paper_outputs.md5) ]]; then
    echo "FAIL: scripts/paper_outputs/ and scripts/paper_outputs.md5 disagree"
    exit 1
fi
echo "==> gate: experiment binary outputs md5-identical to scripts/paper_outputs.md5"
if ! (cd "$paper_out" && md5sum --check --quiet "$OLDPWD/scripts/paper_outputs.md5"); then
    echo "FAIL: an experiment binary's output changed (outputs kept in $paper_out)"
    exit 1
fi
rm -rf "$paper_out"
echo "==> smoke: manyflow --smoke"
status=0
out="$(./target/release/manyflow --smoke)" || status=$?
if grep -q '\[MISS\]' <<<"$out" || [[ $status -ne 0 ]]; then
    echo "$out"
    echo "FAIL: manyflow reported a missed shape check or exited $status"
    exit 1
fi

# The benchmark (qpbench/, a Cargo workspace of its own) drives the
# public world API (QpipWorld::step, events_processed, SocketWorld::gige,
# ...), so build it here: an API break must fail CI, not the benchmark.
# Its own tests (alloc-count repeatability, metric names against
# BENCHMARK.json, the parsers, a smoke run of each workload) run next,
# one at a time: the live smoke runs read the kernel's UDP receive-drop
# counter, which is shared by the whole network namespace, so two of
# them running at once count each other's drops.
# A one-second run of each DES workload then re-runs its own checks;
# exit 1 means an exactly-once or Fig. 7 equality check failed.
echo "==> build: qpbench"
cargo build --release --offline --manifest-path qpbench/Cargo.toml
echo "==> cargo test: qpbench"
cargo test --release --offline --manifest-path qpbench/Cargo.toml -- --test-threads=1
for workload in des_fanin des_nbd; do
    echo "==> smoke: qpbench --workload $workload --seed 1 --seconds 1 --trace 0"
    out="$(qpbench/target/release/qpbench --workload "$workload" --seed 1 --seconds 1 --trace 0)" || {
        echo "$out"
        echo "FAIL: qpbench $workload exited non-zero"
        exit 1
    }
done

# Live-socket smoke runs. These open real UDP sockets on 127.0.0.1 and
# block on them, so unlike the deterministic binaries above a bug can
# hang rather than fail — a hard timeout turns a hang into a failure.
echo "==> smoke: xport_ttcp --smoke (120s timeout)"
out="$(timeout 120 ./target/release/xport_ttcp --smoke)" || {
    echo "$out"
    echo "FAIL: xport_ttcp --smoke failed or timed out"
    exit 1
}
if grep -q '\[MISS\]' <<<"$out"; then
    echo "$out"
    echo "FAIL: xport_ttcp reported a missed shape check"
    exit 1
fi

echo "==> smoke: live_node example (60s timeout)"
timeout 60 ./target/release/examples/live_node >/dev/null || {
    echo "FAIL: live_node example failed or timed out"
    exit 1
}

# Flight-recorder smoke: capture a deterministic DES trace from the
# Figure 3 workload and make sure the qpip-trace CLI digests it into a
# non-empty per-connection summary.
echo "==> smoke: fig3_rtt --trace + qpip-trace CLI"
trace_file="$(mktemp)"
./target/release/fig3_rtt --trace "$trace_file" >/dev/null
summary="$(./target/release/qpip-trace "$trace_file")"
rm -f "$trace_file"
if [[ -z "$summary" ]] || ! grep -q 'events across' <<<"$summary"; then
    echo "$summary"
    echo "FAIL: qpip-trace produced no summary"
    exit 1
fi

# Conformance: the scripted suite runs as part of `cargo test` above;
# here the deterministic fuzzer gets a fixed-seed smoke pass. 10k cases
# take a few seconds in release; the hard timeout turns a fuzzer hang
# (a stuck engine is a finding too) into a failure. Any invariant
# violation prints the minimized script and a --case replay line.
echo "==> smoke: conform_fuzz --seed 0xfeedbeef --iters 10000 (120s timeout)"
timeout 120 ./target/release/conform_fuzz --seed 0xfeedbeef --iters 10000 || {
    echo "FAIL: conform_fuzz smoke failed or timed out"
    exit 1
}

# The wide-word checksum must stay well ahead of the scalar walk it
# replaced. The speedups are self-normalized — current vs the in-bench
# scalar baseline measured in the same run — so they are
# machine-independent; the floors sit at ~60% of the values recorded
# when the checksum landed, to absorb CI noise. A floored name missing
# from the bench output fails the gate too, so a rename or deletion
# cannot disarm its floor unnoticed. (The codec and the DES kernel are
# guarded by deterministic tests instead: the codec's allocation count
# in tests/steady_state_allocs.rs, the kernel's heap depth in
# qpip-sim's per_ack_rescheduling_does_not_grow_the_heap.)
echo "==> guard: wire_hotpath checksum speedups vs floors"
bench_out="$(cargo bench -p qpip-bench --bench wire_hotpath 2>/dev/null)"
if ! awk '
    BEGIN {
        floors["checksum/1500"] = 2.0
        floors["checksum/9000"] = 2.5
    }
    /->/ {
        name = $1; speedup = $NF; sub(/x$/, "", speedup)
        seen[name] = 1
        if ((name in floors) && speedup + 0 < floors[name]) {
            printf "  %s speedup %.2fx below floor %.2fx\n", name, speedup, floors[name]
            bad = 1
        }
    }
    END {
        for (name in floors) {
            if (!(name in seen)) {
                printf "  %s floored but missing from the bench output\n", name
                bad = 1
            }
        }
        exit bad
    }
' <<<"$bench_out"; then
    echo "$bench_out"
    echo "FAIL: wire_hotpath checksum speedup below its floor or missing"
    exit 1
fi

echo "All checks passed."
