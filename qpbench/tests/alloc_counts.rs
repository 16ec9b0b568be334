//! The counting allocator's DES counts repeat exactly. Its own test
//! binary (one test), because the counters are process-wide.

use std::time::Duration;

use qpbench::alloc::CountingAlloc;
use qpbench::{fanin, run, Config, Workload};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn des_fanin_allocation_counts_repeat_exactly() {
    let cfg = Config {
        workload: Workload::DesFanin,
        seed: 3,
        // a zero budget still runs one job per half
        budget: Duration::ZERO,
        trace: true,
        fleet: fanin::Scale { flows: 64, burst: 4 },
    };
    let counts = || {
        let r = run(&cfg).expect("des_fanin runs");
        assert!(r.correct());
        let get = |n: &str| r.metrics.iter().find(|m| m.name == n).expect("metric").value;
        (get("alloc.per_msg"), get("alloc.bytes_per_msg"))
    };
    let first = counts();
    assert!(first.0 > 0.0 && first.1 > 0.0, "no allocations counted");
    assert_eq!(counts(), first);
}
