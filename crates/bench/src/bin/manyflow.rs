//! Many-flow fan-in scalability: N clients (64 → 4096, geometric)
//! streaming into one QPIP server over Myrinet.
//!
//! Not a paper figure — a scalability check on the reproduction itself.
//! The paper's SAN sessions are long-lived and numerous (§3); the engine
//! must hold thousands of connections without per-flow cost growing with
//! the fleet. Reported per scale: wall time, DES events/sec and events
//! per flow (flatness metric). Then the cost of one idle timer tick on
//! engines holding 64 and 4096 armed connections: the timer index makes
//! it flat, a scan of every connection would make it grow ~64×.
//!
//! Flags: `--smoke` (small fan-in scales, for CI; the two timer ticks
//! are measured at the same fleet sizes either way).

use qpip_bench::report::{f1, Checks, Table};
use qpip_bench::workloads::manyflow::{run_scale, timer_tick, ManyflowScale};

/// Fleet sizes of the timer-tick flatness check.
const TICK_FLOWS: [usize; 2] = [64, 4096];

/// How much slower the large-fleet tick may be than the small-fleet
/// one. The timer index reads ~0.9×; the scan it replaced read ~64×.
const TICK_GROWTH_BOUND: f64 = 4.0;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");

    let (scales, messages, message): (&[usize], usize, usize) =
        if smoke { (&[16, 64], 2, 512) } else { (&[64, 256, 1024, 4096], 4, 1024) };

    println!(
        "Many-flow fan-in: N clients -> 1 server, {messages} x {message} B messages per flow\n"
    );

    let results: Vec<ManyflowScale> =
        scales.iter().map(|&n| run_scale(n, messages, message)).collect();

    let mut t = Table::new(
        "Fan-in scalability",
        &["flows", "wall s", "DES events", "events/s", "events/flow"],
    );
    for r in &results {
        t.row(&[
            r.flows.to_string(),
            format!("{:.3}", r.wall_s),
            r.des_events.to_string(),
            format!("{:.0}", r.des_events_per_sec),
            f1(r.events_per_flow),
        ]);
    }
    t.print();

    let ticks = TICK_FLOWS.map(timer_tick);
    println!();
    let mut t = Table::new("Idle timer tick (next_deadline + on_timer)", &["flows", "ns/tick"]);
    for (flows, m) in TICK_FLOWS.iter().zip(&ticks) {
        t.row(&[flows.to_string(), f1(m.ns_per_op)]);
    }
    t.print();

    let first = results.first().expect("at least one scale");
    let last = results.last().expect("at least one scale");
    let growth = last.events_per_flow / first.events_per_flow;
    let tick_growth = ticks[1].ns_per_op / ticks[0].ns_per_op;
    println!("\nShape checks:");
    let mut checks = Checks::default();
    checks.check(
        "every message delivered at every scale",
        results.iter().all(|r| r.bytes_received == (r.flows * messages * message) as u64),
    );
    checks.check(
        &format!(
            "events per flow roughly flat across {}x fleet growth ({:.1} -> {:.1}, x{:.2})",
            last.flows / first.flows,
            first.events_per_flow,
            last.events_per_flow,
            growth
        ),
        growth < 2.0,
    );
    checks.check(
        &format!(
            "timer tick flat from {} to {} flows ({:.1} -> {:.1} ns, x{:.2}, bound x{})",
            TICK_FLOWS[0],
            TICK_FLOWS[1],
            ticks[0].ns_per_op,
            ticks[1].ns_per_op,
            tick_growth,
            TICK_GROWTH_BOUND
        ),
        tick_growth <= TICK_GROWTH_BOUND,
    );
    checks.finish();
}
