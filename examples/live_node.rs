//! Two live nodes on 127.0.0.1: the DES protocol engine driving real
//! UDP sockets through `qpip-xport`, first over a clean wire and then
//! under a seeded fault plan that drops 2% of datagrams and holds 3%
//! behind the next one.
//!
//! The exact same `qpip-netstack` engine that powers the Figures 3–7
//! simulations produces every byte on the wire here — `XportNode` only
//! swaps the discrete-event scheduler for a wall clock and a
//! nonblocking socket.
//!
//! Run with: `cargo run --example live_node`

use qpip_bench::workloads::ttcp::ttcp;
use qpip_bench::workloads::verbs::LivePair;
use qpip_fabric::FaultPlan;

const MESSAGES: u64 = 64;
const LEN: usize = 2048;

fn main() {
    let kb = (MESSAGES * LEN as u64) / 1024;
    println!("live two-node transfer: {MESSAGES} x {LEN} B ({kb} KiB) over 127.0.0.1\n");

    // Pass 1: clean wire, node A talks straight to node B. The stream
    // is the ttcp workload the DES runs for Figure 4: at most 16 sends
    // in flight, 32 receive WRs posted, every message checked
    // exactly-once and in order on arrival.
    let r = ttcp(&mut LivePair::direct(), MESSAGES, LEN);
    println!(
        "  clean wire      : delivered in-order in {:6.1} ms, {} retransmissions",
        r.elapsed_s * 1e3,
        r.retransmissions
    );

    // Pass 2: same engine, but every datagram each node sends now
    // passes the DES fabric's fault injector — 2% dropped, 3% held
    // behind the node's next datagram, so it arrives out of order.
    let mut pair =
        LivePair::impaired(FaultPlan::Impair { drop_permille: 20, hold_permille: 30, seed: 42 });
    let r = ttcp(&mut pair, MESSAGES, LEN);
    let [a, b] = pair.nodes.each_ref().map(|n| n.stats());
    println!(
        "  2% loss, 3% hold: delivered in-order in {:6.1} ms, {} retransmissions \
         ({} datagrams dropped, {} held)",
        r.elapsed_s * 1e3,
        r.retransmissions,
        a.injected_drops + b.injected_drops,
        a.injected_holds + b.injected_holds
    );

    println!("\nboth transfers exactly-once, in-order — the engine's TCP, not the wire,");
    println!("provides reliability (the DES worlds remain byte-identical; see DESIGN.md §12)");
}
