//! Two live nodes on 127.0.0.1: the DES protocol engine driving real
//! UDP sockets through `qpip-xport`, first over a clean wire and then
//! through the deterministic impairment proxy at 2% loss + reordering.
//!
//! The exact same `qpip-netstack` engine that powers the Figures 3–7
//! simulations produces every byte on the wire here — `XportNode` only
//! swaps the discrete-event scheduler for a wall clock and a
//! nonblocking socket.
//!
//! Run with: `cargo run --example live_node`

use std::time::Duration;

use qpip_bench::workloads::ttcp::ttcp;
use qpip_bench::workloads::verbs::LivePair;
use qpip_xport::ImpairConfig;

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
        "  clean wire     : delivered in-order in {:6.1} ms, {} retransmissions",
        r.elapsed_s * 1e3,
        r.retransmissions
    );

    // Pass 2: same engine, but every datagram now crosses the
    // impairment proxy — 2% dropped, 3% held back for reordering.
    let mut pair = LivePair::impaired(ImpairConfig {
        seed: 42,
        drop_per_mille: 20,
        reorder_per_mille: 30,
        hold_at_most: Duration::from_millis(10),
    });
    let r = ttcp(&mut pair, MESSAGES, LEN);
    let stats = pair.proxy.as_ref().expect("impaired pair").stats();
    println!(
        "  2% loss proxy  : delivered in-order in {:6.1} ms, {} retransmissions \
         ({} datagrams dropped, {} reordered)",
        r.elapsed_s * 1e3,
        r.retransmissions,
        stats.dropped,
        stats.reordered
    );

    println!("\nboth transfers exactly-once, in-order — the engine's TCP, not the wire,");
    println!("provides reliability (the DES worlds remain byte-identical; see DESIGN.md §12)");
}
