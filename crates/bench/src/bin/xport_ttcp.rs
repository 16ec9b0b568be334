//! ttcp over live sockets: the Fig. 3/4 RTT and throughput workloads
//! run between two real `XportNode`s on 127.0.0.1, printed next to the
//! DES QPIP numbers they correspond to.
//!
//! The DES columns are deterministic model outputs; the live columns
//! are wall-clock measurements that vary with machine and load — they
//! sanity-check that the same engine behaves on real wires (including
//! under a seeded 2 % loss, 3 % hold fault plan), they do not reproduce
//! figures.
//!
//! Flags: `--smoke` (small counts, for CI), `--json` (also write
//! `BENCH_xport.json` to the current directory).

use qpip_bench::report::{f1, xport_json, Checks, Table};
use qpip_bench::workloads::pingpong::{qpip_tcp_rtt, rtt};
use qpip_bench::workloads::ttcp::{qpip_ttcp, ttcp, TtcpResult};
use qpip_bench::workloads::verbs::{LivePair, VerbsPair};
use qpip_fabric::FaultPlan;
use qpip_nic::types::{NicConfig, ServiceType};
use qpip_trace::Snapshot;
use qpip_xport::XportNode;

/// ttcp on a live pair, then, once the pair has settled, the sender's
/// counters (`engine`, `xport`) and the receiver's (`receiver_xport`),
/// and whether each node read every datagram the other sent.
fn live_ttcp(mut p: LivePair, messages: u64, message: usize) -> (TtcpResult, Vec<Snapshot>, bool) {
    let r = ttcp(&mut p, messages, message);
    p.settle();
    let [a, b] = p.nodes.each_ref().map(XportNode::stats);
    let lossless = a.datagrams_tx == b.datagrams_rx && b.datagrams_tx == a.datagrams_rx;
    let counters = vec![
        p.nodes[0].engine().stats().snapshot(),
        a.snapshot(),
        b.snapshot().rescoped("receiver_xport"),
    ];
    (r, counters, lossless)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let json = args.iter().any(|a| a == "--json");

    let (rounds, messages, message): (usize, u64, usize) =
        if smoke { (50, 200, 4096) } else { (400, 2000, 8192) };
    let impaired_messages = if smoke { 100 } else { 500 };

    println!("ttcp over live sockets: two XportNodes on 127.0.0.1\n");

    // DES reference points (deterministic)
    let des_rtt = qpip_tcp_rtt(NicConfig::paper_default(), 64, 40);
    let des_ttcp = qpip_ttcp(NicConfig::paper_default(), messages * message as u64, 16 * 1024);

    let rtt = rtt(&mut LivePair::direct(), ServiceType::ReliableTcp, 64, rounds);
    let (direct, direct_counters, direct_lossless) =
        live_ttcp(LivePair::direct(), messages, message);
    let impair = FaultPlan::Impair { drop_permille: 20, hold_permille: 30, seed: 42 };
    let (impaired, impaired_counters, _) =
        live_ttcp(LivePair::impaired(impair), impaired_messages, message);
    // both nodes' fault-plan counts, from their `xport` snapshots
    let injected = |name| impaired_counters.iter().filter_map(|s| s.get(name)).sum::<u64>();
    let (dropped, held) = (injected("injected_drops"), injected("injected_holds"));

    let [p50, p99, p999] = rtt.percentiles();
    let mut t = Table::new(
        "RTT, 64 B message",
        &["path", "rounds", "mean us", "p50 us", "p99 us", "p999 us"],
    );
    t.row(&[
        "live loopback".into(),
        rtt.samples.count().to_string(),
        f1(rtt.mean_us),
        f1(p50),
        f1(p99),
        f1(p999),
    ]);
    t.row(&[
        "DES QPIP (Fig. 3)".into(),
        "40".into(),
        f1(des_rtt.mean_us),
        "-".into(),
        "-".into(),
        "-".into(),
    ]);
    t.print();
    println!();

    let mut t = Table::new(
        "Streaming throughput",
        &["path", "messages", "msg B", "MB/s", "retrans", "dropped", "held"],
    );
    for (path, n, r, [drops, holds]) in [
        ("live direct", messages, &direct, [0, 0]),
        ("live 2% loss + 3% hold", impaired_messages, &impaired, [dropped, held]),
    ] {
        t.row(&[
            path.into(),
            n.to_string(),
            message.to_string(),
            f1(r.mbytes_per_sec),
            r.retransmissions.to_string(),
            drops.to_string(),
            holds.to_string(),
        ]);
    }
    t.row(&[
        "DES QPIP (Fig. 4)".into(),
        "-".into(),
        "16384".into(),
        f1(des_ttcp.mbytes_per_sec),
        des_ttcp.retransmissions.to_string(),
        "-".into(),
        "-".into(),
    ]);
    t.print();

    // Delivery needs no check here: `ttcp::Stream::run` panics on any
    // lost, duplicated, misordered or corrupted message, so reaching
    // this line means both transfers were exactly-once and in order.
    println!("\nShape checks:");
    let mut checks = Checks::default();
    checks.check("direct path lost no datagram to the kernel", direct_lossless);
    checks.check("impaired path dropped datagrams", dropped > 0);
    checks.check("impaired path held datagrams", held > 0);
    checks.check("loss recovery engaged on the impaired path", impaired.retransmissions > 0);
    // the ping carries the last pong's ACK and the pong the ping's; a
    // stall can let the final pong's delayed ACK fire before the count
    let round_packets = 2 * rounds as u64;
    checks.check(
        "live RTT leg costs 2 datagrams per round after set-up",
        rtt.packets.is_some_and(|n| (round_packets..=round_packets + 1).contains(&n)),
    );

    if json {
        // one counters object for the whole document: each scenario's
        // snapshots disambiguated by a scope prefix
        let counters: Vec<Snapshot> = direct_counters
            .iter()
            .map(|s| ("direct", s))
            .chain(impaired_counters.iter().map(|s| ("impaired", s)))
            .map(|(prefix, s)| s.clone().rescoped(format!("{prefix}_{}", s.scope())))
            .collect();
        let doc = xport_json(
            &rtt,
            64,
            &[("direct", message, direct), ("impaired_2pct_loss", message, impaired)],
            des_rtt.mean_us,
            des_ttcp.mbytes_per_sec,
            &counters,
        );
        std::fs::write("BENCH_xport.json", &doc).expect("write BENCH_xport.json");
        println!("\nwrote BENCH_xport.json");
    }
    checks.finish();
}
