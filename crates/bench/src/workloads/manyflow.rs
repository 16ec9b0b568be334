//! Many-flow fan-in workload: N clients streaming into one QPIP server
//! over Myrinet, exercising the engine's timer index and connection
//! tables at fleet scale (64 → 4096 flows).
//!
//! Two measurements:
//!
//! 1. **Fan-in run** ([`run_scale`]) — the full simulated workload;
//!    reports wall time, DES events, and events/sec. With the O(1)
//!    timer index and slab tables, events per flow should stay roughly
//!    flat as the fleet grows; with the old scan-based timers the cost
//!    grew quadratically.
//! 2. **Timer tick** ([`timer_tick`]) — a microbenchmark of
//!    `next_deadline` + `on_timer` on a real [`Engine`] holding N armed
//!    connections. Compared across fleet sizes it should stay flat; a
//!    per-tick scan of every connection would grow with N.

use std::time::Instant;

use qpip::world::QpipWorld;
use qpip::{CompletionKind, NicConfig, RecvWr, SendWr, ServiceType};
use qpip_fabric::FabricConfig;
use qpip_netstack::engine::Engine;
use qpip_netstack::types::{Endpoint, NetConfig};
use qpip_sim::time::SimTime;

use crate::microbench::{bench, Measurement};

/// One fan-in run at a fixed fleet size.
#[derive(Debug, Clone)]
pub struct ManyflowScale {
    /// Number of client flows fanning into the one server.
    pub flows: usize,
    /// Host wall-clock seconds for the whole run (setup + stream).
    pub wall_s: f64,
    /// DES events delivered by the kernel.
    pub des_events: u64,
    /// DES events per wall-clock second (kernel meter).
    pub des_events_per_sec: f64,
    /// DES events per flow — the flatness metric.
    pub events_per_flow: f64,
    /// Application bytes delivered to the server.
    pub bytes_received: u64,
    /// Fleet-wide counter snapshots of the world once it is idle after
    /// the run (engine + NIC summed across all nodes, plus the fabric).
    pub counters: Vec<qpip_trace::Snapshot>,
}

/// Runs the fan-in workload at one scale: `flows` clients each stream
/// `messages_per_flow` messages of `message` bytes into a single server
/// node, all over one Myrinet switch.
pub fn run_scale(flows: usize, messages_per_flow: usize, message: usize) -> ManyflowScale {
    let wall_start = Instant::now();
    let nic = NicConfig::paper_default();
    let mut w = QpipWorld::new(FabricConfig { mtu: nic.mtu, ..FabricConfig::myrinet() });

    let server = w.add_node(nic.clone());
    let cq_s = w.create_cq(server);
    // One listening QP per expected flow, all pooled on port 5000; each
    // pre-posts enough receive buffers for the whole stream so the
    // advertised window never closes.
    for i in 0..flows {
        let qp = w.create_qp(server, ServiceType::ReliableTcp, cq_s, cq_s).unwrap();
        for j in 0..messages_per_flow {
            w.post_recv(
                server,
                qp,
                RecvWr { wr_id: (i * messages_per_flow + j) as u64, capacity: message },
            )
            .unwrap();
        }
        w.tcp_listen(server, 5000, qp).unwrap();
    }
    let remote = Endpoint::new(w.addr(server), 5000);

    // The connect storm: every client dials the server at once.
    let mut clients = Vec::with_capacity(flows);
    for _ in 0..flows {
        let node = w.add_node(nic.clone());
        let cq = w.create_cq(node);
        let qp = w.create_qp(node, ServiceType::ReliableTcp, cq, cq).unwrap();
        w.tcp_connect(node, qp, 4000, remote).unwrap();
        clients.push((node, cq, qp));
    }
    for &(node, cq, _) in &clients {
        w.wait_matching(node, cq, |c| c.kind == CompletionKind::ConnectionEstablished);
    }

    // Stream: each client posts its whole burst; the server drains.
    for &(node, _, qp) in &clients {
        for m in 0..messages_per_flow {
            w.post_send(
                node,
                qp,
                SendWr { wr_id: m as u64, payload: vec![0x5a; message], dst: None },
            )
            .unwrap();
        }
    }
    let want = (flows * messages_per_flow) as u64;
    let mut recv_done = 0u64;
    let mut bytes_received = 0u64;
    while recv_done < want {
        let c = w.wait(server, cq_s);
        if let CompletionKind::Recv { data, .. } = c.kind {
            recv_done += 1;
            bytes_received += data.len() as u64;
        }
    }

    let wall_s = wall_start.elapsed().as_secs_f64();
    let des_events = w.events_processed();
    let des_events_per_sec = w.events_per_sec();
    // let the last ACKs land so the counters describe a quiet fabric
    w.run_until_idle();
    ManyflowScale {
        flows,
        wall_s,
        des_events,
        des_events_per_sec,
        events_per_flow: des_events as f64 / flows as f64,
        bytes_received,
        counters: w.counter_snapshots(),
    }
}

/// Builds a real [`Engine`] with `flows` connections in SYN-SENT, each
/// with its retransmit timer armed in the timer index.
pub fn armed_engine(flows: usize, now: SimTime) -> Engine {
    let local_addr = std::net::Ipv6Addr::new(0xfc00, 0, 0, 0, 0, 0, 0, 1);
    let remote = Endpoint::new(std::net::Ipv6Addr::new(0xfc00, 0, 0, 0, 0, 0, 0, 2), 80);
    let mut engine =
        Engine::new(NetConfig::qpip(NicConfig::paper_default().segment_mtu()), local_addr);
    for i in 0..flows {
        engine.tcp_connect(now, 1024 + i as u16, remote, &mut Vec::new());
    }
    engine
}

/// Measures one idle timer tick (`next_deadline` + `on_timer` with
/// nothing due) on an engine holding `flows` armed connections. The
/// tick pops only due connections from the timer index, so its cost
/// should not grow with `flows`; the `manyflow` binary compares two
/// fleet sizes to check that.
pub fn timer_tick(flows: usize) -> Measurement {
    // Tick just after arming: every RTO is hundreds of ms away, so the
    // tick is pure bookkeeping — exactly the per-event cost the worlds
    // pay when they refresh the timer after absorbing NIC output.
    let mut engine = armed_engine(flows, SimTime::from_micros(1));
    let tick_at = SimTime::from_micros(2);
    let mut emits = Vec::new();
    bench(&format!("timer_tick/{flows}"), move || {
        let next = engine.next_deadline();
        engine.on_timer(tick_at, &mut emits);
        debug_assert!(emits.is_empty());
        next
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fanin_delivers_every_message() {
        let r = run_scale(8, 3, 512);
        assert_eq!(r.bytes_received, 8 * 3 * 512);
        assert!(r.des_events > 0);
        assert!(r.events_per_flow > 0.0);
        let engine = r.counters.iter().find(|s| s.scope() == "engine").expect("engine counters");
        assert!(engine.get("rx_packets").expect("rx_packets counter") > 0);
    }
}
