//! Table 1 — host overhead for transmit and receive paths.
//!
//! Methodology (§4.2.2): the host-based number comes from the loopback
//! interface (no driver, no interrupts); the QPIP number from directly
//! timing the communication methods (post_send + post_recv + the poll
//! that completes). Paper: host-based IP 29.9 µs / 16 445 cycles,
//! QPIP 2.5 µs / 1 386 cycles.

use std::collections::VecDeque;
use std::net::Ipv6Addr;

use qpip::world::QpipWorld;
use qpip::{CompletionKind, NicConfig, RecvWr, SendWr, ServiceType};
use qpip_bench::report::{f1, Checks, Table};
use qpip_host::stack::{HostOutput, HostStack, StackConfig};
use qpip_host::WorkClass;
use qpip_netstack::types::Endpoint;
use qpip_sim::params;
use qpip_sim::time::{SimDuration, SimTime};

/// Measures host-stack cycles for one 1-byte send+receive through the
/// loopback interface.
fn host_loopback_cycles() -> u64 {
    let addr = Ipv6Addr::new(0xfc00, 0, 0, 0, 0, 0, 0, 1);
    let mut host = HostStack::new(StackConfig::loopback(), addr);
    let ls = host.tcp_socket();
    host.listen(ls, 9000).unwrap();
    let cs = host.tcp_socket();
    let mut now = SimTime::ZERO;
    let mut frames: VecDeque<qpip_wire::Packet> = VecDeque::new();
    let mut server = None;
    let pump = |host: &mut HostStack,
                now: &mut SimTime,
                frames: &mut VecDeque<qpip_wire::Packet>,
                server: &mut Option<qpip_host::SockId>| {
        let mut outs = Vec::new();
        while let Some(f) = frames.pop_front() {
            *now += SimDuration::from_nanos(100);
            host.on_frame(*now, &f, &mut outs);
            for o in outs.drain(..) {
                match o {
                    HostOutput::Frame { bytes, .. } => frames.push_back(bytes),
                    HostOutput::Accepted { sock, .. } => *server = Some(sock),
                    _ => {}
                }
            }
        }
    };
    let mut outs = Vec::new();
    host.connect(now, cs, 9001, Endpoint::new(addr, 9000), &mut outs).unwrap();
    for o in outs.drain(..) {
        if let HostOutput::Frame { bytes, .. } = o {
            frames.push_back(bytes);
        }
    }
    pump(&mut host, &mut now, &mut frames, &mut server);
    let server = server.expect("loopback accept");
    host.cpu_mut().reset_stats();

    // the paper measures loopback RTT and halves it: a 1-byte ping-pong
    // where the echo's data piggybacks the ACK, so each direction costs
    // exactly one send path + one receive path
    let rounds = 16u64;
    for _ in 0..rounds {
        for (tx_sock, rx_sock) in [(cs, server), (server, cs)] {
            host.send(now, tx_sock, &[0x55], &mut outs).unwrap();
            for o in outs.drain(..) {
                if let HostOutput::Frame { bytes, .. } = o {
                    frames.push_back(bytes);
                }
            }
            let mut sink = Some(server);
            pump(&mut host, &mut now, &mut frames, &mut sink);
            let (data, _) = host.recv(now, rx_sock, usize::MAX).unwrap();
            assert_eq!(data.len(), 1);
        }
    }
    host.cpu().total_cycles() / (2 * rounds)
}

/// Measures QPIP verb cycles for one 1-byte message: post_send on the
/// sender plus post_recv + completing poll on the receiver.
fn qpip_verbs_cycles() -> u64 {
    let mut w = QpipWorld::myrinet();
    let a = w.add_node(NicConfig::paper_default());
    let b = w.add_node(NicConfig::paper_default());
    let cqa = w.create_cq(a);
    let cqb = w.create_cq(b);
    let qa = w.create_qp(a, ServiceType::ReliableTcp, cqa, cqa).unwrap();
    let qb = w.create_qp(b, ServiceType::ReliableTcp, cqb, cqb).unwrap();
    for i in 0..4 {
        w.post_recv(b, qb, RecvWr { wr_id: i, capacity: 16 * 1024 }).unwrap();
        w.post_recv(a, qa, RecvWr { wr_id: i, capacity: 16 * 1024 }).unwrap();
    }
    w.tcp_listen(b, 5000, qb).unwrap();
    let remote = Endpoint::new(w.addr(b), 5000);
    w.tcp_connect(a, qa, 4000, remote).unwrap();
    w.wait_matching(a, cqa, |c| c.kind == CompletionKind::ConnectionEstablished);
    w.wait_matching(b, cqb, |c| c.kind == CompletionKind::ConnectionEstablished);
    // measured region: sender posts, receiver posts + polls
    let before = w.cpu(a).cycles(WorkClass::Verbs) + w.cpu(b).cycles(WorkClass::Verbs);
    let rounds = 16u64;
    for i in 0..rounds {
        w.post_recv(b, qb, RecvWr { wr_id: 100 + i, capacity: 16 * 1024 }).unwrap();
        w.post_send(a, qa, SendWr { wr_id: i, payload: vec![1], dst: None }).unwrap();
        w.wait_matching(b, cqb, |c| matches!(c.kind, CompletionKind::Recv { .. }));
    }
    let after = w.cpu(a).cycles(WorkClass::Verbs) + w.cpu(b).cycles(WorkClass::Verbs);
    (after - before) / rounds
}

fn main() {
    println!("Table 1: host overhead for transmit and receive paths (1-byte TCP message)\n");
    let host_cycles = host_loopback_cycles();
    let qpip_cycles = qpip_verbs_cycles();
    let mhz = params::HOST_CLOCK_MHZ as f64;

    let mut t = Table::new(
        "Host overhead",
        &["implementation", "time (µs)", "cycles", "paper µs", "paper cycles"],
    );
    t.row(&[
        "Host-based IP".into(),
        f1(host_cycles as f64 / mhz),
        host_cycles.to_string(),
        "29.9".into(),
        "16445".into(),
    ]);
    t.row(&[
        "QPIP".into(),
        f1(qpip_cycles as f64 / mhz),
        qpip_cycles.to_string(),
        "2.5".into(),
        "1386".into(),
    ]);
    t.print();

    let ratio = host_cycles as f64 / qpip_cycles as f64;
    println!("\noverhead ratio host/QPIP: {ratio:.1}x (paper: 11.9x)");
    let mut checks = Checks::default();
    checks.check(
        "host-based overhead within 20% of 16 445 cycles",
        (host_cycles as f64 - 16_445.0).abs() / 16_445.0 < 0.20,
    );
    checks.check(
        "QPIP overhead within 20% of 1 386 cycles",
        (qpip_cycles as f64 - 1_386.0).abs() / 1_386.0 < 0.20,
    );
    checks.check("QPIP is an order of magnitude cheaper", ratio > 8.0);
    checks.finish();
}
