//! Host-stack integration: two socket nodes over a pseudo-wire, the
//! loopback overhead path (Table 1's methodology), and CPU accounting.

use std::collections::VecDeque;
use std::net::Ipv6Addr;

use qpip_host::{HostOutput, HostStack, SendOutcome, SockId, StackConfig, WorkClass};
use qpip_netstack::types::Endpoint;
use qpip_sim::params;
use qpip_sim::rng::SplitMix64;
use qpip_sim::time::{SimDuration, SimTime};

mod common;
use common::Collect;

fn addr(n: u16) -> Ipv6Addr {
    Ipv6Addr::new(0xfc00, 0, 0, 0, 0, 0, 0, n)
}

struct Net {
    a: HostStack,
    b: HostStack,
    now: SimTime,
    wire: VecDeque<(bool, SimTime, qpip_wire::Packet)>,
    events_a: Vec<HostOutput>,
    events_b: Vec<HostOutput>,
}

impl Net {
    fn new(cfg: StackConfig) -> Net {
        Net {
            a: HostStack::new(cfg.clone(), addr(1)),
            b: HostStack::new(cfg, addr(2)),
            now: SimTime::ZERO,
            wire: VecDeque::new(),
            events_a: Vec::new(),
            events_b: Vec::new(),
        }
    }

    fn absorb(&mut self, from_a: bool, outs: Vec<HostOutput>) {
        for o in outs {
            match o {
                HostOutput::Frame { at, bytes, .. } => {
                    self.wire.push_back((from_a, at + SimDuration::from_micros(10), bytes));
                }
                other => {
                    if from_a {
                        self.events_a.push(other);
                    } else {
                        self.events_b.push(other);
                    }
                }
            }
        }
    }

    fn run(&mut self) {
        let mut spins = 0;
        while let Some((from_a, at, bytes)) = self.wire.pop_front() {
            spins += 1;
            assert!(spins < 50_000, "wire did not quiesce");
            self.now = self.now.max(at);
            if from_a {
                let outs = self.b.on_frame_vec(self.now, &bytes);
                self.absorb(false, outs);
            } else {
                let outs = self.a.on_frame_vec(self.now, &bytes);
                self.absorb(true, outs);
            }
        }
    }

    fn fire_timers(&mut self) -> bool {
        let next = [self.a.next_deadline(), self.b.next_deadline()].into_iter().flatten().min();
        let Some(d) = next else { return false };
        self.now = self.now.max(d);
        let oa = self.a.on_timer_vec(self.now);
        self.absorb(true, oa);
        let ob = self.b.on_timer_vec(self.now);
        self.absorb(false, ob);
        self.run();
        true
    }

    fn connect(&mut self) -> (SockId, SockId) {
        let ls = self.b.tcp_socket();
        self.b.listen(ls, 5001).unwrap();
        let cs = self.a.tcp_socket();
        let outs = self.a.connect_vec(self.now, cs, 4001, Endpoint::new(addr(2), 5001)).unwrap();
        self.absorb(true, outs);
        self.run();
        let accepted = self
            .events_b
            .iter()
            .find_map(|e| match e {
                HostOutput::Accepted { sock, .. } => Some(*sock),
                _ => None,
            })
            .expect("accepted");
        assert!(self
            .events_a
            .iter()
            .any(|e| matches!(e, HostOutput::Connected { sock, .. } if *sock == cs)));
        (cs, accepted)
    }
}

#[test]
fn tcp_sockets_connect_over_gige() {
    let mut n = Net::new(StackConfig::gige());
    let (_, _) = n.connect();
}

#[test]
fn bulk_send_recv_delivers_all_bytes() {
    let mut n = Net::new(StackConfig::gige());
    let (cs, ss) = n.connect();
    let total = 300_000usize;
    let payload = SplitMix64::new(0x5eed).bytes(total);
    let maxes = [1, 7, 1500, 16 * 1024, 3000, 9000];
    let mut reads = 0usize;
    let mut sent = 0usize;
    let mut received = Vec::new();
    let mut guard = 0;
    while received.len() < total {
        guard += 1;
        assert!(guard < 10_000, "stalled at {} bytes", received.len());
        if sent < total {
            let chunk = (total - sent).min(16 * 1024);
            match n.a.send_vec(n.now, cs, &payload[sent..sent + chunk]) {
                Ok((SendOutcome::Sent { .. }, outs)) => {
                    sent += chunk;
                    n.absorb(true, outs);
                }
                Ok((SendOutcome::WouldBlock, _)) => {}
                Err(e) => panic!("{e}"),
            }
        }
        n.run();
        // while the sender is still writing, reads leave a residue in
        // the receive ring: its head keeps moving, later arrivals wrap
        // around its end, and some reads span both of its halves
        let keep = if sent < total { 2000 } else { 0 };
        if n.b.readable(ss) > 0 {
            while n.b.readable(ss) > keep {
                let max = maxes[reads % maxes.len()].min(n.b.readable(ss) - keep);
                reads += 1;
                let (data, _) = n.b.recv(n.now, ss, max).unwrap();
                assert_eq!(data.len(), max);
                received.extend(data);
            }
        } else if sent >= total && !n.fire_timers() {
            break;
        }
    }
    assert_eq!(received.len(), total);
    let first_bad = received.iter().zip(&payload).position(|(got, want)| got != want);
    assert_eq!(first_bad, None, "received bytes differ from the payload");
    assert_eq!(n.a.engine_stats().tcp.retransmissions(), 0);
}

#[test]
fn sndbuf_applies_backpressure() {
    let mut n = Net::new(StackConfig::gige());
    let (cs, _ss) = n.connect();
    // don't run the wire: the buffer must fill and block
    let mut blocked = false;
    for _ in 0..64 {
        match n.a.send_vec(n.now, cs, &[0; 16 * 1024]).unwrap() {
            (SendOutcome::Sent { .. }, outs) => {
                let _ = outs; // frames intentionally not delivered
            }
            (SendOutcome::WouldBlock, _) => {
                blocked = true;
                break;
            }
        }
    }
    assert!(blocked, "send buffer never filled");
}

#[test]
fn udp_roundtrip_and_wakeup() {
    let mut n = Net::new(StackConfig::gige());
    let sa = n.a.udp_socket();
    let sb = n.b.udp_socket();
    n.a.udp_bind(sa, 7000).unwrap();
    n.b.udp_bind(sb, 7001).unwrap();
    let (_, outs) = n.a.udp_send_vec(n.now, sa, Endpoint::new(addr(2), 7001), b"marco").unwrap();
    n.absorb(true, outs);
    n.run();
    assert!(n
        .events_b
        .iter()
        .any(|e| matches!(e, HostOutput::DataReady { sock, .. } if *sock == sb)));
    let (src, data, _) = n.b.udp_recv(n.now, sb).unwrap();
    assert_eq!(data, b"marco");
    assert_eq!(src, Endpoint::new(addr(1), 7000));
}

#[test]
fn gige_receive_path_charges_interrupts() {
    let mut n = Net::new(StackConfig::gige());
    let (cs, ss) = n.connect();
    let (_, outs) = n.a.send_vec(n.now, cs, &[0; 1000]).unwrap();
    n.absorb(true, outs);
    n.run();
    let _ = n.b.recv(n.now, ss, usize::MAX).unwrap();
    assert!(n.b.interrupts() >= 1);
    assert!(n.b.cpu().cycles(WorkClass::Interrupt) >= params::HOST_INTERRUPT_CYCLES);
    assert!(n.b.cpu().cycles(WorkClass::Protocol) > 0);
    assert!(n.b.cpu().cycles(WorkClass::Driver) > 0);
}

#[test]
fn gm_stack_charges_software_checksums() {
    let mut gige = Net::new(StackConfig::gige());
    let mut gm = Net::new(StackConfig::gm_myrinet());
    for n in [&mut gige, &mut gm] {
        let (cs, ss) = n.connect();
        let (_, outs) = n.a.send_vec(n.now, cs, &[0; 8000]).unwrap();
        n.absorb(true, outs);
        n.run();
        n.fire_timers();
        let _ = n.b.recv(n.now, ss, usize::MAX);
    }
    // GM (no checksum offload) burns more copy/checksum cycles per byte
    assert!(
        gm.a.cpu().cycles(WorkClass::Copy) > gige.a.cpu().cycles(WorkClass::Copy),
        "gm {} vs gige {}",
        gm.a.cpu().cycles(WorkClass::Copy),
        gige.a.cpu().cycles(WorkClass::Copy)
    );
}

/// Table 1 methodology: a 1-byte message through the loopback interface
/// — no driver, no interrupts — costs ≈ 16 445 host cycles ≈ 29.9 µs
/// for the send+receive pair.
#[test]
fn loopback_one_byte_overhead_matches_table1() {
    let mut host = HostStack::new(StackConfig::loopback(), addr(1));
    // loopback: the same stack owns both ends
    let ls = host.tcp_socket();
    host.listen(ls, 9000).unwrap();
    let cs = host.tcp_socket();
    let mut now = SimTime::ZERO;
    let mut frames: VecDeque<qpip_wire::Packet> = VecDeque::new();
    let mut events = Vec::new();
    let absorb = |outs: Vec<HostOutput>,
                  frames: &mut VecDeque<qpip_wire::Packet>,
                  events: &mut Vec<HostOutput>| {
        for o in outs {
            match o {
                HostOutput::Frame { bytes, .. } => frames.push_back(bytes),
                other => events.push(other),
            }
        }
    };
    let outs = host.connect_vec(now, cs, 9001, Endpoint::new(addr(1), 9000)).unwrap();
    absorb(outs, &mut frames, &mut events);
    while let Some(f) = frames.pop_front() {
        now += SimDuration::from_nanos(100);
        let outs = host.on_frame_vec(now, &f);
        absorb(outs, &mut frames, &mut events);
    }
    let server = events
        .iter()
        .find_map(|e| match e {
            HostOutput::Accepted { sock, .. } => Some(*sock),
            _ => None,
        })
        .expect("loopback accept");
    host.cpu_mut().reset_stats();

    // one 1-byte message, sender → receiver, then read it
    let (_, outs) = host.send_vec(now, cs, &[0x55]).unwrap();
    absorb(outs, &mut frames, &mut events);
    while let Some(f) = frames.pop_front() {
        now += SimDuration::from_nanos(100);
        let outs = host.on_frame_vec(now, &f);
        absorb(outs, &mut frames, &mut events);
    }
    let (data, _) = host.recv(now, server, usize::MAX).unwrap();
    assert_eq!(data, vec![0x55]);

    // measured cycles: the send syscall path + receive path, minus the
    // pure-ACK processing the paper's RTT/2 measurement also averages in.
    let cycles = host.cpu().total_cycles();
    let us = cycles as f64 / params::HOST_CLOCK_MHZ as f64;
    assert!(
        (25.0..40.0).contains(&us),
        "loopback 1-byte send+recv = {cycles} cycles = {us:.1} µs (paper: 29.9)"
    );
    assert_eq!(host.interrupts(), 0, "loopback takes no interrupts");
    assert_eq!(host.cpu().cycles(WorkClass::Driver), 0, "no driver on loopback");
}
