//! Randomized tests: TCP's end-to-end invariants must hold under
//! arbitrary packet loss, for both segmentation policies. Loss patterns
//! and message sizes come from a seeded [`SplitMix64`] stream so every
//! failure reproduces exactly.

use std::collections::VecDeque;
use std::net::Ipv6Addr;

use qpip_netstack::engine::Engine;
use qpip_netstack::types::{Emit, Endpoint, NetConfig, SendToken};
use qpip_sim::rng::SplitMix64;
use qpip_sim::time::{SimDuration, SimTime};

mod common;
use common::Collect;

const CASES: usize = 24;

fn addr(n: u16) -> Ipv6Addr {
    Ipv6Addr::new(0xfc00, 0, 0, 0, 0, 0, 0, n)
}

struct LossyWire {
    a: Engine,
    b: Engine,
    now: SimTime,
    queue: VecDeque<(bool, qpip_wire::Packet)>,
    /// Drop decision per transmitted packet, cycled.
    losses: Vec<bool>,
    sent: usize,
    delivered: Vec<u8>,
    completions: Vec<u64>,
}

impl LossyWire {
    fn new(cfg: NetConfig, losses: Vec<bool>) -> Self {
        LossyWire {
            a: Engine::new(cfg.clone(), addr(1)),
            b: Engine::new(cfg, addr(2)),
            now: SimTime::ZERO,
            queue: VecDeque::new(),
            losses,
            sent: 0,
            delivered: Vec::new(),
            completions: Vec::new(),
        }
    }

    /// Absorbs what an engine emitted; delivered payload is copied out
    /// of `rx`, the packet the engine was handling (empty otherwise).
    fn absorb(&mut self, from_a: bool, emits: Vec<Emit>, rx: &[u8]) {
        for e in emits {
            match e {
                Emit::Packet(p) => {
                    // loss applies to an arbitrary prefix of the packet
                    // sequence; afterwards the wire is lossless, so the
                    // transfer must always converge (a cyclic pattern can
                    // livelock any ARQ protocol by construction).
                    let lost = self.losses.get(self.sent).copied().unwrap_or(false);
                    self.sent += 1;
                    if !lost {
                        self.queue.push_back((from_a, p.bytes));
                    }
                }
                Emit::TcpDelivered { at, .. } => {
                    if !from_a {
                        // ignore: only a→b data matters here
                    } else {
                        unreachable!("a never receives data in this test");
                    }
                    self.delivered.extend_from_slice(&rx[at]);
                }
                Emit::TcpSendComplete { token, .. } => self.completions.push(token.0),
                _ => {}
            }
        }
    }

    fn drain(&mut self) {
        while let Some((to_b, bytes)) = self.queue.pop_front() {
            self.now += SimDuration::from_micros(3);
            if to_b {
                let e = self.b.on_packet_vec(self.now, &bytes);
                self.absorb(false, e, &bytes);
            } else {
                let e = self.a.on_packet_vec(self.now, &bytes);
                self.absorb(true, e, &bytes);
            }
        }
    }

    fn fire_timers(&mut self) -> bool {
        let next = [self.a.next_deadline(), self.b.next_deadline()].into_iter().flatten().min();
        let Some(d) = next else { return false };
        self.now = self.now.max(d);
        let ea = self.a.on_timer_vec(self.now);
        self.absorb(true, ea, &[]);
        let eb = self.b.on_timer_vec(self.now);
        self.absorb(false, eb, &[]);
        self.drain();
        self.assert_table_invariants();
        true
    }

    /// The connection slab, demux table, and timer index must agree
    /// after every quiescent point, whatever the loss pattern did.
    fn assert_table_invariants(&self) {
        for e in [&self.a, &self.b] {
            assert_eq!(e.demux_len(), e.conn_count(), "demux and slab out of sync");
            assert!(
                e.timer_index_len() <= e.conn_count(),
                "timer index holds more entries than live connections"
            );
        }
    }
}

/// Runs a transfer of `messages` from a to b under the loss pattern and
/// asserts exactly-once in-order delivery and completion of every token.
fn run_transfer(cfg: NetConfig, messages: Vec<Vec<u8>>, losses: Vec<bool>) {
    let mut w = LossyWire::new(cfg, losses);
    w.b.tcp_listen(80).unwrap();
    let (ca, emits) = w.a.tcp_connect_vec(w.now, 2000, Endpoint::new(addr(2), 80));
    w.absorb(true, emits, &[]);
    w.drain();
    // handshake may itself need retries under loss
    for _ in 0..50 {
        if w.a.conn_state(ca).map(|s| format!("{s:?}")) == Some("Established".into()) {
            break;
        }
        if !w.fire_timers() {
            break;
        }
    }
    let expected: Vec<u8> = messages.iter().flatten().copied().collect();
    for (i, m) in messages.into_iter().enumerate() {
        let emits = w.a.tcp_send_vec(w.now, ca, m, SendToken(i as u64)).unwrap();
        w.absorb(true, emits, &[]);
        w.drain();
    }
    // pump timers until everything is recovered (bounded)
    let mut rounds = 0;
    while w.delivered.len() < expected.len() && rounds < 300 {
        rounds += 1;
        if !w.fire_timers() {
            break;
        }
    }
    assert_eq!(w.delivered.len(), expected.len(), "all bytes delivered despite loss");
    assert_eq!(w.delivered, expected, "in order, exactly once");
    w.assert_table_invariants();
    // completions arrive once per token, in order
    let mut want: Vec<u64> = Vec::new();
    for i in 0..w.completions.len() {
        want.push(i as u64);
    }
    assert_eq!(w.completions, want, "completions in order, no duplicates");
}

// Loss vectors stay bounded below TCP's retry-exhaustion limit: ~15
// consecutive losses legitimately reset the connection (MAX_RETRIES),
// which is correct behaviour but not the invariant under test.
fn arb_losses(r: &mut SplitMix64) -> Vec<bool> {
    (0..r.range_usize(0, 13)).map(|_| r.flip()).collect()
}

#[test]
fn qpip_message_mode_survives_arbitrary_loss() {
    let mut r = SplitMix64::new(0x0e7_0001);
    for _ in 0..CASES {
        let messages: Vec<Vec<u8>> = (0..r.range_usize(1, 12))
            .map(|i| vec![(i % 256) as u8; r.range_usize(1, 4000)])
            .collect();
        let losses = arb_losses(&mut r);
        run_transfer(NetConfig::qpip(16 * 1024), messages, losses);
    }
}

#[test]
fn host_stream_mode_survives_arbitrary_loss() {
    let mut r = SplitMix64::new(0x0e7_0002);
    for _ in 0..CASES {
        let messages: Vec<Vec<u8>> = (0..r.range_usize(1, 10))
            .map(|i| vec![(255 - i % 256) as u8; r.range_usize(1, 5000)])
            .collect();
        let losses = arb_losses(&mut r);
        run_transfer(NetConfig::host(1500), messages, losses);
    }
}

#[test]
fn lossless_transfer_never_retransmits() {
    let mut r = SplitMix64::new(0x0e7_0003);
    for _ in 0..CASES {
        let sizes: Vec<usize> = (0..r.range_usize(1, 8)).map(|_| r.range_usize(1, 2000)).collect();
        let cfg = NetConfig::qpip(16 * 1024);
        let mut w = LossyWire::new(cfg, vec![false]);
        w.b.tcp_listen(80).unwrap();
        let (ca, emits) = w.a.tcp_connect_vec(w.now, 2000, Endpoint::new(addr(2), 80));
        w.absorb(true, emits, &[]);
        w.drain();
        for (i, &s) in sizes.iter().enumerate() {
            let emits = w.a.tcp_send_vec(w.now, ca, vec![7; s], SendToken(i as u64)).unwrap();
            w.absorb(true, emits, &[]);
            w.drain();
        }
        assert_eq!(w.a.stats().tcp.retransmissions(), 0);
        assert_eq!(w.completions.len(), sizes.len());
    }
}
