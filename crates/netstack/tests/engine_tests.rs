//! Engine-level integration tests: two full stacks exchanging real
//! encoded packets, including loss, interop across configurations, and
//! lifecycle management.

use std::collections::VecDeque;
use std::net::Ipv6Addr;

use qpip_netstack::engine::{Engine, EngineError};
use qpip_netstack::types::{ConnId, Emit, Endpoint, NetConfig, PacketKind, SendToken};
use qpip_sim::time::{SimDuration, SimTime};

mod common;
use common::Collect;

fn addr(n: u16) -> Ipv6Addr {
    Ipv6Addr::new(0xfc00, 0, 0, 0, 0, 0, 0, n)
}

/// A tiny lossless "wire" shuttling packets between two engines until
/// quiescent, advancing time a fixed hop latency per delivery.
struct Wire {
    a: Engine,
    b: Engine,
    now: SimTime,
    /// (to_b, bytes)
    queue: VecDeque<(bool, qpip_wire::Packet)>,
    events_a: Vec<Emit>,
    events_b: Vec<Emit>,
    /// Payload bytes each side delivered, in order.
    delivered_a: Vec<u8>,
    delivered_b: Vec<u8>,
    /// Indices of queued packets to drop (testing loss), consumed once.
    drop_next: Vec<usize>,
    sent: usize,
}

impl Wire {
    fn new(cfg_a: NetConfig, cfg_b: NetConfig) -> Wire {
        Wire {
            a: Engine::new(cfg_a, addr(1)),
            b: Engine::new(cfg_b, addr(2)),
            now: SimTime::ZERO,
            queue: VecDeque::new(),
            events_a: Vec::new(),
            events_b: Vec::new(),
            delivered_a: Vec::new(),
            delivered_b: Vec::new(),
            drop_next: Vec::new(),
            sent: 0,
        }
    }

    fn absorb(&mut self, from_a: bool, emits: Vec<Emit>) {
        self.absorb_rx(from_a, emits, &[]);
    }

    /// Absorbs what an engine emitted while handling the packet `rx`,
    /// copying delivered payload out of it.
    fn absorb_rx(&mut self, from_a: bool, emits: Vec<Emit>, rx: &[u8]) {
        for e in emits {
            match e {
                Emit::TcpDelivered { at, .. } => {
                    let to = if from_a { &mut self.delivered_a } else { &mut self.delivered_b };
                    to.extend_from_slice(&rx[at]);
                }
                Emit::Packet(p) => {
                    let idx = self.sent;
                    self.sent += 1;
                    if self.drop_next.contains(&idx) {
                        continue; // lost on the wire
                    }
                    self.queue.push_back((from_a, p.bytes));
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

    /// Delivers queued packets until both sides go quiet.
    fn run(&mut self) {
        let mut spins = 0;
        while let Some((to_b, bytes)) = self.queue.pop_front() {
            spins += 1;
            assert!(spins < 10_000, "wire did not quiesce");
            self.now += SimDuration::from_micros(5);
            if to_b {
                let emits = self.b.on_packet_vec(self.now, &bytes);
                self.absorb_rx(false, emits, &bytes);
            } else {
                let emits = self.a.on_packet_vec(self.now, &bytes);
                self.absorb_rx(true, emits, &bytes);
            }
        }
    }

    /// Fires due timers on both sides and re-runs the wire.
    fn fire_timers(&mut self) {
        let deadline = [self.a.next_deadline(), self.b.next_deadline()].into_iter().flatten().min();
        if let Some(d) = deadline {
            self.now = self.now.max(d);
            let ea = self.a.on_timer_vec(self.now);
            self.absorb(true, ea);
            let eb = self.b.on_timer_vec(self.now);
            self.absorb(false, eb);
            self.run();
        }
    }

    fn connect(&mut self) -> (ConnId, ConnId) {
        self.b.tcp_listen(5001).unwrap();
        let (ca, emits) = self.a.tcp_connect_vec(self.now, 4001, Endpoint::new(addr(2), 5001));
        self.absorb(true, emits);
        self.run();
        let cb = self
            .events_b
            .iter()
            .find_map(|e| match e {
                Emit::TcpAccepted { conn, .. } => Some(*conn),
                _ => None,
            })
            .expect("accepted");
        assert!(self
            .events_a
            .iter()
            .any(|e| matches!(e, Emit::TcpConnected { conn } if *conn == ca)));
        (ca, cb)
    }

    fn delivered_to_b(&self) -> Vec<u8> {
        self.delivered_b.clone()
    }
}

#[test]
fn tcp_connect_accept_over_encoded_packets() {
    let mut w = Wire::new(NetConfig::qpip(16 * 1024), NetConfig::qpip(16 * 1024));
    let (ca, cb) = w.connect();
    assert_ne!((ca, cb), (ConnId(0), ConnId(0)));
    assert_eq!(w.a.conn_count(), 1);
    assert_eq!(w.b.conn_count(), 1);
}

#[test]
fn bulk_transfer_delivers_bytes_exactly_once_in_order() {
    let mut w = Wire::new(NetConfig::qpip(16 * 1024), NetConfig::qpip(16 * 1024));
    let (ca, _cb) = w.connect();
    let mut expected = Vec::new();
    for i in 0..50u32 {
        let msg = vec![(i % 251) as u8; 1000 + (i as usize % 500)];
        expected.extend_from_slice(&msg);
        let emits = w.a.tcp_send_vec(w.now, ca, msg, SendToken(u64::from(i))).unwrap();
        w.absorb(true, emits);
        w.run();
    }
    assert_eq!(w.delivered_to_b(), expected);
    // all sends completed
    let completions: Vec<u64> = w
        .events_a
        .iter()
        .filter_map(|e| match e {
            Emit::TcpSendComplete { token, .. } => Some(token.0),
            _ => None,
        })
        .collect();
    assert_eq!(completions, (0..50).collect::<Vec<u64>>());
}

#[test]
fn qpip_node_interoperates_with_host_stack_node() {
    // §3: "Communication can occur between QPIP applications or QPIP and
    // traditional (socket) systems." A message-mode engine talks to a
    // stream-mode engine on the wire.
    let mut w = Wire::new(NetConfig::qpip(9000), NetConfig::host(9000));
    let (ca, cb) = w.connect();
    let emits = w.a.tcp_send_vec(w.now, ca, vec![0xab; 4000], SendToken(1)).unwrap();
    w.absorb(true, emits);
    w.run();
    w.fire_timers(); // host side may hold a delayed ACK
    assert_eq!(w.delivered_to_b(), vec![0xab; 4000]);
    // and the socket side can reply; the QP side reassembles per message
    let emits = w.b.tcp_send_vec(w.now, cb, vec![0xcd; 2000], SendToken(2)).unwrap();
    w.absorb(false, emits);
    w.run();
    w.fire_timers();
    let back = w.delivered_a.clone();
    assert_eq!(back, vec![0xcd; 2000]);
}

#[test]
fn lost_data_segment_is_recovered_by_retransmission() {
    let mut w = Wire::new(NetConfig::qpip(16 * 1024), NetConfig::qpip(16 * 1024));
    let (ca, _) = w.connect();
    let base = w.sent;
    w.drop_next = vec![base]; // drop the next packet (the data segment)
    let emits = w.a.tcp_send_vec(w.now, ca, vec![7; 512], SendToken(9)).unwrap();
    w.absorb(true, emits);
    w.run();
    assert!(w.delivered_to_b().is_empty(), "segment was dropped");
    // RTO fires, retransmission delivers
    w.fire_timers();
    assert_eq!(w.delivered_to_b(), vec![7; 512]);
    assert!(w
        .events_a
        .iter()
        .any(|e| matches!(e, Emit::TcpSendComplete { token, .. } if token.0 == 9)));
}

#[test]
fn lost_ack_is_tolerated_via_duplicate_delivery_suppression() {
    let mut w = Wire::new(NetConfig::qpip(16 * 1024), NetConfig::qpip(16 * 1024));
    let (ca, _) = w.connect();
    let base = w.sent;
    w.drop_next = vec![base + 1]; // drop the ACK, keep the data
    let emits = w.a.tcp_send_vec(w.now, ca, vec![3; 256], SendToken(1)).unwrap();
    w.absorb(true, emits);
    w.run();
    assert_eq!(w.delivered_to_b(), vec![3; 256]);
    // sender times out and retransmits; receiver must not deliver twice
    w.fire_timers();
    assert_eq!(w.delivered_to_b(), vec![3; 256], "no duplicate delivery");
}

#[test]
fn graceful_close_reaps_both_connections() {
    let mut w = Wire::new(NetConfig::qpip(16 * 1024), NetConfig::qpip(16 * 1024));
    let (ca, cb) = w.connect();
    let emits = w.a.tcp_close_vec(w.now, ca).unwrap();
    w.absorb(true, emits);
    w.run();
    assert!(w.events_b.iter().any(|e| matches!(e, Emit::TcpPeerClosed { conn } if *conn == cb)));
    let emits = w.b.tcp_close_vec(w.now, cb).unwrap();
    w.absorb(false, emits);
    w.run();
    // b reaches CLOSED via LAST-ACK; a sits in TIME-WAIT until its timer
    assert_eq!(w.b.conn_count(), 0);
    w.fire_timers();
    assert_eq!(w.a.conn_count(), 0);
}

#[test]
fn abort_sends_rst_and_peer_reports_reset() {
    let mut w = Wire::new(NetConfig::qpip(16 * 1024), NetConfig::qpip(16 * 1024));
    let (ca, cb) = w.connect();
    let emits = w.a.tcp_abort_vec(w.now, ca).unwrap();
    w.absorb(true, emits);
    w.run();
    assert!(w.events_b.iter().any(|e| matches!(e, Emit::TcpReset { conn } if *conn == cb)));
    assert_eq!(w.a.conn_count(), 0);
    assert_eq!(w.b.conn_count(), 0);
}

#[test]
fn udp_send_requires_binding_and_size_limit() {
    let mut e = Engine::new(NetConfig::qpip(9000), addr(1));
    let dst = Endpoint::new(addr(2), 700);
    assert_eq!(e.udp_send(99, dst, b"x").unwrap_err(), EngineError::PortNotBound(99));
    e.udp_bind(99).unwrap();
    assert!(e.udp_send(99, dst, b"x").is_ok());
    let too_big = vec![0u8; 9000];
    assert!(matches!(e.udp_send(99, dst, &too_big), Err(EngineError::MessageTooLarge { .. })));
}

#[test]
fn message_too_large_for_segment_is_rejected_in_message_mode() {
    let mut w = Wire::new(NetConfig::qpip(1500), NetConfig::qpip(1500));
    let (ca, _) = w.connect();
    let max = w.a.config().max_tcp_payload();
    assert!(matches!(
        w.a.tcp_send_vec(w.now, ca, vec![0; max + 1], SendToken(1)),
        Err(EngineError::MessageTooLarge { .. })
    ));
    assert!(w.a.tcp_send_vec(w.now, ca, vec![0; max], SendToken(2)).is_ok());
}

#[test]
fn double_bind_and_double_listen_fail() {
    let mut e = Engine::new(NetConfig::qpip(9000), addr(1));
    e.udp_bind(5).unwrap();
    assert_eq!(e.udp_bind(5).unwrap_err(), EngineError::PortInUse(5));
    e.tcp_listen(6).unwrap();
    assert_eq!(e.tcp_listen(6).unwrap_err(), EngineError::PortInUse(6));
}

#[test]
fn syn_to_unbound_port_is_dropped() {
    let mut w = Wire::new(NetConfig::qpip(9000), NetConfig::qpip(9000));
    let (_, emits) = w.a.tcp_connect_vec(w.now, 4001, Endpoint::new(addr(2), 9999));
    w.absorb(true, emits);
    w.run();
    assert_eq!(w.b.conn_count(), 0);
    assert!(w.b.stats().demux_drops >= 1);
}

#[test]
fn packet_for_wrong_address_is_dropped() {
    let mut a = Engine::new(NetConfig::qpip(9000), addr(1));
    let mut b = Engine::new(NetConfig::qpip(9000), addr(2));
    b.udp_bind(7).unwrap();
    a.udp_bind(7).unwrap();
    // a sends to addr(3); b should not deliver it
    let Emit::Packet(p) = a.udp_send(7, Endpoint::new(addr(3), 7), b"oops").unwrap() else {
        unreachable!()
    };
    let emits = b.on_packet_vec(SimTime::ZERO, &p.bytes);
    assert!(emits.is_empty());
    assert_eq!(b.stats().addr_drops, 1);
}

#[test]
fn corrupted_packet_increments_checksum_drops() {
    let mut a = Engine::new(NetConfig::qpip(9000), addr(1));
    let mut b = Engine::new(NetConfig::qpip(9000), addr(2));
    a.udp_bind(7).unwrap();
    b.udp_bind(7).unwrap();
    let Emit::Packet(p) = a.udp_send(7, Endpoint::new(addr(2), 7), b"data").unwrap() else {
        unreachable!()
    };
    let mut bytes = p.bytes;
    let n = bytes.len();
    bytes[n - 1] ^= 0xff;
    assert!(b.on_packet_vec(SimTime::ZERO, &bytes).is_empty());
    assert_eq!(b.stats().checksum_drops, 1);
}

#[test]
fn truncated_packet_increments_parse_drops_not_demux() {
    let mut a = Engine::new(NetConfig::qpip(9000), addr(1));
    let mut b = Engine::new(NetConfig::qpip(9000), addr(2));
    a.udp_bind(7).unwrap();
    b.udp_bind(7).unwrap();
    let Emit::Packet(p) = a.udp_send(7, Endpoint::new(addr(2), 7), b"data").unwrap() else {
        unreachable!()
    };
    // header chopped mid-IPv6: a malformed packet, not a misrouted one
    let bytes = &p.bytes[..10];
    assert!(b.on_packet_vec(SimTime::ZERO, bytes).is_empty());
    let stats = b.stats();
    assert_eq!(stats.parse_drops, 1);
    assert_eq!(stats.demux_drops, 0);
    assert_eq!(stats.checksum_drops, 0);
}

#[test]
fn ops_counters_accumulate_and_reset() {
    let mut w = Wire::new(NetConfig::qpip(16 * 1024), NetConfig::qpip(16 * 1024));
    let (ca, _) = w.connect();
    let _ = w.a.take_ops();
    let emits = w.a.tcp_send_vec(w.now, ca, vec![0; 100], SendToken(1)).unwrap();
    w.absorb(true, emits);
    w.run();
    let ops = w.a.take_ops();
    assert!(ops.muls >= 6, "the ACK's RTT sample multiplies");
    let ops2 = w.a.take_ops();
    assert_eq!(ops2.muls, 0, "take resets");
}

#[test]
fn packet_kinds_classify_data_vs_ack() {
    let mut w = Wire::new(NetConfig::qpip(16 * 1024), NetConfig::qpip(16 * 1024));
    let (ca, _) = w.connect();
    let emits = w.a.tcp_send_vec(w.now, ca, vec![0; 64], SendToken(1)).unwrap();
    let kinds: Vec<PacketKind> = emits
        .iter()
        .filter_map(|e| match e {
            Emit::Packet(p) => Some(p.kind),
            _ => None,
        })
        .collect();
    assert_eq!(kinds, vec![PacketKind::TcpData]);
    w.absorb(true, emits);
    // b's reply is a pure ACK
    let (to_b, bytes) = w.queue.pop_front().unwrap();
    assert!(to_b);
    let replies = w.b.on_packet_vec(w.now, &bytes);
    let kinds: Vec<PacketKind> = replies
        .iter()
        .filter_map(|e| match e {
            Emit::Packet(p) => Some(p.kind),
            _ => None,
        })
        .collect();
    assert_eq!(kinds, vec![PacketKind::TcpAck]);
}
