//! Jumbo segments over a small wire MTU: the firmware's IPv6
//! end-to-end fragmentation path (§4.1), including loss of individual
//! fragments.

use std::collections::VecDeque;
use std::net::Ipv6Addr;

use qpip_netstack::types::Endpoint;
use qpip_nic::{CompletionKind, NicConfig, NicOutput, QpId, QpipNic, RecvWr, SendWr, ServiceType};
use qpip_sim::time::{SimDuration, SimTime};

mod common;
use common::Collect;

fn addr(n: u16) -> Ipv6Addr {
    Ipv6Addr::new(0xfc00, 0, 0, 0, 0, 0, 0, n)
}

struct Pair {
    a: QpipNic,
    b: QpipNic,
    qa: QpId,
    qb: QpId,
    now: SimTime,
    wire: VecDeque<(bool, SimTime, qpip_wire::Packet)>,
    wire_sizes: Vec<usize>,
    drop_indices: Vec<usize>,
    sent: usize,
    comps_a: Vec<qpip_nic::Completion>,
    comps_b: Vec<qpip_nic::Completion>,
}

impl Pair {
    fn new(wire_mtu: usize) -> Pair {
        let cfg = NicConfig::fragmented(wire_mtu);
        let mut a = QpipNic::new(cfg.clone(), addr(1));
        let mut b = QpipNic::new(cfg, addr(2));
        let cqa = a.create_cq();
        let cqb = b.create_cq();
        let qa = a.create_qp(ServiceType::ReliableTcp, cqa, cqa).unwrap();
        let qb = b.create_qp(ServiceType::ReliableTcp, cqb, cqb).unwrap();
        Pair {
            a,
            b,
            qa,
            qb,
            now: SimTime::ZERO,
            wire: VecDeque::new(),
            wire_sizes: Vec::new(),
            drop_indices: Vec::new(),
            sent: 0,
            comps_a: Vec::new(),
            comps_b: Vec::new(),
        }
    }

    fn absorb(&mut self, from_a: bool, outs: Vec<NicOutput>) {
        for o in outs {
            match o {
                NicOutput::Transmit { at, bytes, .. } => {
                    self.wire_sizes.push(bytes.len());
                    let idx = self.sent;
                    self.sent += 1;
                    if self.drop_indices.contains(&idx) {
                        continue;
                    }
                    self.wire.push_back((from_a, at + SimDuration::from_micros(1), bytes));
                }
                NicOutput::Complete(_, c) => {
                    if from_a {
                        self.comps_a.push(c);
                    } else {
                        self.comps_b.push(c);
                    }
                }
            }
        }
    }

    fn run(&mut self) {
        let mut spins = 0;
        while let Some((from_a, at, bytes)) = self.wire.pop_front() {
            spins += 1;
            assert!(spins < 20_000);
            self.now = self.now.max(at);
            if from_a {
                let outs = self.b.on_packet_vec(self.now, &bytes);
                self.absorb(false, outs);
            } else {
                let outs = self.a.on_packet_vec(self.now, &bytes);
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

    fn establish(&mut self) {
        for i in 0..8 {
            let outs = self
                .b
                .post_recv_vec(self.now, self.qb, RecvWr { wr_id: i, capacity: 16 * 1024 })
                .unwrap();
            self.absorb(false, outs);
        }
        self.b.tcp_listen(5000, self.qb).unwrap();
        let outs =
            self.a.tcp_connect_vec(self.now, self.qa, 4000, Endpoint::new(addr(2), 5000)).unwrap();
        self.absorb(true, outs);
        self.run();
        assert!(self.comps_a.iter().any(|c| c.kind == CompletionKind::ConnectionEstablished));
    }

    fn received(&self) -> Vec<&Vec<u8>> {
        self.comps_b
            .iter()
            .filter_map(|c| match &c.kind {
                CompletionKind::Recv { data, .. } => Some(data),
                _ => None,
            })
            .collect()
    }
}

#[test]
fn jumbo_message_crosses_small_mtu_wire_in_fragments() {
    let mut p = Pair::new(1500);
    p.establish();
    let payload: Vec<u8> = (0..12_000).map(|i| (i % 253) as u8).collect();
    let outs =
        p.a.post_send_vec(p.now, p.qa, SendWr { wr_id: 1, payload: payload.clone(), dst: None })
            .unwrap();
    p.absorb(true, outs);
    p.run();
    let got = p.received();
    assert_eq!(got.len(), 1, "one message, one completion");
    assert_eq!(got[0], &payload, "reassembled exactly");
    // the wire only ever saw MTU-sized packets
    assert!(p.wire_sizes.iter().all(|&s| s <= 1500), "{:?}", p.wire_sizes);
    // and the 12 KB segment needed several near-MTU fragments
    // (40 IP + 8 fragment header + 1448 payload = 1496 bytes each)
    assert!(p.wire_sizes.iter().filter(|&&s| s >= 1400).count() >= 7);
}

#[test]
fn fragment_loss_is_recovered_by_tcp_retransmission() {
    let mut p = Pair::new(1500);
    p.establish();
    // drop one mid-segment fragment of the upcoming send
    p.drop_indices = vec![p.sent + 3];
    let payload = vec![0xabu8; 12_000];
    let outs =
        p.a.post_send_vec(p.now, p.qa, SendWr { wr_id: 9, payload: payload.clone(), dst: None })
            .unwrap();
    p.absorb(true, outs);
    p.run();
    assert!(p.received().is_empty(), "incomplete segment: nothing delivered");
    // the RTO retransmits the whole segment with a fresh fragment id
    // ("performance could suffer if subsequent IP fragments are lost")
    let mut rounds = 0;
    while p.received().is_empty() && rounds < 5 {
        rounds += 1;
        assert!(p.fire_timers(), "timers pending");
    }
    assert_eq!(p.received().len(), 1);
    assert_eq!(p.received()[0], &payload);
    assert!(p.a.retransmissions() >= 1);
}

#[test]
fn small_messages_on_fragmented_config_go_unfragmented() {
    let mut p = Pair::new(1500);
    p.establish();
    let before = p.wire_sizes.len();
    let outs =
        p.a.post_send_vec(p.now, p.qa, SendWr { wr_id: 2, payload: vec![1; 400], dst: None })
            .unwrap();
    p.absorb(true, outs);
    p.run();
    assert_eq!(p.received().len(), 1);
    // the data segment itself fit the MTU: exactly one data packet plus
    // its ACK-path traffic, no fragments
    assert!(p.wire_sizes[before..].iter().all(|&s| s <= 1500));
}

#[test]
fn many_jumbo_messages_stream_reliably() {
    let mut p = Pair::new(1500);
    p.establish();
    let mut expected = Vec::new();
    for i in 0..6u64 {
        let payload = vec![i as u8; 10_000];
        expected.push(payload.clone());
        let outs = p.a.post_send_vec(p.now, p.qa, SendWr { wr_id: i, payload, dst: None }).unwrap();
        p.absorb(true, outs);
        p.run();
        p.fire_timers();
    }
    let got = p.received();
    assert_eq!(got.len(), 6);
    for (g, e) in got.iter().zip(&expected) {
        assert_eq!(g, &e);
    }
}
