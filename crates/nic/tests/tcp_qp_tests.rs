//! Two QPIP NICs wired back to back: TCP queue-pair lifecycle at the
//! firmware level (connection mating, message exchange, completions,
//! window semantics from posted receive WRs).

use std::collections::VecDeque;
use std::net::Ipv6Addr;

use qpip_netstack::types::Endpoint;
use qpip_nic::{
    Completion, CompletionKind, CompletionStatus, CqId, NicConfig, NicOutput, QpId, QpipNic,
    RecvWr, SendWr, ServiceType,
};
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
    comps_a: Vec<(CqId, Completion)>,
    comps_b: Vec<(CqId, Completion)>,
}

impl Pair {
    fn new(cfg: NicConfig) -> Pair {
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
            comps_a: Vec::new(),
            comps_b: Vec::new(),
        }
    }

    fn absorb(&mut self, from_a: bool, outs: Vec<NicOutput>) {
        for o in outs {
            match o {
                NicOutput::Transmit { at, bytes, .. } => {
                    // fixed small wire latency
                    self.wire.push_back((from_a, at + SimDuration::from_micros(1), bytes));
                }
                NicOutput::Complete(cq, c) => {
                    if from_a {
                        self.comps_a.push((cq, c));
                    } else {
                        self.comps_b.push((cq, c));
                    }
                }
            }
        }
    }

    fn run(&mut self) {
        let mut spins = 0;
        while let Some((from_a, at, bytes)) = self.wire.pop_front() {
            spins += 1;
            assert!(spins < 10_000, "wire did not quiesce");
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

    /// Server listens, both sides post receives, client connects.
    fn establish(&mut self, recv_posts: usize, capacity: usize) {
        for i in 0..recv_posts {
            let outs = self
                .b
                .post_recv_vec(self.now, self.qb, RecvWr { wr_id: 100 + i as u64, capacity })
                .unwrap();
            self.absorb(false, outs);
            let outs = self
                .a
                .post_recv_vec(self.now, self.qa, RecvWr { wr_id: 200 + i as u64, capacity })
                .unwrap();
            self.absorb(true, outs);
        }
        self.b.tcp_listen(5000, self.qb).unwrap();
        let outs =
            self.a.tcp_connect_vec(self.now, self.qa, 4000, Endpoint::new(addr(2), 5000)).unwrap();
        self.absorb(true, outs);
        self.run();
        assert!(
            self.comps_a.iter().any(|(_, c)| c.kind == CompletionKind::ConnectionEstablished),
            "client saw establishment"
        );
        assert!(
            self.comps_b.iter().any(|(_, c)| c.kind == CompletionKind::ConnectionEstablished),
            "server QP was mated"
        );
    }
}

#[test]
fn connection_mates_to_idle_qp() {
    let mut p = Pair::new(NicConfig::paper_default());
    p.establish(4, 16 * 1024);
}

#[test]
fn message_exchange_with_completions_both_sides() {
    let mut p = Pair::new(NicConfig::paper_default());
    p.establish(8, 16 * 1024);
    let outs =
        p.a.post_send_vec(p.now, p.qa, SendWr { wr_id: 7, payload: vec![0xaa; 4096], dst: None })
            .unwrap();
    p.absorb(true, outs);
    p.run();
    // receiver got the message into the first posted WR
    let recv = p
        .comps_b
        .iter()
        .find_map(|(_, c)| match &c.kind {
            CompletionKind::Recv { data, .. } => Some((c.wr_id, data.clone())),
            _ => None,
        })
        .expect("receive completion");
    assert_eq!(recv, (100, vec![0xaa; 4096]));
    // sender's WR completes when the data is acknowledged (§3); a lone
    // segment is acknowledged by the delayed-ACK timer
    p.fire_timers();
    let send_done = p.comps_a.iter().any(|(_, c)| c.kind == CompletionKind::Send && c.wr_id == 7);
    assert!(send_done);
}

#[test]
fn messages_consume_receive_wrs_in_order() {
    let mut p = Pair::new(NicConfig::paper_default());
    p.establish(4, 16 * 1024);
    for (i, len) in [100usize, 200, 300].iter().enumerate() {
        let outs =
            p.a.post_send_vec(
                p.now,
                p.qa,
                SendWr { wr_id: i as u64, payload: vec![i as u8; *len], dst: None },
            )
            .unwrap();
        p.absorb(true, outs);
        p.run();
    }
    let recvs: Vec<(u64, usize)> = p
        .comps_b
        .iter()
        .filter_map(|(_, c)| match &c.kind {
            CompletionKind::Recv { data, .. } => Some((c.wr_id, data.len())),
            _ => None,
        })
        .collect();
    assert_eq!(recvs, vec![(100, 100), (101, 200), (102, 300)]);
}

#[test]
fn sender_blocks_until_receiver_posts_buffers() {
    let mut p = Pair::new(NicConfig::paper_default());
    // server posts NO receives: its advertised window is zero
    p.b.tcp_listen(5000, p.qb).unwrap();
    let outs = p.a.tcp_connect_vec(p.now, p.qa, 4000, Endpoint::new(addr(2), 5000)).unwrap();
    p.absorb(true, outs);
    p.run();
    // client sends a message: it must NOT reach the receiver yet
    let outs =
        p.a.post_send_vec(p.now, p.qa, SendWr { wr_id: 1, payload: vec![1; 1024], dst: None })
            .unwrap();
    p.absorb(true, outs);
    p.run();
    let got_data = p.comps_b.iter().any(|(_, c)| matches!(c.kind, CompletionKind::Recv { .. }));
    assert!(!got_data, "no receive space posted: transfer must stall");
    // server posts a buffer: the window update releases the message
    let outs = p.b.post_recv_vec(p.now, p.qb, RecvWr { wr_id: 100, capacity: 16 * 1024 }).unwrap();
    p.absorb(false, outs);
    p.run();
    // allow a retransmit timer in case the update raced
    for _ in 0..4 {
        if p.comps_b.iter().any(|(_, c)| matches!(c.kind, CompletionKind::Recv { .. })) {
            break;
        }
        p.fire_timers();
    }
    let got_data = p.comps_b.iter().any(|(_, c)| matches!(c.kind, CompletionKind::Recv { .. }));
    assert!(got_data, "posting receive space unblocked the sender (§5.1)");
}

#[test]
fn completion_timestamps_are_monotone_and_positive() {
    let mut p = Pair::new(NicConfig::paper_default());
    p.establish(4, 16 * 1024);
    let outs =
        p.a.post_send_vec(p.now, p.qa, SendWr { wr_id: 1, payload: vec![0; 512], dst: None })
            .unwrap();
    p.absorb(true, outs);
    p.run();
    let mut last = SimTime::ZERO;
    for (_, c) in p.comps_b.iter() {
        assert!(c.visible_at >= last);
        last = c.visible_at;
    }
    assert!(last > SimTime::ZERO);
}

#[test]
fn all_completions_are_success_in_clean_run() {
    let mut p = Pair::new(NicConfig::paper_default());
    p.establish(6, 16 * 1024);
    for i in 0..5u64 {
        let outs =
            p.a.post_send_vec(p.now, p.qa, SendWr { wr_id: i, payload: vec![0; 2048], dst: None })
                .unwrap();
        p.absorb(true, outs);
        p.run();
    }
    for (_, c) in p.comps_a.iter().chain(p.comps_b.iter()) {
        assert_eq!(c.status, CompletionStatus::Success, "{c:?}");
    }
    assert_eq!(p.a.retransmissions(), 0);
}

#[test]
fn ping_pong_rtt_is_in_the_tens_of_microseconds() {
    // sanity check of the latency envelope before full Figure 3 runs:
    // one 1-byte message each way over an idle 1 µs wire.
    let mut p = Pair::new(NicConfig::paper_default());
    p.establish(8, 16 * 1024);
    let t0 = p.now;
    let outs =
        p.a.post_send_vec(p.now, p.qa, SendWr { wr_id: 50, payload: vec![1], dst: None }).unwrap();
    p.absorb(true, outs);
    p.run();
    // b echoes
    let outs =
        p.b.post_send_vec(p.now, p.qb, SendWr { wr_id: 60, payload: vec![1], dst: None }).unwrap();
    p.absorb(false, outs);
    p.run();
    let echo_at = p
        .comps_a
        .iter()
        .find_map(|(_, c)| match &c.kind {
            CompletionKind::Recv { .. } => Some(c.visible_at),
            _ => None,
        })
        .expect("echo delivered");
    let rtt = echo_at.duration_since(t0).as_micros_f64();
    assert!((40.0..200.0).contains(&rtt), "QP-to-QP TCP rtt {rtt} µs outside plausible envelope");
}

/// Regression: when a post_recv's buffer is immediately consumed by a
/// backlogged message, the advertised window must reflect the space
/// *after* the drain — not count the just-consumed WR (§5.1's invariant
/// that the window equals posted receive space).
#[test]
fn window_after_backlog_drain_reflects_real_posted_space() {
    let mut p = Pair::new(NicConfig::paper_default());
    // server posts nothing; client connects and sends two messages
    p.b.tcp_listen(5000, p.qb).unwrap();
    let outs = p.a.tcp_connect_vec(p.now, p.qa, 4000, Endpoint::new(addr(2), 5000)).unwrap();
    p.absorb(true, outs);
    p.run();
    let outs =
        p.a.post_send_vec(p.now, p.qa, SendWr { wr_id: 1, payload: vec![1; 1024], dst: None })
            .unwrap();
    p.absorb(true, outs);
    p.run();
    // nothing posted: message stalls (window 0) or backlogs
    // post ONE buffer: it must deliver exactly one message, and the
    // window afterwards must be zero again, so a second send stalls
    let outs = p.b.post_recv_vec(p.now, p.qb, RecvWr { wr_id: 100, capacity: 2048 }).unwrap();
    p.absorb(false, outs);
    p.run();
    for _ in 0..4 {
        if p.comps_b.iter().any(|(_, c)| matches!(c.kind, CompletionKind::Recv { .. })) {
            break;
        }
        p.fire_timers();
    }
    let recvs =
        p.comps_b.iter().filter(|(_, c)| matches!(c.kind, CompletionKind::Recv { .. })).count();
    assert_eq!(recvs, 1);
    // second message: no buffer is posted, so it must NOT be delivered
    let outs =
        p.a.post_send_vec(p.now, p.qa, SendWr { wr_id: 2, payload: vec![2; 1024], dst: None })
            .unwrap();
    p.absorb(true, outs);
    p.run();
    p.fire_timers();
    let recvs =
        p.comps_b.iter().filter(|(_, c)| matches!(c.kind, CompletionKind::Recv { .. })).count();
    assert_eq!(recvs, 1, "no second delivery without posted space");
    // backlog is bounded by the (now correct) window: at most one
    // message can be in flight/backlogged beyond the posted space
    assert!(p.b.stats().tcp_backlogged <= 2, "{:?}", p.b.stats());
}
