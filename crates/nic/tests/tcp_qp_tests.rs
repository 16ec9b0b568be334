//! Two QPIP NICs wired back to back: TCP queue-pair lifecycle at the
//! firmware level (connection mating, message exchange, completions,
//! window semantics from posted receive WRs).

use qpip_nic::{CompletionKind, CompletionStatus, NicConfig, QpCounters, RecvWr, SendWr};
use qpip_sim::time::SimTime;

mod common;
use common::Pair;

/// Both sides post receives, then `a` connects to `b`.
fn establish(p: &mut Pair, recv_posts: u64, capacity: usize) {
    for i in 0..recv_posts {
        p.post_recv(false, RecvWr { wr_id: 100 + i, capacity });
        p.post_recv(true, RecvWr { wr_id: 200 + i, capacity });
    }
    p.connect();
    assert!(
        p.comps_a.iter().any(|c| c.kind == CompletionKind::ConnectionEstablished),
        "client saw establishment"
    );
    assert!(
        p.comps_b.iter().any(|c| c.kind == CompletionKind::ConnectionEstablished),
        "server QP was mated"
    );
}

#[test]
fn connection_mates_to_idle_qp() {
    let mut p = Pair::new(NicConfig::paper_default());
    establish(&mut p, 4, 16 * 1024);
}

#[test]
fn message_exchange_with_completions_both_sides() {
    let mut p = Pair::new(NicConfig::paper_default());
    establish(&mut p, 8, 16 * 1024);
    p.send(true, SendWr { wr_id: 7, payload: vec![0xaa; 4096], dst: None });
    // receiver got the message into the first posted WR
    let recv = p
        .comps_b
        .iter()
        .find_map(|c| match &c.kind {
            CompletionKind::Recv { data, .. } => Some((c.wr_id, data.clone())),
            _ => None,
        })
        .expect("receive completion");
    assert_eq!(recv, (100, vec![0xaa; 4096]));
    // sender's WR completes when the data is acknowledged (§3); a lone
    // segment is acknowledged by the delayed-ACK timer
    p.fire_timers();
    let send_done = p.comps_a.iter().any(|c| c.kind == CompletionKind::Send && c.wr_id == 7);
    assert!(send_done);
}

#[test]
fn messages_consume_receive_wrs_in_order() {
    let mut p = Pair::new(NicConfig::paper_default());
    establish(&mut p, 4, 16 * 1024);
    for (i, len) in [100usize, 200, 300].iter().enumerate() {
        p.send(true, SendWr { wr_id: i as u64, payload: vec![i as u8; *len], dst: None });
    }
    let recvs: Vec<(u64, usize)> = p
        .comps_b
        .iter()
        .filter_map(|c| match &c.kind {
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
    p.connect();
    // client sends a message: it must NOT reach the receiver yet
    p.send(true, SendWr { wr_id: 1, payload: vec![1; 1024], dst: None });
    assert!(p.received().is_empty(), "no receive space posted: transfer must stall");
    // server posts a buffer: the window update releases the message
    p.post_recv(false, RecvWr { wr_id: 100, capacity: 16 * 1024 });
    // allow a retransmit timer in case the update raced
    for _ in 0..4 {
        if !p.received().is_empty() {
            break;
        }
        p.fire_timers();
    }
    assert!(!p.received().is_empty(), "posting receive space unblocked the sender (§5.1)");
}

#[test]
fn completion_timestamps_are_monotone_and_positive() {
    let mut p = Pair::new(NicConfig::paper_default());
    establish(&mut p, 4, 16 * 1024);
    p.send(true, SendWr { wr_id: 1, payload: vec![0; 512], dst: None });
    let mut last = SimTime::ZERO;
    for c in p.comps_b.iter() {
        assert!(c.visible_at >= last);
        last = c.visible_at;
    }
    assert!(last > SimTime::ZERO);
}

#[test]
fn all_completions_are_success_in_clean_run() {
    let mut p = Pair::new(NicConfig::paper_default());
    establish(&mut p, 6, 16 * 1024);
    for i in 0..5u64 {
        p.send(true, SendWr { wr_id: i, payload: vec![0; 2048], dst: None });
    }
    for c in p.comps_a.iter().chain(p.comps_b.iter()) {
        assert_eq!(c.status, CompletionStatus::Success, "{c:?}");
    }
    assert_eq!(p.a.engine_stats().tcp.retransmissions(), 0);
}

#[test]
fn ping_pong_rtt_is_in_the_tens_of_microseconds() {
    // sanity check of the latency envelope before full Figure 3 runs:
    // one 1-byte message each way over an idle 1 µs wire.
    let mut p = Pair::new(NicConfig::paper_default());
    establish(&mut p, 8, 16 * 1024);
    let t0 = p.now;
    p.send(true, SendWr { wr_id: 50, payload: vec![1], dst: None });
    // b echoes
    p.send(false, SendWr { wr_id: 60, payload: vec![1], dst: None });
    let echo_at = p
        .comps_a
        .iter()
        .find_map(|c| match &c.kind {
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
    p.connect();
    p.send(true, SendWr { wr_id: 1, payload: vec![1; 1024], dst: None });
    // nothing posted: message stalls (window 0) or backlogs
    // post ONE buffer: it must deliver exactly one message, and the
    // window afterwards must be zero again, so a second send stalls
    p.post_recv(false, RecvWr { wr_id: 100, capacity: 2048 });
    for _ in 0..4 {
        if !p.received().is_empty() {
            break;
        }
        p.fire_timers();
    }
    assert_eq!(p.received().len(), 1);
    // second message: no buffer is posted, so it must NOT be delivered
    p.send(true, SendWr { wr_id: 2, payload: vec![2; 1024], dst: None });
    p.fire_timers();
    assert_eq!(p.received().len(), 1, "no second delivery without posted space");
    // backlog is bounded by the (now correct) window: at most one
    // message can be in flight/backlogged beyond the posted space
    assert!(p.b.stats().qp.tcp_backlogged <= 2, "{:?}", p.b.stats());
}

/// Each message parked for want of a receive WR counts once, and a
/// parked message too large for the WR that drains it counts a length
/// error.
#[test]
fn backlogged_messages_and_length_errors_count_exactly_once() {
    let mut p = Pair::new(NicConfig::paper_default());
    establish(&mut p, 1, 16 * 1024);
    // the first message takes the one WR; the next two wait in SRAM
    for i in 0..3 {
        p.send(true, SendWr { wr_id: i, payload: vec![0; 10], dst: None });
    }
    // the backlog drains into each new WR: the first is too small
    p.post_recv(false, RecvWr { wr_id: 101, capacity: 8 });
    p.post_recv(false, RecvWr { wr_id: 102, capacity: 16 });
    assert_eq!(p.received().len(), 3);
    let qp = QpCounters { udp_no_wr_drops: 0, tcp_backlogged: 2, length_errors: 1 };
    assert_eq!(p.b.stats().qp, qp);
}
