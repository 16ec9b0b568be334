//! Scripted TCP conformance suite.
//!
//! Each test is a packetdrill-style script: the test plays the remote
//! peer byte-for-byte against one engine, asserting every reply segment
//! and the resulting state transitions. The TCB invariant oracle runs
//! after every injected event (the harness panics on the first
//! violation), so these scripts double as oracle workloads.

use qpip_conform::{seg, Expect, Harness};
use qpip_netstack::tcp::TcpState;
use qpip_netstack::types::{AckPolicy, Emit, NetConfig};
use qpip_sim::time::SimDuration;

const PORT: u16 = 5000;

fn cfg() -> NetConfig {
    NetConfig::qpip(9000)
}

/// Drains the harness's events and returns the payload delivered since
/// the last call.
fn delivered(h: &mut Harness) -> Vec<u8> {
    h.take_events();
    h.take_delivered()
}

fn count_send_complete(events: &[Emit]) -> usize {
    events.iter().filter(|e| matches!(e, Emit::TcpSendComplete { .. })).count()
}

// ----- opening ------------------------------------------------------

#[test]
fn passive_open_three_way_handshake() {
    let mut h = Harness::server(cfg(), PORT);
    h.inject(seg().syn().seq(100).win(65535).mss(1460));
    assert_eq!(h.state(), Some(TcpState::SynRcvd));
    let sa = h.expect(Expect::synack().ack_no(101).mss_present(true));
    h.inject(seg().seq(101).ack(sa.hdr.seq.0 + 1));
    h.expect_quiet();
    assert_eq!(h.state(), Some(TcpState::Established));
    let ev = h.take_events();
    assert!(ev.iter().any(|e| matches!(e, Emit::TcpAccepted { .. })));
}

#[test]
fn active_open_offers_options_and_completes() {
    let mut h = Harness::client(cfg(), PORT);
    let syn = h.expect(Expect::any().mss_present(true).ts_present(true));
    assert!(syn.hdr.flags.syn && !syn.hdr.flags.ack);
    assert!(syn.hdr.options.window_scale.is_some());
    assert_eq!(h.state(), Some(TcpState::SynSent));
    h.inject(seg().syn().seq(9000).ack(syn.hdr.seq.0 + 1).win(65535).mss(1460));
    h.expect(Expect::pure_ack().ack_no(9001));
    assert_eq!(h.state(), Some(TcpState::Established));
    let ev = h.take_events();
    assert!(ev.iter().any(|e| matches!(e, Emit::TcpConnected { .. })));
}

#[test]
fn syn_retransmits_on_rto_with_same_iss() {
    let mut h = Harness::client(cfg(), PORT);
    let syn = h.expect(Expect::any());
    h.fire_timer();
    let again = h.expect(Expect::any());
    assert!(again.hdr.flags.syn);
    assert_eq!(again.hdr.seq, syn.hdr.seq);
    assert_eq!(h.stats().rto_retransmits, 1);
}

#[test]
fn duplicate_syn_in_syn_rcvd_is_reacked() {
    let mut h = Harness::server(cfg(), PORT);
    h.inject(seg().syn().seq(100).win(65535).mss(1460));
    h.expect(Expect::synack().ack_no(101));
    // The client's SYN-ACK got lost from its view; it retransmits the
    // SYN. The engine re-acknowledges instead of spawning a second TCB.
    h.inject(seg().syn().seq(100).win(65535).mss(1460));
    h.expect(Expect::pure_ack().ack_no(101));
    assert_eq!(h.state(), Some(TcpState::SynRcvd));
    assert_eq!(h.engine().conn_count(), 1);
}

#[test]
fn bare_syn_in_syn_sent_is_ignored_no_simultaneous_open() {
    // §4.1: the QPIP subset has no simultaneous open. A crossing SYN in
    // SYN-SENT is dropped, not answered with SYN-ACK.
    let mut h = Harness::client(cfg(), PORT);
    h.expect(Expect::any());
    h.inject(seg().syn().seq(500).win(65535));
    h.expect_quiet();
    assert_eq!(h.state(), Some(TcpState::SynSent));
}

#[test]
fn syn_ack_with_wrong_ack_is_ignored_in_syn_sent() {
    let mut h = Harness::client(cfg(), PORT);
    let syn = h.expect(Expect::any());
    h.inject(seg().syn().seq(9000).ack(syn.hdr.seq.0 + 999).win(65535));
    h.expect_quiet();
    assert_eq!(h.state(), Some(TcpState::SynSent));
}

#[test]
fn option_negotiation_window_scale_and_timestamps() {
    let mut h = Harness::server(cfg(), PORT);
    h.inject(seg().syn().seq(100).win(65535).mss(1400).wscale(5).ts(7777, 0));
    let sa = h.expect(Expect::synack().ack_no(101).mss_present(true).ts_present(true).ts_ecr(7777));
    assert!(sa.hdr.options.window_scale.is_some());
    h.inject(seg().seq(101).ack(sa.hdr.seq.0 + 1).ts(7780, sa.hdr.options.timestamps.unwrap().0));
    assert_eq!(h.state(), Some(TcpState::Established));
}

// ----- data transfer ------------------------------------------------

#[test]
fn in_order_data_is_delivered_and_immediately_acked() {
    let mut h = Harness::server(cfg(), PORT);
    let iss = h.handshake(100);
    h.inject(seg().seq(101).ack(iss + 1).payload(b"hello"));
    // AckPolicy::Immediate: every data segment is acked at once (§4.1)
    h.expect(Expect::pure_ack().ack_no(106));
    h.expect_quiet();
    assert_eq!(delivered(&mut h), b"hello");
}

#[test]
fn engine_data_carries_correct_seq_and_payload() {
    let mut h = Harness::server(cfg(), PORT);
    let iss = h.handshake(100);
    h.send(b"hello qpip");
    let d = h.expect(Expect::data(b"hello qpip").seq(iss + 1).ack_no(101));
    assert!(d.hdr.flags.psh || !d.payload.is_empty());
    // peer acks; the send unit completes
    h.inject(seg().seq(101).ack(iss + 11));
    let ev = h.take_events();
    assert_eq!(count_send_complete(&ev), 1);
}

#[test]
fn out_of_order_segment_is_dropped_with_duplicate_ack() {
    let mut h = Harness::server(cfg(), PORT);
    let iss = h.handshake(100);
    // A gap: seq 201 when 101 is expected. No reassembly in the subset
    // (§4.1) — the segment is dropped and a duplicate ACK goes out.
    h.inject(seg().seq(201).ack(iss + 1).payload(&[0xaa; 50]));
    h.expect(Expect::pure_ack().ack_no(101));
    let conn = h.conn().unwrap();
    assert_eq!(h.engine().conn_ooo_drops(conn), Some(1));
    assert!(delivered(&mut h).is_empty());
}

#[test]
fn duplicate_data_is_reacked_not_redelivered() {
    let mut h = Harness::server(cfg(), PORT);
    let iss = h.handshake(100);
    h.inject(seg().seq(101).ack(iss + 1).payload(b"abc"));
    h.expect(Expect::pure_ack().ack_no(104));
    assert_eq!(delivered(&mut h), b"abc");
    // the ACK got lost from the peer's view; it retransmits
    h.inject(seg().seq(101).ack(iss + 1).payload(b"abc"));
    h.expect(Expect::pure_ack().ack_no(104));
    assert!(delivered(&mut h).is_empty());
}

#[test]
fn retransmit_on_rto_uses_same_sequence_number() {
    let mut h = Harness::server(cfg(), PORT);
    let iss = h.handshake(100);
    h.send(&[0x42; 200]);
    h.expect(Expect::data(&[0x42; 200]).seq(iss + 1));
    h.fire_timer();
    h.expect(Expect::data(&[0x42; 200]).seq(iss + 1));
    assert_eq!(h.stats().rto_retransmits, 1);
}

/// A handshake whose SYN (TSval 500) and ACK (TSval 510) carry
/// timestamps. Returns the engine's ISS.
fn timestamped_handshake(h: &mut Harness) -> u32 {
    h.inject(seg().syn().seq(100).win(65535).mss(1460).ts(500, 0));
    let sa = h.expect(Expect::synack().ts_present(true).ts_ecr(500));
    let iss = sa.hdr.seq.0;
    h.inject(seg().seq(101).ack(iss + 1).ts(510, tsval(&sa)));
    iss
}

fn tsval(w: &qpip_conform::WireSeg) -> u32 {
    w.hdr.options.timestamps.unwrap().0
}

/// Eifel (RFC 3522/4015) set-up: a timestamped handshake, `messages`
/// data segments of `len` bytes in flight and the RTO retransmission
/// of the first, alone. Returns the engine's ISS and the TSvals of the
/// first segment's original and of its retransmission.
fn rto_retransmitted_with_timestamps(h: &mut Harness, messages: u32, len: u32) -> (u32, u32, u32) {
    let iss = timestamped_handshake(h);
    h.advance(SimDuration::from_millis(1));
    let data = vec![0x42; len as usize];
    for _ in 0..messages {
        h.send(&data);
    }
    let orig = h.expect(Expect::data(&data).seq(iss + 1).ts_present(true));
    for i in 1..messages {
        h.expect(Expect::data(&data).seq(iss + 1 + len * i));
    }
    h.fire_timer();
    let retx = h.expect(Expect::data(&data).seq(iss + 1).ts_present(true));
    h.expect_quiet();
    assert_eq!(h.stats().rto_retransmits, 1);
    assert!(tsval(&retx) > tsval(&orig), "the retransmission carries a later TSval");
    (iss, tsval(&orig), tsval(&retx))
}

#[test]
fn eifel_ack_echoing_the_original_marks_the_rto_spurious() {
    let mut h = Harness::server(cfg(), PORT);
    let (iss, orig_ts, _) = rto_retransmitted_with_timestamps(&mut h, 1, 200);
    // the original was only late: the first ACK for it echoes its TSval
    h.inject(seg().seq(101).ack(iss + 201).ts(520, orig_ts));
    assert_eq!(count_send_complete(&h.take_events()), 1);
    assert_eq!(h.stats().spurious_rtos, 1);
    // the episode is over: a later ACK echoing an old TSval counts nothing
    h.send(&[0x43; 100]);
    h.expect(Expect::data(&[0x43; 100]).seq(iss + 201));
    h.inject(seg().seq(101).ack(iss + 301).ts(530, orig_ts));
    assert_eq!(h.stats().spurious_rtos, 1);
    assert_eq!(h.stats().rto_episodes, 1);
}

#[test]
fn eifel_ack_echoing_the_retransmit_counts_nothing() {
    let mut h = Harness::server(cfg(), PORT);
    let (iss, _, retx_ts) = rto_retransmitted_with_timestamps(&mut h, 2, 200);
    // the first original was lost: the ACK answers the retransmission
    h.inject(seg().seq(101).ack(iss + 201).ts(520, retx_ts));
    assert_eq!(count_send_complete(&h.take_events()), 1);
    assert_eq!(h.stats().spurious_rtos, 0);
    assert_eq!(h.stats().rto_retransmits, 1);
    assert_eq!(h.stats().rto_episodes, 1);
    // nothing is undone: the timeout's go-back-N resends the second
    h.expect(Expect::data(&[0x42; 200]).seq(iss + 201));
    h.expect_quiet();
    assert_eq!(h.stats().gobackn_resends, 1);
}

#[test]
fn eifel_response_resumes_at_snd_max_after_a_spurious_rto() {
    let mut h = Harness::server(cfg(), PORT);
    let (iss, orig_ts, _) = rto_retransmitted_with_timestamps(&mut h, 2, 200);
    // the first original was only late, and the second is still in
    // flight behind it: the second is not sent again (RFC 4015)
    h.inject(seg().seq(101).ack(iss + 201).ts(520, orig_ts));
    assert_eq!(count_send_complete(&h.take_events()), 1);
    h.expect_quiet();
    assert_eq!(h.stats().spurious_rtos, 1);
    // new data flows under the restored window: 200 B in flight plus
    // 200 B acked would not admit 1,000 B, the one-MSS floor does
    h.send(&[0x43; 1000]);
    let new = h.expect(Expect::data(&[0x43; 1000]).seq(iss + 401));
    h.inject(seg().seq(101).ack(iss + 1401).ts(530, tsval(&new)));
    assert_eq!(count_send_complete(&h.take_events()), 2);
    h.expect_quiet();
    assert_eq!(h.stats().gobackn_resends, 0);
    assert_eq!(h.stats().rto_retransmits, 1);
}

#[test]
fn eifel_response_goes_back_n_after_a_duplicate_ack() {
    let mut h = Harness::server(cfg(), PORT);
    // 8,000-byte segments: the collapsed one-MSS window holds only the
    // retransmission, so the duplicate ACK below releases nothing
    let (iss, orig_ts, _) = rto_retransmitted_with_timestamps(&mut h, 2, 8000);
    // a duplicate ACK in the episode: the peer discarded the second
    // segment past a hole, so it must be sent again
    h.inject(seg().seq(101).ack(iss + 1).ts(515, orig_ts));
    h.expect_quiet();
    h.inject(seg().seq(101).ack(iss + 8001).ts(520, orig_ts));
    assert_eq!(h.stats().spurious_rtos, 1);
    h.expect(Expect::data(&[0x42; 8000]).seq(iss + 8001));
    h.expect_quiet();
    assert_eq!(h.stats().gobackn_resends, 1);
    assert_eq!(h.stats().dupacks_rx, 1);
}

#[test]
fn eifel_response_goes_back_n_after_a_duplicate_ack_before_the_timeout() {
    let mut h = Harness::server(cfg(), PORT);
    let iss = timestamped_handshake(&mut h);
    h.advance(SimDuration::from_millis(1));
    let data = [0x42; 200];
    h.send(&data);
    h.send(&data);
    let orig = h.expect(Expect::data(&data).seq(iss + 1).ts_present(true));
    h.expect(Expect::data(&data).seq(iss + 201));
    // the first segment is delayed past the RTO and the second arrives
    // first: the peer discards it and answers, one RTT after the send,
    // with a duplicate ACK that comes before the timeout fires
    h.inject(seg().seq(101).ack(iss + 1).ts(512, tsval(&orig)));
    h.expect_quiet();
    h.fire_timer();
    h.expect(Expect::data(&data).seq(iss + 1));
    h.expect_quiet();
    // the late original ends the episode as spurious, but the second
    // segment is gone: go-back-N must resend it
    h.inject(seg().seq(101).ack(iss + 201).ts(520, tsval(&orig)));
    assert_eq!(h.stats().spurious_rtos, 1);
    h.expect(Expect::data(&data).seq(iss + 201));
    h.expect_quiet();
    assert_eq!(h.stats().gobackn_resends, 1);
    assert_eq!(h.stats().dupacks_rx, 1);
}

#[test]
fn third_duplicate_ack_triggers_fast_retransmit() {
    let mut h = Harness::server(cfg(), PORT);
    let iss = h.handshake(100);
    for _ in 0..5 {
        h.send(&[0x55; 100]);
    }
    for i in 0..5 {
        h.expect(Expect::data(&[0x55; 100]).seq(iss + 1 + i * 100));
    }
    // first segment lost from the peer's view: three duplicate ACKs
    h.inject(seg().seq(101).ack(iss + 1));
    h.expect_quiet();
    h.inject(seg().seq(101).ack(iss + 1));
    h.expect_quiet();
    h.inject(seg().seq(101).ack(iss + 1));
    h.expect(Expect::data(&[0x55; 100]).seq(iss + 1));
    assert_eq!(h.stats().fast_retransmits, 1);
    assert_eq!(h.stats().dupacks_rx, 3);
    // full cumulative ACK completes all five units
    h.inject(seg().seq(101).ack(iss + 501));
    assert_eq!(count_send_complete(&h.take_events()), 5);
}

/// The initial RTO: the scripted handshakes carry no timestamps and
/// take no RTT sample.
const RTO: SimDuration = SimDuration::from_millis(100);

/// Handshake, then the peer closes its window and the application
/// queues one 100-byte message behind it. Returns the engine's ISS.
fn window_blocked_sender(h: &mut Harness) -> u32 {
    let iss = h.handshake(100);
    h.inject(seg().seq(101).ack(iss + 1).win(0));
    assert_eq!(h.engine().conn_snd_wnd(h.conn().unwrap()), Some(0));
    h.send(&[0x77; 100]);
    h.expect_quiet();
    iss
}

/// Fires the persist timer and expects its probe: one byte at
/// SND.UNA−1 (the already-acknowledged ISS slot here), never counted as
/// a retransmission. Returns the interval since the previous deadline
/// was armed at `armed_at`.
#[track_caller]
fn fire_probe(h: &mut Harness, iss: u32) -> SimDuration {
    let armed_at = h.now();
    h.fire_timer();
    h.expect(Expect::data(&[0]).seq(iss).ack_no(101).win(65535));
    assert_eq!(h.engine().retransmissions(), 0, "a probe is not a retransmission");
    assert_eq!(h.stats().rto_retransmits, 0, "a probe is not an RTO retransmission");
    h.now().duration_since(armed_at)
}

#[test]
fn zero_window_first_probe_after_one_rto() {
    let mut h = Harness::server(cfg(), PORT);
    let iss = window_blocked_sender(&mut h);
    assert_eq!(h.next_deadline(), Some(h.now() + RTO), "persist armed at one RTO");
    assert_eq!(fire_probe(&mut h, iss), RTO);
    assert_eq!(h.stats().persist_probes, 1);
    assert_eq!(h.state(), Some(TcpState::Established));
}

#[test]
fn zero_window_probes_back_off_with_the_rto() {
    let mut h = Harness::server(cfg(), PORT);
    let iss = window_blocked_sender(&mut h);
    for k in 0..4 {
        assert_eq!(fire_probe(&mut h, iss), RTO.saturating_mul(1 << k), "probe {}", k + 1);
    }
    // a reply that keeps the window closed changes nothing: the next
    // probe stays on the backed-off schedule
    h.inject(seg().seq(101).ack(iss + 1).win(0));
    h.expect_quiet();
    assert_eq!(fire_probe(&mut h, iss), RTO.saturating_mul(16));
    assert_eq!(h.stats().persist_probes, 5);
}

#[test]
fn zero_window_probe_reply_opens_window_and_releases_data() {
    let mut h = Harness::server(cfg(), PORT);
    let iss = window_blocked_sender(&mut h);
    fire_probe(&mut h, iss);
    h.advance(SimDuration::from_millis(10));
    // the receiver answers the probe with an open window
    h.inject(seg().seq(101).ack(iss + 1).win(65535));
    h.expect(Expect::data(&[0x77; 100]).seq(iss + 1));
    // the data leaves under a fresh (backed-off) RTO, not what was left
    // of the persist interval
    assert_eq!(h.next_deadline(), Some(h.now() + RTO.saturating_mul(2)));
    h.inject(seg().seq(101).ack(iss + 101).win(65535));
    assert_eq!(count_send_complete(&h.take_events()), 1);
    assert!(h.next_deadline().is_none(), "nothing outstanding, nothing blocked");
    assert_eq!(h.stats().persist_probes, 1);
}

#[test]
fn zero_window_that_never_opens_ends_in_reset() {
    let mut h = Harness::server(cfg(), PORT);
    let iss = window_blocked_sender(&mut h);
    let start = h.now();
    for _ in 0..15 {
        fire_probe(&mut h, iss);
    }
    assert_eq!(h.state(), Some(TcpState::Established));
    // the sixteenth expiry exhausts the retries
    h.fire_timer();
    h.expect_quiet();
    assert!(h.take_events().iter().any(|e| matches!(e, Emit::TcpReset { .. })));
    assert_eq!(h.state(), None, "reset connection is reaped");
    assert_eq!(h.stats().persist_probes, 15, "probe count survives the reap");
    assert_eq!(h.stats().rto_retransmits, 0);
    // 100 ms doubling to the 4 s cap: 0.1+0.2+…+3.2 + 10×4 s
    assert_eq!(h.now().duration_since(start), SimDuration::from_millis(46_300));
}

#[test]
fn receiver_reacks_probe_with_current_window() {
    let mut h = Harness::server(cfg(), PORT);
    let iss = h.handshake(100);
    h.set_recv_space(0);
    h.expect(Expect::pure_ack().ack_no(101).win(0));
    // a probe: one already-received byte at RCV.NXT−1
    h.inject(seg().seq(100).ack(iss + 1).payload(&[0]));
    h.expect(Expect::pure_ack().ack_no(101).win(0));
    // the window reopens, but the peer never sees the update; its next
    // probe draws the current window
    h.set_recv_space(4096);
    h.expect(Expect::pure_ack().ack_no(101).win(4096));
    h.inject(seg().seq(100).ack(iss + 1).payload(&[0]));
    h.expect(Expect::pure_ack().ack_no(101).win(4096));
    assert!(delivered(&mut h).is_empty(), "a probe byte is never delivered");
}

#[test]
fn peer_window_scale_is_applied_to_advertised_window() {
    let mut h = Harness::server(cfg(), PORT);
    h.inject(seg().syn().seq(100).win(65535).mss(1460).wscale(2));
    let sa = h.expect(Expect::synack().ack_no(101));
    let iss = sa.hdr.seq.0;
    h.inject(seg().seq(101).ack(iss + 1).win(100));
    let conn = h.conn().unwrap();
    // 100 << 2 = 400 usable bytes
    assert_eq!(h.engine().conn_snd_wnd(conn), Some(400));
    h.send(&[0x11; 500]);
    h.expect_quiet(); // 500 > 400: blocked
    h.inject(seg().seq(101).ack(iss + 1).win(200)); // 800 bytes now
    h.expect(Expect::data(&[0x11; 500]).seq(iss + 1));
}

#[test]
fn timestamp_echo_reflects_latest_in_order_tsval() {
    let mut h = Harness::server(cfg(), PORT);
    let iss = timestamped_handshake(&mut h);
    h.inject(seg().seq(101).ack(iss + 1).payload(b"x").ts(777, 0));
    h.expect(Expect::pure_ack().ack_no(102).ts_present(true).ts_ecr(777));
}

#[test]
fn older_tsval_does_not_overwrite_ts_recent() {
    let mut h = Harness::server(cfg(), PORT);
    let iss = timestamped_handshake(&mut h);
    h.inject(seg().seq(101).ack(iss + 1).payload(b"x").ts(777, 0));
    h.expect(Expect::pure_ack().ack_no(102).ts_ecr(777));
    // RFC 7323 §4.3: TS.Recent only moves forward
    h.inject(seg().seq(102).ack(iss + 1).payload(b"y").ts(700, 0));
    h.expect(Expect::pure_ack().ack_no(103).ts_ecr(777));
}

#[test]
fn delayed_ack_echoes_the_first_unacknowledged_tsval() {
    let mut delayed = cfg();
    delayed.ack_policy = AckPolicy::Delayed(SimDuration::from_micros(300));
    let mut h = Harness::server(delayed, PORT);
    let iss = timestamped_handshake(&mut h);
    h.inject(seg().seq(101).ack(iss + 1).payload(b"a").ts(600, 0));
    h.expect_quiet();
    // the second segment starts past Last.ACK.sent: its TSval is not
    // echoed, so the peer's RTT sample spans the delay (RFC 7323 §4.3)
    h.inject(seg().seq(102).ack(iss + 1).payload(b"b").ts(610, 0));
    h.expect(Expect::pure_ack().ack_no(103).ts_ecr(600));
    h.inject(seg().seq(103).ack(iss + 1).payload(b"c").ts(620, 0));
    h.expect_quiet();
    h.fire_timer();
    h.expect(Expect::pure_ack().ack_no(104).ts_ecr(620));
}

// ----- teardown -----------------------------------------------------

#[test]
fn passive_close_full_lifecycle() {
    let mut h = Harness::server(cfg(), PORT);
    let iss = h.handshake(100);
    // peer closes first
    h.inject(seg().fin().seq(101).ack(iss + 1));
    h.expect(Expect::pure_ack().ack_no(102));
    assert_eq!(h.state(), Some(TcpState::CloseWait));
    assert!(h.take_events().iter().any(|e| matches!(e, Emit::TcpPeerClosed { .. })));
    // application closes; FIN goes out, LAST-ACK
    h.close();
    h.expect(Expect::fin_seg().seq(iss + 1).ack_no(102));
    assert_eq!(h.state(), Some(TcpState::LastAck));
    // final ACK: connection fully closed and reaped
    h.inject(seg().seq(102).ack(iss + 2));
    assert!(h.take_events().iter().any(|e| matches!(e, Emit::TcpClosed { .. })));
    assert_eq!(h.state(), None);
    assert_eq!(h.engine().conn_count(), 0);
}

#[test]
fn active_close_fin_wait_sequence_to_time_wait() {
    let mut h = Harness::server(cfg(), PORT);
    let iss = h.handshake(100);
    h.close();
    h.expect(Expect::fin_seg().seq(iss + 1).ack_no(101));
    assert_eq!(h.state(), Some(TcpState::FinWait1));
    h.inject(seg().seq(101).ack(iss + 2));
    assert_eq!(h.state(), Some(TcpState::FinWait2));
    h.inject(seg().fin().seq(101).ack(iss + 2));
    h.expect(Expect::pure_ack().ack_no(102));
    assert_eq!(h.state(), Some(TcpState::TimeWait));
    // 2×MSL expiry reaps the connection
    h.fire_timer();
    assert!(h.take_events().iter().any(|e| matches!(e, Emit::TcpClosed { .. })));
    assert_eq!(h.state(), None);
}

#[test]
fn simultaneous_close_goes_through_closing() {
    let mut h = Harness::server(cfg(), PORT);
    let iss = h.handshake(100);
    h.close();
    h.expect(Expect::fin_seg().seq(iss + 1));
    // peer's FIN crosses ours: it does not ack our FIN
    h.inject(seg().fin().seq(101).ack(iss + 1));
    h.expect(Expect::pure_ack().ack_no(102));
    assert_eq!(h.state(), Some(TcpState::Closing));
    h.inject(seg().seq(102).ack(iss + 2));
    assert_eq!(h.state(), Some(TcpState::TimeWait));
    h.fire_timer();
    assert_eq!(h.state(), None);
}

#[test]
fn fin_plus_ack_combined_goes_straight_to_time_wait() {
    let mut h = Harness::server(cfg(), PORT);
    let iss = h.handshake(100);
    h.close();
    h.expect(Expect::fin_seg().seq(iss + 1));
    // one segment acks our FIN and carries the peer's FIN
    h.inject(seg().fin().seq(101).ack(iss + 2));
    h.expect(Expect::pure_ack().ack_no(102));
    assert_eq!(h.state(), Some(TcpState::TimeWait));
    h.fire_timer();
    assert_eq!(h.state(), None);
}

#[test]
fn unacked_fin_retransmits_on_rto() {
    let mut h = Harness::server(cfg(), PORT);
    let iss = h.handshake(100);
    h.close();
    h.expect(Expect::fin_seg().seq(iss + 1));
    h.fire_timer();
    h.expect(Expect::fin_seg().seq(iss + 1));
    assert_eq!(h.stats().rto_retransmits, 1);
    assert_eq!(h.state(), Some(TcpState::FinWait1));
}

#[test]
fn exact_sequence_rst_tears_the_connection_down() {
    let mut h = Harness::server(cfg(), PORT);
    let iss = h.handshake(100);
    h.inject(seg().rst().seq(101).ack(iss + 1));
    h.expect_quiet();
    assert!(h.take_events().iter().any(|e| matches!(e, Emit::TcpReset { .. })));
    assert_eq!(h.state(), None);
    assert_eq!(h.engine().conn_count(), 0);
}

#[test]
fn data_after_reset_is_dropped_at_demux() {
    let mut h = Harness::server(cfg(), PORT);
    let iss = h.handshake(100);
    h.inject(seg().rst().seq(101).ack(iss + 1));
    let before = h.stats().demux_drops;
    h.inject(seg().seq(101).ack(iss + 1).payload(b"late"));
    h.expect_quiet();
    assert_eq!(h.stats().demux_drops, before + 1);
}

// ----- demux and stray segments -------------------------------------

#[test]
fn segment_to_unbound_port_is_counted_and_unanswered() {
    let mut h = Harness::server(cfg(), PORT);
    h.inject(seg().seq(1).ack(1).to_port(9999).payload(b"who"));
    h.expect_quiet();
    assert_eq!(h.stats().demux_drops, 1);
    assert_eq!(h.engine().conn_count(), 0);
}

#[test]
fn data_piggybacked_on_handshake_ack_is_delivered() {
    let mut h = Harness::server(cfg(), PORT);
    h.inject(seg().syn().seq(100).win(65535).mss(1460));
    let sa = h.expect(Expect::synack());
    // third ACK carries the first request bytes immediately
    h.inject(seg().seq(101).ack(sa.hdr.seq.0 + 1).payload(b"req1"));
    h.expect(Expect::pure_ack().ack_no(105));
    assert_eq!(h.state(), Some(TcpState::Established));
    assert_eq!(delivered(&mut h), b"req1");
}

// ----- malformed input ----------------------------------------------

#[test]
fn corrupted_checksum_is_dropped_without_state_change() {
    let mut h = Harness::server(cfg(), PORT);
    let iss = h.handshake(100);
    h.inject(seg().seq(101).ack(iss + 1).payload(b"evil").bad_checksum());
    h.expect_quiet();
    assert_eq!(h.stats().checksum_drops, 1);
    assert_eq!(h.state(), Some(TcpState::Established));
    assert!(delivered(&mut h).is_empty());
}

#[test]
fn truncated_packet_is_dropped_as_parse_error() {
    let mut h = Harness::server(cfg(), PORT);
    let iss = h.handshake(100);
    h.inject(seg().seq(101).ack(iss + 1).payload(b"short").truncated(44));
    h.expect_quiet();
    assert_eq!(h.stats().parse_drops, 1);
    assert_eq!(h.state(), Some(TcpState::Established));
}

#[test]
fn advance_between_steps_keeps_connection_stable() {
    let mut h = Harness::server(cfg(), PORT);
    let iss = h.handshake(100);
    h.advance(SimDuration::from_millis(50));
    h.inject(seg().seq(101).ack(iss + 1).payload(b"later"));
    h.expect(Expect::pure_ack().ack_no(106));
    assert_eq!(delivered(&mut h), b"later");
}

// ----- regressions for bugs the suite and fuzzer exposed ------------
//
// Each test below reproduces a state-machine bug that this harness (or
// the seeded fuzz loop driving the TCB invariant oracle) found in the
// engine, and pins the fixed behaviour.

#[test]
fn blind_rst_in_window_gets_challenge_ack() {
    // RFC 5961 §3.2: an in-window RST whose sequence number is not
    // exactly RCV.NXT draws a challenge ACK instead of killing the
    // connection (the engine used to accept any RST blindly).
    let mut h = Harness::server(cfg(), PORT);
    h.handshake(100);
    h.inject(seg().rst().seq(150));
    h.expect(Expect::pure_ack().ack_no(101));
    assert_eq!(h.state(), Some(TcpState::Established));
}

#[test]
fn out_of_window_rst_is_dropped_silently() {
    let mut h = Harness::server(cfg(), PORT);
    h.handshake(100);
    h.inject(seg().rst().seq(101u32.wrapping_add(0x4000_0000)));
    h.expect_quiet();
    assert_eq!(h.state(), Some(TcpState::Established));
}

#[test]
fn rst_in_syn_sent_requires_ack_of_our_syn() {
    let mut h = Harness::client(cfg(), PORT);
    let syn = h.expect(Expect::any());
    let iss = syn.hdr.seq.0;
    // a bare RST (no ACK) cannot abort a half-open connection
    h.inject(seg().rst().seq(0));
    h.expect_quiet();
    assert_eq!(h.state(), Some(TcpState::SynSent));
    // a RST acknowledging our SYN is a legitimate connection refusal
    h.inject(seg().rst().seq(0).ack(iss.wrapping_add(1)));
    h.expect_quiet();
    assert!(h.take_events().iter().any(|e| matches!(e, Emit::TcpReset { .. })));
    assert_eq!(h.engine().conn_count(), 0);
}

#[test]
fn ack_beyond_snd_max_is_acked_and_dropped() {
    // RFC 793: an ACK for data never sent draws an ACK and the segment
    // is discarded wholesale — its payload must not be delivered.
    let mut h = Harness::server(cfg(), PORT);
    let iss = h.handshake(100);
    h.inject(seg().seq(101).ack(iss.wrapping_add(50_000)).payload(b"evil"));
    h.expect(Expect::pure_ack().ack_no(101));
    assert!(delivered(&mut h).is_empty());
    assert_eq!(h.state(), Some(TcpState::Established));
}

#[test]
fn syn_ack_options_mirror_the_syn() {
    // A SYN without window scale / timestamps must not be answered with
    // them (the engine used to advertise its own config unconditionally,
    // leaving the two sides disagreeing about header layout).
    let mut h = Harness::server(cfg(), PORT);
    h.inject(seg().syn().seq(100).win(65535).mss(1460));
    let sa = h.expect(Expect::synack().ack_no(101).mss_present(true));
    assert!(sa.hdr.options.window_scale.is_none(), "no ws offer, no ws echo");
    assert!(sa.hdr.options.timestamps.is_none(), "no ts offer, no ts echo");

    // ...while a fully-optioned SYN still gets both echoed
    let mut h2 = Harness::server(cfg(), PORT);
    h2.inject(seg().syn().seq(100).win(65535).mss(1460).wscale(7).ts(1, 0));
    let sa2 = h2.expect(Expect::synack().ack_no(101));
    assert!(sa2.hdr.options.window_scale.is_some());
    assert!(sa2.hdr.options.timestamps.is_some());
}

#[test]
fn acked_fin_is_not_retransmitted() {
    // The FIN's sequence slot lies one past the send buffer, so its
    // acknowledgment never advanced `una` — the engine kept the FIN
    // "outstanding" forever, re-arming the retransmission timer in
    // FIN-WAIT-2 and TIME-WAIT. Found by the fuzz loop (oracle
    // invariant `timewait_timer`).
    let mut h = Harness::server(cfg(), PORT);
    let iss = h.handshake(100);
    h.close();
    let fin = h.expect(Expect::fin_seg());
    assert_eq!(fin.hdr.seq.0, iss.wrapping_add(1));
    h.inject(seg().seq(101).ack(iss.wrapping_add(2)));
    h.expect_quiet();
    assert_eq!(h.state(), Some(TcpState::FinWait2));
    assert!(h.next_deadline().is_none(), "no timer once the FIN is acked");
}

#[test]
fn data_and_fin_acked_together_complete_the_send() {
    // Second half of the same bug: one ACK covering data + FIN points
    // one past the buffered bytes, and the send buffer used to reject
    // it — leaving the data unacknowledged forever.
    let mut h = Harness::server(cfg(), PORT);
    let iss = h.handshake(100);
    h.send(b"01234567");
    h.expect(Expect::data(b"01234567"));
    h.close();
    let fin = h.expect(Expect::fin_seg());
    assert_eq!(fin.hdr.seq.0, iss.wrapping_add(9));
    h.inject(seg().seq(101).ack(iss.wrapping_add(10)));
    h.expect_quiet();
    assert_eq!(count_send_complete(&h.take_events()), 1);
    assert_eq!(h.state(), Some(TcpState::FinWait2));
    assert!(h.next_deadline().is_none());
}

#[test]
fn mid_message_ack_does_not_split_message_framing() {
    // Message-per-segment mode: a forged ACK landing inside a message
    // used to drag una/nxt off the chunk boundary and trip the
    // whole-chunk assertion on the next retransmission.
    let mut h = Harness::server(cfg(), PORT);
    let iss = h.handshake(100);
    h.send(&[0xAB; 100]);
    h.expect(Expect::data(&[0xAB; 100]));
    h.inject(seg().seq(101).ack(iss.wrapping_add(51)));
    assert_eq!(count_send_complete(&h.take_events()), 0, "partial message is not complete");
    h.fire_timer();
    let rtx = h.expect(Expect::data(&[0xAB; 100]));
    assert_eq!(rtx.hdr.seq.0, iss.wrapping_add(1), "whole message retransmitted");
}

#[test]
fn fin_with_unacceptable_ack_in_syn_rcvd_is_ignored() {
    // A FIN riding an ACK that does not acknowledge our SYN used to be
    // consumed in SYN-RCVD (advancing RCV.NXT with no state to go to).
    // Found by the fuzz loop (oracle invariant `peer_fin_state`).
    let mut h = Harness::server(cfg(), PORT);
    h.inject(seg().syn().seq(100).win(65535).mss(1460));
    let sa = h.expect(Expect::synack());
    let iss = sa.hdr.seq.0;
    h.inject(seg().fin().seq(101).ack(iss));
    h.expect_quiet();
    assert_eq!(h.state(), Some(TcpState::SynRcvd));
    // the handshake still completes at the unchanged RCV.NXT
    h.inject(seg().seq(101).ack(iss.wrapping_add(1)));
    h.expect_quiet();
    assert_eq!(h.state(), Some(TcpState::Established));
}

#[test]
fn syn_with_rst_does_not_spawn_a_connection() {
    let mut h = Harness::server(cfg(), PORT);
    let before = h.stats().demux_drops;
    h.inject(seg().syn().rst().seq(100).win(65535).mss(1460));
    h.expect_quiet();
    assert_eq!(h.engine().conn_count(), 0);
    assert_eq!(h.stats().demux_drops, before + 1);
}
