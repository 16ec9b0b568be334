//! TCP: transmission control block, RTT estimation, congestion control
//! and the send buffer.

pub mod congestion;
pub mod rtt;
pub mod sendbuf;
pub mod tcb;

pub use congestion::Congestion;
pub use rtt::RttEstimator;
pub use sendbuf::{SegmentData, SendBuffer};
pub use tcb::{SegPayload, SegmentOut, Tcb, TcbEvent, TcbOutput, TcpCounters, TcpState};

#[cfg(test)]
mod tests {
    //! Two TCBs wired back-to-back: full-lifecycle protocol tests
    //! without the engine or any packet encoding.

    use qpip_sim::time::{SimDuration, SimTime};
    use qpip_wire::tcp::{SeqNum, TcpHeader, TcpOptions};

    use super::tcb::{SegmentOut, Tcb, TcbEvent, TcbOutput, TcpState};
    use crate::types::{Endpoint, NetConfig, PacketKind, SendToken};
    use std::net::Ipv6Addr;

    fn ep(port: u16) -> Endpoint {
        Endpoint::new(Ipv6Addr::new(0xfc00, 0, 0, 0, 0, 0, 0, u16::from(port != 1)), port)
    }

    /// A segment as the peer receives it: the TCB's description plus
    /// the payload bytes the engine would encode, read from the
    /// sender's buffer before its next call. Field access finds
    /// `payload` here (the bytes) and everything else on the segment.
    #[derive(Debug, Clone)]
    struct Wire {
        seg: SegmentOut,
        payload: Vec<u8>,
    }

    impl Wire {
        fn of(from: &Tcb, seg: SegmentOut) -> Wire {
            let mut payload = Vec::new();
            from.read_payload(&seg, |part| payload.extend_from_slice(part));
            Wire { seg, payload }
        }

        fn all(from: &Tcb, segs: Vec<SegmentOut>) -> Vec<Wire> {
            segs.into_iter().map(|s| Wire::of(from, s)).collect()
        }
    }

    impl std::ops::Deref for Wire {
        type Target = SegmentOut;
        fn deref(&self) -> &SegmentOut {
            &self.seg
        }
    }

    /// Converts a SegmentOut into the TcpHeader the peer would parse.
    fn to_header(s: &SegmentOut, src: u16, dst: u16) -> TcpHeader {
        TcpHeader {
            src_port: src,
            dst_port: dst,
            seq: s.seq,
            ack: s.ack,
            flags: s.flags,
            window: s.window,
            checksum: 0,
            urgent: 0,
            options: s.options,
        }
    }

    /// [`Tcb::connect`] with its SYN collected into a fresh vector.
    fn connect(
        cfg: &NetConfig,
        local: Endpoint,
        remote: Endpoint,
        iss: SeqNum,
        now: SimTime,
    ) -> (Tcb, Vec<Wire>) {
        let mut out = Vec::new();
        let tcb = Tcb::connect(cfg, local, remote, iss, now, &mut out);
        let out = Wire::all(&tcb, out);
        (tcb, out)
    }

    /// [`Tcb::accept`] with its SYN-ACK collected into a fresh vector.
    fn accept(
        cfg: &NetConfig,
        local: Endpoint,
        remote: Endpoint,
        syn: &TcpHeader,
        iss: SeqNum,
        now: SimTime,
    ) -> (Tcb, Vec<Wire>) {
        let mut out = Vec::new();
        let tcb = Tcb::accept(cfg, local, remote, syn, iss, now, &mut out);
        let out = Wire::all(&tcb, out);
        (tcb, out)
    }

    /// The TCB's out-parameter calls with their output collected into
    /// fresh vectors, which is the shape these tests assert on.
    trait Collect {
        fn seg_in(
            &mut self,
            cfg: &NetConfig,
            hdr: &TcpHeader,
            payload: &[u8],
            now: SimTime,
        ) -> (Vec<Wire>, Vec<TcbEvent>);
        fn seg_in_marked(
            &mut self,
            cfg: &NetConfig,
            hdr: &TcpHeader,
            payload: &[u8],
            ce: bool,
            now: SimTime,
        ) -> (Vec<Wire>, Vec<TcbEvent>);
        fn timer(&mut self, cfg: &NetConfig, now: SimTime) -> (Vec<Wire>, Vec<TcbEvent>);
        fn send_msg(
            &mut self,
            cfg: &NetConfig,
            data: Vec<u8>,
            token: SendToken,
            now: SimTime,
        ) -> Vec<Wire>;
        fn close_conn(&mut self, cfg: &NetConfig, now: SimTime) -> Vec<Wire>;
    }

    impl Collect for Tcb {
        fn seg_in(
            &mut self,
            cfg: &NetConfig,
            hdr: &TcpHeader,
            payload: &[u8],
            now: SimTime,
        ) -> (Vec<Wire>, Vec<TcbEvent>) {
            self.seg_in_marked(cfg, hdr, payload, false, now)
        }

        fn seg_in_marked(
            &mut self,
            cfg: &NetConfig,
            hdr: &TcpHeader,
            payload: &[u8],
            ce: bool,
            now: SimTime,
        ) -> (Vec<Wire>, Vec<TcbEvent>) {
            let mut out = TcbOutput::default();
            self.on_segment_marked(cfg, hdr, payload, ce, now, &mut out);
            (Wire::all(self, out.segs), out.events)
        }

        fn timer(&mut self, cfg: &NetConfig, now: SimTime) -> (Vec<Wire>, Vec<TcbEvent>) {
            let mut out = TcbOutput::default();
            self.on_timer(cfg, now, &mut out);
            (Wire::all(self, out.segs), out.events)
        }

        fn send_msg(
            &mut self,
            cfg: &NetConfig,
            data: Vec<u8>,
            token: SendToken,
            now: SimTime,
        ) -> Vec<Wire> {
            let mut out = Vec::new();
            self.send(cfg, data, token, now, &mut out);
            Wire::all(self, out)
        }

        fn close_conn(&mut self, cfg: &NetConfig, now: SimTime) -> Vec<Wire> {
            let mut out = Vec::new();
            self.close(cfg, now, &mut out);
            Wire::all(self, out)
        }
    }

    struct Pair {
        cfg: NetConfig,
        client: Tcb,
        server: Tcb,
        now: SimTime,
    }

    impl Pair {
        /// Creates a connected pair (handshake already driven).
        fn established(cfg: NetConfig) -> Pair {
            let now = SimTime::ZERO;
            let (mut client, syns) = connect(&cfg, ep(1), ep(2), SeqNum(1000), now);
            assert_eq!(syns.len(), 1);
            let syn_hdr = to_header(&syns[0], 1, 2);
            let (mut server, synacks) = accept(&cfg, ep(2), ep(1), &syn_hdr, SeqNum(5000), now);
            let (acks, ev) = client.seg_in(&cfg, &to_header(&synacks[0], 2, 1), &[], now);
            assert!(ev.contains(&TcbEvent::Established));
            let (_, ev) = server.seg_in(&cfg, &to_header(&acks[0], 1, 2), &[], now);
            assert!(ev.contains(&TcbEvent::Established));
            assert_eq!(client.state(), TcpState::Established);
            assert_eq!(server.state(), TcpState::Established);
            Pair { cfg, client, server, now }
        }

        fn tick(&mut self, d: SimDuration) {
            self.now += d;
        }

        /// Delivers segments from `a` to `b`, returning (replies, events).
        fn deliver(
            cfg: &NetConfig,
            from_port: u16,
            to_port: u16,
            to: &mut Tcb,
            segs: &[Wire],
            now: SimTime,
        ) -> (Vec<Wire>, Vec<TcbEvent>) {
            let mut out = Vec::new();
            let mut evs = Vec::new();
            for s in segs {
                let hdr = to_header(s, from_port, to_port);
                let (o, e) = to.seg_in(cfg, &hdr, &s.payload, now);
                out.extend(o);
                evs.extend(e);
            }
            (out, evs)
        }
    }

    fn qpip_cfg() -> NetConfig {
        NetConfig::qpip(16 * 1024)
    }

    #[test]
    fn three_way_handshake_establishes_both_ends() {
        let p = Pair::established(qpip_cfg());
        assert_eq!(p.client.state(), TcpState::Established);
        assert_eq!(p.server.state(), TcpState::Established);
    }

    #[test]
    fn syn_carries_mss_wscale_and_timestamps() {
        let cfg = qpip_cfg();
        let (_, syns) = connect(&cfg, ep(1), ep(2), SeqNum(0), SimTime::ZERO);
        let o: TcpOptions = syns[0].options;
        assert_eq!(o.mss, Some(cfg.max_tcp_payload() as u16));
        assert!(o.window_scale.is_some());
        assert!(o.timestamps.is_some());
        assert_eq!(syns[0].kind, PacketKind::TcpControl);
    }

    #[test]
    fn message_send_delivers_one_event_per_message_and_completes() {
        let mut p = Pair::established(qpip_cfg());
        let cfg = p.cfg.clone();
        let segs = p.client.send_msg(&cfg, vec![7u8; 4096], SendToken(42), p.now);
        assert_eq!(segs.len(), 1, "one message, one segment");
        assert_eq!(segs[0].payload.len(), 4096);
        let (acks, evs) = Pair::deliver(&cfg, 1, 2, &mut p.server, &segs, p.now);
        assert!(matches!(&evs[..], [TcbEvent::Delivered(d)] if d.len() == 4096));
        assert_eq!(acks.len(), 1, "immediate ack policy");
        assert_eq!(acks[0].kind, PacketKind::TcpAck);
        let (_, evs) = Pair::deliver(&cfg, 2, 1, &mut p.client, &acks, p.now);
        assert_eq!(evs, vec![TcbEvent::SendComplete(SendToken(42))]);
        assert_eq!(p.client.bytes_in_flight(), 0);
    }

    #[test]
    fn multiple_messages_preserve_boundaries() {
        let mut p = Pair::established(qpip_cfg());
        let cfg = p.cfg.clone();
        let mut segs = p.client.send_msg(&cfg, vec![1u8; 100], SendToken(1), p.now);
        segs.extend(p.client.send_msg(&cfg, vec![2u8; 200], SendToken(2), p.now));
        let (_, evs) = Pair::deliver(&cfg, 1, 2, &mut p.server, &segs, p.now);
        let sizes: Vec<usize> = evs
            .iter()
            .filter_map(|e| match e {
                TcbEvent::Delivered(d) => Some(d.len()),
                _ => None,
            })
            .collect();
        assert_eq!(sizes, vec![100, 200]);
    }

    #[test]
    fn stream_mode_segments_large_writes_at_mss() {
        let mut cfg = NetConfig::host(1500);
        cfg.recv_buffer = 1 << 20;
        let mut p = Pair::established(cfg.clone());
        let mss = cfg.max_tcp_payload();
        let segs = p.client.send_msg(&cfg, vec![0u8; 4 * mss], SendToken(1), p.now);
        assert!(segs.len() >= 2, "initial cwnd limits the burst");
        assert!(segs.iter().all(|s| s.payload.len() <= mss));
    }

    #[test]
    fn slow_start_opens_window_as_acks_arrive() {
        let mut cfg = NetConfig::host(1500);
        cfg.recv_buffer = 1 << 20;
        let mut p = Pair::established(cfg.clone());
        let mss = cfg.max_tcp_payload();
        let total = 64 * mss;
        let mut segs = p.client.send_msg(&cfg, vec![0u8; total], SendToken(1), p.now);
        let mut delivered = 0usize;
        let mut rounds = 0;
        while delivered < total && rounds < 100 {
            rounds += 1;
            p.tick(SimDuration::from_micros(100));
            let (acks, evs) = Pair::deliver(&cfg, 1, 2, &mut p.server, &segs, p.now);
            delivered += evs
                .iter()
                .map(|e| match e {
                    TcbEvent::Delivered(d) => d.len(),
                    _ => 0,
                })
                .sum::<usize>();
            p.tick(SimDuration::from_micros(100));
            let (next, _) = Pair::deliver(&cfg, 2, 1, &mut p.client, &acks, p.now);
            segs = next;
        }
        assert_eq!(delivered, total, "after {rounds} rounds");
        assert!(rounds < 30, "slow start should open quickly, took {rounds}");
    }

    #[test]
    fn out_of_order_segment_is_dropped_and_reacked() {
        let mut p = Pair::established(qpip_cfg());
        let cfg = p.cfg.clone();
        let mut segs = p.client.send_msg(&cfg, vec![1u8; 100], SendToken(1), p.now);
        segs.extend(p.client.send_msg(&cfg, vec![2u8; 100], SendToken(2), p.now));
        // deliver only the second segment: out of order
        let (acks, evs) = Pair::deliver(&cfg, 1, 2, &mut p.server, &segs[1..], p.now);
        assert!(evs.is_empty(), "no delivery without reassembly (§4.1)");
        assert_eq!(p.server.counters().ooo_drops, 1);
        assert_eq!(acks.len(), 1, "duplicate ack");
        // now the first arrives; only its bytes are delivered
        let (_, evs) = Pair::deliver(&cfg, 1, 2, &mut p.server, &segs[..1], p.now);
        assert!(matches!(&evs[..], [TcbEvent::Delivered(d)] if d.len() == 100));
    }

    #[test]
    fn rto_retransmits_lost_segment_and_recovers() {
        let mut p = Pair::established(qpip_cfg());
        let cfg = p.cfg.clone();
        let segs = p.client.send_msg(&cfg, vec![9u8; 256], SendToken(5), p.now);
        assert_eq!(segs.len(), 1);
        // segment lost: fire the retransmission timer
        let deadline = p.client.next_deadline().expect("rto armed");
        p.now = deadline;
        let (rexmit, evs) = p.client.timer(&cfg, p.now);
        assert!(evs.is_empty());
        assert_eq!(rexmit.len(), 1);
        assert!(rexmit[0].is_retransmit);
        assert_eq!(rexmit[0].payload, segs[0].payload);
        assert_eq!(p.client.retransmit_count(), 1);
        // retransmission arrives and completes the exchange
        let (acks, evs) = Pair::deliver(&cfg, 1, 2, &mut p.server, &rexmit, p.now);
        assert!(matches!(&evs[..], [TcbEvent::Delivered(_)]));
        let (_, evs) = Pair::deliver(&cfg, 2, 1, &mut p.client, &acks, p.now);
        assert_eq!(evs, vec![TcbEvent::SendComplete(SendToken(5))]);
    }

    #[test]
    fn triple_dup_acks_trigger_fast_retransmit() {
        let mut cfg = NetConfig::host(1500);
        cfg.recv_buffer = 1 << 20;
        cfg.initial_cwnd_segments = 16;
        let mut p = Pair::established(cfg.clone());
        let mss = cfg.max_tcp_payload();
        let segs = p.client.send_msg(&cfg, vec![0u8; 8 * mss], SendToken(1), p.now);
        assert!(segs.len() >= 5, "{}", segs.len());
        // first segment lost; deliver the rest -> server emits dup ACKs
        let (dup_acks, evs) = Pair::deliver(&cfg, 1, 2, &mut p.server, &segs[1..], p.now);
        assert!(evs.is_empty());
        assert!(dup_acks.len() >= 3);
        // feed dup ACKs back: the third triggers fast retransmit
        let (out, _) = Pair::deliver(&cfg, 2, 1, &mut p.client, &dup_acks, p.now);
        let rexmit: Vec<_> = out.iter().filter(|s| s.is_retransmit).collect();
        assert_eq!(rexmit.len(), 1);
        assert_eq!(rexmit[0].seq, segs[0].seq);
    }

    #[test]
    fn graceful_close_walks_fin_states_both_ways() {
        let mut p = Pair::established(qpip_cfg());
        let cfg = p.cfg.clone();
        let fins = p.client.close_conn(&cfg, p.now);
        assert_eq!(fins.len(), 1);
        assert_eq!(p.client.state(), TcpState::FinWait1);
        let (acks, evs) = Pair::deliver(&cfg, 1, 2, &mut p.server, &fins, p.now);
        assert!(evs.contains(&TcbEvent::PeerClosed));
        assert_eq!(p.server.state(), TcpState::CloseWait);
        let (_, _) = Pair::deliver(&cfg, 2, 1, &mut p.client, &acks, p.now);
        assert_eq!(p.client.state(), TcpState::FinWait2);
        // server closes its half
        let fins2 = p.server.close_conn(&cfg, p.now);
        assert_eq!(p.server.state(), TcpState::LastAck);
        let (acks2, evs) = Pair::deliver(&cfg, 2, 1, &mut p.client, &fins2, p.now);
        assert!(evs.contains(&TcbEvent::PeerClosed));
        assert_eq!(p.client.state(), TcpState::TimeWait);
        let (_, evs) = Pair::deliver(&cfg, 1, 2, &mut p.server, &acks2, p.now);
        assert!(evs.contains(&TcbEvent::Closed));
        assert_eq!(p.server.state(), TcpState::Closed);
        // client reaps after TIME-WAIT
        let dl = p.client.next_deadline().unwrap();
        p.now = dl;
        let (_, evs) = p.client.timer(&cfg, p.now);
        assert!(evs.contains(&TcbEvent::Closed));
        assert_eq!(p.client.state(), TcpState::Closed);
    }

    #[test]
    fn close_flushes_pending_data_before_fin() {
        let mut p = Pair::established(qpip_cfg());
        let cfg = p.cfg.clone();
        let mut segs = p.client.send_msg(&cfg, vec![3u8; 64], SendToken(1), p.now);
        segs.extend(p.client.close_conn(&cfg, p.now));
        // data segment then FIN
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].kind, PacketKind::TcpData);
        assert!(segs[1].flags.fin);
        assert_eq!(segs[1].seq, segs[0].seq + 64);
    }

    #[test]
    fn reset_tears_down_immediately() {
        let mut p = Pair::established(qpip_cfg());
        let cfg = p.cfg.clone();
        let rst = p.client.abort();
        let rst = Wire::of(&p.client, rst);
        assert!(rst.flags.rst);
        assert_eq!(p.client.state(), TcpState::Closed);
        let (out, evs) = Pair::deliver(&cfg, 1, 2, &mut p.server, &[rst], p.now);
        assert!(out.is_empty());
        assert_eq!(evs, vec![TcbEvent::Reset]);
        assert_eq!(p.server.state(), TcpState::Closed);
    }

    #[test]
    fn receiver_window_blocks_whole_messages_until_space_posted() {
        let mut cfg = qpip_cfg();
        cfg.recv_buffer = 512; // tiny posted space
        let mut p = Pair::established(cfg.clone());
        // 1 KB message cannot be sent into a 512-byte window in message mode
        let segs = p.client.send_msg(&cfg, vec![0u8; 1024], SendToken(1), p.now);
        assert!(segs.is_empty(), "blocked by peer window");
        // peer posts more receive space and window-updates via an ACK
        p.server.set_recv_space(4096);
        let upd = {
            // server sends a window-update ack by timer path: emulate by
            // having the server deliver a pure ack through make-shift: a
            // zero-data ACK from its current state.
            let (acks, _) = p.server.timer(&cfg, p.now);
            if acks.is_empty() {
                // no delack pending: craft the update by sending data
                // ack from server side instead
                p.server.send_msg(&cfg, vec![1u8; 1], SendToken(99), p.now)
            } else {
                acks
            }
        };
        let (out, _) = Pair::deliver(&cfg, 2, 1, &mut p.client, &upd, p.now);
        let data: Vec<_> = out.iter().filter(|s| !s.payload.is_empty()).collect();
        assert_eq!(data.len(), 1, "window update unblocked the message");
        assert_eq!(data[0].payload.len(), 1024);
    }

    #[test]
    fn rtt_estimator_converges_via_timestamps() {
        let mut p = Pair::established(qpip_cfg());
        let cfg = p.cfg.clone();
        for i in 0..20u64 {
            let segs = p.client.send_msg(&cfg, vec![0u8; 64], SendToken(i), p.now);
            p.tick(SimDuration::from_micros(50));
            let (acks, _) = Pair::deliver(&cfg, 1, 2, &mut p.server, &segs, p.now);
            p.tick(SimDuration::from_micros(50));
            let (_, evs) = Pair::deliver(&cfg, 2, 1, &mut p.client, &acks, p.now);
            assert!(evs.iter().any(|e| matches!(e, TcbEvent::SendComplete(_))));
        }
        let srtt = p.client.srtt().expect("sampled").as_micros_f64();
        assert!((50.0..200.0).contains(&srtt), "srtt {srtt}");
    }

    #[test]
    fn retry_exhaustion_resets_connection() {
        let mut p = Pair::established(qpip_cfg());
        let cfg = p.cfg.clone();
        p.client.send_msg(&cfg, vec![0u8; 10], SendToken(1), p.now);
        let mut evs_all = Vec::new();
        for _ in 0..40 {
            let Some(dl) = p.client.next_deadline() else { break };
            p.now = dl;
            let (_, evs) = p.client.timer(&cfg, p.now);
            evs_all.extend(evs);
        }
        assert!(evs_all.contains(&TcbEvent::Reset), "gives up eventually");
        assert_eq!(p.client.state(), TcpState::Closed);
    }

    #[test]
    fn delayed_ack_policy_acks_every_other_segment() {
        let mut cfg = NetConfig::host(9000);
        cfg.initial_cwnd_segments = 8;
        let mut p = Pair::established(cfg.clone());
        let mss = cfg.max_tcp_payload();
        let segs = p.client.send_msg(&cfg, vec![0u8; 4 * mss], SendToken(1), p.now);
        assert_eq!(segs.len(), 4);
        let (acks, _) = Pair::deliver(&cfg, 1, 2, &mut p.server, &segs, p.now);
        assert_eq!(acks.len(), 2, "one ack per two segments");
        // an odd tail is acked by the delayed-ack timer
        let segs = p.client.send_msg(&cfg, vec![0u8; mss], SendToken(2), p.now);
        let (acks, _) = Pair::deliver(&cfg, 1, 2, &mut p.server, &segs, p.now);
        assert!(acks.is_empty());
        let dl = p.server.next_deadline().expect("delack timer");
        p.now = dl;
        let (acks, _) = p.server.timer(&cfg, p.now);
        assert_eq!(acks.len(), 1);
    }

    /// A transfer whose sequence numbers cross the 32-bit wrap: every
    /// comparison in the TCB must be modular.
    #[test]
    fn sequence_space_wraparound_mid_transfer() {
        let cfg = qpip_cfg();
        let now = SimTime::ZERO;
        // ISS close to the top of the sequence space
        let (mut client, syns) = connect(&cfg, ep(1), ep(2), SeqNum(u32::MAX - 2000), now);
        let syn_hdr = to_header(&syns[0], 1, 2);
        let (mut server, synacks) =
            accept(&cfg, ep(2), ep(1), &syn_hdr, SeqNum(u32::MAX - 5000), now);
        let (acks, _) = client.seg_in(&cfg, &to_header(&synacks[0], 2, 1), &[], now);
        server.seg_in(&cfg, &to_header(&acks[0], 1, 2), &[], now);
        assert_eq!(client.state(), TcpState::Established);

        // ten 1 KB messages walk the window across the wrap point
        let mut delivered = 0usize;
        for i in 0..10u64 {
            let segs = client.send_msg(&cfg, vec![i as u8; 1000], SendToken(i), now);
            assert_eq!(segs.len(), 1, "a message is one segment");
            let (acks, evs) = Pair::deliver(&cfg, 1, 2, &mut server, &segs, now);
            for e in &evs {
                if let TcbEvent::Delivered(d) = e {
                    let d = &segs[0].payload[d.clone()];
                    assert_eq!(d.len(), 1000);
                    assert!(d.iter().all(|&b| b == i as u8));
                    delivered += d.len();
                }
            }
            Pair::deliver(&cfg, 2, 1, &mut client, &acks, now);
        }
        assert_eq!(delivered, 10_000);
        assert_eq!(client.bytes_in_flight(), 0, "all acked across the wrap");
    }

    /// Simultaneous close: both FINs cross on the wire; both ends pass
    /// through CLOSING and reach TIME-WAIT/CLOSED.
    #[test]
    fn simultaneous_close_crosses_fins() {
        let mut p = Pair::established(qpip_cfg());
        let cfg = p.cfg.clone();
        let fin_c = p.client.close_conn(&cfg, p.now);
        let fin_s = p.server.close_conn(&cfg, p.now);
        assert_eq!(p.client.state(), TcpState::FinWait1);
        assert_eq!(p.server.state(), TcpState::FinWait1);
        // FINs cross
        let (acks_c, evs) = Pair::deliver(&cfg, 2, 1, &mut p.client, &fin_s, p.now);
        assert!(evs.contains(&TcbEvent::PeerClosed));
        assert_eq!(p.client.state(), TcpState::Closing);
        let (acks_s, evs) = Pair::deliver(&cfg, 1, 2, &mut p.server, &fin_c, p.now);
        assert!(evs.contains(&TcbEvent::PeerClosed));
        assert_eq!(p.server.state(), TcpState::Closing);
        // each side's ACK of the other's FIN finishes the close
        Pair::deliver(&cfg, 2, 1, &mut p.client, &acks_s, p.now);
        Pair::deliver(&cfg, 1, 2, &mut p.server, &acks_c, p.now);
        assert_eq!(p.client.state(), TcpState::TimeWait);
        assert_eq!(p.server.state(), TcpState::TimeWait);
        // both reap after 2×MSL
        for tcb in [&mut p.client, &mut p.server] {
            let dl = tcb.next_deadline().unwrap();
            let (_, evs) = tcb.timer(&cfg, dl);
            assert!(evs.contains(&TcbEvent::Closed));
        }
    }

    /// ECN negotiation: offered on the SYN with ECE+CWR, confirmed on
    /// the SYN-ACK with ECE (RFC 3168), only when both ends enable it.
    #[test]
    fn ecn_negotiates_only_when_both_sides_enable() {
        let mut on = qpip_cfg();
        on.ecn = true;
        let (_, syns) = connect(&on, ep(1), ep(2), SeqNum(0), SimTime::ZERO);
        assert!(syns[0].flags.ece && syns[0].flags.cwr, "SYN offers ECN");

        // peer without ECN: SYN-ACK must not confirm
        let off = qpip_cfg();
        let syn_hdr = to_header(&syns[0], 1, 2);
        let (srv, synacks) = accept(&off, ep(2), ep(1), &syn_hdr, SeqNum(100), SimTime::ZERO);
        assert!(!synacks[0].flags.ece);
        assert!(!srv.ecn_negotiated());

        // peer with ECN: confirmed both ends
        let (srv, synacks) = accept(&on, ep(2), ep(1), &syn_hdr, SeqNum(100), SimTime::ZERO);
        assert!(synacks[0].flags.ece && !synacks[0].flags.cwr);
        assert!(srv.ecn_negotiated());
        let (mut client, _) = connect(&on, ep(1), ep(2), SeqNum(0), SimTime::ZERO);
        client.seg_in(&on, &to_header(&synacks[0], 2, 1), &[], SimTime::ZERO);
        assert!(client.ecn_negotiated());
    }

    /// The full CE → ECE → window-reduction → CWR cycle, with at most
    /// one reduction per window of data.
    #[test]
    fn ecn_ce_mark_halves_window_once_and_cwr_stops_echo() {
        let mut cfg = qpip_cfg();
        cfg.ecn = true;
        cfg.initial_cwnd_segments = 8;
        let mut p = Pair::established(cfg.clone());
        assert!(p.client.ecn_negotiated() && p.server.ecn_negotiated());
        let cwnd_before = p.client.cwnd();

        // client sends a marked data segment (the fabric set CE)
        let segs = p.client.send_msg(&cfg, vec![1; 500], SendToken(1), p.now);
        assert!(segs[0].ect, "negotiated data segments are ECT");
        let hdr = to_header(&segs[0], 1, 2);
        let (acks, _) = p.server.seg_in_marked(&cfg, &hdr, &segs[0].payload, true, p.now);
        // delayed-ack policy may withhold: force with a second segment
        let acks = if acks.is_empty() {
            let segs2 = p.client.send_msg(&cfg, vec![2; 500], SendToken(2), p.now);
            let hdr2 = to_header(&segs2[0], 1, 2);
            let (a, _) = p.server.seg_in_marked(&cfg, &hdr2, &segs2[0].payload, false, p.now);
            a
        } else {
            acks
        };
        assert!(acks[0].flags.ece, "receiver echoes ECE");

        // sender reacts exactly once and schedules CWR
        let (out, _) = Pair::deliver(&cfg, 2, 1, &mut p.client, &acks, p.now);
        assert_eq!(p.client.counters().ecn_reductions, 1);
        assert!(p.client.cwnd() < cwnd_before, "window reduced");
        // next data segment announces CWR
        let segs3 = p.client.send_msg(&cfg, vec![3; 500], SendToken(3), p.now);
        let all: Vec<&Wire> =
            out.iter().chain(segs3.iter()).filter(|s| !s.payload.is_empty()).collect();
        assert!(all.iter().any(|s| s.flags.cwr), "CWR announced");
        // CWR clears the receiver's echo
        let cwr_seg = all.iter().find(|s| s.flags.cwr).unwrap();
        let hdr = to_header(cwr_seg, 1, 2);
        p.server.seg_in_marked(&cfg, &hdr, &cwr_seg.payload, false, p.now);
        let segs4 = p.client.send_msg(&cfg, vec![4; 500], SendToken(4), p.now);
        let hdr4 = to_header(&segs4[0], 1, 2);
        let (acks, _) = p.server.seg_in_marked(&cfg, &hdr4, &segs4[0].payload, false, p.now);
        if let Some(a) = acks.first() {
            assert!(!a.flags.ece, "echo stopped after CWR");
        }
    }

    /// Without negotiation, CE marks are ignored entirely.
    #[test]
    fn ce_marks_ignored_without_negotiation() {
        let mut p = Pair::established(qpip_cfg());
        let cfg = p.cfg.clone();
        let segs = p.client.send_msg(&cfg, vec![1; 100], SendToken(1), p.now);
        assert!(!segs[0].ect);
        let hdr = to_header(&segs[0], 1, 2);
        let (acks, _) = p.server.seg_in_marked(&cfg, &hdr, &segs[0].payload, true, p.now);
        assert!(acks.iter().all(|a| !a.flags.ece));
        Pair::deliver(&cfg, 2, 1, &mut p.client, &acks, p.now);
        assert_eq!(p.client.counters().ecn_reductions, 0);
    }

    /// After our FIN is sent, late-arriving data from the peer is still
    /// delivered (half-close: FIN only closes our direction).
    #[test]
    fn half_close_still_receives_peer_data() {
        let mut p = Pair::established(qpip_cfg());
        let cfg = p.cfg.clone();
        let fins = p.client.close_conn(&cfg, p.now);
        Pair::deliver(&cfg, 1, 2, &mut p.server, &fins, p.now);
        // the server (CLOSE-WAIT) keeps sending
        let segs = p.server.send_msg(&cfg, vec![5; 300], SendToken(9), p.now);
        let (_, evs) = Pair::deliver(&cfg, 2, 1, &mut p.client, &segs, p.now);
        assert!(
            evs.iter().any(|e| matches!(e, TcbEvent::Delivered(d) if d.len() == 300)),
            "{evs:?}"
        );
    }
}
