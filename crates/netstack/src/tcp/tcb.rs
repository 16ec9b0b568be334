//! The TCP transmission control block and its state machine.
//!
//! This is the protocol engine that the QPIP firmware embeds in its QP
//! state table (Figure 1: "A common data structure … includes the
//! inter-network protocol specific information, namely the TCP
//! transmission control block"). It implements the prototype's subset
//! (§4.1): RFC 793 connection management, RTT estimation, window
//! management, congestion and flow control, RFC 1323 timestamps and
//! window scaling, and header prediction. Out-of-order reassembly and
//! urgent data are intentionally absent, as in the paper: out-of-order
//! segments are dropped and re-acknowledged.
//!
//! Zero-window probing (RFC 1122 §4.2.2.17) is the retransmission
//! timer in a second role, as in 4.4BSD: the two are mutually
//! exclusive, so one deadline, one retry count and one backoff serve
//! both. The timer is a *persist* timer while unsent data waits on a
//! window that cannot take it and nothing is outstanding; its expiry
//! sends a one-byte probe at SND.UNA−1, which the receiver discards as
//! a duplicate and answers with its current window.

use std::ops::Range;

use qpip_sim::time::{SimDuration, SimTime};
use qpip_wire::tcp::{SeqNum, TcpFlags, TcpHeader, TcpOptions};

use super::congestion::Congestion;
use super::rtt::RttEstimator;
use super::sendbuf::{SegmentData, SendBuffer};
use crate::types::{Endpoint, NetConfig, OpCounters, PacketKind, SegmentationPolicy, SendToken};

/// Connection states (RFC 793; LISTEN lives in the engine's listener
/// table, not in a TCB).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpState {
    /// Active open sent a SYN.
    SynSent,
    /// Passive open sent a SYN-ACK.
    SynRcvd,
    /// Data transfer.
    Established,
    /// We closed first; FIN sent, awaiting its ACK.
    FinWait1,
    /// Our FIN is acknowledged; awaiting the peer's FIN.
    FinWait2,
    /// Both sides closed simultaneously.
    Closing,
    /// Final 2×MSL quarantine.
    TimeWait,
    /// Peer closed first; we may still send.
    CloseWait,
    /// Peer closed, then we closed; awaiting ACK of our FIN.
    LastAck,
    /// Fully closed; the TCB can be reaped.
    Closed,
}

/// Time spent in TIME-WAIT (2 × MSL; scaled for the SAN environment).
const TIME_WAIT_DURATION: SimDuration = SimDuration::from_millis(50);

/// Give up after this many consecutive retransmissions of one segment,
/// or zero-window probes without SND.UNA advancing. RFC 6429 leaves
/// aborting a connection stuck in persist to local policy; the subset's
/// policy is to treat a window that stays closed through every probe
/// like an unanswered retransmission and reset.
const MAX_RETRIES: u32 = 15;

/// A protocol event surfaced to the engine.
#[derive(Debug, PartialEq, Eq)]
pub enum TcbEvent {
    /// Handshake completed; the connection is usable.
    Established,
    /// In-order payload (one event per segment in message mode): the
    /// bytes at this range of the segment payload handed to the call
    /// that returned the event. A retransmission that overlaps data
    /// already delivered yields only its new suffix. The TCB copies
    /// nothing; the engine points its caller at the bytes.
    Delivered(Range<usize>),
    /// A send unit is fully acknowledged.
    SendComplete(SendToken),
    /// The peer's FIN arrived in order.
    PeerClosed,
    /// The connection reached CLOSED gracefully.
    Closed,
    /// The connection was reset (by the peer or by retry exhaustion,
    /// zero-window probes included).
    Reset,
}

/// An RTO episode: open from the first RTO retransmission since
/// SND.UNA last advanced until it advances again.
#[derive(Debug, Clone, Copy)]
struct RtoEpisode {
    /// The first retransmission's TSval (RFC 3522's RetransmitTS), when
    /// it carried one; the ACK that ends the episode is judged by it.
    retransmit_ts: Option<u32>,
    /// RFC 4015's `pipe_prev`, saved before the first timeout collapsed
    /// the window; never 0 for a data episode, which has data in
    /// flight. 0 for SYN, SYN-ACK and FIN episodes: the response to a
    /// spurious timeout covers data only.
    pipe_prev: u64,
    /// A duplicate ACK arrived since SND.UNA last advanced, before the
    /// first timeout or during the episode. The peer discards every
    /// segment past a hole and answers each with one, so data beyond
    /// SND.UNA was thrown away and go-back-N must resend it.
    dupack_seen: bool,
}

/// What follows an outgoing segment's header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegPayload {
    /// Nothing: SYN, pure ACK, FIN, RST.
    Empty,
    /// This many bytes of the send buffer from the segment's `seq` on.
    /// They stay buffered until the segment is encoded
    /// ([`Tcb::read_payload`]).
    Buffered(u32),
    /// A zero-window probe's one byte at SND.UNA − 1. That byte is
    /// already acknowledged and gone from the buffer, and the receiver
    /// discards it as a duplicate, so it is sent as 0.
    ProbeByte,
}

impl SegPayload {
    /// Payload length in bytes.
    pub fn len(self) -> usize {
        match self {
            SegPayload::Empty => 0,
            SegPayload::Buffered(n) => n as usize,
            SegPayload::ProbeByte => 1,
        }
    }

    /// `true` for a segment without payload.
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }
}

/// An outgoing segment described abstractly; the engine encodes it into
/// wire bytes (it knows the IP addresses and computes checksums). A data
/// segment names its payload by length, not by an owned copy: the
/// engine reads the bytes from the send buffer into the packet, so
/// segments must be encoded before the TCB's next call (which may
/// release acknowledged data).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentOut {
    /// Sequence number.
    pub seq: SeqNum,
    /// Acknowledgment number.
    pub ack: SeqNum,
    /// Flags.
    pub flags: TcpFlags,
    /// Window field (already scaled down for the wire).
    pub window: u16,
    /// Options to carry.
    pub options: TcpOptions,
    /// Payload.
    pub payload: SegPayload,
    /// Cost-model classification.
    pub kind: PacketKind,
    /// True when this transmission is a retransmission.
    pub is_retransmit: bool,
    /// Mark the IP packet ECN-capable (data segments on negotiated-ECN
    /// connections, RFC 3168).
    pub ect: bool,
}

/// The transmission control block for one connection.
#[derive(Debug)]
pub struct Tcb {
    state: TcpState,
    local: Endpoint,
    remote: Endpoint,

    // --- send side ---
    iss: SeqNum,
    sendbuf: SendBuffer,
    /// Peer receive window in bytes (already scaled).
    snd_wnd: u64,
    /// Segment/ack that last updated `snd_wnd` (RFC 793 WL1/WL2).
    snd_wl1: SeqNum,
    snd_wl2: SeqNum,
    /// Shift the peer asked us to apply to its window field.
    snd_wscale: u8,
    /// Peer's MSS from its SYN.
    peer_mss: usize,
    congestion: Congestion,
    rtt: RttEstimator,
    /// FIN requested by the application.
    fin_queued: bool,
    /// FIN transmitted (consumes sequence number `sendbuf.end()`).
    fin_sent: bool,
    /// Our FIN's sequence number, once sent.
    fin_seq: SeqNum,
    /// The peer acknowledged our FIN. Latched here because `sendbuf`'s
    /// `una` only covers buffered data and can never advance over the
    /// FIN's sequence slot.
    fin_is_acked: bool,
    retries: u32,
    /// Untimed-segment RTT sampling (when timestamps are off).
    timed_seq: Option<(SeqNum, SimTime)>,

    // --- receive side ---
    irs: SeqNum,
    rcv_nxt: SeqNum,
    /// Receive buffer space backing the advertised window. For QPIP this
    /// is the total posted receive-WR space (§5.1: "the more receive
    /// buffer space posted, the larger the TCP receive window").
    rcv_space: u64,
    /// Shift we apply to the window field we advertise.
    rcv_wscale: u8,
    /// Window scaling negotiated on the SYN exchange (both sides
    /// offered it); gates the option on our SYN-ACK.
    ws_negotiated: bool,
    /// Peer FIN consumed (sequence-wise).
    peer_fin_rcvd: bool,

    // --- ECN (RFC 3168, §5.2's "network-based mechanisms") ---
    /// Negotiated on the SYN exchange.
    ecn_on: bool,
    /// CE was seen; echo ECE on outgoing ACKs until the peer sets CWR.
    ece_pending: bool,
    /// Announce CWR on the next data segment.
    cwr_due: bool,
    /// React to ECE at most once per window: ACKs at or below this
    /// marker belong to the already-reduced window.
    ecn_reduced_at: SeqNum,
    /// Window reductions performed in response to ECN-Echo.
    ecn_reductions: u64,

    // --- RFC 1323 ---
    ts_on: bool,
    ts_recent: u32,
    /// RCV.NXT as last acknowledged on the wire (RFC 7323's
    /// Last.ACK.sent), which gates `ts_recent` updates.
    last_ack_sent: SeqNum,
    /// The open RTO episode, awaiting the ACK that tells whether the
    /// timeout was spurious.
    rto_episode: Option<RtoEpisode>,
    /// Segments received since the last ACK we sent (delayed ACK).
    segs_unacked: u32,

    // --- timers ---
    rto_deadline: Option<SimTime>,
    delack_deadline: Option<SimTime>,
    timewait_deadline: Option<SimTime>,

    // --- counters ---
    retransmit_count: u64,
    ooo_drops: u64,
    rto_retransmits: u64,
    fast_retransmits: u64,
    dupacks_rx: u64,
    zero_window_events: u64,
    persist_probes: u64,
    spurious_rtos: u64,
    rto_episodes: u64,
    gobackn_resends: u64,
}

impl Tcb {
    /// Starts an active open: returns the TCB in SYN-SENT and appends
    /// the SYN to `out`.
    pub fn connect(
        cfg: &NetConfig,
        local: Endpoint,
        remote: Endpoint,
        iss: SeqNum,
        now: SimTime,
        out: &mut Vec<SegmentOut>,
    ) -> Tcb {
        let mut tcb = Tcb::new_common(cfg, local, remote, iss);
        tcb.state = TcpState::SynSent;
        out.push(tcb.make_syn(cfg, now, false));
        tcb.arm_rto(now);
        tcb
    }

    /// Starts a passive open from a received SYN: returns the TCB in
    /// SYN-RCVD and appends the SYN-ACK to `out`.
    pub fn accept(
        cfg: &NetConfig,
        local: Endpoint,
        remote: Endpoint,
        syn: &TcpHeader,
        iss: SeqNum,
        now: SimTime,
        out: &mut Vec<SegmentOut>,
    ) -> Tcb {
        let mut tcb = Tcb::new_common(cfg, local, remote, iss);
        tcb.state = TcpState::SynRcvd;
        tcb.irs = syn.seq;
        tcb.rcv_nxt = syn.seq + 1;
        tcb.absorb_syn_options(syn);
        // ECN negotiation (RFC 3168): the SYN offers with ECE+CWR
        tcb.ecn_on = cfg.ecn && syn.flags.ece && syn.flags.cwr;
        out.push(tcb.make_syn(cfg, now, true));
        tcb.arm_rto(now);
        tcb
    }

    fn new_common(cfg: &NetConfig, local: Endpoint, remote: Endpoint, iss: SeqNum) -> Tcb {
        let rcv_space = cfg.recv_buffer as u64;
        let rcv_wscale = wscale_for(rcv_space);
        Tcb {
            state: TcpState::Closed,
            local,
            remote,
            iss,
            sendbuf: SendBuffer::new(cfg.segmentation, iss + 1),
            snd_wnd: 0,
            snd_wl1: SeqNum(0),
            snd_wl2: SeqNum(0),
            snd_wscale: 0,
            peer_mss: 536,
            congestion: Congestion::new(cfg.max_tcp_payload(), cfg.initial_cwnd_segments),
            rtt: RttEstimator::new(cfg.min_rto),
            fin_queued: false,
            fin_sent: false,
            fin_seq: SeqNum(0),
            fin_is_acked: false,
            retries: 0,
            timed_seq: None,
            irs: SeqNum(0),
            rcv_nxt: SeqNum(0),
            rcv_space,
            rcv_wscale,
            ws_negotiated: false,
            peer_fin_rcvd: false,
            ecn_on: false,
            ece_pending: false,
            cwr_due: false,
            ecn_reduced_at: iss,
            ecn_reductions: 0,
            ts_on: false,
            ts_recent: 0,
            last_ack_sent: SeqNum(0),
            rto_episode: None,
            segs_unacked: 0,
            rto_deadline: None,
            delack_deadline: None,
            timewait_deadline: None,
            retransmit_count: 0,
            ooo_drops: 0,
            rto_retransmits: 0,
            fast_retransmits: 0,
            dupacks_rx: 0,
            zero_window_events: 0,
            persist_probes: 0,
            spurious_rtos: 0,
            rto_episodes: 0,
            gobackn_resends: 0,
        }
    }

    // ----- accessors -------------------------------------------------

    /// Current state.
    pub fn state(&self) -> TcpState {
        self.state
    }

    /// Local endpoint.
    pub fn local(&self) -> Endpoint {
        self.local
    }

    /// Remote endpoint.
    pub fn remote(&self) -> Endpoint {
        self.remote
    }

    /// Bytes in flight (sent, unacknowledged).
    pub fn bytes_in_flight(&self) -> u64 {
        self.sendbuf.bytes_in_flight()
    }

    /// Bytes buffered for sending (in flight + unsent).
    pub fn bytes_buffered(&self) -> u64 {
        self.sendbuf.bytes_buffered()
    }

    /// Total retransmissions performed.
    pub fn retransmit_count(&self) -> u64 {
        self.retransmit_count
    }

    /// Out-of-order segments dropped (no reassembly in the subset).
    pub fn ooo_drops(&self) -> u64 {
        self.ooo_drops
    }

    /// Retransmissions triggered by RTO expiry (including SYN/SYN-ACK
    /// and FIN retransmissions). `rto_retransmits + fast_retransmits ==
    /// retransmit_count` by construction.
    pub fn rto_retransmits(&self) -> u64 {
        self.rto_retransmits
    }

    /// Retransmissions triggered by the third duplicate ACK.
    pub fn fast_retransmits(&self) -> u64 {
        self.fast_retransmits
    }

    /// Duplicate ACKs received (same ack, data in flight, no payload).
    pub fn dupacks_rx(&self) -> u64 {
        self.dupacks_rx
    }

    /// Transitions of the peer's advertised window into zero.
    pub fn zero_window_events(&self) -> u64 {
        self.zero_window_events
    }

    /// Zero-window probes sent by the persist timer (never counted as
    /// retransmissions).
    pub fn persist_probes(&self) -> u64 {
        self.persist_probes
    }

    /// RTO episodes found spurious by Eifel detection (RFC 3522): the
    /// first ACK to advance SND.UNA afterwards echoed a timestamp older
    /// than the retransmission, so the original got through. A data
    /// episode's timeout is then undone (RFC 4015).
    pub fn spurious_rtos(&self) -> u64 {
        self.spurious_rtos
    }

    /// RTO episodes: first RTO retransmissions since SND.UNA last
    /// advanced, with or without timestamps. `spurious_rtos` counts a
    /// subset of them; the backed-off retries inside an episode count
    /// only as `rto_retransmits`.
    pub fn rto_episodes(&self) -> u64 {
        self.rto_episodes
    }

    /// Segments `try_output` sent below SND.MAX: go-back-N resends of
    /// data a timeout rewound over. Not counted as retransmissions
    /// (only the timer's first resend is), and never marked so on the
    /// wire.
    pub fn gobackn_resends(&self) -> u64 {
        self.gobackn_resends
    }

    /// Consecutive duplicate ACKs currently counted by the congestion
    /// controller.
    pub fn dup_acks(&self) -> u32 {
        self.congestion.dup_acks()
    }

    /// Current slow-start threshold in bytes.
    pub fn ssthresh(&self) -> u64 {
        self.congestion.ssthresh()
    }

    /// RTT samples folded into the estimator.
    pub fn rtt_samples(&self) -> u64 {
        self.rtt.samples()
    }

    /// The most recent raw RTT sample, if any.
    pub fn last_rtt_sample(&self) -> Option<SimDuration> {
        self.rtt.last_sample()
    }

    /// Current retransmission timeout.
    pub fn rto(&self) -> SimDuration {
        self.rtt.rto()
    }

    /// Oldest unacknowledged sequence number.
    pub fn snd_una(&self) -> SeqNum {
        self.sendbuf.una()
    }

    /// Whether ECN was negotiated on the handshake.
    pub fn ecn_negotiated(&self) -> bool {
        self.ecn_on
    }

    /// Window reductions performed in response to ECN-Echo.
    pub fn ecn_reductions(&self) -> u64 {
        self.ecn_reductions
    }

    /// Smoothed RTT estimate, if any sample was taken.
    pub fn srtt(&self) -> Option<SimDuration> {
        self.rtt.srtt()
    }

    /// Current congestion window in bytes.
    pub fn cwnd(&self) -> u64 {
        self.congestion.cwnd()
    }

    /// Peer's usable send window in bytes.
    pub fn snd_wnd(&self) -> u64 {
        self.snd_wnd
    }

    /// Sets the receive buffer space that backs the advertised window
    /// (QPIP: total bytes of posted receive WRs).
    pub fn set_recv_space(&mut self, bytes: u64) {
        self.rcv_space = bytes;
    }

    /// Announces the current receive window with a pure ACK — sent when
    /// posted receive space grows (§5.1: posting buffers transparently
    /// tunes the receiver window) so a window-blocked sender resumes.
    pub fn window_update(&mut self, now: SimTime) -> Option<SegmentOut> {
        matches!(
            self.state,
            TcpState::Established | TcpState::CloseWait | TcpState::FinWait1 | TcpState::FinWait2
        )
        .then(|| self.make_ack(now, PacketKind::TcpAck))
    }

    // ----- oracle accessors (crate::invariant / qpip-conform) --------

    /// Next sequence number to send (SND.NXT).
    pub fn snd_nxt(&self) -> SeqNum {
        self.sendbuf.nxt()
    }

    /// One past the last byte buffered for sending.
    pub fn snd_buffered_end(&self) -> SeqNum {
        self.sendbuf.end()
    }

    /// Next expected receive sequence number (RCV.NXT).
    pub fn rcv_nxt(&self) -> SeqNum {
        self.rcv_nxt
    }

    /// Initial send sequence number.
    pub fn iss(&self) -> SeqNum {
        self.iss
    }

    /// Whether our FIN has been handed to the wire.
    pub fn fin_sent(&self) -> bool {
        self.fin_sent
    }

    /// Our FIN's sequence number, once sent.
    pub fn fin_seq(&self) -> Option<SeqNum> {
        self.fin_sent.then_some(self.fin_seq)
    }

    /// Whether the peer's FIN has been consumed in order.
    pub fn peer_fin_rcvd(&self) -> bool {
        self.peer_fin_rcvd
    }

    /// Whether the retransmission timer is armed, in either role.
    pub fn rto_armed(&self) -> bool {
        self.rto_deadline.is_some()
    }

    /// Whether sending is blocked on the peer's window with nothing
    /// outstanding whose ACK could reopen it: unsent data waits in a
    /// data-carrying state, so in message mode this includes a head
    /// message larger than the usable window. The persist timer's
    /// arming condition.
    pub fn window_blocked(&self) -> bool {
        matches!(self.state, TcpState::Established | TcpState::CloseWait)
            && self.sendbuf.bytes_unsent() > 0
            && !self.has_outstanding()
    }

    /// Whether the TIME-WAIT reaping timer is armed.
    pub fn timewait_armed(&self) -> bool {
        self.timewait_deadline.is_some()
    }

    /// Whether anything needs the retransmission timer in its RTO role:
    /// unacked data, an unacked FIN, or an unanswered SYN/SYN-ACK.
    pub fn has_outstanding(&self) -> bool {
        self.sendbuf.bytes_in_flight() > 0
            || (self.fin_sent && !self.fin_acked(self.sendbuf.una()))
            || matches!(self.state, TcpState::SynSent | TcpState::SynRcvd)
    }

    /// Window-scale shift applied to windows we advertise.
    pub fn rcv_wscale(&self) -> u8 {
        self.rcv_wscale
    }

    /// Window-scale shift the peer asked us to apply to its windows.
    pub fn snd_wscale(&self) -> u8 {
        self.snd_wscale
    }

    /// Whether fast recovery is in progress.
    pub fn in_recovery(&self) -> bool {
        self.congestion.in_recovery()
    }

    /// Receive-buffer space backing the advertised window.
    pub fn rcv_space(&self) -> u64 {
        self.rcv_space
    }

    /// Whether the application may still queue data (not closed and no
    /// FIN queued).
    pub fn can_send(&self) -> bool {
        !self.fin_queued
            && matches!(
                self.state,
                TcpState::SynSent | TcpState::SynRcvd | TcpState::Established | TcpState::CloseWait
            )
    }

    /// Earliest pending timer deadline.
    pub fn next_deadline(&self) -> Option<SimTime> {
        [self.rto_deadline, self.delack_deadline, self.timewait_deadline]
            .into_iter()
            .flatten()
            .min()
    }

    // ----- application calls ------------------------------------------

    /// Queues one send unit and appends to `out` whatever the windows
    /// allow to transmit.
    ///
    /// # Panics
    ///
    /// Panics if called on a closed/closing connection or with empty
    /// data (callers gate both).
    pub fn send(
        &mut self,
        cfg: &NetConfig,
        data: Vec<u8>,
        token: SendToken,
        now: SimTime,
        ops: &mut OpCounters,
        out: &mut Vec<SegmentOut>,
    ) {
        assert!(
            matches!(
                self.state,
                TcpState::SynSent | TcpState::SynRcvd | TcpState::Established | TcpState::CloseWait
            ),
            "send on connection in {:?}",
            self.state
        );
        assert!(!self.fin_queued, "send after close");
        self.sendbuf.push(data, token);
        self.try_output(cfg, now, ops, out);
    }

    /// Initiates a graceful close; any queued data is sent first, then a
    /// FIN. Segments are appended to `out`.
    pub fn close(
        &mut self,
        cfg: &NetConfig,
        now: SimTime,
        ops: &mut OpCounters,
        out: &mut Vec<SegmentOut>,
    ) {
        if self.fin_queued || matches!(self.state, TcpState::Closed | TcpState::TimeWait) {
            return;
        }
        self.fin_queued = true;
        self.try_output(cfg, now, ops, out);
    }

    /// Passes `f` the payload of `seg`, a segment this TCB produced and
    /// has not been called since, as one slice per send unit it spans:
    /// the encoder copies them into the packet.
    pub fn read_payload(&self, seg: &SegmentOut, mut f: impl FnMut(&[u8])) {
        match seg.payload {
            SegPayload::Empty => {}
            SegPayload::Buffered(len) => self.sendbuf.read(seg.seq, len, f),
            SegPayload::ProbeByte => f(&[0]),
        }
    }

    /// Aborts the connection, producing an RST.
    pub fn abort(&mut self) -> SegmentOut {
        let seq = self.sendbuf.nxt();
        self.state = TcpState::Closed;
        self.clear_timers();
        SegmentOut {
            seq,
            ack: self.rcv_nxt,
            flags: TcpFlags { rst: true, ack: true, ..TcpFlags::NONE },
            window: 0,
            options: TcpOptions::default(),
            payload: SegPayload::Empty,
            kind: PacketKind::TcpControl,
            is_retransmit: false,
            ect: false,
        }
    }

    // ----- segment arrival -------------------------------------------

    /// Processes one incoming segment whose IP header may carry the
    /// Congestion-Experienced codepoint (set by a RED/ECN queue in the
    /// fabric, §5.2). Segments to transmit are appended to `out` and
    /// protocol events to `events`, each in order.
    #[allow(clippy::too_many_arguments)]
    pub fn on_segment_marked(
        &mut self,
        cfg: &NetConfig,
        hdr: &TcpHeader,
        payload: &[u8],
        congestion_experienced: bool,
        now: SimTime,
        ops: &mut OpCounters,
        out: &mut Vec<SegmentOut>,
        events: &mut Vec<TcbEvent>,
    ) {
        if congestion_experienced && self.ecn_on {
            // echo ECE until the sender announces CWR (RFC 3168 §6.1.3)
            self.ece_pending = true;
        }
        if hdr.flags.cwr && self.ecn_on {
            self.ece_pending = false;
        }
        ops.headers_parsed += 1;

        if hdr.flags.rst {
            self.on_rst(hdr, now, out, events);
            return;
        }

        match self.state {
            TcpState::SynSent => self.on_segment_syn_sent(cfg, hdr, now, out, events, ops),
            TcpState::Closed => { /* stray segment; a real stack would RST */ }
            _ => self.on_segment_synchronized(cfg, hdr, payload, now, out, events, ops),
        }
    }

    /// RST acceptance (RFC 793 §3.4 tightened per RFC 5961 §3.2): a
    /// reset only kills the connection when its sequence number is
    /// exactly `RCV.NXT` (in SYN-SENT: when it acks our SYN). An
    /// in-window but inexact RST draws a challenge ACK so a legitimate
    /// peer can resend with the right number, while a blind attacker's
    /// guess does nothing. Everything else is dropped silently.
    fn on_rst(
        &mut self,
        hdr: &TcpHeader,
        now: SimTime,
        out: &mut Vec<SegmentOut>,
        events: &mut Vec<TcbEvent>,
    ) {
        match self.state {
            TcpState::Closed => {}
            TcpState::SynSent => {
                if hdr.flags.ack && hdr.ack == self.iss + 1 {
                    self.state = TcpState::Closed;
                    self.clear_timers();
                    events.push(TcbEvent::Reset);
                }
            }
            _ => {
                if hdr.seq == self.rcv_nxt {
                    self.state = TcpState::Closed;
                    self.clear_timers();
                    events.push(TcbEvent::Reset);
                } else if u64::from(hdr.seq - self.rcv_nxt) < self.rcv_space.max(1) {
                    out.push(self.make_ack(now, PacketKind::TcpAck));
                }
            }
        }
    }

    fn on_segment_syn_sent(
        &mut self,
        cfg: &NetConfig,
        hdr: &TcpHeader,
        now: SimTime,
        out: &mut Vec<SegmentOut>,
        events: &mut Vec<TcbEvent>,
        ops: &mut OpCounters,
    ) {
        if !(hdr.flags.syn && hdr.flags.ack) || hdr.ack != self.iss + 1 {
            return; // not our SYN-ACK; ignore (subset: no simultaneous open)
        }
        self.irs = hdr.seq;
        self.rcv_nxt = hdr.seq + 1;
        self.eifel_check(hdr);
        self.absorb_syn_options(hdr);
        // the SYN-ACK confirms ECN with ECE alone (RFC 3168)
        self.ecn_on = cfg.ecn && hdr.flags.ece && !hdr.flags.cwr;
        self.sendbuf.on_ack(hdr.ack, |_| {}); // no data, but aligns una bookkeeping
        self.update_snd_wnd(hdr);
        self.state = TcpState::Established;
        self.retries = 0;
        self.rto_deadline = None;
        events.push(TcbEvent::Established);
        // ACK the SYN-ACK (third step of the rendezvous, §3)
        out.push(self.make_ack(now, PacketKind::TcpAck));
        // flush anything queued while connecting
        self.try_output(cfg, now, ops, out);
    }

    #[allow(clippy::too_many_arguments)]
    fn on_segment_synchronized(
        &mut self,
        cfg: &NetConfig,
        hdr: &TcpHeader,
        payload: &[u8],
        now: SimTime,
        out: &mut Vec<SegmentOut>,
        events: &mut Vec<TcbEvent>,
        ops: &mut OpCounters,
    ) {
        // -- header prediction (Stevens V2 §28.4): in ESTABLISHED, with
        // plain ACK/PSH flags, the next expected sequence number and an
        // unchanged send window, take the fast path. Everything else
        // falls to the slow path. The NIC cost model charges the same
        // parse cost either way (Table 3 folds it into "TCP Parse"); the
        // counters feed the ablation bench.
        let plain_flags = {
            let f = hdr.flags;
            f.ack && !f.syn && !f.fin && !f.rst && !f.urg
        };
        let window_unchanged = (u64::from(hdr.window) << self.snd_wscale) == self.snd_wnd;
        if self.state == TcpState::Established
            && plain_flags
            && hdr.seq == self.rcv_nxt
            && window_unchanged
        {
            ops.fast_path_hits += 1;
        } else {
            ops.slow_path_hits += 1;
        }

        // -- ts_recent maintenance (RFC 7323 §4.3): a newer TSval on a
        // segment that starts at or before the last ACK we sent, so a
        // delayed ACK echoes the earliest segment it acknowledges
        if self.ts_on {
            if let Some((tsval, _)) = hdr.options.timestamps {
                // serial-number comparison: the 32-bit clock wraps
                if tsval.wrapping_sub(self.ts_recent) as i32 >= 0 && hdr.seq.le(self.last_ack_sent)
                {
                    self.ts_recent = tsval;
                }
            }
        }

        // -- SYN-ACK retransmission while in SynRcvd: re-ack
        if hdr.flags.syn {
            out.push(self.make_ack(now, PacketKind::TcpAck));
            return;
        }

        // -- ACK processing
        if hdr.flags.ack {
            if !self.process_ack(cfg, hdr, payload.is_empty(), now, out, events, ops) {
                return; // unacceptable ACK: segment dropped wholesale
            }
            if self.state == TcpState::Closed {
                return;
            }
        }

        // -- payload processing
        if !payload.is_empty() {
            self.process_payload(cfg, hdr, payload, now, out, events, ops);
        }

        // -- FIN processing (only when it arrives in order, and only in
        // a state that accepts data: a FIN riding an unacceptable ACK in
        // SYN-RCVD must not advance `rcv_nxt` while the handshake is
        // still incomplete — RFC 793 would have reset such a segment
        // before FIN processing; the subset drops it instead)
        if hdr.flags.fin
            && matches!(self.state, TcpState::Established | TcpState::FinWait1 | TcpState::FinWait2)
            && hdr.seq + payload.len() as u32 == self.rcv_nxt
            && !self.peer_fin_rcvd
        {
            self.rcv_nxt += 1;
            self.peer_fin_rcvd = true;
            events.push(TcbEvent::PeerClosed);
            self.transition_on_peer_fin(now, events);
            out.push(self.make_ack(now, PacketKind::TcpAck));
            self.segs_unacked = 0;
            self.delack_deadline = None;
        }

        // -- send whatever the ACK/window opened up
        self.try_output(cfg, now, ops, out);
    }

    /// Returns `false` when the ACK acknowledges data we never sent
    /// (RFC 793: "send an ACK, drop the segment, and return") — the
    /// caller must discard the rest of the segment too.
    #[allow(clippy::too_many_arguments)]
    fn process_ack(
        &mut self,
        cfg: &NetConfig,
        hdr: &TcpHeader,
        payload_empty: bool,
        now: SimTime,
        out: &mut Vec<SegmentOut>,
        events: &mut Vec<TcbEvent>,
        ops: &mut OpCounters,
    ) -> bool {
        let snd_max = if self.fin_sent { self.fin_seq + 1 } else { self.sendbuf.max_sent() };
        if snd_max.lt(hdr.ack) {
            out.push(self.make_ack(now, PacketKind::TcpAck));
            return false;
        }

        let una_before = self.sendbuf.una();
        let fin_outstanding = self.fin_sent && !self.fin_acked(una_before);
        let advances = una_before.lt(hdr.ack)
            && (hdr.ack.le(self.sendbuf.end()) || (fin_outstanding && hdr.ack == self.fin_seq + 1));

        // ECN-Echo: reduce once per window (RFC 3168 §6.1.2)
        if self.ecn_on && hdr.flags.ece && !hdr.flags.syn && self.ecn_reduced_at.lt(hdr.ack) {
            self.congestion.on_ecn();
            self.cwr_due = true;
            self.ecn_reductions += 1;
            self.ecn_reduced_at = self.sendbuf.nxt();
        }

        if self.state == TcpState::SynRcvd && hdr.ack == self.iss + 1 {
            self.eifel_check(hdr);
            self.state = TcpState::Established;
            self.retries = 0;
            self.rto_deadline = None;
            events.push(TcbEvent::Established);
            self.update_snd_wnd(hdr);
            return true;
        }

        if advances {
            let spurious = self.eifel_check(hdr);
            // RTT sampling: timestamps give an unambiguous echo (Karn's
            // rule satisfied by construction); otherwise use the timed
            // segment if it was not retransmitted.
            if self.ts_on {
                if let Some((_, tsecr)) = hdr.options.timestamps {
                    if tsecr != 0 {
                        let now_us = ts_now(now);
                        let sample_us = now_us.wrapping_sub(tsecr);
                        if sample_us < 60_000_000 {
                            let sent = SimTime::from_picos(
                                now.as_picos().saturating_sub(u64::from(sample_us) * 1_000_000),
                            );
                            self.rtt.sample(sent, now, ops);
                        }
                    }
                }
            } else if let Some((seq, sent)) = self.timed_seq {
                if seq.lt(hdr.ack) {
                    self.rtt.sample(sent, now, ops);
                    self.timed_seq = None;
                }
            }

            let acked_bytes = u64::from(hdr.ack - una_before);
            // An ACK covering our FIN points one past the last data byte;
            // clamp it so the send buffer still marks all data acked.
            let data_ack =
                if self.fin_sent && hdr.ack == self.fin_seq + 1 { self.fin_seq } else { hdr.ack };
            self.sendbuf.on_ack(data_ack, |token| events.push(TcbEvent::SendComplete(token)));
            self.congestion.on_ack(acked_bytes, ops);
            if let Some(episode) = spurious {
                self.eifel_respond(cfg, episode, hdr.flags.ece, acked_bytes);
            }
            self.retries = 0;

            // FIN acknowledged?
            if self.fin_sent && hdr.ack == self.fin_seq + 1 {
                self.fin_is_acked = true;
                match self.state {
                    TcpState::FinWait1 => {
                        self.state = if self.peer_fin_rcvd {
                            self.enter_time_wait(now);
                            TcpState::TimeWait
                        } else {
                            TcpState::FinWait2
                        };
                    }
                    TcpState::Closing => {
                        self.enter_time_wait(now);
                        self.state = TcpState::TimeWait;
                    }
                    TcpState::LastAck => {
                        self.state = TcpState::Closed;
                        self.clear_timers();
                        events.push(TcbEvent::Closed);
                        return true;
                    }
                    _ => {}
                }
            }

            // restart or clear the retransmission timer (`try_output`
            // re-arms it as a persist timer if the window blocks)
            if self.has_outstanding() {
                self.arm_rto(now);
            } else {
                self.rto_deadline = None;
            }
        } else if hdr.ack == una_before && self.sendbuf.bytes_in_flight() > 0 && payload_empty {
            // duplicate ACK
            self.dupacks_rx += 1;
            if let Some(episode) = &mut self.rto_episode {
                episode.dupack_seen = true;
            }
            if self.congestion.on_dup_ack() {
                // fast retransmit
                if let Some(seg) = self.sendbuf.retransmit_front(self.max_payload(cfg)) {
                    self.retransmit_count += 1;
                    self.fast_retransmits += 1;
                    let s = self.make_data_segment(seg, now, true);
                    out.push(s);
                    self.arm_rto(now);
                }
            }
        }

        self.update_snd_wnd(hdr);
        true
    }

    #[allow(clippy::too_many_arguments)]
    fn process_payload(
        &mut self,
        cfg: &NetConfig,
        hdr: &TcpHeader,
        payload: &[u8],
        now: SimTime,
        out: &mut Vec<SegmentOut>,
        events: &mut Vec<TcbEvent>,
        _ops: &mut OpCounters,
    ) {
        if !matches!(self.state, TcpState::Established | TcpState::FinWait1 | TcpState::FinWait2) {
            return;
        }
        let seg_end = hdr.seq + payload.len() as u32;
        if seg_end.le(self.rcv_nxt) {
            // pure duplicate: re-ACK so the peer's retransmission stops
            out.push(self.make_ack(now, PacketKind::TcpAck));
            return;
        }
        if self.rcv_nxt.lt(hdr.seq) {
            // out of order: the subset has no reassembly (§4.1); drop and
            // send a duplicate ACK to trigger the peer's fast retransmit.
            self.ooo_drops += 1;
            out.push(self.make_ack(now, PacketKind::TcpAck));
            return;
        }
        // trim any already-received prefix
        let offset = (self.rcv_nxt - hdr.seq) as usize;
        self.rcv_nxt = seg_end;
        events.push(TcbEvent::Delivered(offset..payload.len()));

        // ACK generation policy
        match cfg.ack_policy {
            crate::types::AckPolicy::Immediate => {
                out.push(self.make_ack(now, PacketKind::TcpAck));
                self.segs_unacked = 0;
                self.delack_deadline = None;
            }
            crate::types::AckPolicy::Delayed(timeout) => {
                self.segs_unacked += 1;
                if self.segs_unacked >= 2 {
                    out.push(self.make_ack(now, PacketKind::TcpAck));
                    self.segs_unacked = 0;
                    self.delack_deadline = None;
                } else {
                    self.delack_deadline = Some(now + timeout);
                }
            }
        }
    }

    fn transition_on_peer_fin(&mut self, now: SimTime, _events: &mut [TcbEvent]) {
        match self.state {
            TcpState::Established => self.state = TcpState::CloseWait,
            TcpState::FinWait1 => {
                // our FIN not yet acked: simultaneous close
                self.state = TcpState::Closing;
            }
            TcpState::FinWait2 => {
                self.enter_time_wait(now);
                self.state = TcpState::TimeWait;
            }
            _ => {}
        }
    }

    // ----- timers ------------------------------------------------------

    /// Advances timer state to `now`, appending retransmissions,
    /// zero-window probes and delayed ACKs to `out` and TIME-WAIT
    /// reaping and abort events to `events`.
    pub fn on_timer(
        &mut self,
        cfg: &NetConfig,
        now: SimTime,
        ops: &mut OpCounters,
        out: &mut Vec<SegmentOut>,
        events: &mut Vec<TcbEvent>,
    ) {
        if let Some(dl) = self.timewait_deadline {
            if dl <= now {
                self.timewait_deadline = None;
                self.state = TcpState::Closed;
                self.clear_timers();
                events.push(TcbEvent::Closed);
                return;
            }
        }

        if let Some(dl) = self.delack_deadline {
            if dl <= now {
                self.delack_deadline = None;
                self.segs_unacked = 0;
                out.push(self.make_ack(now, PacketKind::TcpAck));
            }
        }

        if let Some(dl) = self.rto_deadline {
            if dl <= now {
                self.rto_deadline = None;
                self.retries += 1;
                if self.retries > MAX_RETRIES {
                    self.state = TcpState::Closed;
                    self.clear_timers();
                    events.push(TcbEvent::Reset);
                    return;
                }
                self.rtt.backoff();
                ops.muls += 1; // backoff shift/clamp arithmetic
                if self.window_blocked() {
                    // persist role, congestion state untouched: one byte
                    // at SND.UNA−1, already acknowledged, so the receiver
                    // discards it as a duplicate and re-ACKs with its
                    // current window. It works even when the head message
                    // cannot be split, and the NIC builds it without
                    // fetching host data, so it is a control packet.
                    let mut probe = self.make_ack(now, PacketKind::TcpControl);
                    probe.seq = SeqNum(self.sendbuf.una().0.wrapping_sub(1));
                    probe.payload = SegPayload::ProbeByte;
                    out.push(probe);
                    self.persist_probes += 1;
                    self.arm_rto(now);
                    return;
                }
                // RFC 4015's pipe_prev, for data episodes, and the
                // duplicate ACKs since SND.UNA last advanced, both read
                // before the timeout collapses the window and clears them
                let flight = self.sendbuf.bytes_in_flight();
                let pipe_prev = if flight > 0 { flight.max(self.congestion.ssthresh()) } else { 0 };
                let dupack_seen = self.congestion.dup_acks() > 0;
                self.congestion.on_timeout();
                let rto_before = self.rto_retransmits;
                match self.state {
                    TcpState::SynSent => {
                        self.retransmit_count += 1;
                        self.rto_retransmits += 1;
                        out.push(self.make_syn_raw(cfg, now, false, true));
                    }
                    TcpState::SynRcvd => {
                        self.retransmit_count += 1;
                        self.rto_retransmits += 1;
                        out.push(self.make_syn_raw(cfg, now, true, true));
                    }
                    _ => {
                        if self.sendbuf.bytes_in_flight() > 0 {
                            self.sendbuf.rewind_to_una();
                            // Karn: do not time retransmitted data
                            self.timed_seq = None;
                            if let Some(seg) =
                                self.sendbuf.next_segment(self.max_payload(cfg), u64::MAX)
                            {
                                self.retransmit_count += 1;
                                self.rto_retransmits += 1;
                                out.push(self.make_data_segment(seg, now, true));
                            }
                        } else if self.fin_sent && !self.fin_acked(self.sendbuf.una()) {
                            self.retransmit_count += 1;
                            self.rto_retransmits += 1;
                            out.push(self.make_fin(now, true));
                        }
                    }
                }
                if self.rto_retransmits > rto_before && self.rto_episode.is_none() {
                    self.rto_episodes += 1;
                    // a SYN always carries a timestamp; later segments
                    // only when both ends negotiated them
                    let stamped = self.ts_on || self.state == TcpState::SynSent;
                    self.rto_episode = Some(RtoEpisode {
                        retransmit_ts: stamped.then(|| ts_now(now)),
                        pipe_prev,
                        dupack_seen,
                    });
                }
                if self.has_outstanding() {
                    self.arm_rto(now);
                }
            }
        }
    }

    // ----- output ------------------------------------------------------

    /// Appends to `out` as much buffered data as the congestion and
    /// peer windows allow, then a FIN if one is queued and the buffer
    /// drained, and arms the retransmission timer in the role that fits:
    /// RTO while anything is outstanding, persist while the window
    /// blocks.
    pub fn try_output(
        &mut self,
        cfg: &NetConfig,
        now: SimTime,
        ops: &mut OpCounters,
        out: &mut Vec<SegmentOut>,
    ) {
        // new data (and a first FIN) flow only in these states; FIN
        // retransmission is handled by the timer path.
        if !matches!(self.state, TcpState::Established | TcpState::CloseWait) {
            return;
        }
        let persisting = self.rto_deadline.is_some() && !self.has_outstanding();
        loop {
            let in_flight = self.sendbuf.bytes_in_flight();
            let wnd = self.usable_window(in_flight);
            let snd_max = self.sendbuf.max_sent();
            let Some(seg) = self.sendbuf.next_segment(self.max_payload(cfg), wnd) else {
                break;
            };
            if seg.seq.lt(snd_max) {
                self.gobackn_resends += 1;
            }
            ops.headers_built += 1;
            if !self.ts_on && self.timed_seq.is_none() {
                self.timed_seq = Some((seg.seq, now));
            }
            out.push(self.make_data_segment(seg, now, false));
            // every outgoing segment acknowledges rcv_nxt, satisfying any
            // pending delayed ACK (the piggyback rule)
            self.segs_unacked = 0;
            self.delack_deadline = None;
        }
        // FIN once everything queued has been handed to the wire
        if self.fin_queued && !self.fin_sent && self.sendbuf.bytes_unsent() == 0 {
            self.fin_seq = self.sendbuf.end();
            self.fin_sent = true;
            out.push(self.make_fin(now, false));
            self.state = match self.state {
                TcpState::CloseWait => TcpState::LastAck,
                _ => TcpState::FinWait1,
            };
        }
        if persisting && self.has_outstanding() {
            // the first segment to leave an open window gets a fresh
            // RTO, not what remains of the persist interval
            self.rto_deadline = None;
        }
        if (self.has_outstanding() || self.window_blocked()) && self.rto_deadline.is_none() {
            self.arm_rto(now);
        }
    }

    // ----- segment builders -------------------------------------------

    fn make_syn(&mut self, cfg: &NetConfig, now: SimTime, is_syn_ack: bool) -> SegmentOut {
        self.make_syn_raw(cfg, now, is_syn_ack, false)
    }

    fn make_syn_raw(
        &mut self,
        cfg: &NetConfig,
        now: SimTime,
        is_syn_ack: bool,
        is_retransmit: bool,
    ) -> SegmentOut {
        // A SYN offers window scaling and timestamps; a SYN-ACK may only
        // echo what the peer's SYN actually negotiated (RFC 1323/7323 —
        // the responder must not send window-scale or timestamps unless
        // the initiator did).
        let options = TcpOptions {
            mss: Some(cfg.max_tcp_payload().min(usize::from(u16::MAX)) as u16),
            window_scale: (!is_syn_ack || self.ws_negotiated).then_some(self.rcv_wscale),
            timestamps: (!is_syn_ack || self.ts_on).then(|| (ts_now(now), self.ts_recent)),
        };
        let mut flags = if is_syn_ack { TcpFlags::SYN_ACK } else { TcpFlags::SYN };
        if is_syn_ack {
            flags.ece = self.ecn_on; // confirm (RFC 3168)
            self.last_ack_sent = self.rcv_nxt;
        } else if cfg.ecn {
            flags.ece = true; // offer
            flags.cwr = true;
        }
        SegmentOut {
            seq: self.iss,
            ack: if is_syn_ack { self.rcv_nxt } else { SeqNum(0) },
            flags,
            window: self.advertised_window(),
            options,
            payload: SegPayload::Empty,
            kind: PacketKind::TcpControl,
            is_retransmit,
            ect: false,
        }
    }

    fn make_ack(&mut self, now: SimTime, kind: PacketKind) -> SegmentOut {
        let flags = TcpFlags { ece: self.ecn_on && self.ece_pending, ..TcpFlags::ACK };
        self.last_ack_sent = self.rcv_nxt;
        SegmentOut {
            seq: self.sendbuf.nxt() + u32::from(self.fin_sent_and_counted()),
            ack: self.rcv_nxt,
            flags,
            window: self.advertised_window(),
            options: self.data_options(now),
            payload: SegPayload::Empty,
            kind,
            is_retransmit: false,
            ect: false,
        }
    }

    fn make_data_segment(
        &mut self,
        seg: SegmentData,
        now: SimTime,
        is_retransmit: bool,
    ) -> SegmentOut {
        let cwr = self.ecn_on && self.cwr_due;
        if cwr {
            self.cwr_due = false;
        }
        self.last_ack_sent = self.rcv_nxt;
        SegmentOut {
            seq: seg.seq,
            ack: self.rcv_nxt,
            flags: TcpFlags {
                ack: true,
                psh: seg.psh,
                ece: self.ecn_on && self.ece_pending,
                cwr,
                ..TcpFlags::NONE
            },
            window: self.advertised_window(),
            options: self.data_options(now),
            payload: SegPayload::Buffered(seg.len),
            kind: PacketKind::TcpData,
            is_retransmit,
            // retransmissions are not ECT (RFC 3168 §6.1.5)
            ect: self.ecn_on && !is_retransmit,
        }
    }

    fn make_fin(&mut self, now: SimTime, is_retransmit: bool) -> SegmentOut {
        self.last_ack_sent = self.rcv_nxt;
        SegmentOut {
            seq: self.fin_seq,
            ack: self.rcv_nxt,
            flags: TcpFlags { fin: true, ack: true, ..TcpFlags::NONE },
            window: self.advertised_window(),
            options: self.data_options(now),
            payload: SegPayload::Empty,
            kind: PacketKind::TcpControl,
            is_retransmit,
            ect: false,
        }
    }

    fn data_options(&self, now: SimTime) -> TcpOptions {
        TcpOptions {
            mss: None,
            window_scale: None,
            timestamps: self.ts_on.then(|| (ts_now(now), self.ts_recent)),
        }
    }

    // ----- helpers -----------------------------------------------------

    fn absorb_syn_options(&mut self, syn: &TcpHeader) {
        if let Some(mss) = syn.options.mss {
            self.peer_mss = usize::from(mss);
        }
        self.ws_negotiated = syn.options.window_scale.is_some();
        self.snd_wscale = match syn.options.window_scale {
            Some(ws) => ws.min(14),
            None => {
                self.rcv_wscale = 0;
                0
            }
        };
        self.ts_on = syn.options.timestamps.is_some();
        if let Some((tsval, _)) = syn.options.timestamps {
            self.ts_recent = tsval;
        }
        // SYN windows are never scaled
        self.snd_wnd = u64::from(syn.window);
        self.snd_wl1 = syn.seq;
        self.snd_wl2 = SeqNum(0);
    }

    /// SND.UNA advanced: any RTO episode is over. Eifel detection (RFC
    /// 3522 §3.2) judges it on this first advancing ACK: an echoed TSval
    /// older than the retransmission's can only come from the original,
    /// so the timeout was spurious. Returns the episode when it was.
    fn eifel_check(&mut self, hdr: &TcpHeader) -> Option<RtoEpisode> {
        let episode = self.rto_episode.take()?;
        let (Some(retx_ts), Some((_, tsecr))) = (episode.retransmit_ts, hdr.options.timestamps)
        else {
            return None;
        };
        // serial-number comparison: the 32-bit clock wraps
        let spurious = (tsecr.wrapping_sub(retx_ts) as i32) < 0;
        self.spurious_rtos += u64::from(spurious);
        spurious.then_some(episode)
    }

    /// The Eifel response (RFC 4015) to a data timeout found spurious,
    /// run after the ACK that ended the episode was applied. The data
    /// sent before the timeout is still in flight, so sending resumes
    /// at SND.MAX, unless a duplicate ACK showed the peer discarded
    /// some of it; and the congestion response is undone, unless the
    /// ACK echoes congestion. The RTT estimator folds this ACK's sample
    /// in as any other; it is not re-seeded from it.
    fn eifel_respond(&mut self, cfg: &NetConfig, episode: RtoEpisode, ece: bool, acked: u64) {
        if episode.pipe_prev == 0 {
            return;
        }
        if !episode.dupack_seen {
            self.sendbuf.resume_at_max();
        }
        if !ece {
            self.congestion.undo_timeout(
                episode.pipe_prev,
                self.sendbuf.bytes_in_flight(),
                acked,
                cfg.initial_cwnd_segments,
            );
        }
    }

    fn update_snd_wnd(&mut self, hdr: &TcpHeader) {
        if self.snd_wl1.lt(hdr.seq) || (self.snd_wl1 == hdr.seq && self.snd_wl2.le(hdr.ack)) {
            let before = self.snd_wnd;
            self.snd_wnd = u64::from(hdr.window) << self.snd_wscale;
            self.snd_wl1 = hdr.seq;
            self.snd_wl2 = hdr.ack;
            if self.snd_wnd == 0 && before != 0 {
                self.zero_window_events += 1;
            }
        }
    }

    fn usable_window(&self, in_flight: u64) -> u64 {
        self.snd_wnd.min(self.congestion.cwnd()).saturating_sub(in_flight)
    }

    fn advertised_window(&self) -> u16 {
        let w = self.rcv_space >> self.rcv_wscale;
        w.min(u64::from(u16::MAX)) as u16
    }

    fn max_payload(&self, cfg: &NetConfig) -> usize {
        match cfg.segmentation {
            SegmentationPolicy::MessagePerSegment => cfg.max_tcp_payload(),
            SegmentationPolicy::Stream => cfg.max_tcp_payload().min(self.peer_mss),
        }
    }

    fn fin_acked(&self, una: SeqNum) -> bool {
        // The latch is authoritative; the una comparison can never fire
        // (una stops at the last data byte) but keeps the definition
        // aligned with RFC 793's SND.UNA reading.
        self.fin_is_acked || (self.fin_sent && self.fin_seq.lt(una))
    }

    fn fin_sent_and_counted(&self) -> bool {
        self.fin_sent
    }

    fn arm_rto(&mut self, now: SimTime) {
        self.rto_deadline = Some(now + self.rtt.rto());
    }

    fn enter_time_wait(&mut self, now: SimTime) {
        self.rto_deadline = None;
        self.delack_deadline = None;
        self.timewait_deadline = Some(now + TIME_WAIT_DURATION);
    }

    fn clear_timers(&mut self) {
        self.rto_deadline = None;
        self.delack_deadline = None;
        self.timewait_deadline = None;
    }
}

/// RFC 1323 timestamp clock: microseconds of simulated time, truncated
/// to 32 bits (identical on both ends of the simulation, which is fine —
/// TSval is opaque to the peer).
fn ts_now(now: SimTime) -> u32 {
    ((now.as_picos() / 1_000_000) & 0xffff_ffff) as u32
}

/// Chooses a window-scale shift so `space` fits the 16-bit window field.
fn wscale_for(space: u64) -> u8 {
    let mut shift = 0u8;
    while shift < 14 && (space >> shift) > u64::from(u16::MAX) {
        shift += 1;
    }
    shift
}
