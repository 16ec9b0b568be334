//! The TCP transmission control block and its state machine.
//!
//! This is the protocol engine that the QPIP firmware embeds in its QP
//! state table (Figure 1: "A common data structure … includes the
//! inter-network protocol specific information, namely the TCP
//! transmission control block"). It implements the prototype's subset
//! (§4.1): RFC 793 connection management, RTT estimation, window
//! management, congestion and flow control, and RFC 1323 timestamps and
//! window scaling. Out-of-order reassembly and urgent data are
//! intentionally absent, as in the paper: out-of-order segments are
//! dropped and re-acknowledged.
//!
//! A [`Tcb`] is three parts. Its `Sender` owns the RFC 793 send
//! sequence space and what paces it: the send buffer, the peer's
//! window, congestion control, the RTT estimator and the retransmission
//! timer. It applies ACKs and window updates and picks the next segment
//! to send. Its `Receiver` owns the receive sequence space and what
//! this end owes the peer: RCV.NXT, the advertised window, the delayed
//! ACK, TS.Recent and the ECN echo. It classifies each payload as in
//! order, duplicate or out of order and says whether an ACK is due. The
//! `Tcb` itself keeps the state machine, the negotiated options,
//! TIME-WAIT and the counters, and builds every outgoing segment from
//! both halves.
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
use crate::types::{
    AckPolicy, Endpoint, NetConfig, OpCounters, PacketKind, SegmentationPolicy, SendToken,
};

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

qpip_trace::counters! {
    /// One connection's event counters. [`EngineStats`] embeds the same
    /// record, summed over live and reaped connections, and the
    /// `engine` snapshot reports each field under its own name. A new
    /// counter is its field here and its increment in the TCB.
    ///
    /// [`EngineStats`]: crate::engine::EngineStats
    pub struct TcpCounters {
        /// Retransmissions triggered by RTO expiry, SYN, SYN-ACK and
        /// FIN retransmissions included.
        pub rto_retransmits: u64,
        /// Retransmissions triggered by the third duplicate ACK.
        pub fast_retransmits: u64,
        /// Duplicate ACKs received (same ack, data in flight, no
        /// payload).
        pub dupacks_rx: u64,
        /// Transitions of the peer's advertised window into zero.
        pub zero_window_events: u64,
        /// Zero-window probes sent by the persist timer (never counted
        /// as retransmissions).
        pub persist_probes: u64,
        /// RTO episodes found spurious by Eifel detection (RFC 3522):
        /// the first ACK to advance SND.UNA afterwards echoed a
        /// timestamp older than the retransmission, so the original got
        /// through. A data episode's timeout is then undone (RFC 4015).
        pub spurious_rtos: u64,
        /// RTO episodes: first RTO retransmissions since SND.UNA last
        /// advanced, with or without timestamps. `spurious_rtos / rto_episodes`
        /// is the share Eifel found needless; the backed-off retries
        /// inside an episode count only as `rto_retransmits`.
        pub rto_episodes: u64,
        /// Segments `try_output` sent below SND.MAX: go-back-N resends
        /// of data a timeout rewound over. Not counted as
        /// retransmissions (only the timer's first resend is), and never
        /// marked so on the wire.
        pub gobackn_resends: u64,
        /// Out-of-order segments dropped (no reassembly in the subset);
        /// each produced a duplicate ACK.
        pub ooo_drops: u64,
        /// Window reductions performed in response to ECN-Echo.
        pub ecn_reductions: u64,
    }
}

impl TcpCounters {
    /// Retransmissions of either kind: RTO-triggered plus fast.
    pub fn retransmissions(&self) -> u64 {
        self.rto_retransmits + self.fast_retransmits
    }
}

/// What a segment arrival or a timer produces, each part in order. The
/// caller drains `segs` and `events` before the TCB's next call (a data
/// segment's payload stays in the send buffer, which that call may
/// release) and adds `ops` to its own count.
#[derive(Debug, Default)]
pub struct TcbOutput {
    /// Segments to transmit.
    pub segs: Vec<SegmentOut>,
    /// Protocol events.
    pub events: Vec<TcbEvent>,
    /// Multiplies performed, which the firmware prices (§4.2.2).
    pub ops: OpCounters,
}

/// The transmission control block for one connection: the state
/// machine over a `Sender` and a `Receiver`.
#[derive(Debug)]
pub struct Tcb {
    state: TcpState,
    local: Endpoint,
    remote: Endpoint,
    snd: Sender,
    rcv: Receiver,
    /// RFC 1323 timestamps, negotiated on the SYN exchange.
    ts_on: bool,
    /// ECN (RFC 3168, §5.2's "network-based mechanisms"), negotiated on
    /// the SYN exchange.
    ecn_on: bool,
    /// Window scaling, negotiated on the SYN exchange (both sides
    /// offered it); gates the option on our SYN-ACK.
    ws_negotiated: bool,
    timewait_deadline: Option<SimTime>,
    /// Retransmissions counted apart from `counters`, which the
    /// invariant oracle checks against
    /// [`TcpCounters::retransmissions`].
    retransmit_count: u64,
    counters: TcpCounters,
}

/// The send side: RFC 793's send sequence space and what paces it.
#[derive(Debug)]
struct Sender {
    /// Our SYN's sequence number.
    iss: SeqNum,
    /// SND.UNA, SND.NXT, SND.MAX and the data they cover.
    sendbuf: SendBuffer,
    /// SND.WND: the peer's receive window in bytes (already scaled).
    wnd: u64,
    /// Segment and ack that last updated `wnd` (SND.WL1/WL2).
    wl1: SeqNum,
    wl2: SeqNum,
    /// Shift the peer asked us to apply to its window field.
    wscale: u8,
    /// Peer's MSS from its SYN.
    peer_mss: usize,
    congestion: Congestion,
    rtt: RttEstimator,
    /// Timer expiries since SND.UNA last advanced.
    retries: u32,
    /// Untimed-segment RTT sampling (when timestamps are off).
    timed_seq: Option<(SeqNum, SimTime)>,
    /// The open RTO episode, awaiting the ACK that tells whether the
    /// timeout was spurious.
    rto_episode: Option<RtoEpisode>,
    /// The retransmission timer, in its RTO or persist role.
    rto_deadline: Option<SimTime>,
    /// FIN requested by the application.
    fin_queued: bool,
    /// FIN transmitted: it takes the sequence number after the last
    /// data byte, which no send can move once a FIN is queued.
    fin_sent: bool,
    /// The peer acknowledged our FIN. Latched here because SND.UNA only
    /// covers buffered data and never advances over the FIN's slot.
    fin_is_acked: bool,
    /// Announce CWR on the next data segment.
    cwr_due: bool,
    /// React to ECN-Echo at most once per window: ACKs at or below this
    /// marker belong to the already-reduced window.
    ecn_reduced_at: SeqNum,
}

/// The receive side: RFC 793's receive sequence space and what this
/// end owes the peer.
#[derive(Debug)]
struct Receiver {
    /// RCV.NXT.
    nxt: SeqNum,
    /// Receive buffer space backing the advertised window. For QPIP this
    /// is the total posted receive-WR space (§5.1: "the more receive
    /// buffer space posted, the larger the TCP receive window").
    space: u64,
    /// Shift we apply to the window field we advertise.
    wscale: u8,
    /// The peer's FIN consumed (sequence-wise).
    fin_rcvd: bool,
    /// Segments received since the last ACK we sent (delayed ACK).
    segs_unacked: u32,
    delack_deadline: Option<SimTime>,
    /// TS.Recent: the TSval our segments echo (RFC 7323).
    ts_recent: u32,
    /// RCV.NXT as last acknowledged on the wire (RFC 7323's
    /// Last.ACK.sent), which gates `ts_recent` updates.
    last_ack_sent: SeqNum,
    /// A CE mark arrived: echo ECE on outgoing ACKs until the peer sets
    /// CWR.
    ece_pending: bool,
}

/// What the receiver made of a segment's payload.
enum Arrival {
    /// All of it was received before.
    Duplicate,
    /// It starts past RCV.NXT: dropped, as the subset has no reassembly
    /// (§4.1).
    OutOfOrder,
    /// The `new` bytes of the payload are in order and accepted;
    /// `ack_due` when the ACK policy wants an ACK now.
    InOrder { new: Range<usize>, ack_due: bool },
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
        let mut tcb = Tcb::new(cfg, TcpState::SynSent, local, remote, iss);
        out.push(tcb.make_syn(cfg, now, false, false));
        tcb.snd.arm_rto(now);
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
        let mut tcb = Tcb::new(cfg, TcpState::SynRcvd, local, remote, iss);
        tcb.absorb_syn(syn);
        // ECN negotiation (RFC 3168): the SYN offers with ECE+CWR
        tcb.ecn_on = cfg.ecn && syn.flags.ece && syn.flags.cwr;
        out.push(tcb.make_syn(cfg, now, true, false));
        tcb.snd.arm_rto(now);
        tcb
    }

    fn new(
        cfg: &NetConfig,
        state: TcpState,
        local: Endpoint,
        remote: Endpoint,
        iss: SeqNum,
    ) -> Tcb {
        Tcb {
            state,
            local,
            remote,
            snd: Sender::new(cfg, iss),
            rcv: Receiver::new(cfg.recv_buffer as u64),
            ts_on: false,
            ecn_on: false,
            ws_negotiated: false,
            timewait_deadline: None,
            retransmit_count: 0,
            counters: TcpCounters::default(),
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
        self.snd.sendbuf.bytes_in_flight()
    }

    /// Bytes buffered for sending (in flight + unsent).
    pub fn bytes_buffered(&self) -> u64 {
        self.snd.sendbuf.bytes_buffered()
    }

    /// Total retransmissions performed, counted apart from
    /// [`Tcb::counters`].
    pub fn retransmit_count(&self) -> u64 {
        self.retransmit_count
    }

    /// The connection's event counters.
    pub fn counters(&self) -> TcpCounters {
        self.counters
    }

    /// Consecutive duplicate ACKs currently counted by the congestion
    /// controller.
    pub fn dup_acks(&self) -> u32 {
        self.snd.congestion.dup_acks()
    }

    /// Current slow-start threshold in bytes.
    pub fn ssthresh(&self) -> u64 {
        self.snd.congestion.ssthresh()
    }

    /// RTT samples folded into the estimator.
    pub fn rtt_samples(&self) -> u64 {
        self.snd.rtt.samples()
    }

    /// The most recent raw RTT sample, if any.
    pub fn last_rtt_sample(&self) -> Option<SimDuration> {
        self.snd.rtt.last_sample()
    }

    /// Current retransmission timeout.
    pub fn rto(&self) -> SimDuration {
        self.snd.rtt.rto()
    }

    /// Oldest unacknowledged sequence number.
    pub fn snd_una(&self) -> SeqNum {
        self.snd.sendbuf.una()
    }

    /// Whether ECN was negotiated on the handshake.
    pub fn ecn_negotiated(&self) -> bool {
        self.ecn_on
    }

    /// Smoothed RTT estimate, if any sample was taken.
    pub fn srtt(&self) -> Option<SimDuration> {
        self.snd.rtt.srtt()
    }

    /// Current congestion window in bytes.
    pub fn cwnd(&self) -> u64 {
        self.snd.congestion.cwnd()
    }

    /// Peer's usable send window in bytes.
    pub fn snd_wnd(&self) -> u64 {
        self.snd.wnd
    }

    /// Sets the receive buffer space that backs the advertised window
    /// (QPIP: total bytes of posted receive WRs).
    pub fn set_recv_space(&mut self, bytes: u64) {
        self.rcv.space = bytes;
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
        self.snd.sendbuf.nxt()
    }

    /// One past the last byte buffered for sending.
    pub fn snd_buffered_end(&self) -> SeqNum {
        self.snd.sendbuf.end()
    }

    /// Next expected receive sequence number (RCV.NXT).
    pub fn rcv_nxt(&self) -> SeqNum {
        self.rcv.nxt
    }

    /// Whether our FIN has been handed to the wire.
    pub fn fin_sent(&self) -> bool {
        self.snd.fin_sent
    }

    /// Whether the peer's FIN has been consumed in order.
    pub fn peer_fin_rcvd(&self) -> bool {
        self.rcv.fin_rcvd
    }

    /// Whether the retransmission timer is armed, in either role.
    pub fn rto_armed(&self) -> bool {
        self.snd.rto_deadline.is_some()
    }

    /// Whether sending is blocked on the peer's window with nothing
    /// outstanding whose ACK could reopen it: unsent data waits in a
    /// data-carrying state, so in message mode this includes a head
    /// message larger than the usable window. The persist timer's
    /// arming condition.
    pub fn window_blocked(&self) -> bool {
        matches!(self.state, TcpState::Established | TcpState::CloseWait)
            && self.snd.sendbuf.bytes_unsent() > 0
            && !self.has_outstanding()
    }

    /// Whether the TIME-WAIT reaping timer is armed.
    pub fn timewait_armed(&self) -> bool {
        self.timewait_deadline.is_some()
    }

    /// Whether anything needs the retransmission timer in its RTO role:
    /// unacked data, an unacked FIN, or an unanswered SYN/SYN-ACK.
    pub fn has_outstanding(&self) -> bool {
        self.snd.has_outstanding() || matches!(self.state, TcpState::SynSent | TcpState::SynRcvd)
    }

    /// Whether the application may still queue data (not closed and no
    /// FIN queued).
    pub fn can_send(&self) -> bool {
        !self.snd.fin_queued
            && matches!(
                self.state,
                TcpState::SynSent | TcpState::SynRcvd | TcpState::Established | TcpState::CloseWait
            )
    }

    /// Earliest pending timer deadline.
    pub fn next_deadline(&self) -> Option<SimTime> {
        [self.snd.rto_deadline, self.rcv.delack_deadline, self.timewait_deadline]
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
    /// Panics if called when [`Tcb::can_send`] is false or with empty
    /// data (callers gate both).
    pub fn send(
        &mut self,
        cfg: &NetConfig,
        data: Vec<u8>,
        token: SendToken,
        now: SimTime,
        out: &mut Vec<SegmentOut>,
    ) {
        assert!(self.can_send(), "send in {:?} or after close", self.state);
        self.snd.sendbuf.push(data, token);
        self.try_output(cfg, now, out);
    }

    /// Initiates a graceful close; any queued data is sent first, then a
    /// FIN. Segments are appended to `out`.
    pub fn close(&mut self, cfg: &NetConfig, now: SimTime, out: &mut Vec<SegmentOut>) {
        if self.snd.fin_queued || matches!(self.state, TcpState::Closed | TcpState::TimeWait) {
            return;
        }
        self.snd.fin_queued = true;
        self.try_output(cfg, now, out);
    }

    /// Passes `f` the payload of `seg`, a segment this TCB produced and
    /// has not been called since, as one slice per send unit it spans:
    /// the encoder copies them into the packet.
    pub fn read_payload(&self, seg: &SegmentOut, mut f: impl FnMut(&[u8])) {
        match seg.payload {
            SegPayload::Empty => {}
            SegPayload::Buffered(len) => self.snd.sendbuf.read(seg.seq, len, f),
            SegPayload::ProbeByte => f(&[0]),
        }
    }

    /// Aborts the connection, producing an RST.
    pub fn abort(&mut self) -> SegmentOut {
        self.state = TcpState::Closed;
        self.clear_timers();
        let flags = TcpFlags { rst: true, ack: true, ..TcpFlags::NONE };
        let rst =
            self.segment(self.snd.sendbuf.nxt(), flags, PacketKind::TcpControl, SimTime::ZERO);
        // an RST advertises no window and carries no options
        SegmentOut { window: 0, options: TcpOptions::default(), ..rst }
    }

    // ----- segment arrival -------------------------------------------

    /// Processes one incoming segment whose IP header may carry the
    /// Congestion-Experienced codepoint (set by a RED/ECN queue in the
    /// fabric, §5.2), appending what it produces to `out`.
    pub fn on_segment_marked(
        &mut self,
        cfg: &NetConfig,
        hdr: &TcpHeader,
        payload: &[u8],
        congestion_experienced: bool,
        now: SimTime,
        out: &mut TcbOutput,
    ) {
        // echo ECE from a CE mark until the sender announces CWR (RFC
        // 3168 §6.1.3)
        if self.ecn_on && (congestion_experienced || hdr.flags.cwr) {
            self.rcv.ece_pending = !hdr.flags.cwr;
        }
        if hdr.flags.rst {
            self.on_rst(hdr, now, out);
            return;
        }
        match self.state {
            TcpState::SynSent => self.on_segment_syn_sent(cfg, hdr, now, out),
            TcpState::Closed => { /* stray segment; a real stack would RST */ }
            _ => self.on_segment_synchronized(cfg, hdr, payload, now, out),
        }
    }

    /// RST acceptance (RFC 793 §3.4 tightened per RFC 5961 §3.2): a
    /// reset only kills the connection when its sequence number is
    /// exactly `RCV.NXT` (in SYN-SENT: when it acks our SYN). An
    /// in-window but inexact RST draws a challenge ACK so a legitimate
    /// peer can resend with the right number, while a blind attacker's
    /// guess does nothing. Everything else is dropped silently.
    fn on_rst(&mut self, hdr: &TcpHeader, now: SimTime, out: &mut TcbOutput) {
        match self.state {
            TcpState::Closed => {}
            TcpState::SynSent => {
                if hdr.flags.ack && hdr.ack == self.snd.iss + 1 {
                    self.close_with(TcbEvent::Reset, &mut out.events);
                }
            }
            _ if hdr.seq == self.rcv.nxt => self.close_with(TcbEvent::Reset, &mut out.events),
            _ => {
                if u64::from(hdr.seq - self.rcv.nxt) < self.rcv.space.max(1) {
                    out.segs.push(self.make_ack(now, PacketKind::TcpAck));
                }
            }
        }
    }

    fn on_segment_syn_sent(
        &mut self,
        cfg: &NetConfig,
        hdr: &TcpHeader,
        now: SimTime,
        out: &mut TcbOutput,
    ) {
        if !(hdr.flags.syn && hdr.flags.ack) || hdr.ack != self.snd.iss + 1 {
            return; // not our SYN-ACK; ignore (subset: no simultaneous open)
        }
        self.snd.on_handshake_ack(hdr, &mut self.counters);
        self.absorb_syn(hdr);
        // the SYN-ACK confirms ECN with ECE alone (RFC 3168)
        self.ecn_on = cfg.ecn && hdr.flags.ece && !hdr.flags.cwr;
        self.snd.update_window(hdr, &mut self.counters);
        self.state = TcpState::Established;
        out.events.push(TcbEvent::Established);
        // ACK the SYN-ACK (third step of the rendezvous, §3)
        out.segs.push(self.make_ack(now, PacketKind::TcpAck));
        // flush anything queued while connecting
        self.try_output(cfg, now, &mut out.segs);
    }

    fn on_segment_synchronized(
        &mut self,
        cfg: &NetConfig,
        hdr: &TcpHeader,
        payload: &[u8],
        now: SimTime,
        out: &mut TcbOutput,
    ) {
        if self.ts_on {
            self.rcv.note_tsval(hdr);
        }

        // -- SYN-ACK retransmission while in SynRcvd: re-ack
        if hdr.flags.syn {
            out.segs.push(self.make_ack(now, PacketKind::TcpAck));
            return;
        }

        // -- ACK processing
        if hdr.flags.ack {
            if !self.process_ack(cfg, hdr, payload.is_empty(), now, out) {
                return; // unacceptable ACK: segment dropped wholesale
            }
            if self.state == TcpState::Closed {
                return;
            }
        }

        // -- payload processing
        if !payload.is_empty() {
            self.process_payload(cfg, hdr.seq, payload.len(), now, out);
        }

        // -- FIN processing (only when it arrives in order, and only in
        // a state that accepts data: a FIN riding an unacceptable ACK in
        // SYN-RCVD must not advance `rcv_nxt` while the handshake is
        // still incomplete — RFC 793 would have reset such a segment
        // before FIN processing; the subset drops it instead)
        if hdr.flags.fin
            && matches!(self.state, TcpState::Established | TcpState::FinWait1 | TcpState::FinWait2)
            && self.rcv.on_fin(hdr.seq + payload.len() as u32)
        {
            out.events.push(TcbEvent::PeerClosed);
            match self.state {
                TcpState::Established => self.state = TcpState::CloseWait,
                // our FIN not yet acked: simultaneous close
                TcpState::FinWait1 => self.state = TcpState::Closing,
                _ => self.enter_time_wait(now),
            }
            out.segs.push(self.make_ack(now, PacketKind::TcpAck));
        }

        // -- send whatever the ACK/window opened up
        self.try_output(cfg, now, &mut out.segs);
    }

    /// Returns `false` when the ACK acknowledges data we never sent
    /// (RFC 793: "send an ACK, drop the segment, and return") — the
    /// caller must discard the rest of the segment too.
    fn process_ack(
        &mut self,
        cfg: &NetConfig,
        hdr: &TcpHeader,
        payload_empty: bool,
        now: SimTime,
        out: &mut TcbOutput,
    ) -> bool {
        if self.snd.max().lt(hdr.ack) {
            out.segs.push(self.make_ack(now, PacketKind::TcpAck));
            return false;
        }
        if self.ecn_on && hdr.flags.ece && !hdr.flags.syn {
            self.snd.on_ece(hdr.ack, &mut self.counters);
        }

        if self.state == TcpState::SynRcvd && hdr.ack == self.snd.iss + 1 {
            self.snd.on_handshake_ack(hdr, &mut self.counters);
            self.state = TcpState::Established;
            out.events.push(TcbEvent::Established);
        } else if self.snd.advances(hdr.ack) {
            let fin_acked = self.snd.on_new_ack(cfg, hdr, self.ts_on, now, out, &mut self.counters);
            if fin_acked {
                match self.state {
                    TcpState::FinWait1 if !self.rcv.fin_rcvd => self.state = TcpState::FinWait2,
                    TcpState::FinWait1 | TcpState::Closing => self.enter_time_wait(now),
                    TcpState::LastAck => {
                        self.close_with(TcbEvent::Closed, &mut out.events);
                        return true;
                    }
                    _ => {}
                }
            }
        } else if hdr.ack == self.snd.sendbuf.una()
            && self.snd.sendbuf.bytes_in_flight() > 0
            && payload_empty
        {
            self.counters.dupacks_rx += 1;
            if let Some(seg) = self.snd.on_dup_ack(cfg) {
                self.count_retransmit(true);
                out.segs.push(self.make_data_segment(seg, now, true));
                self.snd.arm_rto(now);
            }
        }

        self.snd.update_window(hdr, &mut self.counters);
        true
    }

    fn process_payload(
        &mut self,
        cfg: &NetConfig,
        seq: SeqNum,
        len: usize,
        now: SimTime,
        out: &mut TcbOutput,
    ) {
        if !matches!(self.state, TcpState::Established | TcpState::FinWait1 | TcpState::FinWait2) {
            return;
        }
        let ack_due = match self.rcv.on_payload(cfg.ack_policy, seq, len, now) {
            // re-ACK so the peer's retransmission stops
            Arrival::Duplicate => true,
            // the duplicate ACK triggers the peer's fast retransmit
            Arrival::OutOfOrder => {
                self.counters.ooo_drops += 1;
                true
            }
            Arrival::InOrder { new, ack_due } => {
                out.events.push(TcbEvent::Delivered(new));
                ack_due
            }
        };
        if ack_due {
            out.segs.push(self.make_ack(now, PacketKind::TcpAck));
        }
    }

    // ----- timers ------------------------------------------------------

    /// Advances timer state to `now`, appending retransmissions,
    /// zero-window probes, delayed ACKs and TIME-WAIT reaping and abort
    /// events to `out`.
    pub fn on_timer(&mut self, cfg: &NetConfig, now: SimTime, out: &mut TcbOutput) {
        if self.timewait_deadline.is_some_and(|dl| dl <= now) {
            self.close_with(TcbEvent::Closed, &mut out.events);
            return;
        }
        if self.rcv.delack_due(now) {
            out.segs.push(self.make_ack(now, PacketKind::TcpAck));
        }
        if self.snd.rto_deadline.take_if(|dl| *dl <= now).is_none() {
            return;
        }
        if !self.snd.back_off(&mut out.ops) {
            self.close_with(TcbEvent::Reset, &mut out.events);
            return;
        }
        if self.window_blocked() {
            // persist role, congestion state untouched: one byte at
            // SND.UNA−1, already acknowledged, so the receiver discards
            // it as a duplicate and re-ACKs with its current window. It
            // works even when the head message cannot be split, and the
            // NIC builds it without fetching host data, so it is a
            // control packet.
            let probe = self.make_ack(now, PacketKind::TcpControl);
            let seq = SeqNum(self.snd.sendbuf.una().0.wrapping_sub(1));
            out.segs.push(SegmentOut { seq, payload: SegPayload::ProbeByte, ..probe });
            self.counters.persist_probes += 1;
            self.snd.arm_rto(now);
            return;
        }
        let episode = self.snd.on_timeout();
        let retransmit = match self.state {
            TcpState::SynSent => Some(self.make_syn(cfg, now, false, true)),
            TcpState::SynRcvd => Some(self.make_syn(cfg, now, true, true)),
            _ if self.snd.sendbuf.bytes_in_flight() > 0 => {
                self.snd.rewind(cfg).map(|seg| self.make_data_segment(seg, now, true))
            }
            _ if self.snd.fin_outstanding() => Some(self.make_fin(now, true)),
            _ => None,
        };
        if let Some(seg) = retransmit {
            self.count_retransmit(false);
            out.segs.push(seg);
            // a SYN always carries a timestamp; later segments only
            // when both ends negotiated them
            let stamped = self.ts_on || self.state == TcpState::SynSent;
            let episode = RtoEpisode { retransmit_ts: stamped.then(|| ts_now(now)), ..episode };
            self.snd.open_episode(episode, &mut self.counters);
        }
        if self.has_outstanding() {
            self.snd.arm_rto(now);
        }
    }

    // ----- output ------------------------------------------------------

    /// Appends to `out` as much buffered data as the congestion and
    /// peer windows allow, then a FIN if one is queued and the buffer
    /// drained, and arms the retransmission timer in the role that fits:
    /// RTO while anything is outstanding, persist while the window
    /// blocks.
    pub fn try_output(&mut self, cfg: &NetConfig, now: SimTime, out: &mut Vec<SegmentOut>) {
        // new data (and a first FIN) flow only in these states; FIN
        // retransmission is handled by the timer path.
        if !matches!(self.state, TcpState::Established | TcpState::CloseWait) {
            return;
        }
        let persisting = self.snd.rto_deadline.is_some() && !self.has_outstanding();
        while let Some(seg) = self.snd.next_segment(cfg, self.ts_on, now, &mut self.counters) {
            out.push(self.make_data_segment(seg, now, false));
            // every outgoing segment acknowledges rcv_nxt, satisfying any
            // pending delayed ACK (the piggyback rule)
            self.rcv.acked();
        }
        if self.snd.fin_due() {
            self.snd.fin_sent = true;
            out.push(self.make_fin(now, false));
            self.state = match self.state {
                TcpState::CloseWait => TcpState::LastAck,
                _ => TcpState::FinWait1,
            };
        }
        if persisting && self.has_outstanding() {
            // the first segment to leave an open window gets a fresh
            // RTO, not what remains of the persist interval
            self.snd.rto_deadline = None;
        }
        if (self.has_outstanding() || self.window_blocked()) && self.snd.rto_deadline.is_none() {
            self.snd.arm_rto(now);
        }
    }

    // ----- segment builders -------------------------------------------

    /// The one segment constructor: acknowledges RCV.NXT (noting it as
    /// Last.ACK.sent), advertises the receive window and carries
    /// timestamps when negotiated. Callers override the rest.
    fn segment(
        &mut self,
        seq: SeqNum,
        flags: TcpFlags,
        kind: PacketKind,
        now: SimTime,
    ) -> SegmentOut {
        self.rcv.last_ack_sent = self.rcv.nxt;
        SegmentOut {
            seq,
            ack: self.rcv.nxt,
            flags,
            window: self.rcv.window(),
            options: TcpOptions {
                mss: None,
                window_scale: None,
                timestamps: self.ts_on.then(|| (ts_now(now), self.rcv.ts_recent)),
            },
            payload: SegPayload::Empty,
            kind,
            is_retransmit: false,
            ect: false,
        }
    }

    /// Our SYN or SYN-ACK. A SYN is sent before anything is received,
    /// so it acknowledges RCV.NXT's initial 0.
    fn make_syn(
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
            window_scale: (!is_syn_ack || self.ws_negotiated).then_some(self.rcv.wscale),
            timestamps: (!is_syn_ack || self.ts_on).then(|| (ts_now(now), self.rcv.ts_recent)),
        };
        let mut flags = if is_syn_ack { TcpFlags::SYN_ACK } else { TcpFlags::SYN };
        if is_syn_ack {
            flags.ece = self.ecn_on; // confirm (RFC 3168)
        } else if cfg.ecn {
            flags.ece = true; // offer
            flags.cwr = true;
        }
        let syn = self.segment(self.snd.iss, flags, PacketKind::TcpControl, now);
        SegmentOut { options, is_retransmit, ..syn }
    }

    fn make_ack(&mut self, now: SimTime, kind: PacketKind) -> SegmentOut {
        let flags = TcpFlags { ece: self.ece(), ..TcpFlags::ACK };
        self.segment(self.snd.sendbuf.nxt() + u32::from(self.snd.fin_sent), flags, kind, now)
    }

    fn make_data_segment(
        &mut self,
        seg: SegmentData,
        now: SimTime,
        is_retransmit: bool,
    ) -> SegmentOut {
        let cwr = self.ecn_on && std::mem::take(&mut self.snd.cwr_due);
        let flags = TcpFlags { ack: true, psh: seg.psh, ece: self.ece(), cwr, ..TcpFlags::NONE };
        SegmentOut {
            payload: SegPayload::Buffered(seg.len),
            is_retransmit,
            // retransmissions are not ECT (RFC 3168 §6.1.5)
            ect: self.ecn_on && !is_retransmit,
            ..self.segment(seg.seq, flags, PacketKind::TcpData, now)
        }
    }

    fn make_fin(&mut self, now: SimTime, is_retransmit: bool) -> SegmentOut {
        let flags = TcpFlags { fin: true, ack: true, ..TcpFlags::NONE };
        let fin = self.segment(self.snd.fin_seq(), flags, PacketKind::TcpControl, now);
        SegmentOut { is_retransmit, ..fin }
    }

    /// Whether our ACKs echo ECN-Echo.
    fn ece(&self) -> bool {
        self.ecn_on && self.rcv.ece_pending
    }

    // ----- helpers -----------------------------------------------------

    /// Takes in the options and initial window of the peer's SYN (or
    /// SYN-ACK).
    fn absorb_syn(&mut self, syn: &TcpHeader) {
        self.snd.on_syn(syn);
        self.rcv.on_syn(syn);
        self.ws_negotiated = syn.options.window_scale.is_some();
        self.ts_on = syn.options.timestamps.is_some();
    }

    /// Counts one retransmission in both tallies the oracle compares.
    fn count_retransmit(&mut self, fast: bool) {
        self.retransmit_count += 1;
        let c = &mut self.counters;
        *(if fast { &mut c.fast_retransmits } else { &mut c.rto_retransmits }) += 1;
    }

    fn enter_time_wait(&mut self, now: SimTime) {
        self.state = TcpState::TimeWait;
        self.snd.rto_deadline = None;
        self.rcv.delack_deadline = None;
        self.timewait_deadline = Some(now + TIME_WAIT_DURATION);
    }

    /// Moves to CLOSED, disarming every timer, and reports `event`.
    fn close_with(&mut self, event: TcbEvent, events: &mut Vec<TcbEvent>) {
        self.state = TcpState::Closed;
        self.clear_timers();
        events.push(event);
    }

    fn clear_timers(&mut self) {
        self.snd.rto_deadline = None;
        self.rcv.delack_deadline = None;
        self.timewait_deadline = None;
    }
}

impl Sender {
    fn new(cfg: &NetConfig, iss: SeqNum) -> Sender {
        Sender {
            iss,
            sendbuf: SendBuffer::new(cfg.segmentation, iss + 1),
            wnd: 0,
            wl1: SeqNum(0),
            wl2: SeqNum(0),
            wscale: 0,
            peer_mss: 536,
            congestion: Congestion::new(cfg.max_tcp_payload(), cfg.initial_cwnd_segments),
            rtt: RttEstimator::new(cfg.min_rto),
            retries: 0,
            timed_seq: None,
            rto_episode: None,
            rto_deadline: None,
            fin_queued: false,
            fin_sent: false,
            fin_is_acked: false,
            cwr_due: false,
            ecn_reduced_at: iss,
        }
    }

    /// Takes in the peer's MSS, window scale and (unscaled) SYN window.
    fn on_syn(&mut self, syn: &TcpHeader) {
        if let Some(mss) = syn.options.mss {
            self.peer_mss = usize::from(mss);
        }
        self.wscale = syn.options.window_scale.map_or(0, |ws| ws.min(14));
        self.wnd = u64::from(syn.window);
        self.wl1 = syn.seq;
        self.wl2 = SeqNum(0);
    }

    /// Our FIN's sequence number: the one after the last data byte.
    fn fin_seq(&self) -> SeqNum {
        self.sendbuf.end()
    }

    /// SND.MAX: one past the highest sequence number sent, our FIN's
    /// included.
    fn max(&self) -> SeqNum {
        if self.fin_sent {
            self.fin_seq() + 1
        } else {
            self.sendbuf.max_sent()
        }
    }

    fn fin_outstanding(&self) -> bool {
        self.fin_sent && !self.fin_is_acked
    }

    /// Unacked data or an unacked FIN.
    fn has_outstanding(&self) -> bool {
        self.sendbuf.bytes_in_flight() > 0 || self.fin_outstanding()
    }

    /// Whether an acceptable `ack` advances SND.UNA, over data or our
    /// FIN.
    fn advances(&self, ack: SeqNum) -> bool {
        self.sendbuf.una().lt(ack)
            && (ack.le(self.sendbuf.end()) || (self.fin_outstanding() && ack == self.fin_seq() + 1))
    }

    /// The ACK of our SYN or SYN-ACK: the handshake's retransmissions
    /// are over.
    fn on_handshake_ack(&mut self, hdr: &TcpHeader, counters: &mut TcpCounters) {
        self.eifel_check(hdr, counters);
        self.retries = 0;
        self.rto_deadline = None;
    }

    /// ECN-Echo: reduce once per window (RFC 3168 §6.1.2).
    fn on_ece(&mut self, ack: SeqNum, counters: &mut TcpCounters) {
        if self.ecn_reduced_at.lt(ack) {
            self.congestion.on_ecn();
            self.cwr_due = true;
            counters.ecn_reductions += 1;
            self.ecn_reduced_at = self.sendbuf.nxt();
        }
    }

    /// Applies an ACK that advances SND.UNA: judges and ends the RTO
    /// episode, samples the RTT, releases the acknowledged send units
    /// (reporting each as [`TcbEvent::SendComplete`]), opens the
    /// congestion window and restarts or clears the retransmission
    /// timer (`try_output` re-arms it as a persist timer if the window
    /// blocks). Returns whether it acknowledged our FIN.
    fn on_new_ack(
        &mut self,
        cfg: &NetConfig,
        hdr: &TcpHeader,
        ts_on: bool,
        now: SimTime,
        out: &mut TcbOutput,
        counters: &mut TcpCounters,
    ) -> bool {
        let spurious = self.eifel_check(hdr, counters);
        self.sample_rtt(hdr, ts_on, now, &mut out.ops);
        let acked = u64::from(hdr.ack - self.sendbuf.una());
        let fin_acked = self.fin_sent && hdr.ack == self.fin_seq() + 1;
        // An ACK covering our FIN points one past the last data byte;
        // clamp it so the send buffer still marks all data acked.
        let data_ack = if fin_acked { self.fin_seq() } else { hdr.ack };
        self.sendbuf.on_ack(data_ack, |token| out.events.push(TcbEvent::SendComplete(token)));
        self.congestion.on_ack(acked, &mut out.ops);
        if let Some(episode) = spurious {
            self.eifel_respond(cfg, episode, hdr.flags.ece, acked);
        }
        self.retries = 0;
        self.fin_is_acked |= fin_acked;
        if self.has_outstanding() {
            self.arm_rto(now);
        } else {
            self.rto_deadline = None;
        }
        fin_acked
    }

    /// RTT sampling: timestamps give an unambiguous echo (Karn's rule
    /// satisfied by construction); otherwise use the timed segment if
    /// it was not retransmitted.
    fn sample_rtt(&mut self, hdr: &TcpHeader, ts_on: bool, now: SimTime, ops: &mut OpCounters) {
        if ts_on {
            if let Some((_, tsecr)) = hdr.options.timestamps {
                let sample_us = ts_now(now).wrapping_sub(tsecr);
                if tsecr != 0 && sample_us < 60_000_000 {
                    let sent = SimTime::from_picos(
                        now.as_picos().saturating_sub(u64::from(sample_us) * 1_000_000),
                    );
                    self.rtt.sample(sent, now, ops);
                }
            }
        } else if let Some((seq, sent)) = self.timed_seq {
            if seq.lt(hdr.ack) {
                self.rtt.sample(sent, now, ops);
                self.timed_seq = None;
            }
        }
    }

    /// A duplicate ACK: marks the open RTO episode and, on the third,
    /// returns the segment to fast-retransmit.
    fn on_dup_ack(&mut self, cfg: &NetConfig) -> Option<SegmentData> {
        if let Some(episode) = &mut self.rto_episode {
            episode.dupack_seen = true;
        }
        if !self.congestion.on_dup_ack() {
            return None;
        }
        self.sendbuf.retransmit_front(self.max_payload(cfg))
    }

    /// Takes the window an ACK advertises, unless an older segment than
    /// the one that last updated it carries it (RFC 793 SND.WL1/WL2).
    fn update_window(&mut self, hdr: &TcpHeader, counters: &mut TcpCounters) {
        if self.wl1.lt(hdr.seq) || (self.wl1 == hdr.seq && self.wl2.le(hdr.ack)) {
            let before = self.wnd;
            self.wnd = u64::from(hdr.window) << self.wscale;
            self.wl1 = hdr.seq;
            self.wl2 = hdr.ack;
            if self.wnd == 0 && before != 0 {
                counters.zero_window_events += 1;
            }
        }
    }

    /// The next segment of new data the congestion and peer windows
    /// allow, timed for an RTT sample when timestamps are off.
    fn next_segment(
        &mut self,
        cfg: &NetConfig,
        ts_on: bool,
        now: SimTime,
        counters: &mut TcpCounters,
    ) -> Option<SegmentData> {
        let in_flight = self.sendbuf.bytes_in_flight();
        let wnd = self.wnd.min(self.congestion.cwnd()).saturating_sub(in_flight);
        let snd_max = self.sendbuf.max_sent();
        let seg = self.sendbuf.next_segment(self.max_payload(cfg), wnd)?;
        if seg.seq.lt(snd_max) {
            counters.gobackn_resends += 1;
        }
        if !ts_on && self.timed_seq.is_none() {
            self.timed_seq = Some((seg.seq, now));
        }
        Some(seg)
    }

    /// Whether our FIN goes out now: the application closed and all its
    /// data has been handed to the wire.
    fn fin_due(&self) -> bool {
        self.fin_queued && !self.fin_sent && self.sendbuf.bytes_unsent() == 0
    }

    /// The retransmission timer expired: counts the retry and backs the
    /// RTO off. `false` once the retries are exhausted.
    fn back_off(&mut self, ops: &mut OpCounters) -> bool {
        self.retries += 1;
        if self.retries > MAX_RETRIES {
            return false;
        }
        self.rtt.backoff();
        ops.muls += 1; // backoff shift/clamp arithmetic
        true
    }

    /// An RTO in its retransmission role: collapses the congestion
    /// window and returns the episode it would open, with RFC 4015's
    /// `pipe_prev` for data and the duplicate ACKs since SND.UNA last
    /// advanced, both read before the collapse clears them.
    fn on_timeout(&mut self) -> RtoEpisode {
        let flight = self.sendbuf.bytes_in_flight();
        let pipe_prev = if flight > 0 { flight.max(self.congestion.ssthresh()) } else { 0 };
        let dupack_seen = self.congestion.dup_acks() > 0;
        self.congestion.on_timeout();
        RtoEpisode { retransmit_ts: None, pipe_prev, dupack_seen }
    }

    /// Go-back-N from SND.UNA: the first segment to resend.
    fn rewind(&mut self, cfg: &NetConfig) -> Option<SegmentData> {
        self.sendbuf.rewind_to_una();
        // Karn: do not time retransmitted data
        self.timed_seq = None;
        self.sendbuf.next_segment(self.max_payload(cfg), u64::MAX)
    }

    /// Opens an RTO episode unless one is open already.
    fn open_episode(&mut self, episode: RtoEpisode, counters: &mut TcpCounters) {
        if self.rto_episode.is_none() {
            counters.rto_episodes += 1;
            self.rto_episode = Some(episode);
        }
    }

    /// SND.UNA advanced: any RTO episode is over. Eifel detection (RFC
    /// 3522 §3.2) judges it on this first advancing ACK: an echoed TSval
    /// older than the retransmission's can only come from the original,
    /// so the timeout was spurious. Returns the episode when it was.
    fn eifel_check(&mut self, hdr: &TcpHeader, counters: &mut TcpCounters) -> Option<RtoEpisode> {
        let episode = self.rto_episode.take()?;
        let (Some(retx_ts), Some((_, tsecr))) = (episode.retransmit_ts, hdr.options.timestamps)
        else {
            return None;
        };
        // serial-number comparison: the 32-bit clock wraps
        let spurious = (tsecr.wrapping_sub(retx_ts) as i32) < 0;
        counters.spurious_rtos += u64::from(spurious);
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

    fn max_payload(&self, cfg: &NetConfig) -> usize {
        match cfg.segmentation {
            SegmentationPolicy::MessagePerSegment => cfg.max_tcp_payload(),
            SegmentationPolicy::Stream => cfg.max_tcp_payload().min(self.peer_mss),
        }
    }

    fn arm_rto(&mut self, now: SimTime) {
        self.rto_deadline = Some(now + self.rtt.rto());
    }
}

impl Receiver {
    fn new(space: u64) -> Receiver {
        Receiver {
            nxt: SeqNum(0),
            space,
            wscale: wscale_for(space),
            fin_rcvd: false,
            segs_unacked: 0,
            delack_deadline: None,
            ts_recent: 0,
            last_ack_sent: SeqNum(0),
            ece_pending: false,
        }
    }

    /// Synchronizes on the peer's SYN (or SYN-ACK): RCV.NXT follows it,
    /// our window goes unscaled unless the peer offered scaling, and its
    /// TSval is the first to echo.
    fn on_syn(&mut self, syn: &TcpHeader) {
        self.nxt = syn.seq + 1;
        if syn.options.window_scale.is_none() {
            self.wscale = 0;
        }
        if let Some((tsval, _)) = syn.options.timestamps {
            self.ts_recent = tsval;
        }
    }

    /// TS.Recent maintenance (RFC 7323 §4.3): a newer TSval on a segment
    /// that starts at or before the last ACK we sent, so a delayed ACK
    /// echoes the earliest segment it acknowledges.
    fn note_tsval(&mut self, hdr: &TcpHeader) {
        if let Some((tsval, _)) = hdr.options.timestamps {
            // serial-number comparison: the 32-bit clock wraps
            if tsval.wrapping_sub(self.ts_recent) as i32 >= 0 && hdr.seq.le(self.last_ack_sent) {
                self.ts_recent = tsval;
            }
        }
    }

    /// Classifies `len` payload bytes at `seq`, accepting them when in
    /// order and applying the ACK policy to them.
    fn on_payload(&mut self, policy: AckPolicy, seq: SeqNum, len: usize, now: SimTime) -> Arrival {
        let end = seq + len as u32;
        if end.le(self.nxt) {
            return Arrival::Duplicate;
        }
        if self.nxt.lt(seq) {
            return Arrival::OutOfOrder;
        }
        // trim any already-received prefix
        let new = (self.nxt - seq) as usize..len;
        self.nxt = end;
        let ack_due = match policy {
            AckPolicy::Immediate => true,
            AckPolicy::Delayed(timeout) => {
                self.segs_unacked += 1;
                if self.segs_unacked < 2 {
                    self.delack_deadline = Some(now + timeout);
                }
                self.segs_unacked >= 2
            }
        };
        if ack_due {
            self.acked();
        }
        Arrival::InOrder { new, ack_due }
    }

    /// Consumes the peer's FIN if it is next in sequence after a
    /// segment ending at `end`; its ACK goes out at once.
    fn on_fin(&mut self, end: SeqNum) -> bool {
        if end != self.nxt || self.fin_rcvd {
            return false;
        }
        self.nxt += 1;
        self.fin_rcvd = true;
        self.acked();
        true
    }

    /// Whether the delayed-ACK timer is due at `now`; settles it when
    /// it is.
    fn delack_due(&mut self, now: SimTime) -> bool {
        let due = self.delack_deadline.is_some_and(|dl| dl <= now);
        if due {
            self.acked();
        }
        due
    }

    /// An ACK of RCV.NXT is going out: nothing is owed any more.
    fn acked(&mut self) {
        self.segs_unacked = 0;
        self.delack_deadline = None;
    }

    /// The window field we advertise: the posted space, scaled down.
    fn window(&self) -> u16 {
        let w = self.space >> self.wscale;
        w.min(u64::from(u16::MAX)) as u16
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
