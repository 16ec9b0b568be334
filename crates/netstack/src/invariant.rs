//! The TCB invariant oracle.
//!
//! [`check_tcb`] audits one [`Tcb`] against the structural invariants
//! the state machine must preserve across *every* event — segment
//! arrival, timer expiry, or application call. The conformance harness
//! (`qpip-conform`) runs it after every injected segment, the fuzz loop
//! uses it as its crash detector, and debug builds of the engine run it
//! inline after every mutating call so the DES worlds inherit the
//! checks for free.
//!
//! Monotonicity properties (snd_una/rcv_nxt never move backwards, bytes
//! in flight never exceed the window that was open when they were sent)
//! cannot be judged from one state alone; callers keep a
//! [`TcbSnapshot`] from the previous check and pass it back in.

use qpip_wire::tcp::SeqNum;

use crate::tcp::tcb::{Tcb, TcpState};
use crate::types::ConnId;

/// One violated invariant: a stable name for matching in tests, the
/// connection it occurred on (filled in by the engine), and a
/// human-readable account of the offending values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation {
    /// Stable identifier of the violated invariant.
    pub invariant: &'static str,
    /// The connection the violation occurred on, when known.
    pub conn: Option<ConnId>,
    /// The offending values, rendered.
    pub detail: String,
}

impl InvariantViolation {
    pub(crate) fn for_conn(mut self, conn: ConnId) -> Self {
        self.conn = Some(conn);
        self
    }
}

impl core::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self.conn {
            Some(c) => {
                write!(f, "invariant `{}` violated on {}: {}", self.invariant, c, self.detail)
            }
            None => write!(f, "invariant `{}` violated: {}", self.invariant, self.detail),
        }
    }
}

/// The slice of TCB state needed to judge cross-event invariants.
#[derive(Debug, Clone, Copy)]
pub struct TcbSnapshot {
    /// SND.UNA at the previous check.
    pub snd_una: SeqNum,
    /// RCV.NXT at the previous check.
    pub rcv_nxt: SeqNum,
    /// Bytes in flight at the previous check.
    pub bytes_in_flight: u64,
    /// State at the previous check.
    pub state: TcpState,
}

impl TcbSnapshot {
    /// Captures the snapshot for the next check.
    pub fn of(tcb: &Tcb) -> TcbSnapshot {
        TcbSnapshot {
            snd_una: tcb.snd_una(),
            rcv_nxt: tcb.rcv_nxt(),
            bytes_in_flight: tcb.bytes_in_flight(),
            state: tcb.state(),
        }
    }
}

macro_rules! fail {
    ($name:expr, $($arg:tt)*) => {
        return Err(InvariantViolation {
            invariant: $name,
            conn: None,
            detail: format!($($arg)*),
        })
    };
}

/// Audits one TCB. `prev` is the snapshot taken at the previous check
/// of the same connection (`None` on the first check after creation).
///
/// # Errors
///
/// The first violated invariant, with a stable name and rendered values.
pub fn check_tcb(tcb: &Tcb, prev: Option<&TcbSnapshot>) -> Result<(), InvariantViolation> {
    let state = tcb.state();
    let una = tcb.snd_una();
    let nxt = tcb.snd_nxt();
    let end = tcb.snd_buffered_end();

    // -- send sequence space: SND.UNA ≤ SND.NXT ≤ end of buffered data
    if !una.le(nxt) || !nxt.le(end) {
        fail!("snd_seq_order", "snd_una={} snd_nxt={} buffered_end={}", una.0, nxt.0, end.0);
    }
    // -- byte accounting mirrors the sequence space exactly
    if tcb.bytes_in_flight() != u64::from(nxt - una) {
        fail!(
            "in_flight_accounting",
            "bytes_in_flight={} but snd_nxt-snd_una={}",
            tcb.bytes_in_flight(),
            nxt - una
        );
    }
    if tcb.bytes_buffered() != u64::from(end - una) {
        fail!(
            "buffered_accounting",
            "bytes_buffered={} but buffered_end-snd_una={}",
            tcb.bytes_buffered(),
            end - una
        );
    }

    // -- congestion controller sanity: both quantities are lower-bounded
    // by construction (cwnd ≥ 1 MSS, ssthresh ≥ 2 MSS after any loss)
    if tcb.cwnd() == 0 {
        fail!("cwnd_positive", "cwnd=0");
    }
    if tcb.ssthresh() == 0 {
        fail!("ssthresh_positive", "ssthresh=0");
    }

    // -- retransmission taxonomy is exhaustive
    if tcb.rto_retransmits() + tcb.fast_retransmits() != tcb.retransmit_count() {
        fail!(
            "retransmit_split",
            "rto={} + fast={} != total={}",
            tcb.rto_retransmits(),
            tcb.fast_retransmits(),
            tcb.retransmit_count()
        );
    }

    // -- FIN bookkeeping agrees with the state machine
    if tcb.fin_sent()
        && !matches!(
            state,
            TcpState::FinWait1
                | TcpState::FinWait2
                | TcpState::Closing
                | TcpState::TimeWait
                | TcpState::LastAck
                | TcpState::Closed
        )
    {
        fail!("fin_sent_state", "fin sent but state is {state:?}");
    }
    if tcb.peer_fin_rcvd()
        && !matches!(
            state,
            TcpState::CloseWait
                | TcpState::LastAck
                | TcpState::Closing
                | TcpState::TimeWait
                | TcpState::Closed
        )
    {
        fail!("peer_fin_state", "peer FIN consumed but state is {state:?}");
    }

    // -- timer ⇔ work consistency
    match state {
        TcpState::Closed => {
            if tcb.next_deadline().is_some() {
                fail!("closed_quiescent", "closed connection still has an armed timer");
            }
        }
        TcpState::TimeWait => {
            if !tcb.timewait_armed() {
                fail!("timewait_timer", "TIME-WAIT without its reaping timer armed");
            }
            if tcb.rto_armed() {
                fail!("timewait_timer", "TIME-WAIT with a retransmission timer armed");
            }
        }
        _ => {
            if tcb.timewait_armed() {
                fail!("timewait_timer", "TIME-WAIT timer armed in {state:?}");
            }
            // the retransmission timer has two mutually exclusive roles.
            // As the RTO it is armed exactly when something needs
            // retransmitting: unacked data, an unacked SYN/SYN-ACK, or an
            // unacked FIN. As the persist timer it is armed exactly when
            // unsent data is window-blocked with nothing outstanding.
            if tcb.rto_armed() != (tcb.has_outstanding() || tcb.window_blocked()) {
                fail!(
                    "rto_iff_outstanding_or_window_blocked",
                    "rto_armed={} but outstanding={} window_blocked={} in {state:?} (in_flight={} \
                     fin_sent={})",
                    tcb.rto_armed(),
                    tcb.has_outstanding(),
                    tcb.window_blocked(),
                    tcb.bytes_in_flight(),
                    tcb.fin_sent()
                );
            }
        }
    }

    // -- cross-event checks against the previous snapshot
    if let Some(p) = prev {
        if !p.snd_una.le(una) {
            fail!("snd_una_monotonic", "snd_una moved backwards: {} -> {}", p.snd_una.0, una.0);
        }
        // rcv_nxt is assigned (not advanced) when the SYN-ACK arrives in
        // SYN-SENT, so the monotonicity claim starts one check later
        if p.state != TcpState::SynSent && !p.rcv_nxt.le(tcb.rcv_nxt()) {
            fail!(
                "rcv_nxt_monotonic",
                "rcv_nxt moved backwards: {} -> {}",
                p.rcv_nxt.0,
                tcb.rcv_nxt().0
            );
        }
        // flight never exceeds the window that was open when it was
        // filled: new transmissions respect min(snd_wnd, cwnd) *now*,
        // while bytes already in flight are grandfathered when the peer
        // shrinks its window or a timeout collapses cwnd
        let bound = tcb.snd_wnd().max(tcb.cwnd()).max(p.bytes_in_flight);
        if tcb.bytes_in_flight() > bound {
            fail!(
                "flight_window_bound",
                "bytes_in_flight={} exceeds max(snd_wnd={}, cwnd={}, prev_flight={})",
                tcb.bytes_in_flight(),
                tcb.snd_wnd(),
                tcb.cwnd(),
                p.bytes_in_flight
            );
        }
    }

    Ok(())
}
