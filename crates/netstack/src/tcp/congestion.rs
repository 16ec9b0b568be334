//! Congestion control: Reno slow start, congestion avoidance, fast
//! retransmit and fast recovery (§4.1: "The TCP stack implements …
//! congestion and flow control mechanisms").

use crate::types::OpCounters;

/// Number of duplicate ACKs that trigger fast retransmit.
pub const DUP_ACK_THRESHOLD: u32 = 3;

/// Reno congestion-control state for one connection.
#[derive(Debug, Clone)]
pub struct Congestion {
    /// Congestion window in bytes.
    cwnd: u64,
    /// Slow-start threshold in bytes.
    ssthresh: u64,
    /// Sender maximum segment size in bytes.
    mss: u64,
    /// Consecutive duplicate ACKs observed.
    dup_acks: u32,
    /// In fast recovery from the third duplicate ACK until the next ACK
    /// that advances SND.UNA (Reno: no NewReno `recover` point).
    in_recovery: bool,
    /// Bytes-acked accumulator for congestion avoidance.
    avoid_acc: u64,
}

impl Congestion {
    /// Creates state for a connection with the given MSS and initial
    /// window (in segments).
    pub fn new(mss: usize, initial_cwnd_segments: u32) -> Self {
        let mss = mss.max(1) as u64;
        Congestion {
            cwnd: mss * u64::from(initial_cwnd_segments.max(1)),
            ssthresh: u64::MAX / 2,
            mss,
            dup_acks: 0,
            in_recovery: false,
            avoid_acc: 0,
        }
    }

    /// Current congestion window in bytes.
    pub fn cwnd(&self) -> u64 {
        self.cwnd
    }

    /// Current slow-start threshold in bytes.
    pub fn ssthresh(&self) -> u64 {
        self.ssthresh
    }

    /// Whether the sender is in slow start.
    pub fn in_slow_start(&self) -> bool {
        self.cwnd < self.ssthresh
    }

    /// Duplicate-ACK count.
    pub fn dup_acks(&self) -> u32 {
        self.dup_acks
    }

    /// Whether fast recovery is in progress.
    pub fn in_recovery(&self) -> bool {
        self.in_recovery
    }

    /// Called when an ACK advances `snd_una` by `acked` bytes.
    pub fn on_ack(&mut self, acked: u64, ops: &mut OpCounters) {
        self.dup_acks = 0;
        if self.in_recovery {
            // leaving recovery: deflate to ssthresh
            self.in_recovery = false;
            self.cwnd = self.ssthresh.max(self.mss);
        }
        if self.in_slow_start() {
            self.cwnd += acked.min(self.mss);
        } else {
            // cwnd += mss*mss/cwnd per ACK: one multiply + one divide —
            // charged to the multiply budget on the LANai.
            ops.muls += 2;
            self.avoid_acc += self.mss * self.mss / self.cwnd.max(1);
            if self.avoid_acc >= self.mss {
                self.avoid_acc -= self.mss;
                self.cwnd += self.mss;
            }
        }
    }

    /// Called for each duplicate ACK; returns `true` exactly when the
    /// duplicate threshold is crossed and the caller must fast-retransmit.
    pub fn on_dup_ack(&mut self) -> bool {
        self.dup_acks += 1;
        if self.dup_acks == DUP_ACK_THRESHOLD && !self.in_recovery {
            // halve and inflate (Reno)
            self.ssthresh = (self.cwnd / 2).max(2 * self.mss);
            self.cwnd = self.ssthresh + u64::from(DUP_ACK_THRESHOLD) * self.mss;
            self.in_recovery = true;
            true
        } else if self.in_recovery {
            // window inflation during recovery
            self.cwnd += self.mss;
            false
        } else {
            false
        }
    }

    /// Called when an ECN-Echo arrives (RFC 3168): halve the window as
    /// for a loss, but with nothing to retransmit.
    pub fn on_ecn(&mut self) {
        self.ssthresh = (self.cwnd / 2).max(2 * self.mss);
        self.cwnd = self.ssthresh;
        self.avoid_acc = 0;
    }

    /// Called when the retransmission timer fires: collapse to one
    /// segment and restart slow start.
    pub fn on_timeout(&mut self) {
        self.ssthresh = (self.cwnd / 2).max(2 * self.mss);
        self.cwnd = self.mss;
        self.dup_acks = 0;
        self.in_recovery = false;
        self.avoid_acc = 0;
    }

    /// Undoes a timeout found spurious (RFC 4015 §3.2 step 5): the
    /// threshold returns to `pipe_prev`, the larger of the flight size
    /// and the threshold before the timeout, and the window to what is
    /// in flight plus the newly acknowledged bytes, those capped at IW
    /// (`initial_cwnd_segments`, as given to [`Congestion::new`]).
    /// The window never falls below one MSS: in message-per-segment
    /// mode a window smaller than the next message sends nothing, and
    /// the persist probes that follow never grow it.
    pub fn undo_timeout(
        &mut self,
        pipe_prev: u64,
        flight: u64,
        acked: u64,
        initial_cwnd_segments: u32,
    ) {
        let initial = self.mss * u64::from(initial_cwnd_segments.max(1));
        self.ssthresh = pipe_prev;
        self.cwnd = (flight + acked.min(initial)).max(self.mss);
        self.avoid_acc = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MSS: usize = 1460;

    fn ops() -> OpCounters {
        OpCounters::default()
    }

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut c = Congestion::new(MSS, 2);
        assert!(c.in_slow_start());
        let start = c.cwnd();
        // a full window of ACKs in slow start roughly doubles cwnd
        let acks = start / MSS as u64;
        let mut o = ops();
        for _ in 0..acks {
            c.on_ack(MSS as u64, &mut o);
        }
        assert_eq!(c.cwnd(), start + acks * MSS as u64);
        assert_eq!(o.muls, 0, "no multiplies in slow start");
    }

    #[test]
    fn congestion_avoidance_grows_linearly() {
        let mut c = Congestion::new(MSS, 2);
        let mut o = ops();
        // force out of slow start
        c.on_dup_ack();
        c.on_dup_ack();
        assert!(c.on_dup_ack()); // fast retransmit at 3 dups
        c.on_ack(MSS as u64, &mut o); // exit recovery
        assert!(!c.in_slow_start());
        let w = c.cwnd();
        let acks_per_rtt = w / MSS as u64;
        for _ in 0..acks_per_rtt {
            c.on_ack(MSS as u64, &mut o);
        }
        // one RTT of ACKs in avoidance grows cwnd by about one MSS
        let grown = c.cwnd() - w;
        assert!(grown <= 2 * MSS as u64 && grown >= MSS as u64 / 2, "{grown}");
        assert!(o.muls > 0, "avoidance charges multiplies");
    }

    #[test]
    fn triple_dup_ack_triggers_fast_retransmit_once() {
        let mut c = Congestion::new(MSS, 10);
        let before = c.cwnd();
        assert!(!c.on_dup_ack());
        assert!(!c.on_dup_ack());
        assert!(c.on_dup_ack());
        assert!(c.in_recovery());
        assert_eq!(c.ssthresh(), before / 2);
        // further dups only inflate
        assert!(!c.on_dup_ack());
        assert_eq!(c.cwnd(), before / 2 + 4 * MSS as u64);
    }

    #[test]
    fn ack_after_recovery_deflates_to_ssthresh() {
        let mut c = Congestion::new(MSS, 10);
        for _ in 0..3 {
            c.on_dup_ack();
        }
        let ss = c.ssthresh();
        let mut o = ops();
        c.on_ack(MSS as u64, &mut o);
        assert!(!c.in_recovery());
        assert!(c.cwnd() <= ss + MSS as u64);
    }

    #[test]
    fn timeout_collapses_window() {
        let mut c = Congestion::new(MSS, 10);
        let before = c.cwnd();
        c.on_timeout();
        assert_eq!(c.cwnd(), MSS as u64);
        assert_eq!(c.ssthresh(), before / 2);
        assert!(c.in_slow_start());
    }

    #[test]
    fn spurious_timeout_undo_restores_threshold_and_window() {
        let mut c = Congestion::new(MSS, 10);
        let pipe_prev = c.ssthresh().max(6 * MSS as u64);
        c.on_timeout();
        c.undo_timeout(pipe_prev, 4 * MSS as u64, 2 * MSS as u64, 10);
        assert_eq!(c.ssthresh(), pipe_prev);
        assert_eq!(c.cwnd(), 6 * MSS as u64);
        // bytes acked count at most IW
        c.undo_timeout(pipe_prev, MSS as u64, 40 * MSS as u64, 10);
        assert_eq!(c.cwnd(), 11 * MSS as u64);
    }

    #[test]
    fn spurious_timeout_undo_keeps_one_mss() {
        let mut c = Congestion::new(MSS, 2);
        c.on_timeout();
        c.undo_timeout(2 * MSS as u64, 0, 100, 2);
        assert_eq!(c.cwnd(), MSS as u64, "a 100-byte ACK with nothing in flight");
    }

    #[test]
    fn ecn_halves_without_recovery_state() {
        let mut c = Congestion::new(MSS, 10);
        let before = c.cwnd();
        c.on_ecn();
        assert_eq!(c.cwnd(), before / 2);
        assert_eq!(c.ssthresh(), before / 2);
        assert!(!c.in_recovery());
        assert!(!c.in_slow_start());
    }

    #[test]
    fn ssthresh_never_below_two_mss() {
        let mut c = Congestion::new(MSS, 1);
        c.on_timeout();
        c.on_timeout();
        assert_eq!(c.ssthresh(), 2 * MSS as u64);
    }

    #[test]
    fn ack_resets_dup_counter() {
        let mut c = Congestion::new(MSS, 4);
        c.on_dup_ack();
        c.on_dup_ack();
        c.on_ack(MSS as u64, &mut ops());
        assert_eq!(c.dup_acks(), 0);
        // threshold must be reached afresh
        assert!(!c.on_dup_ack());
        assert!(!c.on_dup_ack());
        assert!(c.on_dup_ack());
    }
}
