//! Round-trip-time estimation and retransmission timeout (Jacobson /
//! Karels, with Karn's rule and RFC 1323 timestamp-based samples).
//!
//! §4.2.2 of the paper: "parsing the TCP header induces a high
//! processing cost because of a series of multiply operations for the
//! RTT estimators" on the multiply-less LANai. The estimator therefore
//! reports every multiply/divide it performs through [`OpCounters`] so
//! the NIC model can charge the software-multiply penalty.

use qpip_sim::time::{SimDuration, SimTime};

use crate::types::OpCounters;

/// Scaled-fixed-point RTT estimator state.
///
/// `srtt` is kept scaled by 8 and `rttvar` by 4, exactly as in the BSD
/// implementation the paper's firmware was derived from ([6, 32]).
#[derive(Debug, Clone)]
pub struct RttEstimator {
    /// Smoothed RTT × 8, in microseconds.
    srtt_x8: u64,
    /// RTT variance × 4, in microseconds.
    rttvar_x4: u64,
    /// Current retransmission timeout.
    rto: SimDuration,
    /// Lower bound on RTO.
    min_rto: SimDuration,
    /// Whether any sample has been taken yet.
    seeded: bool,
    /// Consecutive backoffs applied since the last valid sample.
    backoff_shift: u32,
    samples: u64,
    /// Most recent raw (unsmoothed) sample, for tracing.
    last_sample: Option<SimDuration>,
}

/// Initial RTO before any sample (RFC 6298 suggests 1 s; the firmware
/// uses a tighter default appropriate to a SAN).
const INITIAL_RTO: SimDuration = SimDuration::from_millis(100);
/// Cap on RTO growth.
const MAX_RTO: SimDuration = SimDuration::from_secs(4);

impl RttEstimator {
    /// Creates an estimator with the given RTO floor.
    pub fn new(min_rto: SimDuration) -> Self {
        RttEstimator {
            srtt_x8: 0,
            rttvar_x4: 0,
            rto: INITIAL_RTO.max(min_rto),
            min_rto,
            seeded: false,
            backoff_shift: 0,
            samples: 0,
            last_sample: None,
        }
    }

    /// Feeds one RTT sample (`sent` → `now`), updating SRTT, RTTVAR and
    /// RTO. Per Karn's rule the caller must not feed samples taken from
    /// retransmitted segments — timestamp-based sampling (RFC 1323)
    /// makes that unambiguous and is what the engine uses.
    pub fn sample(&mut self, sent: SimTime, now: SimTime, ops: &mut OpCounters) {
        let m_us = now.duration_since(sent).as_picos() / 1_000_000; // µs
        if !self.seeded {
            self.seeded = true;
            self.srtt_x8 = m_us * 8;
            self.rttvar_x4 = m_us * 2; // rttvar = m/2
        } else {
            // delta = m - srtt  (signed)
            let srtt = self.srtt_x8 / 8;
            let delta = m_us as i64 - srtt as i64;
            // srtt += delta/8  -> srtt_x8 += delta
            self.srtt_x8 = (self.srtt_x8 as i64 + delta).max(1) as u64;
            // rttvar += (|delta| - rttvar)/4 -> rttvar_x4 += |delta| - rttvar
            let rttvar = self.rttvar_x4 / 4;
            self.rttvar_x4 = (self.rttvar_x4 as i64 + (delta.abs() - rttvar as i64)).max(1) as u64;
        }
        // The BSD-derived firmware performs this block with genuine
        // multiply/divide instructions (scale/unscale, RTO clamp and the
        // timestamp math around it): six 32-bit multiplies per ACK, which
        // is what lifts ACK parsing from 7 µs to 14 µs in Table 3.
        ops.muls += 6;
        self.backoff_shift = 0;
        self.samples += 1;
        self.last_sample = Some(SimDuration::from_micros(m_us));
        let rto_us = self.srtt_x8 / 8 + self.rttvar_x4; // srtt + 4*rttvar
        self.rto = SimDuration::from_micros_f64(rto_us as f64).max(self.min_rto).min(MAX_RTO);
    }

    /// Current retransmission timeout (with any exponential backoff).
    pub fn rto(&self) -> SimDuration {
        self.rto
    }

    /// Exponential backoff after a retransmission timeout fires.
    pub fn backoff(&mut self) {
        self.backoff_shift = (self.backoff_shift + 1).min(12);
        self.rto = self.rto.saturating_mul(2).min(MAX_RTO);
    }

    /// Smoothed RTT, if seeded.
    pub fn srtt(&self) -> Option<SimDuration> {
        self.seeded.then(|| SimDuration::from_micros_f64((self.srtt_x8 / 8) as f64))
    }

    /// Number of samples consumed.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// The most recent raw sample, if any.
    pub fn last_sample(&self) -> Option<SimDuration> {
        self.last_sample
    }
}

impl Default for RttEstimator {
    fn default() -> Self {
        RttEstimator::new(SimDuration::from_millis(10))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> SimDuration {
        SimDuration::from_micros(n)
    }

    #[test]
    fn first_sample_seeds_srtt_and_var() {
        let mut e = RttEstimator::new(us(0).max(SimDuration::from_picos(1)));
        let mut ops = OpCounters::default();
        e.sample(SimTime::ZERO, SimTime::from_micros(100), &mut ops);
        assert_eq!(e.srtt().unwrap(), us(100));
        // rto = srtt + 4*rttvar = 100 + 4*50 = 300us
        assert_eq!(e.rto(), us(300));
        assert_eq!(ops.muls, 6);
    }

    #[test]
    fn steady_samples_converge_and_tighten_variance() {
        let mut e = RttEstimator::new(SimDuration::from_picos(1));
        let mut ops = OpCounters::default();
        let mut t = SimTime::ZERO;
        for _ in 0..50 {
            let sent = t;
            t += us(100);
            e.sample(sent, t, &mut ops);
        }
        let srtt = e.srtt().unwrap().as_micros_f64();
        assert!((srtt - 100.0).abs() < 2.0, "{srtt}");
        // variance decays towards zero, so rto approaches srtt + floor
        assert!(e.rto() < us(140), "{}", e.rto());
        assert_eq!(e.samples(), 50);
    }

    #[test]
    fn rto_respects_min_floor() {
        let mut e = RttEstimator::new(SimDuration::from_millis(10));
        let mut ops = OpCounters::default();
        let mut t = SimTime::ZERO;
        for _ in 0..20 {
            let sent = t;
            t += us(50);
            e.sample(sent, t, &mut ops);
        }
        assert_eq!(e.rto(), SimDuration::from_millis(10));
    }

    #[test]
    fn rto_grows_with_variance() {
        let mut e = RttEstimator::new(SimDuration::from_picos(1));
        let mut ops = OpCounters::default();
        let mut t = SimTime::ZERO;
        for (i, rtt) in [100u64, 500, 100, 500, 100, 500].iter().enumerate() {
            let sent = t;
            t = t + us(*rtt) + us(i as u64);
            e.sample(sent, t, &mut ops);
        }
        // oscillating RTTs keep rttvar high: RTO well above mean RTT
        assert!(e.rto() > us(500), "{}", e.rto());
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let mut e = RttEstimator::new(SimDuration::from_millis(10));
        let before = e.rto();
        e.backoff();
        assert_eq!(e.rto(), before.saturating_mul(2));
        for _ in 0..20 {
            e.backoff();
        }
        assert_eq!(e.rto(), SimDuration::from_secs(4));
    }

    #[test]
    fn sample_resets_backoff() {
        let mut e = RttEstimator::new(SimDuration::from_millis(1));
        let mut ops = OpCounters::default();
        e.backoff();
        e.backoff();
        e.sample(SimTime::ZERO, SimTime::from_micros(100), &mut ops);
        assert!(e.rto() <= SimDuration::from_millis(1));
    }

    #[test]
    fn muls_accumulate_six_per_ack_sample() {
        // Table 3 calibration: each ACK's RTT update performs 6 multiplies.
        let mut e = RttEstimator::default();
        let mut ops = OpCounters::default();
        let mut t = SimTime::ZERO;
        for _ in 0..10 {
            let sent = t;
            t += us(100);
            e.sample(sent, t, &mut ops);
        }
        assert_eq!(ops.muls, 60);
    }
}
