//! Simulation time and processor-cycle arithmetic.
//!
//! The simulation clock counts **picoseconds** in a `u64`, which gives a
//! little over 5 × 10⁶ simulated seconds of range — far more than any
//! experiment in this workspace needs — while resolving a single cycle of
//! the fastest modeled clock (the 550 MHz host CPU, ≈ 1 818 ps/cycle)
//! exactly enough that cycle accounting never collapses to zero.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the simulation clock, in picoseconds since time zero.
///
/// # Examples
///
/// ```
/// use qpip_sim::time::{SimTime, SimDuration};
///
/// let t = SimTime::ZERO + SimDuration::from_micros(5);
/// assert_eq!(t.as_picos(), 5_000_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulation time, in picoseconds.
///
/// # Examples
///
/// ```
/// use qpip_sim::time::SimDuration;
///
/// let d = SimDuration::from_nanos(1500);
/// assert_eq!(d.as_micros_f64(), 1.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant (used as an "infinite" deadline).
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from raw picoseconds.
    pub const fn from_picos(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Creates an instant from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns * 1_000)
    }

    /// Creates an instant from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000_000)
    }

    /// Creates an instant from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000_000)
    }

    /// Raw picoseconds since time zero.
    pub const fn as_picos(self) -> u64 {
        self.0
    }

    /// Time since zero, in microseconds (floating point).
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Time since zero, in seconds (floating point).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Duration elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self` (debug builds), saturating
    /// to zero in release builds.
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        debug_assert!(earlier <= self, "duration_since: {earlier:?} > {self:?}");
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration from raw picoseconds.
    pub const fn from_picos(ps: u64) -> Self {
        SimDuration(ps)
    }

    /// Creates a duration from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns * 1_000)
    }

    /// Creates a duration from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000_000)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000_000)
    }

    /// Creates a duration from seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000_000)
    }

    /// Creates a duration from floating-point microseconds, rounding to
    /// the nearest picosecond.
    pub fn from_micros_f64(us: f64) -> Self {
        debug_assert!(us >= 0.0);
        SimDuration((us * 1e6).round() as u64)
    }

    /// The time needed to move `bytes` bytes through a pipe of
    /// `bytes_per_sec` capacity.
    pub fn for_bytes(bytes: u64, bytes_per_sec: u64) -> Self {
        debug_assert!(bytes_per_sec > 0);
        SimDuration(mul_div(bytes, PICOS_PER_SEC, bytes_per_sec))
    }

    /// Raw picoseconds.
    pub const fn as_picos(self) -> u64 {
        self.0
    }

    /// Duration in nanoseconds, truncating.
    pub const fn as_nanos(self) -> u64 {
        self.0 / 1_000
    }

    /// Duration in microseconds (floating point).
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Duration in seconds (floating point).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Duration scaled by an integer factor, saturating.
    pub fn saturating_mul(self, k: u64) -> Self {
        SimDuration(self.0.saturating_mul(k))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.duration_since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_micros_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_micros_f64())
    }
}

/// A count of processor clock cycles on some [`Clock`].
///
/// # Examples
///
/// ```
/// use qpip_sim::time::{Clock, Cycles};
///
/// let host = Clock::from_mhz(550);
/// // Table 1 of the paper: 16 445 cycles at 550 MHz is 29.9 µs.
/// let d = host.cycles_to_duration(Cycles(16_445));
/// assert!((d.as_micros_f64() - 29.9).abs() < 0.01);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycles(pub u64);

impl Cycles {
    /// Zero cycles.
    pub const ZERO: Cycles = Cycles(0);

    /// Raw cycle count.
    pub const fn count(self) -> u64 {
        self.0
    }
}

impl Add for Cycles {
    type Output = Cycles;
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl Mul<u64> for Cycles {
    type Output = Cycles;
    fn mul(self, rhs: u64) -> Cycles {
        Cycles(self.0 * rhs)
    }
}

impl Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Self {
        iter.fold(Cycles::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cycles", self.0)
    }
}

/// A fixed-frequency clock used to convert between cycles and time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Clock {
    hz: u64,
}

impl Clock {
    /// Creates a clock running at `hz` hertz.
    ///
    /// # Panics
    ///
    /// Panics if `hz` is zero.
    pub fn new(hz: u64) -> Self {
        assert!(hz > 0, "clock frequency must be nonzero");
        Clock { hz }
    }

    /// Creates a clock running at `mhz` megahertz.
    pub fn from_mhz(mhz: u64) -> Self {
        Clock::new(mhz * 1_000_000)
    }

    /// The clock frequency in hertz.
    pub fn hz(self) -> u64 {
        self.hz
    }

    /// Converts a cycle count to wall (simulated) time, rounding down but
    /// never below one picosecond for a nonzero count.
    pub fn cycles_to_duration(self, c: Cycles) -> SimDuration {
        if c.0 == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_picos(mul_div(c.0, PICOS_PER_SEC, self.hz).max(1))
    }
}

const PICOS_PER_SEC: u64 = 1_000_000_000_000;

/// `a × b / c`, rounded down and truncated to 64 bits; the product is
/// taken in `u128`, so it never overflows.
fn mul_div(a: u64, b: u64, c: u64) -> u64 {
    (u128::from(a) * u128::from(b) / u128::from(c)) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_unit_conversions() {
        assert_eq!(SimTime::from_micros(1).as_picos(), 1_000_000);
        assert_eq!(SimTime::from_nanos(1).as_picos(), 1_000);
        assert_eq!(SimTime::from_millis(1).as_picos(), 1_000_000_000);
        assert_eq!(SimDuration::from_secs(1).as_picos(), 1_000_000_000_000);
    }

    #[test]
    fn time_arithmetic() {
        let t0 = SimTime::from_micros(10);
        let t1 = t0 + SimDuration::from_micros(5);
        assert_eq!(t1, SimTime::from_micros(15));
        assert_eq!(t1 - t0, SimDuration::from_micros(5));
        assert_eq!(t1.duration_since(t0), SimDuration::from_micros(5));
    }

    #[test]
    fn duration_for_bytes_matches_link_rate() {
        // 2 Gb/s = 250 MB/s: 250 bytes take 1 us.
        let d = SimDuration::for_bytes(250, 250_000_000);
        assert_eq!(d, SimDuration::from_micros(1));
        // zero bytes take zero time
        assert_eq!(SimDuration::for_bytes(0, 250_000_000), SimDuration::ZERO);
    }

    #[test]
    fn clock_roundtrip() {
        let nic = Clock::from_mhz(133);
        let d = nic.cycles_to_duration(Cycles(133));
        assert_eq!(d, SimDuration::from_micros(1));
    }

    #[test]
    fn host_clock_matches_paper_table1() {
        let host = Clock::from_mhz(550);
        let d = host.cycles_to_duration(Cycles(16_445));
        assert!((d.as_micros_f64() - 29.9).abs() < 0.01, "{d}");
        let d = host.cycles_to_duration(Cycles(1_386));
        assert!((d.as_micros_f64() - 2.52).abs() < 0.01, "{d}");
    }

    #[test]
    fn nonzero_cycles_never_round_to_zero_time() {
        let fast = Clock::new(u64::MAX / 2);
        assert!(fast.cycles_to_duration(Cycles(1)) > SimDuration::ZERO);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimTime::from_micros(3).to_string(), "3.000us");
        assert_eq!(SimDuration::from_nanos(1500).to_string(), "1.500us");
        assert_eq!(Cycles(7).to_string(), "7 cycles");
    }

    #[test]
    fn saturating_ops() {
        assert_eq!(SimDuration::MAX.saturating_mul(3), SimDuration::MAX);
    }
}
