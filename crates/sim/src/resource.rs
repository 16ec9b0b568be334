//! Serial-resource models: processors, buses and links that can do one
//! thing at a time.
//!
//! Throughput in the full-system simulation emerges from contention on
//! these resources: a packet's wire time, a DMA engine's PCI occupancy
//! and a NIC processor's stage costs all serialize here, so pipelining
//! falls out naturally (stage start = max(arrival, resource free time)).

use crate::time::{SimDuration, SimTime};

/// A FIFO serial resource: each job occupies it for a caller-supplied
/// duration; jobs that arrive while it is busy queue behind it.
///
/// Tracks cumulative busy time so utilization over any interval can be
/// reported (used for the CPU-utilization axes of Figures 4 and 7).
///
/// # Examples
///
/// ```
/// use qpip_sim::resource::SerialResource;
/// use qpip_sim::time::{SimDuration, SimTime};
///
/// let mut link = SerialResource::new("link");
/// let t0 = SimTime::ZERO;
/// let fin1 = link.acquire(t0, SimDuration::from_micros(4));
/// let fin2 = link.acquire(t0, SimDuration::from_micros(4));
/// assert_eq!(fin1, SimTime::from_micros(4));
/// assert_eq!(fin2, SimTime::from_micros(8)); // queued behind the first
/// ```
#[derive(Debug, Clone)]
pub struct SerialResource {
    name: &'static str,
    next_free: SimTime,
    busy: SimDuration,
    jobs: u64,
}

impl SerialResource {
    /// Creates an idle resource labeled `name` (for diagnostics).
    pub fn new(name: &'static str) -> Self {
        SerialResource { name, next_free: SimTime::ZERO, busy: SimDuration::ZERO, jobs: 0 }
    }

    /// The diagnostic label.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Occupies the resource for `work` starting no earlier than `now`,
    /// returning the completion instant.
    pub fn acquire(&mut self, now: SimTime, work: SimDuration) -> SimTime {
        let start = now.max(self.next_free);
        let finish = start + work;
        self.next_free = finish;
        self.busy += work;
        self.jobs += 1;
        finish
    }

    /// The instant at which the resource next becomes free.
    pub fn next_free(&self) -> SimTime {
        self.next_free
    }

    /// Total busy time accumulated so far.
    pub fn busy_time(&self) -> SimDuration {
        self.busy
    }

    /// Number of jobs served.
    pub fn jobs(&self) -> u64 {
        self.jobs
    }

    /// Fraction of the interval `[0, horizon]` spent busy (0.0–1.0).
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        if horizon == SimTime::ZERO {
            return 0.0;
        }
        (self.busy.as_secs_f64() / horizon.as_secs_f64()).min(1.0)
    }

    /// Forgets accumulated busy time/jobs (the free instant is kept).
    pub fn reset_stats(&mut self) {
        self.busy = SimDuration::ZERO;
        self.jobs = 0;
    }
}

/// A fixed-rate pipe (bus or link): converts byte counts into occupancy
/// on an internal [`SerialResource`].
///
/// # Examples
///
/// ```
/// use qpip_sim::resource::BandwidthPipe;
/// use qpip_sim::time::SimTime;
///
/// // The paper's PCI bus: 64 bit x 33 MHz = 266 MB/s burst.
/// let mut pci = BandwidthPipe::new("pci", 266_000_000);
/// let done = pci.transfer(SimTime::ZERO, 16 * 1024);
/// assert!((done.as_micros_f64() - 61.6).abs() < 0.2);
/// ```
#[derive(Debug, Clone)]
pub struct BandwidthPipe {
    inner: SerialResource,
    bytes_per_sec: u64,
    bytes_moved: u64,
}

impl BandwidthPipe {
    /// Creates a pipe with the given capacity in bytes per second.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_sec` is zero.
    pub fn new(name: &'static str, bytes_per_sec: u64) -> Self {
        assert!(bytes_per_sec > 0, "pipe capacity must be nonzero");
        BandwidthPipe { inner: SerialResource::new(name), bytes_per_sec, bytes_moved: 0 }
    }

    /// The configured capacity in bytes per second.
    pub fn bytes_per_sec(&self) -> u64 {
        self.bytes_per_sec
    }

    /// Moves `bytes` through the pipe starting no earlier than `now`,
    /// returning the completion instant.
    pub fn transfer(&mut self, now: SimTime, bytes: u64) -> SimTime {
        self.bytes_moved += bytes;
        self.inner.acquire(now, SimDuration::for_bytes(bytes, self.bytes_per_sec))
    }

    /// Serialization delay for `bytes` without occupying the pipe.
    pub fn latency_for(&self, bytes: u64) -> SimDuration {
        SimDuration::for_bytes(bytes, self.bytes_per_sec)
    }

    /// The instant at which the pipe next becomes free.
    pub fn next_free(&self) -> SimTime {
        self.inner.next_free()
    }

    /// Total bytes moved.
    pub fn bytes_moved(&self) -> u64 {
        self.bytes_moved
    }

    /// Fraction of `[0, horizon]` spent transferring.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        self.inner.utilization(horizon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_resource_queues_fifo() {
        let mut r = SerialResource::new("r");
        let f1 = r.acquire(SimTime::ZERO, SimDuration::from_micros(10));
        let f2 = r.acquire(SimTime::from_micros(3), SimDuration::from_micros(5));
        assert_eq!(f1, SimTime::from_micros(10));
        assert_eq!(f2, SimTime::from_micros(15));
    }

    #[test]
    fn idle_gap_is_not_counted_busy() {
        let mut r = SerialResource::new("r");
        r.acquire(SimTime::ZERO, SimDuration::from_micros(10));
        // arrives long after the first job finished
        r.acquire(SimTime::from_micros(100), SimDuration::from_micros(10));
        assert_eq!(r.busy_time(), SimDuration::from_micros(20));
        let util = r.utilization(SimTime::from_micros(200));
        assert!((util - 0.1).abs() < 1e-9);
    }

    #[test]
    fn utilization_clamps_to_one() {
        let mut r = SerialResource::new("r");
        r.acquire(SimTime::ZERO, SimDuration::from_micros(100));
        assert_eq!(r.utilization(SimTime::from_micros(50)), 1.0);
        assert_eq!(r.utilization(SimTime::ZERO), 0.0);
    }

    #[test]
    fn reset_stats_keeps_schedule() {
        let mut r = SerialResource::new("r");
        r.acquire(SimTime::ZERO, SimDuration::from_micros(10));
        r.reset_stats();
        assert_eq!(r.busy_time(), SimDuration::ZERO);
        assert_eq!(r.jobs(), 0);
        assert_eq!(r.next_free(), SimTime::from_micros(10));
    }

    #[test]
    fn pipe_rate_math() {
        let mut link = BandwidthPipe::new("myrinet", 250_000_000); // 2 Gb/s
        let done = link.transfer(SimTime::ZERO, 2500);
        assert_eq!(done, SimTime::from_micros(10));
        assert_eq!(link.bytes_moved(), 2500);
    }

    #[test]
    fn pipe_latency_for_does_not_occupy() {
        let link = BandwidthPipe::new("l", 1_000_000);
        assert_eq!(link.latency_for(1000), SimDuration::from_millis(1));
        assert_eq!(link.next_free(), SimTime::ZERO);
    }

    #[test]
    fn back_to_back_transfers_serialize() {
        let mut pci = BandwidthPipe::new("pci", 266_000_000);
        let a = pci.transfer(SimTime::ZERO, 16 * 1024);
        let b = pci.transfer(SimTime::ZERO, 16 * 1024);
        assert!(b > a);
        assert_eq!(b.as_picos(), 2 * a.as_picos());
    }
}
