//! Host CPU cycle accounting.
//!
//! The paper reports host overhead in cycles of the 550 MHz Pentium III
//! (Table 1) and CPU utilization of the ttcp/NBD workloads (Figures 4
//! and 7). [`CpuLedger`] charges every class of host work onto a serial
//! timeline and keeps a per-category cycle breakdown so both numbers
//! fall out of one mechanism.

use qpip_sim::params;
use qpip_sim::resource::SerialResource;
use qpip_sim::time::{Clock, Cycles, SimDuration, SimTime};

/// What a burst of host cycles was spent on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum WorkClass {
    /// Application-level work (benchmark loop bodies, filesystem).
    App,
    /// System-call entry/exit and socket-layer bookkeeping.
    Syscall,
    /// TCP/UDP/IP protocol processing.
    Protocol,
    /// Data movement (user↔kernel copies, checksums).
    Copy,
    /// Interrupt and softirq handling.
    Interrupt,
    /// Device-driver descriptor work.
    Driver,
    /// Filesystem/block-layer processing (the ≥26 % floor in Fig. 7).
    Filesystem,
    /// QPIP verb calls (posts, doorbells, CQ polls).
    Verbs,
}

/// Number of [`WorkClass`] variants.
const WORK_CLASSES: usize = WorkClass::Verbs as usize + 1;

/// Every work class in declaration order.
const ALL_WORK_CLASSES: [WorkClass; WORK_CLASSES] = [
    WorkClass::App,
    WorkClass::Syscall,
    WorkClass::Protocol,
    WorkClass::Copy,
    WorkClass::Interrupt,
    WorkClass::Driver,
    WorkClass::Filesystem,
    WorkClass::Verbs,
];

/// A host processor timeline with categorized cycle accounting.
///
/// # Examples
///
/// ```
/// use qpip_host::cpu::{CpuLedger, WorkClass};
/// use qpip_sim::time::SimTime;
///
/// let mut cpu = CpuLedger::new();
/// // a syscall's worth of work: 550 cycles at 550 MHz is 1 µs
/// let done = cpu.charge(SimTime::ZERO, WorkClass::Syscall, 550);
/// assert_eq!(done, SimTime::from_micros(1));
/// assert_eq!(cpu.cycles(WorkClass::Syscall), 550);
/// ```
#[derive(Debug)]
pub struct CpuLedger {
    clock: Clock,
    timeline: SerialResource,
    /// Cycles charged per class, indexed by `WorkClass`.
    by_class: [u64; WORK_CLASSES],
}

impl CpuLedger {
    /// Creates a ledger on the paper's 550 MHz host clock.
    pub fn new() -> Self {
        CpuLedger {
            clock: params::host_clock(),
            timeline: SerialResource::new("host-cpu"),
            by_class: [0; WORK_CLASSES],
        }
    }

    /// The host clock.
    pub fn clock(&self) -> Clock {
        self.clock
    }

    /// Charges `cycles` of `class` work starting no earlier than `now`;
    /// returns when the work completes.
    pub fn charge(&mut self, now: SimTime, class: WorkClass, cycles: u64) -> SimTime {
        if cycles == 0 {
            return now.max(self.timeline.next_free());
        }
        self.by_class[class as usize] += cycles;
        let d = self.clock.cycles_to_duration(Cycles(cycles));
        self.timeline.acquire(now, d)
    }

    /// Charges per-byte copy work (`bytes` × the era copy cost).
    pub fn charge_copy(&mut self, now: SimTime, bytes: usize) -> SimTime {
        let cycles = (bytes as u64 * params::HOST_COPY_CYCLES_PER_BYTE_X100) / 100;
        self.charge(now, WorkClass::Copy, cycles)
    }

    /// Charges per-byte software-checksum work.
    pub fn charge_checksum(&mut self, now: SimTime, bytes: usize) -> SimTime {
        let cycles = (bytes as u64 * params::HOST_CSUM_CYCLES_PER_BYTE_X100) / 100;
        self.charge(now, WorkClass::Copy, cycles)
    }

    /// Instant the CPU next becomes free.
    pub fn next_free(&self) -> SimTime {
        self.timeline.next_free()
    }

    /// Total busy time.
    pub fn busy_time(&self) -> SimDuration {
        self.timeline.busy_time()
    }

    /// Utilization of one processor over `[0, horizon]`.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        self.timeline.utilization(horizon)
    }

    /// Total cycles charged to a class.
    pub fn cycles(&self, class: WorkClass) -> u64 {
        self.by_class[class as usize]
    }

    /// Total cycles charged across all classes.
    pub fn total_cycles(&self) -> u64 {
        self.by_class.iter().sum()
    }

    /// Every class charged so far with its cycles, in `WorkClass` order.
    pub fn breakdown(&self) -> Vec<(WorkClass, u64)> {
        ALL_WORK_CLASSES.into_iter().zip(self.by_class).filter(|&(_, c)| c > 0).collect()
    }

    /// Forgets accumulated statistics (the timeline position is kept).
    pub fn reset_stats(&mut self) {
        self.by_class = [0; WORK_CLASSES];
        self.timeline.reset_stats();
    }
}

impl Default for CpuLedger {
    fn default() -> Self {
        CpuLedger::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_convert_at_550mhz() {
        let mut cpu = CpuLedger::new();
        let end = cpu.charge(SimTime::ZERO, WorkClass::Protocol, 550);
        assert_eq!(end, SimTime::from_micros(1));
        assert_eq!(cpu.cycles(WorkClass::Protocol), 550);
    }

    #[test]
    fn work_serializes_on_the_timeline() {
        let mut cpu = CpuLedger::new();
        let a = cpu.charge(SimTime::ZERO, WorkClass::App, 5500);
        let b = cpu.charge(SimTime::ZERO, WorkClass::Interrupt, 5500);
        assert_eq!(a, SimTime::from_micros(10));
        assert_eq!(b, SimTime::from_micros(20));
        assert_eq!(cpu.total_cycles(), 11_000);
    }

    #[test]
    fn copy_and_checksum_costs_scale_with_bytes() {
        let mut cpu = CpuLedger::new();
        cpu.charge_copy(SimTime::ZERO, 1000);
        assert_eq!(cpu.cycles(WorkClass::Copy), 1250); // 1.25 c/B
        cpu.charge_checksum(SimTime::ZERO, 1000);
        assert_eq!(cpu.cycles(WorkClass::Copy), 1250 + 800); // +0.8 c/B
    }

    #[test]
    fn utilization_reflects_busy_fraction() {
        let mut cpu = CpuLedger::new();
        cpu.charge(SimTime::ZERO, WorkClass::App, 55_000); // 100 us
        let u = cpu.utilization(SimTime::from_micros(1000));
        assert!((u - 0.1).abs() < 1e-6, "{u}");
    }

    #[test]
    fn zero_cycles_cost_nothing_but_respect_queue() {
        let mut cpu = CpuLedger::new();
        cpu.charge(SimTime::ZERO, WorkClass::App, 550 * 10);
        let t = cpu.charge(SimTime::ZERO, WorkClass::App, 0);
        assert_eq!(t, SimTime::from_micros(10));
        assert_eq!(cpu.total_cycles(), 5_500);
    }

    #[test]
    fn breakdown_and_reset() {
        let mut cpu = CpuLedger::new();
        cpu.charge(SimTime::ZERO, WorkClass::Verbs, 7);
        cpu.charge(SimTime::ZERO, WorkClass::App, 11);
        cpu.charge(SimTime::ZERO, WorkClass::Copy, 0); // free: not listed
        cpu.charge(SimTime::ZERO, WorkClass::Interrupt, 13);
        cpu.charge(SimTime::ZERO, WorkClass::Verbs, 5);
        let b = cpu.breakdown();
        assert_eq!(
            b,
            vec![(WorkClass::App, 11), (WorkClass::Interrupt, 13), (WorkClass::Verbs, 12)]
        );
        assert_eq!(cpu.total_cycles(), b.iter().map(|&(_, c)| c).sum::<u64>());
        assert_eq!(cpu.cycles(WorkClass::Copy), 0);

        cpu.reset_stats();
        assert!(cpu.breakdown().is_empty());
        assert_eq!(cpu.total_cycles(), 0);
        for class in ALL_WORK_CLASSES {
            assert_eq!(cpu.cycles(class), 0);
        }
        assert_eq!(cpu.busy_time(), SimDuration::ZERO);
    }

    #[test]
    fn work_classes_list_every_variant_at_its_index() {
        for (i, class) in ALL_WORK_CLASSES.into_iter().enumerate() {
            assert_eq!(class as usize, i);
        }
    }
}
