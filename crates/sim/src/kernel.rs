//! The discrete-event simulation kernel.
//!
//! [`Simulator`] is a generic event queue over a binary heap: callers
//! schedule events of some type `E` at absolute instants or relative
//! delays, then drain them in time order. Ties are broken by insertion order, which makes every
//! run fully deterministic.
//!
//! Cancellation is generation-checked: every scheduled event owns a slot
//! in a slab whose generation counter is bumped when the event is
//! delivered or its cancelled entry drains, so a stale [`EventId`]
//! (delivered, double-cancelled, or from a reused slot) is always
//! rejected. Cancelled entries stay in the heap as tombstones, but the
//! kernel compacts the heap whenever tombstones outnumber live entries —
//! TCP reschedules its retransmit timer on every ACK, and without
//! compaction a long transfer accretes one dead entry per ACK.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;
use std::time::Instant;

use crate::time::{SimDuration, SimTime};

/// A handle identifying a scheduled event, usable to cancel it.
///
/// Ids are never reused: the slot index may be recycled, but only with a
/// bumped generation, so a stale handle can never cancel a later event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId {
    slot: u32,
    gen: u32,
}

struct Entry<E> {
    at: SimTime,
    seq: u64,
    slot: u32,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first.
        other.at.cmp(&self.at).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Slab cell backing one in-flight event. `live` is false once the event
/// is cancelled (tombstone awaiting drain) or the slot is on the free
/// list; the generation disambiguates the two for stale handles.
#[derive(Debug, Clone, Copy)]
struct Slot {
    gen: u32,
    live: bool,
}

/// Minimum heap size before tombstone compaction is considered; below
/// this the O(n) rebuild costs more than the tombstones it removes.
const COMPACT_MIN: usize = 64;

/// A deterministic discrete-event scheduler over events of type `E`.
///
/// # Examples
///
/// ```
/// use qpip_sim::kernel::Simulator;
/// use qpip_sim::time::{SimDuration, SimTime};
///
/// let mut sim: Simulator<&str> = Simulator::new();
/// sim.schedule_after(SimDuration::from_micros(10), "b");
/// sim.schedule_after(SimDuration::from_micros(5), "a");
/// let (t, e) = sim.next().unwrap();
/// assert_eq!((t, e), (SimTime::from_micros(5), "a"));
/// let (t, e) = sim.next().unwrap();
/// assert_eq!((t, e), (SimTime::from_micros(10), "b"));
/// assert!(sim.next().is_none());
/// ```
pub struct Simulator<E> {
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<Entry<E>>,
    slots: Vec<Slot>,
    free: Vec<u32>,
    /// Cancelled entries still in the heap (tombstones).
    dead: usize,
    compactions: u64,
    processed: u64,
    /// Wall-clock instant of the first delivery, for the events/sec meter.
    first_pop: Option<Instant>,
}

impl<E> fmt::Debug for Simulator<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulator")
            .field("now", &self.now)
            .field("pending", &self.pending())
            .field("processed", &self.processed)
            .finish()
    }
}

impl<E> Default for Simulator<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Simulator<E> {
    /// Creates an empty simulator at time zero.
    pub fn new() -> Self {
        Simulator {
            now: SimTime::ZERO,
            seq: 0,
            queue: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            dead: 0,
            compactions: 0,
            processed: 0,
            first_pop: None,
        }
    }

    /// The current simulated time (the timestamp of the last event
    /// returned by [`Simulator::next`], or zero initially).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events delivered so far.
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Number of live events currently pending. Cancelled tombstones not
    /// yet drained from the heap are excluded.
    pub fn pending(&self) -> usize {
        self.queue.len() - self.dead
    }

    /// Raw heap size, tombstones included. Bounded by compaction at
    /// roughly 2× [`Simulator::pending`] (plus the [`COMPACT_MIN`] floor)
    /// no matter how many timers are rescheduled.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Heap compactions performed so far.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Wall-clock delivery rate: events delivered per second of real time
    /// since the first delivery. Zero before any event is delivered. This
    /// meters the simulator itself and never feeds back into simulated
    /// time.
    pub fn events_per_sec(&self) -> f64 {
        match self.first_pop {
            Some(t0) => {
                let secs = t0.elapsed().as_secs_f64();
                if secs > 0.0 {
                    self.processed as f64 / secs
                } else {
                    0.0
                }
            }
            None => 0.0,
        }
    }

    /// Returns `true` if no live events remain.
    pub fn is_idle(&self) -> bool {
        self.pending() == 0
    }

    /// Schedules `event` at the absolute instant `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time: the simulation
    /// cannot deliver events into its own past.
    pub fn schedule_at(&mut self, at: SimTime, event: E) -> EventId {
        assert!(at >= self.now, "cannot schedule into the past: {at} < now {}", self.now);
        let seq = self.seq;
        self.seq += 1;
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize].live = true;
                s
            }
            None => {
                let s = u32::try_from(self.slots.len()).expect("slot index fits u32");
                self.slots.push(Slot { gen: 0, live: true });
                s
            }
        };
        let gen = self.slots[slot as usize].gen;
        self.queue.push(Entry { at, seq, slot, event });
        EventId { slot, gen }
    }

    /// Schedules `event` after a relative `delay`.
    pub fn schedule_after(&mut self, delay: SimDuration, event: E) -> EventId {
        self.schedule_at(self.now + delay, event)
    }

    /// Cancels a previously scheduled event. Returns `true` only if the
    /// event was still pending: ids of delivered or already-cancelled
    /// events are stale (their slot generation has moved on) and report
    /// `false` without corrupting the pending count.
    pub fn cancel(&mut self, id: EventId) -> bool {
        match self.slots.get_mut(id.slot as usize) {
            Some(s) if s.gen == id.gen && s.live => {
                s.live = false;
                self.dead += 1;
                if self.dead * 2 > self.queue.len() && self.queue.len() >= COMPACT_MIN {
                    self.compact();
                }
                true
            }
            _ => false,
        }
    }

    /// The timestamp of the next live event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.skip_cancelled();
        self.queue.peek().map(|e| e.at)
    }

    /// Pops the next event, advancing the clock to its timestamp.
    #[allow(clippy::should_implement_trait)] // queue pop, not Iterator
    pub fn next(&mut self) -> Option<(SimTime, E)> {
        self.skip_cancelled();
        let entry = self.queue.pop()?;
        self.release_slot(entry.slot);
        debug_assert!(entry.at >= self.now);
        self.now = entry.at;
        self.processed += 1;
        if self.first_pop.is_none() {
            self.first_pop = Some(Instant::now());
        }
        Some((entry.at, entry.event))
    }

    /// Frees a slot whose heap entry has left the queue, invalidating all
    /// outstanding ids for it.
    fn release_slot(&mut self, slot: u32) {
        let s = &mut self.slots[slot as usize];
        s.gen = s.gen.wrapping_add(1);
        s.live = false;
        self.free.push(slot);
    }

    fn skip_cancelled(&mut self) {
        while let Some(head) = self.queue.peek() {
            if self.slots[head.slot as usize].live {
                break;
            }
            let entry = self.queue.pop().expect("peeked entry");
            self.release_slot(entry.slot);
            self.dead -= 1;
        }
    }

    /// Rebuilds the heap without tombstones. O(n), amortized against the
    /// cancellations that created the tombstones.
    fn compact(&mut self) {
        let mut entries = std::mem::take(&mut self.queue).into_vec();
        entries.retain(|e| {
            if self.slots[e.slot as usize].live {
                true
            } else {
                let s = &mut self.slots[e.slot as usize];
                s.gen = s.gen.wrapping_add(1);
                self.free.push(e.slot);
                false
            }
        });
        self.queue = BinaryHeap::from(entries);
        self.dead = 0;
        self.compactions += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut sim = Simulator::new();
        sim.schedule_at(SimTime::from_micros(30), 3);
        sim.schedule_at(SimTime::from_micros(10), 1);
        sim.schedule_at(SimTime::from_micros(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| sim.next().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut sim = Simulator::new();
        let t = SimTime::from_micros(5);
        for i in 0..100 {
            sim.schedule_at(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| sim.next().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_to_event_time() {
        let mut sim = Simulator::new();
        sim.schedule_after(SimDuration::from_micros(7), ());
        assert_eq!(sim.now(), SimTime::ZERO);
        sim.next();
        assert_eq!(sim.now(), SimTime::from_micros(7));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut sim = Simulator::new();
        sim.schedule_at(SimTime::from_micros(10), ());
        sim.next();
        sim.schedule_at(SimTime::from_micros(5), ());
    }

    #[test]
    fn cancel_prevents_delivery() {
        let mut sim = Simulator::new();
        let a = sim.schedule_at(SimTime::from_micros(1), "a");
        sim.schedule_at(SimTime::from_micros(2), "b");
        assert!(sim.cancel(a));
        assert!(!sim.cancel(a), "double-cancel reports false");
        let (_, e) = sim.next().unwrap();
        assert_eq!(e, "b");
        assert!(sim.next().is_none());
    }

    #[test]
    fn cancel_unknown_id_is_false() {
        let mut sim: Simulator<()> = Simulator::new();
        assert!(!sim.cancel(EventId { slot: 42, gen: 0 }));
    }

    /// Regression: ids of already-delivered events must not be accepted.
    /// The old `HashSet` scheme recorded any id below the insertion
    /// counter, returning `true` and desynchronizing `pending()` to the
    /// point of usize underflow.
    #[test]
    fn cancel_after_delivery_is_false_and_pending_cannot_underflow() {
        let mut sim = Simulator::new();
        let a = sim.schedule_at(SimTime::from_micros(1), "a");
        assert_eq!(sim.next().unwrap().1, "a");
        assert!(!sim.cancel(a), "delivered event must not cancel");
        assert_eq!(sim.pending(), 0, "no underflow");
        assert!(sim.is_idle());
        // queue must still work normally afterwards
        let b = sim.schedule_at(SimTime::from_micros(2), "b");
        assert_eq!(sim.pending(), 1);
        assert!(!sim.cancel(a), "stale id stays stale after slot reuse");
        assert!(sim.cancel(b));
        assert_eq!(sim.pending(), 0);
        assert!(sim.next().is_none());
    }

    /// Regression: a stale id whose slot was recycled must not cancel the
    /// new occupant.
    #[test]
    fn stale_id_never_cancels_slot_reuser() {
        let mut sim = Simulator::new();
        let a = sim.schedule_at(SimTime::from_micros(1), "a");
        sim.next();
        let b = sim.schedule_at(SimTime::from_micros(2), "b");
        assert!(!sim.cancel(a));
        assert_eq!(sim.next().unwrap().1, "b", "b survives stale cancel");
        let _ = b;
    }

    #[test]
    fn pending_counts_live_events_only() {
        let mut sim = Simulator::new();
        let a = sim.schedule_at(SimTime::from_micros(1), ());
        sim.schedule_at(SimTime::from_micros(2), ());
        assert_eq!(sim.pending(), 2);
        sim.cancel(a);
        assert_eq!(sim.pending(), 1);
        assert!(!sim.is_idle());
        sim.next();
        assert!(sim.is_idle());
    }

    #[test]
    fn peek_time_skips_cancelled_head() {
        let mut sim = Simulator::new();
        let a = sim.schedule_at(SimTime::from_micros(1), ());
        sim.schedule_at(SimTime::from_micros(2), ());
        sim.cancel(a);
        assert_eq!(sim.peek_time(), Some(SimTime::from_micros(2)));
    }

    #[test]
    fn events_processed_counts() {
        let mut sim = Simulator::new();
        for i in 0..5u32 {
            sim.schedule_after(SimDuration::from_nanos(u64::from(i)), i);
        }
        while sim.next().is_some() {}
        assert_eq!(sim.events_processed(), 5);
    }

    /// The timer-churn pattern: one long-lived event plus a timer that is
    /// cancelled and rescheduled once per "ACK". The heap must stay
    /// bounded instead of accreting one tombstone per reschedule.
    #[test]
    fn per_ack_rescheduling_does_not_grow_the_heap() {
        let mut sim = Simulator::new();
        let mut timer = sim.schedule_at(SimTime::from_micros(1_000_000), 0u64);
        let mut max_depth = 0;
        for i in 1..=100_000u64 {
            assert!(sim.cancel(timer), "timer was live");
            timer = sim.schedule_at(SimTime::from_micros(1_000_000 + i), i);
            max_depth = max_depth.max(sim.queue_depth());
            assert_eq!(sim.pending(), 1);
        }
        assert!(max_depth <= COMPACT_MIN.max(4), "tombstones accreted: depth reached {max_depth}");
        assert!(sim.compactions() > 0, "compaction actually ran");
        // the surviving timer is the last one scheduled
        assert_eq!(sim.next().unwrap().1, 100_000);
        assert!(sim.next().is_none());
    }

    /// Interleaved schedule/cancel across many slots keeps ids unique and
    /// delivery exact.
    #[test]
    fn mass_cancellation_delivers_exact_complement() {
        let mut sim = Simulator::new();
        let ids: Vec<_> =
            (0..1000u64).map(|i| sim.schedule_at(SimTime::from_nanos(i % 97), i)).collect();
        for (i, id) in ids.iter().enumerate() {
            if i % 3 == 0 {
                assert!(sim.cancel(*id));
            }
        }
        let mut got: Vec<u64> = Vec::new();
        while let Some((_, e)) = sim.next() {
            got.push(e);
        }
        let mut expect: Vec<u64> = (0..1000).filter(|i| i % 3 != 0).collect();
        expect.sort_by_key(|&i| (i % 97, i));
        assert_eq!(got, expect);
    }

    #[test]
    fn events_per_sec_meter_reports_after_deliveries() {
        let mut sim = Simulator::new();
        assert_eq!(sim.events_per_sec(), 0.0, "no deliveries yet");
        for i in 0..1000u64 {
            sim.schedule_after(SimDuration::from_nanos(i), i);
        }
        while sim.next().is_some() {}
        assert!(sim.events_per_sec() > 0.0);
    }
}
