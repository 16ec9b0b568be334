//! The discrete-event simulation kernel.
//!
//! [`Simulator`] is a generic event queue: callers schedule events of
//! some type `E` at absolute instants or relative delays, then drain
//! them in time order. Ties are broken by insertion order, so the pop
//! order is the total order on `(time, sequence number)` and every run
//! is fully deterministic.
//!
//! The queue is split in two. A 4-ary min-heap holds only 24-byte keys
//! `(at, seq, slot)`, so a sift moves small keys through a shallow,
//! cache-friendly tree whatever the size of `E`. Each event lives in
//! its slot of a slab, next to the slot's generation counter; popping a
//! key takes the event out of its slot.
//!
//! Cancellation is generation-checked: the generation is bumped when
//! the event is delivered or its cancelled key drains, so a stale
//! [`EventId`] (delivered, double-cancelled, or from a reused slot) is
//! always rejected. `cancel` drops the event at once but leaves its key
//! in the heap as a tombstone (a key whose slot holds no event). The
//! kernel compacts the heap whenever tombstones outnumber live keys —
//! TCP reschedules its retransmit timer on every ACK, and without
//! compaction a long transfer accretes one dead key per ACK.

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

/// Heap key of one scheduled event; the event itself waits in
/// `slots[slot]`.
#[derive(Debug, Clone, Copy)]
struct Key {
    at: SimTime,
    seq: u64,
    slot: u32,
}

impl Key {
    /// Whether `self` pops before `other`: earlier instant first, then
    /// earlier insertion.
    #[inline]
    fn before(&self, other: &Key) -> bool {
        (self.at, self.seq) < (other.at, other.seq)
    }
}

/// Heap arity: four children per node halve the depth of a binary heap,
/// and the four child keys (96 B) span two cache lines.
const ARITY: usize = 4;

/// Slab cell backing one scheduled event. `event` is `None` once the
/// event is cancelled (tombstone key awaiting drain) or the slot is on
/// the free list; the generation disambiguates the two for stale
/// handles.
#[derive(Debug)]
struct Slot<E> {
    gen: u32,
    event: Option<E>,
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
    /// 4-ary min-heap of keys, tombstones included.
    heap: Vec<Key>,
    slots: Vec<Slot<E>>,
    free: Vec<u32>,
    /// Cancelled keys still in the heap (tombstones).
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
            heap: Vec::new(),
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
        self.heap.len() - self.dead
    }

    /// Raw heap size, tombstones included. Bounded by compaction at
    /// roughly 2× [`Simulator::pending`] (plus the `COMPACT_MIN` floor)
    /// no matter how many timers are rescheduled.
    pub fn queue_depth(&self) -> usize {
        self.heap.len()
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
                self.slots[s as usize].event = Some(event);
                s
            }
            None => {
                let s = u32::try_from(self.slots.len()).expect("slot index fits u32");
                self.slots.push(Slot { gen: 0, event: Some(event) });
                s
            }
        };
        let gen = self.slots[slot as usize].gen;
        self.heap.push(Key { at, seq, slot });
        self.sift_up(self.heap.len() - 1);
        EventId { slot, gen }
    }

    /// Schedules `event` after a relative `delay`.
    pub fn schedule_after(&mut self, delay: SimDuration, event: E) -> EventId {
        self.schedule_at(self.now + delay, event)
    }

    /// Cancels a previously scheduled event, dropping it at once.
    /// Returns `true` only if the event was still pending: ids of
    /// delivered or already-cancelled events are stale (their slot
    /// generation has moved on, or the slot holds no event) and report
    /// `false` without corrupting the pending count.
    pub fn cancel(&mut self, id: EventId) -> bool {
        match self.slots.get_mut(id.slot as usize) {
            Some(s) if s.gen == id.gen && s.event.is_some() => {
                s.event = None;
                self.dead += 1;
                if self.dead * 2 > self.heap.len() && self.heap.len() >= COMPACT_MIN {
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
        self.heap.first().map(|k| k.at)
    }

    /// Pops the next event, advancing the clock to its timestamp.
    #[allow(clippy::should_implement_trait)] // queue pop, not Iterator
    pub fn next(&mut self) -> Option<(SimTime, E)> {
        self.skip_cancelled();
        let key = self.pop_min()?;
        let event = self.slots[key.slot as usize].event.take().expect("head key is live");
        self.release_slot(key.slot);
        debug_assert!(key.at >= self.now);
        self.now = key.at;
        self.processed += 1;
        if self.first_pop.is_none() {
            self.first_pop = Some(Instant::now());
        }
        Some((key.at, event))
    }

    /// Frees a slot whose key has left the heap, invalidating all
    /// outstanding ids for it.
    fn release_slot(&mut self, slot: u32) {
        let s = &mut self.slots[slot as usize];
        s.gen = s.gen.wrapping_add(1);
        self.free.push(slot);
    }

    fn skip_cancelled(&mut self) {
        while let Some(head) = self.heap.first() {
            if self.slots[head.slot as usize].event.is_some() {
                break;
            }
            let key = self.pop_min().expect("peeked key");
            self.release_slot(key.slot);
            self.dead -= 1;
        }
    }

    /// Rebuilds the heap without tombstones. O(n), amortized against the
    /// cancellations that created the tombstones.
    fn compact(&mut self) {
        let (slots, free) = (&mut self.slots, &mut self.free);
        self.heap.retain(|k| {
            let s = &mut slots[k.slot as usize];
            if s.event.is_some() {
                return true;
            }
            s.gen = s.gen.wrapping_add(1);
            free.push(k.slot);
            false
        });
        // bottom-up heapify: sift down every node that has a child
        if self.heap.len() > 1 {
            for i in (0..=(self.heap.len() - 2) / ARITY).rev() {
                self.sift_down(i);
            }
        }
        self.dead = 0;
        self.compactions += 1;
    }

    // ----- 4-ary heap ----------------------------------------------------------

    /// Removes and returns the earliest key.
    fn pop_min(&mut self) -> Option<Key> {
        let last = self.heap.pop()?;
        let Some(&root) = self.heap.first() else {
            return Some(last);
        };
        self.heap[0] = last;
        self.sift_down(0);
        Some(root)
    }

    /// Moves the key at `i` up until its parent pops before it.
    fn sift_up(&mut self, mut i: usize) {
        let key = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if !key.before(&self.heap[parent]) {
                break;
            }
            self.heap[i] = self.heap[parent];
            i = parent;
        }
        self.heap[i] = key;
    }

    /// Moves the key at `i` down until it pops before all its children.
    fn sift_down(&mut self, mut i: usize) {
        let len = self.heap.len();
        let key = self.heap[i];
        loop {
            let first = i * ARITY + 1;
            if first >= len {
                break;
            }
            let mut min = first;
            for c in first + 1..(first + ARITY).min(len) {
                if self.heap[c].before(&self.heap[min]) {
                    min = c;
                }
            }
            if !self.heap[min].before(&key) {
                break;
            }
            self.heap[i] = self.heap[min];
            i = min;
        }
        self.heap[i] = key;
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

    /// Model check: random sequences of `schedule_at` (many equal
    /// instants), `cancel` (live, stale, double, recycled-slot and
    /// never-issued ids), `next` and `peek_time` against a reference
    /// ordered by `(at, seq)`. Pop order, `pending()` and every `cancel`
    /// result must match over enough operations to cross `COMPACT_MIN`
    /// many times.
    #[test]
    fn matches_a_sorted_reference_model() {
        use crate::rng::SplitMix64;
        use std::collections::{BTreeMap, HashMap};

        for seed in 0..4u64 {
            let mut rng = SplitMix64::new(0x5eed_0000 + seed);
            let mut sim: Simulator<u64> = Simulator::new();
            // (at, seq) -> (payload, id), and id -> (at, seq) of live events
            let mut model: BTreeMap<(SimTime, u64), (u64, EventId)> = BTreeMap::new();
            let mut live: HashMap<EventId, (SimTime, u64)> = HashMap::new();
            let mut issued: Vec<EventId> = Vec::new();
            let mut seq = 0u64;
            let mut max_depth = 0;
            for op in 0..40_000u64 {
                // bias towards growth early and draining late, so the
                // queue swells well past COMPACT_MIN and empties again
                let (grow, cancel) = if (op / 5_000) % 2 == 0 { (6, 8) } else { (3, 8) };
                match rng.below(10) {
                    r if r < grow => {
                        // few distinct instants: ties are the common case
                        let at = sim.now() + SimDuration::from_micros(rng.below(4));
                        let id = sim.schedule_at(at, op);
                        model.insert((at, seq), (op, id));
                        live.insert(id, (at, seq));
                        issued.push(id);
                        seq += 1;
                    }
                    r if r < cancel && !issued.is_empty() => {
                        // mostly recent ids (usually live, so tombstones
                        // pile up), else any id ever issued: delivered,
                        // cancelled, or one whose slot serves a later event
                        let n = issued.len() as u64;
                        let back =
                            if rng.chance(3, 4) { rng.below(n.min(64)) } else { rng.below(n) };
                        let id = issued[(n - 1 - back) as usize];
                        let expect = live.remove(&id).map(|k| model.remove(&k)).is_some();
                        assert_eq!(sim.cancel(id), expect, "seed {seed} op {op}: cancel {id:?}");
                        if expect {
                            assert!(!sim.cancel(id), "double cancel reports false");
                        }
                    }
                    _ => {
                        let bogus = EventId { slot: u32::MAX - 1, gen: 0 };
                        assert!(!sim.cancel(bogus), "never-issued id");
                        assert_eq!(sim.peek_time(), model.keys().next().map(|k| k.0));
                        let want = model.pop_first();
                        let got = sim.next();
                        assert_eq!(
                            got,
                            want.map(|((at, _), (v, _))| (at, v)),
                            "seed {seed} op {op}"
                        );
                        if let Some((_, (_, id))) = want {
                            live.remove(&id);
                        }
                    }
                }
                assert_eq!(sim.pending(), model.len(), "seed {seed} op {op}: pending");
                max_depth = max_depth.max(sim.queue_depth());
            }
            // drain: the remaining order must match too
            while let Some(((at, _), (v, _))) = model.pop_first() {
                assert_eq!(sim.next(), Some((at, v)));
            }
            assert!(sim.next().is_none());
            assert!(max_depth > 4 * COMPACT_MIN, "queue only reached {max_depth}");
            assert!(sim.compactions() > 0, "seed {seed}: compaction never ran");
        }
    }
}
