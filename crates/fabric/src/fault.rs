//! Deterministic fault injection: packet drops and holds used by the
//! failure-injection test suites, on the simulated fabric and on live
//! sockets alike.
//!
//! The paper's environment assumes "the network to be robust and packet
//! loss or reordering seldom occurs" (§4.1); the benchmarks therefore run
//! with [`FaultPlan::None`]. The TCP recovery paths still need exercise,
//! which is what the other plans are for.
//!
//! Every decision is keyed by the packet's index in the injector's
//! stream, never by time, so a plan and a seed fix which packets are
//! dropped or held. A held packet goes on the wire right behind the
//! next packet its sender transmits, which reorders the two; whoever
//! drives the injector releases what is still held before it reports
//! idle.

use qpip_sim::rng::SplitMix64;

/// What happens to each packet a sender transmits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultPlan {
    /// Lossless (the SAN common case, §4.1).
    None,
    /// Drop the packets whose global indices appear in the list.
    DropIndices(Vec<u64>),
    /// Drop every `n`-th packet (1-based: `n = 4` drops #3, #7, …).
    DropEveryNth(u64),
    /// Drop each packet independently with probability `permille`/1000,
    /// from a seeded deterministic stream.
    DropRandom {
        /// Loss probability in thousandths.
        permille: u32,
        /// RNG seed.
        seed: u64,
    },
    /// Drop each packet with probability `drop_permille`/1000, and hold
    /// each one not dropped with probability `hold_permille`/1000, from
    /// a seeded deterministic stream.
    Impair {
        /// Loss probability in thousandths.
        drop_permille: u32,
        /// Probability in thousandths that a packet not dropped is held
        /// behind its sender's next packet.
        hold_permille: u32,
        /// RNG seed.
        seed: u64,
    },
}

impl FaultPlan {
    /// The plan drawing from its `stream`-th independent seed, so two
    /// senders each running the plan do not replay each other's draws.
    /// Stream 0 is the plan itself; a plan without a seed is unchanged.
    #[must_use]
    pub fn stream(mut self, stream: u64) -> FaultPlan {
        if let FaultPlan::DropRandom { seed, .. } | FaultPlan::Impair { seed, .. } = &mut self {
            *seed ^= stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        }
        self
    }
}

/// The fate of one packet handed to [`FaultInjector::admit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fate<P> {
    /// Goes on the wire now.
    Pass(P),
    /// Lost; handed back so the caller can account for it.
    Drop(P),
    /// Kept by the injector until its sender's next packet.
    Hold,
}

/// Per-packet fault decisions, the packets held back, and counters.
///
/// Senders are numbered by the caller: the fabric's ports on the DES,
/// and a single sender 0 for a live node's own injector.
#[derive(Debug)]
pub struct FaultInjector<P> {
    plan: FaultPlan,
    rng: SplitMix64,
    index: u64,
    dropped: u64,
    holds: u64,
    /// Held packets with their senders, oldest first.
    held: Vec<(u32, P)>,
}

impl<P> FaultInjector<P> {
    /// Creates an injector following `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        let mut f = FaultInjector {
            plan: FaultPlan::None,
            rng: SplitMix64::new(0),
            index: 0,
            dropped: 0,
            holds: 0,
            held: Vec::new(),
        };
        f.set_plan(plan);
        f
    }

    /// Follows `plan` from the next packet on, counting indices from
    /// zero again. Packets already held stay held, and the counters
    /// carry on.
    pub fn set_plan(&mut self, plan: FaultPlan) {
        let seed = match &plan {
            FaultPlan::DropRandom { seed, .. } | FaultPlan::Impair { seed, .. } => *seed,
            _ => 0,
        };
        self.rng = SplitMix64::new(seed);
        self.index = 0;
        self.plan = plan;
    }

    /// Decides the fate of the next packet, `packet` from `sender`. A
    /// packet that is not held releases the sender's held ones: take
    /// them with [`release`](Self::release) right after it.
    pub fn admit(&mut self, sender: u32, packet: P) -> Fate<P> {
        let idx = self.index;
        self.index += 1;
        let (drop, hold) = match &self.plan {
            FaultPlan::None => (false, false),
            FaultPlan::DropIndices(list) => (list.contains(&idx), false),
            FaultPlan::DropEveryNth(n) => (*n > 0 && (idx + 1).is_multiple_of(*n), false),
            FaultPlan::DropRandom { permille, .. } => {
                (self.rng.chance(u64::from(*permille), 1000), false)
            }
            FaultPlan::Impair { drop_permille, hold_permille, .. } => {
                let drop = self.rng.chance(u64::from(*drop_permille), 1000);
                (drop, !drop && self.rng.chance(u64::from(*hold_permille), 1000))
            }
        };
        if drop {
            self.dropped += 1;
            Fate::Drop(packet)
        } else if hold {
            self.holds += 1;
            self.held.push((sender, packet));
            Fate::Hold
        } else {
            Fate::Pass(packet)
        }
    }

    /// Takes the oldest packet held from `sender`, or from any sender
    /// when `None` (to flush before going idle).
    pub fn release(&mut self, sender: Option<u32>) -> Option<(u32, P)> {
        let at = self.held.iter().position(|(s, _)| sender.is_none_or(|want| *s == want))?;
        Some(self.held.remove(at))
    }

    /// Packets inspected so far.
    pub fn packets_seen(&self) -> u64 {
        self.index
    }

    /// Packets dropped so far.
    pub fn packets_dropped(&self) -> u64 {
        self.dropped
    }

    /// Packets held so far, released or not.
    pub fn packets_held(&self) -> u64 {
        self.holds
    }
}

impl<P> Default for FaultInjector<P> {
    fn default() -> Self {
        FaultInjector::new(FaultPlan::None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Admits one packet from sender 0: `true` when it is dropped.
    fn drops(f: &mut FaultInjector<()>) -> bool {
        matches!(f.admit(0, ()), Fate::Drop(()))
    }

    #[test]
    fn none_never_drops() {
        let mut f = FaultInjector::new(FaultPlan::None);
        assert!((0..1000).all(|_| !drops(&mut f)));
        assert_eq!(f.packets_dropped(), 0);
        assert_eq!(f.packets_seen(), 1000);
    }

    #[test]
    fn drop_indices_hits_exactly_those() {
        let mut f = FaultInjector::new(FaultPlan::DropIndices(vec![0, 3]));
        let fates: Vec<bool> = (0..5).map(|_| drops(&mut f)).collect();
        assert_eq!(fates, vec![true, false, false, true, false]);
        assert_eq!(f.packets_dropped(), 2);
    }

    #[test]
    fn every_nth_is_periodic() {
        let mut f = FaultInjector::new(FaultPlan::DropEveryNth(3));
        let fates: Vec<bool> = (0..9).map(|_| drops(&mut f)).collect();
        assert_eq!(fates, vec![false, false, true, false, false, true, false, false, true]);
    }

    #[test]
    fn random_is_deterministic_per_seed_and_roughly_calibrated() {
        let run = |seed| {
            let mut f = FaultInjector::new(FaultPlan::DropRandom { permille: 100, seed });
            (0..10_000).filter(|_| drops(&mut f)).count()
        };
        assert_eq!(run(42), run(42), "same seed, same fate sequence");
        let drops = run(42);
        assert!((800..1200).contains(&drops), "≈10% loss, got {drops}");
        assert_ne!(run(42), run(43), "different seeds differ (overwhelmingly)");
    }

    /// The seeded drop stream the DES suites were written against: a
    /// change here moves which packets every lossy test loses.
    #[test]
    fn random_drops_are_pinned() {
        let mut f = FaultInjector::new(FaultPlan::DropRandom { permille: 100, seed: 42 });
        let dropped: Vec<u64> = (0..100).filter(|_| drops(&mut f)).collect();
        assert_eq!(dropped, [4, 18, 21, 24, 36, 39, 46, 54, 59, 63, 76, 80, 95]);
    }

    #[test]
    fn stream_reseeds_only_seeded_plans() {
        let plan = FaultPlan::Impair { drop_permille: 20, hold_permille: 30, seed: 7 };
        assert_eq!(plan.clone().stream(0), plan);
        assert_ne!(plan.clone().stream(1), plan);
        assert_eq!(FaultPlan::DropEveryNth(5).stream(1), FaultPlan::DropEveryNth(5));
    }

    /// Runs `n` packets, numbered from 0 and sent round-robin by three
    /// senders, through `plan`, and returns the wire order: each packet
    /// not held, then the held packets it releases, then a final flush.
    fn wire_order(plan: FaultPlan, n: u64) -> (Vec<u64>, FaultInjector<u64>) {
        let mut f = FaultInjector::new(plan);
        let mut wire = Vec::new();
        for p in 0..n {
            let sender = (p % 3) as u32;
            match f.admit(sender, p) {
                Fate::Pass(p) => wire.push(p),
                Fate::Drop(_) => {}
                Fate::Hold => continue,
            }
            while let Some((s, held)) = f.release(Some(sender)) {
                assert_eq!(s, sender);
                wire.push(held);
            }
        }
        while let Some((_, held)) = f.release(None) {
            wire.push(held);
        }
        (wire, f)
    }

    #[test]
    fn holds_are_deterministic_per_seed() {
        let plan = |seed| FaultPlan::Impair { drop_permille: 0, hold_permille: 200, seed };
        assert_eq!(wire_order(plan(5), 500).0, wire_order(plan(5), 500).0);
        assert_ne!(wire_order(plan(5), 500).0, wire_order(plan(6), 500).0);
    }

    #[test]
    fn every_held_packet_comes_out_exactly_once() {
        let plan = FaultPlan::Impair { drop_permille: 50, hold_permille: 300, seed: 11 };
        let (mut wire, f) = wire_order(plan, 3000);
        assert!(f.packets_held() > 500, "held {}", f.packets_held());
        let reordered = wire.windows(2).filter(|w| w[0] > w[1]).count();
        assert!(reordered > 0, "holding reordered nothing");
        assert_eq!(wire.len() as u64, 3000 - f.packets_dropped());
        wire.sort_unstable();
        wire.dedup();
        assert_eq!(wire.len() as u64, 3000 - f.packets_dropped(), "a packet came out twice");
    }
}
