//! Host time of a measured phase, and the host's speed around it.
//!
//! On a shared VM the same work takes more or less wall time as the
//! neighbours' load shifts: the vCPU runs slower for seconds to minutes
//! at a time. It is not steal time, so the thread's CPU clock slows with
//! it and CPU time does not help. A [`Stopwatch`] therefore also times
//! two fixed reference computations, the probes, right before and right
//! after the phase it measures: one that only the core's speed sets,
//! and one that the shared cache's latency sets as well.
//! [`Elapsed::nominal`] scales the phase's wall time by them to the time
//! it would have taken on a host where the probes take their nominal
//! times.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

/// Rounds of the core probe (about 1.3 ms).
const CORE_ROUNDS: u64 = 1 << 18;
/// Rounds of the cache probe (about 3 ms).
const CACHE_ROUNDS: u64 = 1 << 15;

/// Words of the table the cache probe reads and writes: 2 MiB, more
/// than a core's private caches hold. A static, so probing allocates
/// nothing.
const TABLE_WORDS: usize = 1 << 18;
static TABLE: [AtomicU64; TABLE_WORDS] = [const { AtomicU64::new(0) }; TABLE_WORDS];

/// Core probe time of the nominal host: the median on a 2-vCPU Intel
/// Xeon VM.
pub const NOMINAL_CORE_S: f64 = 0.0013;
/// Cache probe time of the nominal host, measured with
/// [`NOMINAL_CORE_S`].
pub const NOMINAL_CACHE_S: f64 = 0.0025;

/// The SplitMix64 finaliser.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Seconds the core probe takes now: a dependent chain of SplitMix64
/// rounds, in registers only.
fn core_probe_s() -> f64 {
    let t = Instant::now();
    let mut z = 1u64;
    for i in 0..CORE_ROUNDS {
        z = mix(z ^ i);
    }
    std::hint::black_box(z);
    t.elapsed().as_secs_f64()
}

/// Seconds the cache probe takes now: a chain of SplitMix64 rounds,
/// each reading and updating a random word of [`TABLE`] and feeding it
/// into the next. `Relaxed`: the table is this thread's scratch and
/// publishes nothing.
fn cache_probe_s() -> f64 {
    let t = Instant::now();
    let mut z = 1u64;
    for i in 0..CACHE_ROUNDS {
        let slot = &TABLE[z as usize & (TABLE_WORDS - 1)];
        let v = slot.load(Relaxed);
        slot.store(v.wrapping_add(i), Relaxed);
        z = mix(z ^ v);
    }
    std::hint::black_box(z);
    t.elapsed().as_secs_f64()
}

/// A started measurement.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    wall: Instant,
    core_s: f64,
    cache_s: f64,
}

/// What a [`Stopwatch`] measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Elapsed {
    /// Wall-clock seconds of the phase.
    pub wall: f64,
    /// Mean seconds of the core probe run just before and just after
    /// the phase.
    pub core_s: f64,
    /// Mean seconds of the cache probe, likewise.
    pub cache_s: f64,
}

impl Elapsed {
    /// Wall seconds scaled to the nominal host: times the core probe's
    /// nominal over measured time, and times the square root of the
    /// cache probe's. The exponents were fitted to 36 runs of the three
    /// CPU-bound workloads, two sets taken half an hour apart: the
    /// workloads slow down as much as the core probe does plus about
    /// half as much as the cache probe does.
    pub fn nominal(&self) -> f64 {
        self.wall * (NOMINAL_CORE_S / self.core_s) * (NOMINAL_CACHE_S / self.cache_s).sqrt()
    }
}

impl Stopwatch {
    /// Probes the host's speed, then starts the clock.
    pub fn start() -> Stopwatch {
        let (core_s, cache_s) = (core_probe_s(), cache_probe_s());
        Stopwatch { wall: Instant::now(), core_s, cache_s }
    }

    /// Stops the clock, then probes the host's speed again.
    pub fn elapsed(&self) -> Elapsed {
        let wall = self.wall.elapsed().as_secs_f64();
        Elapsed {
            wall,
            core_s: (self.core_s + core_probe_s()) / 2.0,
            cache_s: (self.cache_s + cache_probe_s()) / 2.0,
        }
    }
}
