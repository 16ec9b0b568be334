//! A fast, deterministic hasher for the simulator's hot-path maps.
//!
//! `std`'s default `SipHash` is DoS-resistant but costs ~1–2 ns per
//! word and seeds itself randomly per process, which (a) is wasted
//! strength inside a closed simulation that hashes nothing
//! attacker-controlled, and (b) makes `HashMap` iteration order vary
//! run to run. This is the classic FxHash mix (rotate, xor, multiply
//! by a golden-ratio-derived odd constant) as used by rustc: one
//! multiply per word, zero seeding, identical layout every run — so
//! demux tables and QP maps hash in a handful of cycles and iterate
//! deterministically.
//!
//! `finish` adds one fold to the classic mix. A multiply carries each
//! input bit only upward, so a key whose varying bytes come last (the
//! low address bytes of `fc00::n`, the peer at the end of a demux key)
//! differs only in the high bits of the raw state, while hashbrown
//! starts probing at the *low* bits. Returned raw, the 4,096 demux keys
//! of a fan-in server fell on 32 probe starts of an 8,192-bucket table
//! and the addresses `fc00::1..=fc00::1001` on one, making lookups walk
//! long probe chains. `finish` therefore takes the 128-bit product of
//! the state and `K` and XORs its halves, which moves every state bit
//! into the low word for one more multiply per lookup.
//!
//! Not for untrusted keys; every key in this workspace is
//! simulator-generated (ports, connection ids, QP numbers, endpoint
//! pairs).

use std::hash::{BuildHasher, Hasher};

/// The FxHash multiplier: an odd constant derived from the golden
/// ratio (same value rustc uses for 64-bit hashes).
const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// FxHash streaming state.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // fold the high bits down: see the module doc
        let wide = u128::from(self.hash) * u128::from(K);
        (wide as u64) ^ ((wide >> 64) as u64)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut rest = bytes;
        while let Some((chunk, tail)) = rest.split_first_chunk::<8>() {
            self.add(u64::from_le_bytes(*chunk));
            rest = tail;
        }
        if let Some((chunk, tail)) = rest.split_first_chunk::<4>() {
            self.add(u64::from(u32::from_le_bytes(*chunk)));
            rest = tail;
        }
        if let Some((chunk, tail)) = rest.split_first_chunk::<2>() {
            self.add(u64::from(u16::from_le_bytes(*chunk)));
            rest = tail;
        }
        if let [b] = rest {
            self.add(u64::from(*b));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// Zero-state `BuildHasher` for [`FxHasher`] (no per-map seed, so maps
/// are identical across runs).
#[derive(Debug, Clone, Copy, Default)]
pub struct FxBuildHasher;

impl BuildHasher for FxBuildHasher {
    type Hasher = FxHasher;

    #[inline]
    fn build_hasher(&self) -> FxHasher {
        FxHasher::default()
    }
}

/// A `HashMap` keyed through [`FxHasher`]. Construct with
/// `FxHashMap::default()`.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash>(v: &T) -> u64 {
        let mut h = FxHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic_and_discriminating() {
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
        assert_ne!(hash_of(&42u64), hash_of(&43u64));
        assert_ne!(hash_of(&(1u16, 2u16)), hash_of(&(2u16, 1u16)));
    }

    #[test]
    fn byte_stream_matches_itself_across_split_sizes() {
        // write() must consume 8/4/2/1-byte tails consistently
        for len in 0..=17 {
            let bytes: Vec<u8> = (0..len as u8).collect();
            let mut a = FxHasher::default();
            a.write(&bytes);
            let mut b = FxHasher::default();
            b.write(&bytes);
            assert_eq!(a.finish(), b.finish());
        }
        let mut a = FxHasher::default();
        a.write(&[1, 2, 3]);
        let mut b = FxHasher::default();
        b.write(&[3, 2, 1]);
        assert_ne!(a.finish(), b.finish());
    }

    /// Distinct probe-start buckets of `keys` in a hashbrown table of
    /// 8,192 buckets, which starts probing at the hash's low 13 bits.
    fn bucket_starts<T: Hash>(keys: impl Iterator<Item = T>) -> usize {
        let starts: std::collections::BTreeSet<u64> =
            keys.map(|k| hash_of(&k) & (8192 - 1)).collect();
        starts.len()
    }

    #[test]
    fn keys_varying_near_their_end_spread_over_low_bits() {
        use crate::types::Endpoint;
        use std::net::Ipv6Addr;

        let addr = |n: u16| Ipv6Addr::new(0xfc00, 0, 0, 0, 0, 0, 0, n);
        // a fan-in server's demux keys: one local endpoint, 4,096 peers
        // that differ only in the last address bytes
        let server = Endpoint::new(addr(1), 5000);
        let demux = bucket_starts((2..=4097).map(|n| (server, Endpoint::new(addr(n), 4000))));
        assert!(demux >= 1024, "4,096 demux keys use only {demux} bucket starts");
        // the fabric's node addresses fc00::1..=fc00::1001
        let addrs = bucket_starts((1..=0x1001).map(addr));
        assert!(addrs >= 1024, "4,097 addresses use only {addrs} bucket starts");
    }

    #[test]
    fn map_iteration_order_is_stable() {
        let build = || {
            let mut m = FxHashMap::default();
            for i in 0..1000u32 {
                m.insert(i, i * 2);
            }
            m.into_iter().collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }
}
