//! The internet checksum (RFC 1071) and the IPv6 pseudo-header.
//!
//! QPIP carries TCP and UDP over IPv6; both transports checksum their
//! header + payload together with the IPv6 pseudo-header. The NIC model
//! charges cycles for this computation when it runs in firmware, or
//! offloads it to the DMA engine (§4.1: "the DMA controller hardware
//! includes support for computing IP checksums").

use std::net::Ipv6Addr;

/// Incremental one's-complement sum, fold-at-the-end.
///
/// # Examples
///
/// ```
/// use qpip_wire::checksum::Checksum;
///
/// let mut c = Checksum::new();
/// c.add_bytes(&[0x00, 0x01, 0xf2, 0x03]);
/// assert_eq!(c.finish(), !0xf204);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Checksum {
    sum: u32,
    /// Set when an odd byte is pending (it pairs with the next byte).
    leftover: Option<u8>,
}

impl Checksum {
    /// Creates an empty sum.
    pub fn new() -> Self {
        Checksum::default()
    }

    /// Feeds bytes into the sum (big-endian 16-bit words).
    ///
    /// Accumulates 32-bit words into `u64` accumulators — RFC 1071
    /// permits summing on any word size because one's-complement
    /// addition is associative and 2³² ≡ 2¹⁶ ≡ 1 (mod 2¹⁶−1). A `u64`
    /// absorbs 2³² dword additions before it could overflow, so the
    /// wide loops (`sum_dwords`: AVX2 when available, a four-
    /// accumulator portable loop otherwise) have no carry chain; the
    /// result is bit-identical to the two-byte scalar walk.
    pub fn add_bytes(&mut self, mut data: &[u8]) {
        if let Some(lo) = self.leftover.take() {
            if let Some((&b, rest)) = data.split_first() {
                self.sum += u32::from(u16::from_be_bytes([lo, b]));
                data = rest;
            } else {
                self.leftover = Some(lo);
                return;
            }
        }

        let wide;
        (wide, data) = sum_dwords(data);
        if wide != 0 {
            // fold 64 → 32 → ≤16 bits; each fold preserves the value
            // mod 2¹⁶−1 because 2³² ≡ 2¹⁶ ≡ 1
            let mut s = (wide >> 32) + (wide & 0xffff_ffff);
            s = (s >> 16) + (s & 0xffff);
            while s >> 16 != 0 {
                s = (s & 0xffff) + (s >> 16);
            }
            // one swap converts the native-word sum to the wire's
            // big-endian word sum (a 16-bit rotation distributes over
            // end-around-carry addition); a no-op on BE machines
            self.sum += u32::from(u16::to_be(s as u16));
        }

        let mut words = data.chunks_exact(2);
        for w in &mut words {
            self.sum += u32::from(u16::from_be_bytes([w[0], w[1]]));
        }
        if let [b] = words.remainder() {
            self.leftover = Some(*b);
        }
    }

    /// Feeds one 16-bit word.
    pub fn add_word(&mut self, w: u16) {
        debug_assert!(self.leftover.is_none(), "add_word with pending odd byte");
        self.sum += u32::from(w);
    }

    /// Feeds a 32-bit value as two words.
    pub fn add_u32(&mut self, v: u32) {
        self.add_word((v >> 16) as u16);
        self.add_word(v as u16);
    }

    /// Folds carries and returns the one's-complement checksum.
    pub fn finish(mut self) -> u16 {
        if let Some(lo) = self.leftover.take() {
            // odd total length: pad with a zero byte
            self.add_word(u16::from_be_bytes([lo, 0]));
        }
        let mut s = self.sum;
        while s >> 16 != 0 {
            s = (s & 0xffff) + (s >> 16);
        }
        !(s as u16)
    }
}

/// Loads a 4-byte chunk as a native-endian 32-bit word, widened.
///
/// Native byte order is deliberate: the one's-complement sum is
/// byte-order independent (RFC 1071 §2B), so no per-word swap is
/// needed — one swap of the folded result suffices.
#[inline(always)]
fn dword(chunk: &[u8]) -> u64 {
    u64::from(u32::from_ne_bytes(chunk.try_into().expect("4-byte chunk")))
}

/// Sums the native-endian 32-bit words of `data` into a `u64` and
/// returns the unconsumed tail (fewer than four bytes).
///
/// Dispatches to an AVX2 kernel when the CPU has it; the portable
/// path uses four independent accumulators so the loop has no carry
/// chain. Both produce the same `u64`, so the fold downstream is
/// bit-identical either way.
fn sum_dwords(data: &[u8]) -> (u64, &[u8]) {
    #[cfg(target_arch = "x86_64")]
    {
        if data.len() >= 64 && std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was just verified at runtime.
            #[allow(unsafe_code)]
            return unsafe { sum_dwords_avx2(data) };
        }
    }
    sum_dwords_portable(data)
}

fn sum_dwords_portable(data: &[u8]) -> (u64, &[u8]) {
    // Eight 32-bit words per iteration into four independent u64
    // accumulators: a u64 holds 2³² dword additions before it could
    // overflow, so there is no carry chain at all and the loop —
    // plain loads and widening adds — pipelines/vectorizes freely.
    let (mut w0, mut w1, mut w2, mut w3) = (0u64, 0u64, 0u64, 0u64);
    let mut blocks = data.chunks_exact(32);
    for b in &mut blocks {
        w0 += dword(&b[0..4]);
        w1 += dword(&b[4..8]);
        w2 += dword(&b[8..12]);
        w3 += dword(&b[12..16]);
        w0 += dword(&b[16..20]);
        w1 += dword(&b[20..24]);
        w2 += dword(&b[24..28]);
        w3 += dword(&b[28..32]);
    }
    let mut wide = w0 + w1 + w2 + w3;
    let mut dwords = blocks.remainder().chunks_exact(4);
    for d in &mut dwords {
        wide += dword(d);
    }
    (wide, dwords.remainder())
}

/// AVX2 kernel: 64 bytes per iteration. Each 256-bit load is unpacked
/// against zero into 64-bit lanes (`unpacklo/hi_epi32`) and added into
/// two vector accumulators — the interleave permutes which dword lands
/// in which lane, which is harmless because only the lane total
/// matters. A final horizontal add yields the same `u64` as the
/// portable loop.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(unsafe_code)]
unsafe fn sum_dwords_avx2(data: &[u8]) -> (u64, &[u8]) {
    use core::arch::x86_64::*;

    let zero = _mm256_setzero_si256();
    let mut acc0 = zero;
    let mut acc1 = zero;
    let mut blocks = data.chunks_exact(64);
    for b in &mut blocks {
        let v0 = _mm256_loadu_si256(b.as_ptr() as *const __m256i);
        let v1 = _mm256_loadu_si256(b.as_ptr().add(32) as *const __m256i);
        acc0 = _mm256_add_epi64(acc0, _mm256_unpacklo_epi32(v0, zero));
        acc1 = _mm256_add_epi64(acc1, _mm256_unpackhi_epi32(v0, zero));
        acc0 = _mm256_add_epi64(acc0, _mm256_unpacklo_epi32(v1, zero));
        acc1 = _mm256_add_epi64(acc1, _mm256_unpackhi_epi32(v1, zero));
    }
    let acc = _mm256_add_epi64(acc0, acc1);
    let mut lanes = [0u64; 4];
    _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, acc);
    let mut wide = lanes[0] + lanes[1] + lanes[2] + lanes[3];
    let mut dwords = blocks.remainder().chunks_exact(4);
    for d in &mut dwords {
        wide += dword(d);
    }
    (wide, dwords.remainder())
}

/// Computes the internet checksum of a byte slice.
pub fn checksum(data: &[u8]) -> u16 {
    let mut c = Checksum::new();
    c.add_bytes(data);
    c.finish()
}

/// Starts a checksum primed with the IPv6 pseudo-header (RFC 2460 §8.1):
/// source, destination, upper-layer packet length and next-header code.
pub fn pseudo_header_sum(src: Ipv6Addr, dst: Ipv6Addr, len: u32, next_header: u8) -> Checksum {
    let mut c = Checksum::new();
    c.add_bytes(&src.octets());
    c.add_bytes(&dst.octets());
    c.add_u32(len);
    c.add_u32(u32::from(next_header));
    c
}

/// Computes the transport checksum (TCP or UDP) of `segment` — the
/// transport header with a zeroed checksum field plus payload — under the
/// IPv6 pseudo-header.
pub fn transport_checksum(src: Ipv6Addr, dst: Ipv6Addr, next_header: u8, segment: &[u8]) -> u16 {
    let mut c = pseudo_header_sum(src, dst, segment.len() as u32, next_header);
    c.add_bytes(segment);
    c.finish()
}

/// Verifies a transport segment whose checksum field is already filled
/// in: the total must fold to zero.
pub fn verify_transport_checksum(
    src: Ipv6Addr,
    dst: Ipv6Addr,
    next_header: u8,
    segment: &[u8],
) -> bool {
    let mut c = pseudo_header_sum(src, dst, segment.len() as u32, next_header);
    c.add_bytes(segment);
    c.finish() == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// RFC 1071 §3 worked example.
    #[test]
    fn rfc1071_example() {
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        let mut c = Checksum::new();
        c.add_bytes(&data);
        // sum = 0001 + f203 + f4f5 + f6f7 = 2ddf0 -> fold: ddf0+2 = ddf2
        assert_eq!(c.finish(), !0xddf2);
    }

    #[test]
    fn odd_length_pads_with_zero() {
        assert_eq!(checksum(&[0xab]), !0xab00);
        assert_eq!(checksum(&[0x12, 0x34, 0x56]), !(0x1234 + 0x5600));
    }

    #[test]
    fn split_feeding_matches_single_shot() {
        let data: Vec<u8> = (0..=255).collect();
        let whole = checksum(&data);
        for split in [1, 3, 7, 128, 255] {
            let mut c = Checksum::new();
            c.add_bytes(&data[..split]);
            c.add_bytes(&data[split..]);
            assert_eq!(c.finish(), whole, "split at {split}");
        }
    }

    #[test]
    fn odd_then_odd_feeding() {
        let mut c = Checksum::new();
        c.add_bytes(&[0x01]);
        c.add_bytes(&[0x02]);
        assert_eq!(c.finish(), !0x0102);
    }

    #[test]
    fn empty_checksum_is_all_ones() {
        assert_eq!(checksum(&[]), 0xffff);
    }

    #[test]
    fn verify_accepts_correct_and_rejects_corrupt() {
        let src = Ipv6Addr::new(0xfe80, 0, 0, 0, 0, 0, 0, 1);
        let dst = Ipv6Addr::new(0xfe80, 0, 0, 0, 0, 0, 0, 2);
        // UDP-ish segment with zeroed checksum at offset 6..8
        let mut seg = vec![0x12, 0x34, 0x43, 0x21, 0x00, 0x09, 0x00, 0x00, 0x7f];
        let ck = transport_checksum(src, dst, 17, &seg);
        seg[6..8].copy_from_slice(&ck.to_be_bytes());
        assert!(verify_transport_checksum(src, dst, 17, &seg));
        seg[8] ^= 0xff;
        assert!(!verify_transport_checksum(src, dst, 17, &seg));
    }

    /// The SIMD kernel and the portable loop must agree on the wide
    /// sum (and tail) for every alignment of the 64-byte blocking.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_kernel_matches_portable() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return;
        }
        let data: Vec<u8> = (0..1024u32).map(|i| (i.wrapping_mul(167) >> 3) as u8).collect();
        for len in (0..=256).chain([511, 512, 767, 1000, 1024]) {
            let portable = sum_dwords_portable(&data[..len]);
            // SAFETY: AVX2 presence checked above.
            #[allow(unsafe_code)]
            let simd = unsafe { sum_dwords_avx2(&data[..len]) };
            assert_eq!(portable, simd, "len {len}");
        }
    }

    #[test]
    fn pseudo_header_depends_on_every_field() {
        let a = Ipv6Addr::new(1, 0, 0, 0, 0, 0, 0, 1);
        let b = Ipv6Addr::new(1, 0, 0, 0, 0, 0, 0, 2);
        let base = transport_checksum(a, b, 6, b"hello");
        // note: swapping src/dst does NOT change the sum (one's-complement
        // addition is commutative), but protocol and payload do.
        assert_ne!(base, transport_checksum(a, b, 17, b"hello"));
        assert_ne!(base, transport_checksum(a, b, 6, b"hellp"));
        assert_ne!(base, transport_checksum(a, b, 6, b"helloo"));
    }
}
