//! Randomized tests for wire-format invariants.
//!
//! Deterministic replacement for the former proptest suite: each
//! property runs against a few hundred cases drawn from a seeded
//! [`SplitMix64`] stream, so failures reproduce exactly and the suite
//! needs no external crates.

use std::net::Ipv6Addr;

use qpip_sim::rng::SplitMix64;
use qpip_wire::checksum::{checksum, transport_checksum, verify_transport_checksum, Checksum};
use qpip_wire::ipv6::{Ipv6Header, NextHeader};
use qpip_wire::tcp::{SeqNum, TcpFlags, TcpHeader, TcpOptions};
use qpip_wire::udp::UdpHeader;

const CASES: usize = 256;

fn arb_ipv6(r: &mut SplitMix64) -> Ipv6Addr {
    let mut o = [0u8; 16];
    r.fill_bytes(&mut o);
    Ipv6Addr::from(o)
}

fn arb_options(r: &mut SplitMix64) -> TcpOptions {
    TcpOptions {
        mss: r.flip().then(|| r.next_u32() as u16),
        window_scale: r.flip().then(|| r.below(15) as u8),
        timestamps: r.flip().then(|| (r.next_u32(), r.next_u32())),
    }
}

fn arb_tcp_header(r: &mut SplitMix64) -> TcpHeader {
    TcpHeader {
        src_port: r.next_u32() as u16,
        dst_port: r.next_u32() as u16,
        seq: SeqNum(r.next_u32()),
        ack: SeqNum(r.next_u32()),
        flags: TcpFlags::from_byte(r.below(64) as u8),
        window: r.next_u32() as u16,
        checksum: r.next_u32() as u16,
        urgent: r.next_u32() as u16,
        options: arb_options(r),
    }
}

#[test]
fn tcp_header_roundtrips() {
    let mut r = SplitMix64::new(0x7c9_0001);
    for _ in 0..CASES {
        let h = arb_tcp_header(&mut r);
        let mut buf = Vec::new();
        h.encode(&mut buf);
        assert_eq!(buf.len(), h.encoded_len());
        assert_eq!(buf.len() % 4, 0);
        let (back, used) = TcpHeader::parse(&buf).unwrap();
        assert_eq!(back, h);
        assert_eq!(used, buf.len());
    }
}

#[test]
fn tcp_header_roundtrips_with_trailing_payload() {
    let mut r = SplitMix64::new(0x7c9_0002);
    for _ in 0..CASES {
        let h = arb_tcp_header(&mut r);
        let plen = r.range_usize(0, 256);
        let payload = r.bytes(plen);
        let mut buf = Vec::new();
        h.encode(&mut buf);
        let hdr_len = buf.len();
        buf.extend_from_slice(&payload);
        let (back, used) = TcpHeader::parse(&buf).unwrap();
        assert_eq!(back, h);
        assert_eq!(used, hdr_len);
        assert_eq!(&buf[used..], &payload[..]);
    }
}

#[test]
fn ipv6_header_roundtrips() {
    let mut r = SplitMix64::new(0x7c9_0003);
    for _ in 0..CASES {
        let h = Ipv6Header {
            traffic_class: r.next_u32() as u8,
            flow_label: r.below(0x10_0000) as u32,
            payload_len: 0,
            next_header: NextHeader::from(r.next_u32() as u8),
            hop_limit: r.next_u32() as u8,
            src: arb_ipv6(&mut r),
            dst: arb_ipv6(&mut r),
        };
        let mut buf = Vec::new();
        h.encode(&mut buf);
        let (back, _) = Ipv6Header::parse(&buf).unwrap();
        assert_eq!(back, h);
    }
}

#[test]
fn udp_header_roundtrips() {
    let mut r = SplitMix64::new(0x7c9_0004);
    for _ in 0..CASES {
        let h = UdpHeader {
            src_port: r.next_u32() as u16,
            dst_port: r.next_u32() as u16,
            length: 8 + r.below(1000) as u16,
            checksum: 77,
        };
        let mut buf = Vec::new();
        h.encode(&mut buf);
        buf.resize(usize::from(h.length), 0);
        let (back, used) = UdpHeader::parse(&buf).unwrap();
        assert_eq!(back, h);
        assert_eq!(used, 8);
    }
}

#[test]
fn checksum_is_order_insensitive_across_word_swaps() {
    let mut r = SplitMix64::new(0x7c9_0006);
    for _ in 0..CASES {
        // one's-complement addition is commutative: summing words in any
        // order yields the same checksum.
        let words: Vec<u16> = (0..r.range_usize(1, 64)).map(|_| r.next_u32() as u16).collect();
        let mut forward = Checksum::new();
        let mut backward = Checksum::new();
        for w in &words {
            forward.add_word(*w);
        }
        for w in words.iter().rev() {
            backward.add_word(*w);
        }
        assert_eq!(forward.finish(), backward.finish());
    }
}

#[test]
fn patched_transport_checksum_always_verifies() {
    let mut r = SplitMix64::new(0x7c9_0007);
    for _ in 0..CASES {
        let src = arb_ipv6(&mut r);
        let dst = arb_ipv6(&mut r);
        let nh = if r.flip() { 6u8 } else { 17u8 };
        let slen = r.range_usize(8, 512);
        let mut seg = r.bytes(slen);
        // zero the checksum field location (bytes 6..8 for UDP, 16..18
        // for TCP — use 6..8 generically since the math is linear).
        seg[6] = 0;
        seg[7] = 0;
        let ck = transport_checksum(src, dst, nh, &seg);
        seg[6..8].copy_from_slice(&ck.to_be_bytes());
        assert!(verify_transport_checksum(src, dst, nh, &seg));
    }
}

#[test]
fn corrupting_any_byte_fails_verification() {
    let mut r = SplitMix64::new(0x7c9_0008);
    let mut checked = 0;
    for _ in 0..CASES {
        let src = arb_ipv6(&mut r);
        let dst = arb_ipv6(&mut r);
        let slen = r.range_usize(8, 128);
        let mut seg = r.bytes(slen);
        seg[6] = 0;
        seg[7] = 0;
        let ck = transport_checksum(src, dst, 6, &seg);
        seg[6..8].copy_from_slice(&ck.to_be_bytes());
        let i = r.range_usize(0, seg.len());
        let flip = r.range(1, 256) as u8;
        seg[i] ^= flip;
        // One's-complement sums have the known 0x0000/0xffff aliasing for
        // 16-bit-aligned flips of all-ones vs all-zeros words; skip the
        // rare alias case rather than weaken the assertion.
        let word = i & !1;
        let w = u16::from_be_bytes([seg[word], *seg.get(word + 1).unwrap_or(&0)]);
        if w == 0xffff || w == 0x0000 {
            continue;
        }
        checked += 1;
        assert!(!verify_transport_checksum(src, dst, 6, &seg));
    }
    assert!(checked > CASES / 2, "alias skip ate the test: {checked}");
}

/// The literal RFC 1071 reference: walk big-endian 16-bit words into a
/// `u32`, pad an odd tail with zero, fold, complement. The production
/// wide-word path (AVX2 or the portable four-accumulator loop) must be
/// bit-identical to this on every input.
fn reference_checksum(data: &[u8]) -> u16 {
    let mut sum = 0u32;
    let mut words = data.chunks_exact(2);
    for w in &mut words {
        sum += u32::from(u16::from_be_bytes([w[0], w[1]]));
    }
    if let [b] = words.remainder() {
        sum += u32::from(u16::from_be_bytes([*b, 0]));
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

#[test]
fn wide_word_checksum_matches_scalar_reference() {
    let mut r = SplitMix64::new(0x7c9_000a);
    // sweep every small length (block-boundary edge cases), then larger
    // random lengths crossing the 64-byte SIMD blocking several times
    let lens: Vec<usize> = (0..192).chain((0..CASES).map(|_| r.range_usize(192, 4096))).collect();
    for len in lens {
        let data = r.bytes(len);
        assert_eq!(checksum(&data), reference_checksum(&data), "len {len}");
    }
}

#[test]
fn wide_word_checksum_split_feeding_matches_reference() {
    let mut r = SplitMix64::new(0x7c9_000b);
    for _ in 0..CASES {
        let len = r.range_usize(1, 2048);
        let data = r.bytes(len);
        // feed the same bytes in arbitrary chunks (odd splits exercise
        // the leftover-byte pairing across calls)
        let mut c = Checksum::new();
        let mut off = 0;
        while off < data.len() {
            let take = r.range_usize(1, data.len() - off + 1);
            c.add_bytes(&data[off..off + take]);
            off += take;
        }
        assert_eq!(c.finish(), reference_checksum(&data));
    }
}

#[test]
fn seqnum_ordering_is_antisymmetric() {
    let mut r = SplitMix64::new(0x7c9_0009);
    for _ in 0..CASES {
        let x = SeqNum(r.next_u32());
        let delta = r.range(1, 0x7fff_ffff) as u32;
        let y = x + delta;
        assert!(x.lt(y));
        assert!(!y.lt(x));
        assert!(y.gt(x));
        assert_eq!(y - x, delta);
    }
}
