//! Randomized equivalence: the zero-copy codec (headroom [`Packet`],
//! in-place header emission, wide-word checksum) must produce wire
//! bytes identical to the concat-of-Vecs encoding it replaced, for
//! arbitrary TCP options, flags and payloads. The legacy path is
//! replicated here verbatim — every layer allocating its own vector
//! and a two-byte scalar checksum — so any divergence in the rewrite
//! shows up as a byte diff.

use std::net::Ipv6Addr;

use qpip_netstack::codec::{build_tcp_packet, build_udp_packet, decode_packet, Decoded};
use qpip_netstack::tcp::{SegPayload, SegmentOut};
use qpip_netstack::types::{Endpoint, PacketKind};
use qpip_sim::rng::SplitMix64;
use qpip_wire::ipv6::{Ecn, Ipv6Header, NextHeader, IPV6_HEADER_LEN};
use qpip_wire::tcp::{SeqNum, TcpFlags, TcpHeader, TcpOptions};
use qpip_wire::udp::UdpHeader;

const CASES: usize = 256;

// ---------------------------------------------------------------------
// The legacy encode path, byte for byte.
// ---------------------------------------------------------------------

fn scalar_checksum_sum(data: &[u8]) -> u32 {
    let mut sum = 0u32;
    let mut words = data.chunks_exact(2);
    for w in &mut words {
        sum += u32::from(u16::from_be_bytes([w[0], w[1]]));
    }
    if let [b] = words.remainder() {
        sum += u32::from(u16::from_be_bytes([*b, 0]));
    }
    sum
}

fn scalar_transport_checksum(src: Ipv6Addr, dst: Ipv6Addr, nh: u8, segment: &[u8]) -> u16 {
    let mut s = scalar_checksum_sum(&src.octets());
    s += scalar_checksum_sum(&dst.octets());
    let len = segment.len() as u32;
    s += (len >> 16) + (len & 0xffff);
    s += u32::from(nh);
    s += scalar_checksum_sum(segment);
    while s >> 16 != 0 {
        s = (s & 0xffff) + (s >> 16);
    }
    !(s as u16)
}

fn legacy_wrap_ipv6(src: Ipv6Addr, dst: Ipv6Addr, nh: NextHeader, transport: Vec<u8>) -> Vec<u8> {
    let ip = Ipv6Header::new(src, dst, nh, transport.len() as u16);
    let mut pkt = Vec::with_capacity(IPV6_HEADER_LEN + transport.len());
    ip.encode(&mut pkt);
    pkt.extend_from_slice(&transport);
    pkt
}

fn legacy_build_udp_packet(src: Endpoint, dst: Endpoint, payload: &[u8]) -> Vec<u8> {
    let udp = UdpHeader::for_payload(src.port, dst.port, payload.len());
    let mut seg = Vec::with_capacity(8 + payload.len());
    udp.encode(&mut seg);
    seg.extend_from_slice(payload);
    let ck = scalar_transport_checksum(src.addr, dst.addr, NextHeader::Udp.code(), &seg);
    let ck = if ck == 0 { 0xffff } else { ck };
    seg[6..8].copy_from_slice(&ck.to_be_bytes());
    legacy_wrap_ipv6(src.addr, dst.addr, NextHeader::Udp, seg)
}

fn legacy_build_tcp_packet(
    src: Endpoint,
    dst: Endpoint,
    seg: &SegmentOut,
    payload: &[u8],
) -> Vec<u8> {
    let hdr = TcpHeader {
        src_port: src.port,
        dst_port: dst.port,
        seq: seg.seq,
        ack: seg.ack,
        flags: seg.flags,
        window: seg.window,
        checksum: 0,
        urgent: 0,
        options: seg.options,
    };
    let mut bytes = Vec::with_capacity(hdr.encoded_len() + payload.len());
    hdr.encode(&mut bytes);
    bytes.extend_from_slice(payload);
    let ck = scalar_transport_checksum(src.addr, dst.addr, NextHeader::Tcp.code(), &bytes);
    bytes[16..18].copy_from_slice(&ck.to_be_bytes());
    let mut pkt = legacy_wrap_ipv6(src.addr, dst.addr, NextHeader::Tcp, bytes);
    if seg.ect {
        Ipv6Header::set_ecn_in_packet(&mut pkt, Ecn::Capable);
    }
    pkt
}

// ---------------------------------------------------------------------
// Arbitrary inputs.
// ---------------------------------------------------------------------

fn arb_endpoint(r: &mut SplitMix64) -> Endpoint {
    let mut o = [0u8; 16];
    r.fill_bytes(&mut o);
    Endpoint { addr: Ipv6Addr::from(o), port: r.next_u32() as u16 }
}

/// A segment and the payload bytes it carries.
fn arb_segment(r: &mut SplitMix64) -> (SegmentOut, Vec<u8>) {
    let payload = {
        let len = r.range_usize(0, 1461);
        r.bytes(len)
    };
    let seg = SegmentOut {
        seq: SeqNum(r.next_u32()),
        ack: SeqNum(r.next_u32()),
        flags: TcpFlags::from_byte(r.below(64) as u8),
        window: r.next_u32() as u16,
        options: TcpOptions {
            mss: r.flip().then(|| r.next_u32() as u16),
            window_scale: r.flip().then(|| r.below(15) as u8),
            timestamps: r.flip().then(|| (r.next_u32(), r.next_u32())),
        },
        payload: SegPayload::Buffered(payload.len() as u32),
        kind: PacketKind::TcpData,
        is_retransmit: false,
        ect: r.flip(),
    };
    (seg, payload)
}

// ---------------------------------------------------------------------
// Properties.
// ---------------------------------------------------------------------

#[test]
fn tcp_packets_match_legacy_encoding_byte_for_byte() {
    let mut r = SplitMix64::new(0xc0dec1);
    for _ in 0..CASES {
        let (src, dst) = (arb_endpoint(&mut r), arb_endpoint(&mut r));
        let (seg, bytes) = arb_segment(&mut r);
        let pkt = build_tcp_packet(src, dst, &seg, |p| p.extend_from_slice(&bytes));
        let legacy = legacy_build_tcp_packet(src, dst, &seg, &bytes);
        assert_eq!(&pkt[..], &legacy[..], "seg {seg:?}");
        // and the borrowed decode sees the payload the legacy copy saw
        match decode_packet(&pkt).unwrap() {
            Decoded::Tcp { payload, .. } => assert_eq!(payload, &bytes[..]),
            other => panic!("decoded as {other:?}"),
        }
    }
}

#[test]
fn udp_packets_match_legacy_encoding_byte_for_byte() {
    let mut r = SplitMix64::new(0xc0dec2);
    for _ in 0..CASES {
        let (src, dst) = (arb_endpoint(&mut r), arb_endpoint(&mut r));
        let plen = r.range_usize(0, 2048);
        let payload = r.bytes(plen);
        let pkt = build_udp_packet(src, dst, &payload);
        let legacy = legacy_build_udp_packet(src, dst, &payload);
        assert_eq!(&pkt[..], &legacy[..], "payload len {}", payload.len());
        match decode_packet(&pkt).unwrap() {
            Decoded::Udp { payload: got, .. } => assert_eq!(got, &payload[..]),
            other => panic!("decoded as {other:?}"),
        }
    }
}
