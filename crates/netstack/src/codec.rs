//! Whole-packet encoding and decoding: transport segment + IPv6 header,
//! checksums computed and verified exactly as the wire would carry them.
//!
//! The encode path copies each payload byte once: the payload is written
//! into a [`Packet`] with headroom and each header is prepended in place
//! ([`Packet::prepend_space`] + the `encode_into` slice encoders), so a
//! full IPv6+TCP/UDP packet costs one allocation and no payload moves.
//! A TCP segment's payload comes straight from the sender's send buffer
//! (`build_tcp_packet`'s `payload` writer, fed by
//! [`Tcb::read_payload`](crate::tcp::Tcb::read_payload)): no
//! intermediate copy of it exists.
//! The decode path borrows: [`Decoded`] carries `&[u8]` views into the
//! received buffer instead of copied vectors.

use std::net::Ipv6Addr;

use qpip_wire::checksum::{transport_checksum, verify_transport_checksum};
use qpip_wire::error::ParseWireError;
use qpip_wire::ipv6::{Ipv6Header, NextHeader, IPV6_HEADER_LEN};
use qpip_wire::packet::{Packet, HEADROOM};
use qpip_wire::tcp::TcpHeader;
use qpip_wire::udp::{UdpHeader, UDP_HEADER_LEN};

use crate::tcp::SegmentOut;
use crate::types::Endpoint;

/// A fully decoded incoming packet. Payloads are borrowed views into
/// the receive buffer — copying (if any) happens at delivery, not here.
#[derive(Debug)]
pub enum Decoded<'a> {
    /// A TCP segment.
    Tcp {
        /// The IPv6 header.
        ip: Ipv6Header,
        /// The TCP header.
        tcp: TcpHeader,
        /// Segment payload.
        payload: &'a [u8],
        /// Offset of `payload` in the decoded buffer.
        payload_at: usize,
    },
    /// A UDP datagram.
    Udp {
        /// The IPv6 header.
        ip: Ipv6Header,
        /// The UDP header.
        udp: UdpHeader,
        /// Datagram payload.
        payload: &'a [u8],
    },
    /// An upper-layer protocol we do not implement.
    Other {
        /// The IPv6 header.
        ip: Ipv6Header,
    },
}

/// Builds a complete IPv6+UDP packet with a valid checksum.
///
/// # Panics
///
/// Panics if the datagram exceeds 65 535 bytes (callers segment to the
/// fabric MTU well below that).
pub fn build_udp_packet(src: Endpoint, dst: Endpoint, payload: &[u8]) -> Packet {
    let udp = UdpHeader::for_payload(src.port, dst.port, payload.len());
    let mut pkt = Packet::with_headroom(payload, HEADROOM);
    udp.encode_into(pkt.prepend_space(UDP_HEADER_LEN));
    let ck = transport_checksum(src.addr, dst.addr, NextHeader::Udp.code(), &pkt);
    // UDP over IPv6: a computed 0 is transmitted as 0xffff (RFC 2460 §8.1)
    let ck = if ck == 0 { 0xffff } else { ck };
    pkt[6..8].copy_from_slice(&ck.to_be_bytes());
    prepend_ipv6(&mut pkt, src.addr, dst.addr, NextHeader::Udp);
    pkt
}

/// Builds a complete IPv6+TCP packet from an abstract [`SegmentOut`].
/// `payload` appends the segment's `seg.payload.len()` payload bytes to
/// the packet it is handed, which already has room for them.
///
/// # Panics
///
/// In debug builds, if `payload` appends a different number of bytes.
pub fn build_tcp_packet(
    src: Endpoint,
    dst: Endpoint,
    seg: &SegmentOut,
    payload: impl FnOnce(&mut Packet),
) -> Packet {
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
    let len = seg.payload.len();
    let mut pkt = Packet::reserve_headroom(HEADROOM, len);
    payload(&mut pkt);
    debug_assert_eq!(pkt.len(), len, "payload writer appended the wrong length");
    hdr.encode_into(pkt.prepend_space(hdr.encoded_len()));
    let ck = transport_checksum(src.addr, dst.addr, NextHeader::Tcp.code(), &pkt);
    pkt[16..18].copy_from_slice(&ck.to_be_bytes());
    prepend_ipv6(&mut pkt, src.addr, dst.addr, NextHeader::Tcp);
    if seg.ect {
        Ipv6Header::set_ecn_in_packet(&mut pkt, qpip_wire::ipv6::Ecn::Capable);
    }
    pkt
}

/// Prepends an IPv6 header in front of the transport segment currently
/// occupying `pkt`.
fn prepend_ipv6(pkt: &mut Packet, src: Ipv6Addr, dst: Ipv6Addr, nh: NextHeader) {
    let ip = Ipv6Header::new(src, dst, nh, pkt.len() as u16);
    ip.encode_into(pkt.prepend_space(IPV6_HEADER_LEN));
}

/// Decodes and checksum-verifies a packet.
///
/// # Errors
///
/// Propagates header parse errors; returns
/// [`ParseWireError::BadChecksum`] when the transport checksum fails.
pub fn decode_packet(bytes: &[u8]) -> Result<Decoded<'_>, ParseWireError> {
    let (ip, n) = Ipv6Header::parse(bytes)?;
    let seg = &bytes[n..n + usize::from(ip.payload_len)];
    match ip.next_header {
        NextHeader::Tcp => {
            if !verify_transport_checksum(ip.src, ip.dst, NextHeader::Tcp.code(), seg) {
                return Err(ParseWireError::BadChecksum);
            }
            let (tcp, hl) = TcpHeader::parse(seg)?;
            Ok(Decoded::Tcp { ip, tcp, payload: &seg[hl..], payload_at: n + hl })
        }
        NextHeader::Udp => {
            if !verify_transport_checksum(ip.src, ip.dst, NextHeader::Udp.code(), seg) {
                return Err(ParseWireError::BadChecksum);
            }
            let (udp, hl) = UdpHeader::parse(seg)?;
            Ok(Decoded::Udp { ip, udp, payload: &seg[hl..usize::from(udp.length)] })
        }
        NextHeader::Other(_) => Ok(Decoded::Other { ip }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpip_wire::tcp::{SeqNum, TcpFlags, TcpOptions};

    use crate::tcp::SegPayload;

    fn ep(last: u16, port: u16) -> Endpoint {
        Endpoint::new(Ipv6Addr::new(0xfc00, 0, 0, 0, 0, 0, 0, last), port)
    }

    #[test]
    fn udp_packet_roundtrip_and_checksum() {
        let pkt = build_udp_packet(ep(1, 7000), ep(2, 8000), b"hello qp");
        match decode_packet(&pkt).unwrap() {
            Decoded::Udp { ip, udp, payload } => {
                assert_eq!(ip.src, ep(1, 0).addr);
                assert_eq!(udp.src_port, 7000);
                assert_eq!(udp.dst_port, 8000);
                assert_eq!(payload, b"hello qp");
            }
            other => panic!("wrong decode: {other:?}"),
        }
    }

    #[test]
    fn tcp_packet_roundtrip_and_checksum() {
        let seg = SegmentOut {
            seq: SeqNum(100),
            ack: SeqNum(200),
            flags: TcpFlags { ack: true, psh: true, ..TcpFlags::NONE },
            window: 4096,
            options: TcpOptions { timestamps: Some((1, 2)), ..TcpOptions::default() },
            payload: SegPayload::Buffered(13),
            kind: crate::types::PacketKind::TcpData,
            is_retransmit: false,
            ect: false,
        };
        let pkt = build_tcp_packet(ep(1, 4000), ep(2, 5000), &seg, |p| {
            p.extend_from_slice(b"payload bytes")
        });
        match decode_packet(&pkt).unwrap() {
            Decoded::Tcp { tcp, payload, .. } => {
                assert_eq!(tcp.seq, SeqNum(100));
                assert_eq!(tcp.options.timestamps, Some((1, 2)));
                assert_eq!(payload, b"payload bytes");
            }
            other => panic!("wrong decode: {other:?}"),
        }
    }

    #[test]
    fn udp_zero_checksum_transmitted_as_all_ones() {
        // RFC 2460 §8.1: a computed UDP checksum of 0x0000 goes on the
        // wire as 0xffff. Brute-force a payload whose sum is zero.
        let src = ep(1, 0x0000);
        let dst = ep(2, 0x0000);
        let mut found = None;
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                let payload = [a, b];
                let pkt = build_udp_packet(src, dst, &payload);
                let stored = u16::from_be_bytes([pkt[40 + 6], pkt[40 + 7]]);
                if stored == 0xffff {
                    found = Some(pkt);
                    break;
                }
            }
        }
        let pkt = found.expect("some 2-byte payload sums to zero");
        // and it still decodes + verifies
        assert!(matches!(decode_packet(&pkt).unwrap(), Decoded::Udp { .. }));
    }

    #[test]
    fn corruption_is_detected() {
        let mut pkt = build_udp_packet(ep(1, 1), ep(2, 2), b"data!");
        let last = pkt.len() - 1;
        pkt[last] ^= 0x40;
        assert!(matches!(decode_packet(&pkt), Err(ParseWireError::BadChecksum)));
    }

    #[test]
    fn unknown_next_header_is_surfaced_not_dropped() {
        let mut pkt = Packet::with_headroom(&[0u8; 4], HEADROOM);
        prepend_ipv6(&mut pkt, ep(1, 0).addr, ep(2, 0).addr, NextHeader::Other(41));
        assert!(matches!(decode_packet(&pkt).unwrap(), Decoded::Other { .. }));
    }

    #[test]
    fn headers_land_in_headroom_without_reallocation() {
        let payload = vec![0x5au8; 256];
        let pkt = build_udp_packet(ep(1, 1), ep(2, 2), &payload);
        // link framing still fits in front without a copy
        assert!(pkt.headroom() >= 8);
        assert_eq!(pkt.len(), IPV6_HEADER_LEN + UDP_HEADER_LEN + payload.len());
    }

    // ----- error paths: every malformed input is an Err, never a panic

    /// Recomputes the transport checksum after a test mutates header
    /// bytes, so the mutation reaches the parser instead of tripping
    /// the checksum verification first.
    fn reseal_checksum(pkt: &mut [u8], nh: NextHeader, at: usize) {
        let mut a = [0u8; 16];
        a.copy_from_slice(&pkt[8..24]);
        let src = Ipv6Addr::from(a);
        a.copy_from_slice(&pkt[24..40]);
        let dst = Ipv6Addr::from(a);
        pkt[IPV6_HEADER_LEN + at..IPV6_HEADER_LEN + at + 2].copy_from_slice(&[0, 0]);
        let ck = transport_checksum(src, dst, nh.code(), &pkt[IPV6_HEADER_LEN..]);
        pkt[IPV6_HEADER_LEN + at..IPV6_HEADER_LEN + at + 2].copy_from_slice(&ck.to_be_bytes());
    }

    fn tcp_packet(payload: &[u8]) -> Packet {
        let seg = SegmentOut {
            seq: SeqNum(1),
            ack: SeqNum(2),
            flags: TcpFlags { ack: true, ..TcpFlags::NONE },
            window: 1024,
            options: TcpOptions { timestamps: Some((9, 9)), ..TcpOptions::default() },
            payload: SegPayload::Buffered(payload.len() as u32),
            kind: crate::types::PacketKind::TcpData,
            is_retransmit: false,
            ect: false,
        };
        build_tcp_packet(ep(1, 4000), ep(2, 5000), &seg, |p| p.extend_from_slice(payload))
    }

    #[test]
    fn truncated_ipv6_header_is_rejected() {
        let pkt = tcp_packet(b"data");
        for cut in [0usize, 1, 8, 39] {
            assert!(
                matches!(
                    decode_packet(&pkt[..cut]),
                    Err(ParseWireError::Truncated { needed: 40, have }) if have == cut
                ),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn non_v6_version_is_rejected() {
        let mut bytes = tcp_packet(b"data").to_vec();
        bytes[0] = (bytes[0] & 0x0f) | 0x40;
        assert!(matches!(decode_packet(&bytes), Err(ParseWireError::BadVersion { found: 4 })));
    }

    #[test]
    fn payload_length_overrunning_buffer_is_rejected() {
        // any tail truncation leaves payload_len pointing past the end
        let pkt = tcp_packet(b"data");
        for cut in 40..pkt.len() {
            assert!(
                matches!(decode_packet(&pkt[..cut]), Err(ParseWireError::BadLength)),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn truncated_tcp_header_is_rejected() {
        // a 12-byte "TCP header" with a valid checksum (the complement
        // stored in an aligned zero slot keeps the sum verifiable) so
        // the failure is the parser's, not the checksum check's
        let mut pkt = Packet::with_headroom(&[0u8; 12], HEADROOM);
        prepend_ipv6(&mut pkt, ep(1, 0).addr, ep(2, 0).addr, NextHeader::Tcp);
        reseal_checksum(&mut pkt, NextHeader::Tcp, 8);
        assert!(matches!(
            decode_packet(&pkt),
            Err(ParseWireError::Truncated { needed: 20, have: 12 })
        ));
    }

    #[test]
    fn illegal_tcp_data_offset_is_rejected() {
        // below the 20-byte floor and beyond the segment both fail
        for nibble in [3u8, 0xf] {
            let mut bytes = tcp_packet(b"x").to_vec();
            bytes[IPV6_HEADER_LEN + 12] = nibble << 4;
            reseal_checksum(&mut bytes, NextHeader::Tcp, 16);
            assert!(
                matches!(decode_packet(&bytes), Err(ParseWireError::BadLength)),
                "data offset nibble {nibble}"
            );
        }
    }

    #[test]
    fn malformed_tcp_option_is_rejected() {
        // first option byte: kind 8 (timestamps) with impossible len 1
        let mut bytes = tcp_packet(b"x").to_vec();
        bytes[IPV6_HEADER_LEN + 20] = 8;
        bytes[IPV6_HEADER_LEN + 21] = 1;
        reseal_checksum(&mut bytes, NextHeader::Tcp, 16);
        assert!(matches!(decode_packet(&bytes), Err(ParseWireError::BadOption)));
    }

    #[test]
    fn corrupted_tcp_payload_fails_checksum() {
        let mut bytes = tcp_packet(b"payload").to_vec();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        assert!(matches!(decode_packet(&bytes), Err(ParseWireError::BadChecksum)));
    }

    #[test]
    fn truncated_udp_header_is_rejected() {
        let mut pkt = Packet::with_headroom(&[0u8; 6], HEADROOM);
        prepend_ipv6(&mut pkt, ep(1, 0).addr, ep(2, 0).addr, NextHeader::Udp);
        reseal_checksum(&mut pkt, NextHeader::Udp, 0);
        assert!(matches!(
            decode_packet(&pkt),
            Err(ParseWireError::Truncated { needed: 8, have: 6 })
        ));
    }

    #[test]
    fn udp_length_field_beyond_datagram_is_rejected() {
        let mut bytes = build_udp_packet(ep(1, 1), ep(2, 2), b"four").to_vec();
        // claim 100 bytes in a 12-byte datagram
        bytes[IPV6_HEADER_LEN + 4..IPV6_HEADER_LEN + 6].copy_from_slice(&100u16.to_be_bytes());
        reseal_checksum(&mut bytes, NextHeader::Udp, 6);
        assert!(matches!(decode_packet(&bytes), Err(ParseWireError::BadLength)));
    }

    #[test]
    fn udp_length_field_below_header_floor_is_rejected() {
        let mut bytes = build_udp_packet(ep(1, 1), ep(2, 2), b"four").to_vec();
        bytes[IPV6_HEADER_LEN + 4..IPV6_HEADER_LEN + 6].copy_from_slice(&7u16.to_be_bytes());
        reseal_checksum(&mut bytes, NextHeader::Udp, 6);
        assert!(matches!(decode_packet(&bytes), Err(ParseWireError::BadLength)));
    }
}
