//! Shared types for the protocol engines: endpoints, configuration,
//! emitted events and operation counters.

use core::fmt;
use std::net::Ipv6Addr;

use qpip_sim::time::SimDuration;
use qpip_wire::packet::Packet;

/// A transport endpoint: IPv6 address + port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Endpoint {
    /// IPv6 address.
    pub addr: Ipv6Addr,
    /// Transport port.
    pub port: u16,
}

impl Endpoint {
    /// Creates an endpoint.
    pub fn new(addr: Ipv6Addr, port: u16) -> Self {
        Endpoint { addr, port }
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}]:{}", self.addr, self.port)
    }
}

/// Identifier of a TCP connection inside one [`crate::engine::Engine`].
///
/// The value packs a slab slot (low 20 bits) and a slot generation
/// (high 12 bits, never 0) so the engine resolves an id with one
/// bounds-checked array access instead of a hash lookup, while stale
/// ids from a reaped connection are rejected by the generation check
/// rather than silently matching the slot's next occupant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConnId(pub u32);

impl ConnId {
    pub(crate) const SLOT_BITS: u32 = 20;
    pub(crate) const SLOT_MASK: u32 = (1 << Self::SLOT_BITS) - 1;
    /// Generations wrap within 12 bits, skipping 0 so no live id is 0.
    pub(crate) const GEN_MAX: u32 = (1 << (32 - Self::SLOT_BITS)) - 1;

    pub(crate) fn from_parts(slot: u32, generation: u32) -> ConnId {
        debug_assert!(slot <= Self::SLOT_MASK);
        debug_assert!((1..=Self::GEN_MAX).contains(&generation));
        ConnId((generation << Self::SLOT_BITS) | slot)
    }

    pub(crate) fn slot(self) -> u32 {
        self.0 & Self::SLOT_MASK
    }

    pub(crate) fn generation(self) -> u32 {
        self.0 >> Self::SLOT_BITS
    }
}

impl fmt::Display for ConnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "conn#{}", self.0)
    }
}

/// Caller-chosen token identifying one send unit (a QP work request or a
/// socket write); reported back when the unit is fully acknowledged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SendToken(pub u64);

/// How user data maps onto TCP segments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentationPolicy {
    /// One QP message per TCP segment, the paper's mapping (§4.1): the
    /// segment carries the whole message regardless of MSS (bounded only
    /// by the fabric MTU), and message boundaries survive in the stream.
    MessagePerSegment,
    /// Conventional byte-stream segmentation at the connection MSS
    /// (host-stack behaviour); messages may be split or coalesced.
    Stream,
}

/// When acknowledgments are generated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckPolicy {
    /// ACK every data segment immediately: the simplest policy, and the
    /// one the conformance scripts exercise. The QPIP firmware
    /// (`qpip_nic::QpipNic`) delays its ACKs.
    Immediate,
    /// Standard delayed ACK: ack every second segment, or after the
    /// given timeout, whichever first.
    Delayed(SimDuration),
}

/// Engine configuration (one per node/stack instance).
///
/// Not configurable: every SYN offers RFC 1323 timestamps and window
/// scaling (the paper's NIC subset), and data goes out as soon as the
/// windows allow — there is no Nagle delay (ttcp sets `TCP_NODELAY`,
/// §4.2.1, and the QPIP firmware always sends messages immediately).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetConfig {
    /// Largest IPv6 packet (header + payload) the attached link accepts.
    pub mtu: usize,
    /// Data-to-segment mapping.
    pub segmentation: SegmentationPolicy,
    /// ACK generation policy.
    pub ack_policy: AckPolicy,
    /// Lower bound on the retransmission timeout.
    pub min_rto: SimDuration,
    /// Initial congestion window, in segments.
    pub initial_cwnd_segments: u32,
    /// Default receive-buffer size in bytes (the advertised window
    /// before any explicit [`crate::engine::Engine::set_recv_space`]
    /// call; QPIP overrides it with posted-WR space).
    pub recv_buffer: usize,
    /// Negotiate and react to Explicit Congestion Notification
    /// (RFC 3168) — §5.2: inter-network protocols bring "network-based
    /// mechanisms such as RED or ECN" to the SAN.
    pub ecn: bool,
}

impl NetConfig {
    /// The paper's QPIP protocol profile for a given fabric MTU: one
    /// message per segment, immediate ACKs, a 10 ms minimum RTO. The
    /// QPIP firmware (`qpip_nic::QpipNic`) runs it with a delayed ACK;
    /// the conformance and engine scripts run it as is.
    pub fn qpip(mtu: usize) -> Self {
        NetConfig {
            mtu,
            segmentation: SegmentationPolicy::MessagePerSegment,
            ack_policy: AckPolicy::Immediate,
            min_rto: SimDuration::from_millis(10),
            initial_cwnd_segments: 2,
            recv_buffer: 256 * 1024,
            ecn: false,
        }
    }

    /// A Linux-2.4-like host stack configuration for a given link MTU.
    pub fn host(mtu: usize) -> Self {
        NetConfig {
            mtu,
            segmentation: SegmentationPolicy::Stream,
            ack_policy: AckPolicy::Delayed(SimDuration::from_millis(40)),
            min_rto: SimDuration::from_millis(200),
            initial_cwnd_segments: 2,
            recv_buffer: 128 * 1024,
            ecn: false,
        }
    }

    /// Maximum TCP payload for this MTU given our fixed header sizes
    /// (IPv6 40 + TCP 20 + RFC 1323 timestamps 12).
    pub fn max_tcp_payload(&self) -> usize {
        self.mtu.saturating_sub(40 + 20 + 12)
    }

    /// Maximum UDP payload for this MTU (IPv6 40 + UDP 8).
    pub fn max_udp_payload(&self) -> usize {
        self.mtu.saturating_sub(48)
    }
}

/// Classification of an outgoing packet, used by the NIC cost model
/// (Tables 2 & 3 distinguish data from ACK processing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketKind {
    /// TCP segment carrying payload (may also acknowledge).
    TcpData,
    /// Pure TCP acknowledgment (no payload).
    TcpAck,
    /// TCP connection management (SYN/SYN-ACK/FIN/RST).
    TcpControl,
    /// UDP datagram.
    Udp,
}

/// A fully formed IPv6 packet ready for link framing.
#[derive(Debug, Clone)]
pub struct PacketOut {
    /// Destination IPv6 address (link resolution is the caller's job).
    pub dst: Ipv6Addr,
    /// The complete IPv6 packet bytes (with transmit headroom in front).
    pub bytes: Packet,
    /// Cost-model classification.
    pub kind: PacketKind,
    /// Connection this packet belongs to, when TCP.
    pub conn: Option<ConnId>,
}

impl PacketOut {
    /// TCP/UDP payload bytes carried (0 for pure ACKs/control).
    pub fn payload_len(&self) -> usize {
        // IPv6 payload length minus transport header; cheaper to track at
        // build time, but recomputing keeps PacketOut construction simple.
        self.payload_len_internal().unwrap_or(0)
    }

    fn payload_len_internal(&self) -> Option<usize> {
        use qpip_wire::ipv6::Ipv6Header;
        use qpip_wire::tcp::TcpHeader;
        use qpip_wire::udp::UDP_HEADER_LEN;
        let (ip, n) = Ipv6Header::parse(&self.bytes).ok()?;
        let seg = &self.bytes[n..n + usize::from(ip.payload_len)];
        match self.kind {
            PacketKind::Udp => Some(seg.len().saturating_sub(UDP_HEADER_LEN)),
            _ => {
                let (_, hl) = TcpHeader::parse(seg).ok()?;
                Some(seg.len() - hl)
            }
        }
    }
}

/// Events and packets produced by an engine call.
#[derive(Debug)]
pub enum Emit {
    /// Transmit this packet.
    Packet(PacketOut),
    /// A UDP datagram arrived for a bound port.
    UdpDelivered {
        /// The local bound port.
        port: u16,
        /// Sender endpoint.
        src: Endpoint,
        /// Datagram payload.
        payload: Vec<u8>,
    },
    /// An active open completed (client side).
    TcpConnected {
        /// The connection.
        conn: ConnId,
    },
    /// A passive open completed (server side): a new connection was
    /// spawned from a listener.
    TcpAccepted {
        /// The listening port that matched.
        listener_port: u16,
        /// The new connection.
        conn: ConnId,
        /// The peer's endpoint.
        peer: Endpoint,
    },
    /// In-order payload arrived on a connection. With
    /// [`SegmentationPolicy::MessagePerSegment`] each event is exactly
    /// one QP message (one segment).
    TcpDelivered {
        /// The connection.
        conn: ConnId,
        /// Payload bytes.
        data: Vec<u8>,
    },
    /// Every byte of the send unit identified by `token` is now
    /// acknowledged (§3: "This WR completes when all the data for that
    /// message is acknowledged by the destination").
    TcpSendComplete {
        /// The connection.
        conn: ConnId,
        /// The caller's token for the completed unit.
        token: SendToken,
    },
    /// The peer closed its half and all data was delivered.
    TcpPeerClosed {
        /// The connection.
        conn: ConnId,
    },
    /// The connection is fully closed and its state removed.
    TcpClosed {
        /// The connection.
        conn: ConnId,
    },
    /// The connection was reset.
    TcpReset {
        /// The connection.
        conn: ConnId,
    },
}

/// Counters of the arithmetic and data-touching work a protocol
/// operation performed; the NIC/host cost models convert these to cycles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounters {
    /// 32-bit multiply/divide operations (expensive on the LANai, which
    /// has no hardware multiply — §4.2.2).
    pub muls: u64,
    /// Bytes run through the internet checksum.
    pub csum_bytes: u64,
    /// Transport/IP headers built.
    pub headers_built: u64,
    /// Transport/IP headers parsed.
    pub headers_parsed: u64,
    /// RTT estimator updates performed.
    pub rtt_updates: u64,
    /// Header-prediction fast-path hits on receive.
    pub fast_path_hits: u64,
    /// Receive segments that took the slow path.
    pub slow_path_hits: u64,
}

impl OpCounters {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        OpCounters::default()
    }

    /// Adds another counter set into this one.
    pub fn absorb(&mut self, other: OpCounters) {
        self.muls += other.muls;
        self.csum_bytes += other.csum_bytes;
        self.headers_built += other.headers_built;
        self.headers_parsed += other.headers_parsed;
        self.rtt_updates += other.rtt_updates;
        self.fast_path_hits += other.fast_path_hits;
        self.slow_path_hits += other.slow_path_hits;
    }

    /// Returns the counters and resets them to zero.
    pub fn take(&mut self) -> OpCounters {
        std::mem::take(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_display() {
        let e = Endpoint::new(Ipv6Addr::LOCALHOST, 80);
        assert_eq!(e.to_string(), "[::1]:80");
    }

    #[test]
    fn qpip_config_uses_message_segmentation_and_immediate_acks() {
        let c = NetConfig::qpip(16 * 1024);
        assert_eq!(c.segmentation, SegmentationPolicy::MessagePerSegment);
        assert_eq!(c.ack_policy, AckPolicy::Immediate);
    }

    #[test]
    fn payload_budgets_account_for_headers() {
        let c = NetConfig::host(1500);
        assert_eq!(c.max_tcp_payload(), 1500 - 40 - 32);
        assert_eq!(c.max_udp_payload(), 1500 - 48);
    }

    #[test]
    fn op_counters_absorb_and_take() {
        let mut a = OpCounters { muls: 2, csum_bytes: 10, ..OpCounters::new() };
        let b = OpCounters { muls: 3, headers_built: 1, ..OpCounters::new() };
        a.absorb(b);
        assert_eq!(a.muls, 5);
        assert_eq!(a.csum_bytes, 10);
        assert_eq!(a.headers_built, 1);
        let taken = a.take();
        assert_eq!(taken.muls, 5);
        assert_eq!(a, OpCounters::new());
    }
}
