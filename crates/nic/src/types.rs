//! Types shared by the NIC models: queue-pair handles, work requests,
//! completions and configuration.

use core::fmt;

use qpip_netstack::types::{AckPolicy, Endpoint, NetConfig};
use qpip_sim::time::SimTime;

/// Handle to a queue pair inside one NIC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QpId(pub u32);

impl fmt::Display for QpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "qp#{}", self.0)
    }
}

/// Handle to a completion queue inside one NIC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CqId(pub u32);

impl fmt::Display for CqId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cq#{}", self.0)
    }
}

/// Transport service bound to a QP (§3: best-effort datagrams over UDP,
/// reliable connections over TCP).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceType {
    /// Reliable, connected service over TCP.
    ReliableTcp,
    /// Unreliable datagram service over UDP.
    UnreliableUdp,
}

/// A send work request as fetched from the host send queue.
#[derive(Debug, Clone)]
pub struct SendWr {
    /// Caller-chosen identifier reported in the completion.
    pub wr_id: u64,
    /// Message bytes (the registered-buffer contents).
    pub payload: Vec<u8>,
    /// Destination for UDP QPs ("The WRs in a UDP QP identify the
    /// target … for sent … messages", §3). Ignored for connected TCP.
    pub dst: Option<Endpoint>,
}

/// An RDMA Write work request: place `data` at `offset` within the
/// peer's registered region `rkey` (the peer's process is not involved
/// and no receive WR is consumed — §2.1). Region keys travel out of
/// band, e.g. via an earlier send-receive exchange, exactly as §2.1
/// prescribes.
#[derive(Debug, Clone)]
pub struct RdmaWriteWr {
    /// Caller-chosen identifier reported in the completion.
    pub wr_id: u64,
    /// The bytes to place remotely.
    pub data: Vec<u8>,
    /// Remote region key.
    pub rkey: MrKey,
    /// Byte offset within the remote region.
    pub remote_offset: u64,
}

/// An RDMA Read work request: fetch `len` bytes at `offset` from the
/// peer's registered region.
#[derive(Debug, Clone, Copy)]
pub struct RdmaReadWr {
    /// Caller-chosen identifier reported in the completion.
    pub wr_id: u64,
    /// Bytes to read.
    pub len: u32,
    /// Remote region key.
    pub rkey: MrKey,
    /// Byte offset within the remote region.
    pub remote_offset: u64,
}

/// Key of a registered memory region (the rkey peers use to address it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MrKey(pub u32);

impl fmt::Display for MrKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mr#{}", self.0)
    }
}

/// A receive work request: identifies a registered buffer for incoming
/// data.
#[derive(Debug, Clone, Copy)]
pub struct RecvWr {
    /// Caller-chosen identifier reported in the completion.
    pub wr_id: u64,
    /// Capacity of the posted buffer in bytes.
    pub capacity: usize,
}

/// Completion status.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompletionStatus {
    /// The operation finished.
    Success,
    /// The incoming message was larger than the posted buffer.
    LocalLengthError {
        /// Message size.
        len: usize,
        /// Buffer capacity.
        capacity: usize,
    },
    /// The connection was lost (reset or retry exhaustion).
    ConnectionError,
}

/// What completed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompletionKind {
    /// A send WR finished (TCP: all bytes acknowledged, §3; UDP: handed
    /// to the wire).
    Send,
    /// A receive WR consumed an incoming message.
    Recv {
        /// The message bytes (placed in the posted buffer).
        data: Vec<u8>,
        /// Sender endpoint (meaningful for UDP QPs).
        src: Option<Endpoint>,
    },
    /// A connection request completed on this QP (client side), or an
    /// incoming connection was mated to this QP (server side, §3).
    ConnectionEstablished,
    /// The peer closed the connection.
    PeerDisconnected,
    /// An RDMA Write WR finished (all bytes acknowledged, placed in the
    /// remote region without involving the remote process — §2.1).
    RdmaWrite,
    /// An RDMA Read WR finished; the remote bytes are in the local
    /// registered buffer.
    RdmaRead {
        /// The bytes read from the remote region.
        data: Vec<u8>,
    },
}

/// A completion-queue entry, visible to the host at `visible_at`.
#[derive(Debug, Clone)]
pub struct Completion {
    /// The QP the work belonged to.
    pub qp: QpId,
    /// The work-request id (0 for connection events).
    pub wr_id: u64,
    /// What completed.
    pub kind: CompletionKind,
    /// Status.
    pub status: CompletionStatus,
    /// When the entry lands in host memory (CQ DMA finished).
    pub visible_at: SimTime,
}

/// Where the IP checksum is computed on the QPIP NIC (§4.2.1: the
/// prototype's DMA hardware assists on transmit; receive-side assist is
/// emulated for the figures, with firmware checksumming reported
/// separately).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChecksumMode {
    /// DMA-engine checksums: no NIC processor cycles (the figures'
    /// configuration).
    Hardware,
    /// Firmware loop at ~5 cycles/byte (the 73 µs / 113 µs RTT and
    /// 26.4 MB/s configuration).
    Firmware,
}

/// QPIP NIC configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NicConfig {
    /// Checksum placement.
    pub checksum: ChecksumMode,
    /// `true` models a NIC processor with a hardware multiplier
    /// (ablation for §4.2.2's software-multiply penalty).
    pub hw_multiply: bool,
    /// Wire MTU of the attached fabric.
    pub mtu: usize,
    /// When set, the offloaded stack builds TCP segments up to this size
    /// regardless of the wire MTU — one QP message per segment (§4.1) —
    /// and the firmware carries oversized segments as IPv6 end-to-end
    /// fragments ("the IPv6 standard supports only end-to-end
    /// fragmentation which is better suited to hardware based protocol
    /// implementations", §4.1). `None` bounds segments by the wire MTU.
    pub jumbo_segments: Option<usize>,
    /// Negotiate ECN on TCP connections and react to
    /// Congestion-Experienced marks from the fabric's RED/ECN queues
    /// (§5.2). Off by default, like the era's stacks.
    pub ecn: bool,
    /// Enables the RDMA transaction class (§2.1) on this NIC's TCP QPs.
    /// Adds a 28-byte direct-data-placement frame to every message (our
    /// forward-port of what iWARP later standardized); both ends of a
    /// connection must enable it. Off by default — plain QPIP keeps the
    /// paper's unframed encapsulation.
    pub rdma_framing: bool,
}

impl NicConfig {
    /// The configuration used for the paper's figures: hardware-assisted
    /// checksum, LANai-like software multiply, 16 KB native MTU.
    pub fn paper_default() -> Self {
        NicConfig {
            checksum: ChecksumMode::Hardware,
            hw_multiply: false,
            mtu: qpip_sim::params::QPIP_NATIVE_MTU,
            jumbo_segments: None,
            ecn: false,
            rdma_framing: false,
        }
    }

    /// Same but with the firmware checksum (the "for completeness"
    /// numbers in §4.2.1).
    pub fn firmware_checksum() -> Self {
        NicConfig { checksum: ChecksumMode::Firmware, ..NicConfig::paper_default() }
    }

    /// Small-MTU fabric with jumbo (16 KB) TCP segments carried as IPv6
    /// fragments: one WR still maps to one segment, so the host's verb
    /// cost stays per-16 KB-message even at a 1500-byte wire MTU.
    pub fn fragmented(wire_mtu: usize) -> Self {
        NicConfig {
            mtu: wire_mtu,
            jumbo_segments: Some(qpip_sim::params::QPIP_NATIVE_MTU),
            ..NicConfig::paper_default()
        }
    }

    /// The TCP segment budget: `jumbo_segments` when set, otherwise the
    /// wire MTU.
    pub fn segment_mtu(&self) -> usize {
        self.jumbo_segments.unwrap_or(self.mtu).max(self.mtu)
    }

    /// Paper defaults plus the RDMA transaction class.
    pub fn with_rdma() -> Self {
        NicConfig { rdma_framing: true, ..NicConfig::paper_default() }
    }
}

/// The protocol-engine configuration of a QPIP endpoint whose TCP
/// segments are at most `mtu` bytes: the paper's profile
/// ([`NetConfig::qpip`]) with the firmware's delayed ACK
/// ([`NIC_DELAYED_ACK`](qpip_sim::params::NIC_DELAYED_ACK)), from which
/// every [`QpipNic`](crate::QpipNic) builds its engine.
pub(crate) fn endpoint_net(mtu: usize) -> NetConfig {
    NetConfig {
        ack_policy: AckPolicy::Delayed(qpip_sim::params::NIC_DELAYED_ACK),
        ..NetConfig::qpip(mtu)
    }
}

/// Errors from NIC verb calls.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NicError {
    /// Unknown QP handle.
    UnknownQp(QpId),
    /// Unknown CQ handle.
    UnknownCq(CqId),
    /// Operation not valid for the QP's service type or state.
    InvalidState(&'static str),
    /// The underlying protocol engine rejected the call.
    Engine(qpip_netstack::engine::EngineError),
}

impl fmt::Display for NicError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NicError::UnknownQp(q) => write!(f, "unknown {q}"),
            NicError::UnknownCq(c) => write!(f, "unknown {c}"),
            NicError::InvalidState(m) => write!(f, "invalid state: {m}"),
            NicError::Engine(e) => write!(f, "protocol engine: {e}"),
        }
    }
}

impl std::error::Error for NicError {}

impl From<qpip_netstack::engine::EngineError> for NicError {
    fn from(e: qpip_netstack::engine::EngineError) -> Self {
        NicError::Engine(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_impls() {
        assert_eq!(QpId(3).to_string(), "qp#3");
        assert_eq!(CqId(7).to_string(), "cq#7");
        assert!(NicError::UnknownQp(QpId(1)).to_string().contains("qp#1"));
    }

    #[test]
    fn paper_default_matches_section_421() {
        let c = NicConfig::paper_default();
        assert_eq!(c.checksum, ChecksumMode::Hardware);
        assert!(!c.hw_multiply);
        assert_eq!(c.mtu, 16 * 1024);
        assert_eq!(NicConfig::firmware_checksum().checksum, ChecksumMode::Firmware);
    }
}
