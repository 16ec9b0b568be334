//! # qpip-netstack — the inter-network protocol engines
//!
//! A from-scratch implementation of the TCP/UDP/IPv6 subset the QPIP
//! prototype offloads into its network interface (§4.1 of the paper):
//!
//! * **TCP** — RFC 793 connection management via the sockets rendezvous
//!   model, Jacobson/Karels RTT estimation with Karn's rule, window
//!   management, Reno congestion control with fast retransmit, RFC 1323
//!   timestamps + window scaling, and the paper's
//!   *message-per-segment* mapping for QP messages. No
//!   out-of-order reassembly and no urgent data, exactly like the
//!   prototype.
//! * **UDP** — one QP message per datagram.
//! * **IPv6** — fixed headers, checksummed transports, static routing
//!   (resolution happens in the fabric layer).
//!
//! The engines are *pure state machines*: they consume segments and
//! deadlines and append packets and events to a caller's buffer, never
//! blocking, never allocating a container per call, and never
//! consulting a real clock. The same [`engine::Engine`] therefore runs
//! unchanged inside the simulated NIC firmware (`qpip-nic`) and behind
//! the host socket layer (`qpip-host`) — only the surrounding cost model
//! differs, which is precisely the comparison the paper makes.
//!
//! Every operation additionally counts the multiplies it performed
//! ([`types::OpCounters`]) so the LANai cost model can charge them in
//! software (§4.2.2); the firmware prices checksums from the packet
//! length.
//!
//! ## Example: two engines wired back to back
//!
//! ```
//! use std::net::Ipv6Addr;
//! use qpip_netstack::engine::Engine;
//! use qpip_netstack::types::{Emit, Endpoint, NetConfig, SendToken};
//! use qpip_sim::time::SimTime;
//!
//! let a_addr = Ipv6Addr::new(0xfc00, 0, 0, 0, 0, 0, 0, 1);
//! let b_addr = Ipv6Addr::new(0xfc00, 0, 0, 0, 0, 0, 0, 2);
//! let mut a = Engine::new(NetConfig::qpip(16 * 1024), a_addr);
//! let mut b = Engine::new(NetConfig::qpip(16 * 1024), b_addr);
//! let now = SimTime::ZERO;
//!
//! b.udp_bind(9000)?;
//! a.udp_bind(9001)?;
//! let emit = a.udp_send(9001, Endpoint::new(b_addr, 9000), b"hello")?;
//! let Emit::Packet(pkt) = emit else { unreachable!() };
//! // engine calls append to a buffer the caller owns and reuses
//! let mut delivered = Vec::new();
//! b.on_packet(now, &pkt.bytes, &mut delivered);
//! assert!(matches!(
//!     &delivered[..],
//!     [Emit::UdpDelivered { payload, .. }] if payload == b"hello"
//! ));
//! # Ok::<(), qpip_netstack::engine::EngineError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod engine;
pub mod frag;
pub mod invariant;
mod slab;
pub mod tcp;
mod timer_index;
pub mod types;

pub use engine::{Engine, EngineError, EngineStats};
/// The deterministic hasher; it lives in `qpip-sim` so the fabric can
/// use it too.
pub use qpip_sim::hash;
pub use types::{
    AckPolicy, ConnId, Emit, Endpoint, NetConfig, OpCounters, PacketKind, PacketOut,
    SegmentationPolicy, SendToken,
};
