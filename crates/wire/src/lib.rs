//! # qpip-wire — wire formats for the QPIP reproduction
//!
//! Byte-exact encodings of everything that crosses a link in the
//! simulated system area network:
//!
//! * [`ipv6`] — the IPv6 header (the paper's network layer, §4.1)
//! * [`tcp`] — TCP header, RFC 1323 options, sequence arithmetic
//! * [`udp`] — UDP header
//! * [`checksum`] — the internet checksum and IPv6 pseudo-header
//! * [`packet`] — the owned packet buffer
//!
//! The protocol *logic* (state machines, timers, congestion control)
//! lives in `qpip-netstack`; this crate is purely representation, so the
//! firmware and the host stack share one set of codecs — a QPIP node and
//! a socket node interoperate on the wire by construction (§3).

// `deny`, not `forbid`: the checksum module carries one audited
// `allow(unsafe_code)` for its AVX2 kernel (runtime-feature-gated
// SIMD intrinsics); everything else stays safe Rust.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod checksum;
pub mod error;
pub mod frag;
pub mod ipv6;
pub mod packet;
pub mod tcp;
pub mod udp;

pub use error::ParseWireError;
pub use packet::Packet;
