//! # qpip-fabric — system-area-network fabric models
//!
//! The two switched networks of the paper's testbed (§4.1–4.2):
//! source-routed cut-through **Myrinet** at 2 Gb/s with arbitrary MTUs,
//! and store-and-forward **Gigabit Ethernet** at 1 Gb/s with a 1500-byte
//! MTU. Timing is analytic — link pipes track occupancy, so contention
//! and pipelining emerge without per-byte events. Deterministic fault
//! injection ([`FaultInjector`]), applied where packets are sent on
//! the simulated fabric and on live sockets alike, exercises TCP's
//! recovery machinery in tests.
//!
//! ## Example
//!
//! ```
//! use std::net::Ipv6Addr;
//! use qpip_fabric::{Fabric, FabricConfig, TransmitOutcome};
//! use qpip_sim::time::SimTime;
//!
//! let mut san = Fabric::new(FabricConfig::myrinet());
//! let a = san.attach(Ipv6Addr::new(0xfc00, 0, 0, 0, 0, 0, 0, 1));
//! let _b = san.attach(Ipv6Addr::new(0xfc00, 0, 0, 0, 0, 0, 0, 2));
//! let out = san.transmit(
//!     SimTime::ZERO,
//!     a,
//!     Ipv6Addr::new(0xfc00, 0, 0, 0, 0, 0, 0, 2),
//!     1024,
//! );
//! assert!(matches!(out, TransmitOutcome::Delivered { .. }));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fabric;
pub mod fault;

pub use fabric::{
    DropReason, Fabric, FabricConfig, FabricStats, NodeId, Switching, TransmitOutcome,
};
pub use fault::{Fate, FaultInjector, FaultPlan};
