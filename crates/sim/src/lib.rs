//! # qpip-sim — discrete-event simulation kernel
//!
//! The foundation of the QPIP reproduction: a deterministic event queue
//! (a binary heap, [`kernel::Simulator`]), picosecond time and cycle arithmetic
//! ([`time`]), serial-resource contention models ([`resource`]),
//! measurement primitives ([`stats`]) and the single authoritative table
//! of calibration constants ([`params`]).
//!
//! Everything above this crate — fabric, NIC, host, verbs — is a state
//! machine advanced by events from one of these simulators. All runs are
//! bit-for-bit reproducible: event ties break by insertion order and no
//! wall-clock time or ambient randomness is consulted anywhere.
//!
//! ## Example
//!
//! ```
//! use qpip_sim::kernel::Simulator;
//! use qpip_sim::time::{SimDuration, SimTime};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev {
//!     PacketArrives,
//!     TimerFires,
//! }
//!
//! let mut sim = Simulator::new();
//! sim.schedule_after(SimDuration::from_micros(50), Ev::TimerFires);
//! sim.schedule_after(SimDuration::from_micros(10), Ev::PacketArrives);
//!
//! let (t, ev) = sim.next().unwrap();
//! assert_eq!(ev, Ev::PacketArrives);
//! assert_eq!(t, SimTime::from_micros(10));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod kernel;
pub mod params;
pub mod resource;
pub mod rng;
pub mod stats;
pub mod time;

pub use kernel::{EventId, Simulator};
pub use time::{Clock, Cycles, SimDuration, SimTime};
