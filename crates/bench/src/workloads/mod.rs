//! Benchmark workloads: the traffic generators behind every figure.
//!
//! [`verbs`] is the seam between a workload and its substrate: the
//! ping-pong [`pingpong::rtt`], the [`ttcp::Stream`] and the
//! [`lockstep::run`] differential script are each written once against
//! [`verbs::VerbsPair`] and run on the DES and on live sockets alike.

pub mod lockstep;
pub mod manyflow;
pub mod pingpong;
pub mod ttcp;
pub mod verbs;
