//! # qpip-bench — experiment harnesses for the QPIP reproduction
//!
//! One binary per table/figure of the paper's evaluation (§4.2):
//!
//! | target | regenerates |
//! |---|---|
//! | `fig3_rtt` | Figure 3 — application-to-application RTT |
//! | `fig4_throughput` | Figure 4 — throughput & CPU utilization |
//! | `table1_overhead` | Table 1 — host send/receive overhead |
//! | `tables23_occupancy` | Tables 2 & 3 — NIC per-stage occupancy |
//! | `fig7_nbd` | Figure 7 — NBD client performance |
//! | `ablations` | design-choice sweeps (checksum, multiply, MTU) |
//!
//! `xport_ttcp` runs the Figure 3/4 workloads over live loopback
//! sockets next to their DES numbers.
//!
//! The library half holds the reusable workload generators
//! ([`workloads`]) and the report formatting ([`report`]). Each
//! workload that runs on both substrates is written once against
//! [`workloads::verbs`], the two-node verbs seam with a DES
//! implementation ([`workloads::verbs::DesPair`]) and a live-socket one
//! ([`workloads::verbs::LivePair`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod microbench;
pub mod report;
pub mod workloads;
