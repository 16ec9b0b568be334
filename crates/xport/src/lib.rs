//! # qpip-xport — the verbs API and NIC netstack over live OS sockets
//!
//! Everywhere else in this workspace, bytes move only inside the
//! discrete-event worlds: the fabric is simulated, time is simulated,
//! and the protocol engine's packets never leave the process. This
//! crate is the bridge to real I/O. An [`XportNode`] runs the simulated
//! NIC's own firmware, [`qpip_nic::QpipNic`] — its verbs, QP table,
//! completion queues and **unmodified** protocol engine, with the same
//! IPv6/TCP/UDP bytes from `qpip-wire`, the same TCBs, RTT estimators
//! and retransmit timers — on the [`ZeroCost`](qpip_nic::ZeroCost)
//! model, over a `std::net::UdpSocket`. The node itself is a socket, a
//! wall clock and a peer table:
//!
//! * **Frame mapping** — one NIC output packet (a complete IPv6
//!   packet) is one UDP datagram; the fabric `Ipv6Addr` in the IPv6
//!   header names the node, and a peer table maps it to the live
//!   `SocketAddr` that reaches it (the role the Myrinet source routes
//!   played in the paper's testbed).
//! * **Clock mapping** — the NIC wants a monotonically increasing
//!   [`SimTime`](qpip_sim::time::SimTime); the runtime feeds every NIC
//!   call the wall clock, measured from a per-node
//!   [`std::time::Instant`] epoch.
//! * **Timer mapping** — the socket read timeout is slaved to
//!   [`QpipNic::next_deadline`](qpip_nic::QpipNic::next_deadline), so
//!   retransmit, delayed-ACK and persist timers fire on time without a
//!   dedicated timer thread.
//!
//! The **verbs facade** is the NIC's own verbs, mirroring the per-node
//! surface of `qpip::world::QpipWorld` (`create_cq`/`create_qp`/
//! `udp_bind`/`tcp_listen`/`tcp_connect`/`post_send`/`post_recv`/
//! `poll`/`wait`) with the `qpip-nic` work-request and completion
//! types, so application code written against the simulated world ports
//! by swapping the world handle for a node handle, and a verb behaves
//! the same on both substrates because it is the same code.
//!
//! [`XportNode::set_fault_plan`] puts every datagram the node sends
//! through the DES fabric's own seeded
//! [`FaultInjector`](qpip_fabric::FaultInjector): dropped, held behind
//! the node's next datagram, or sent, decided by the node's datagram
//! count and never by time, so the engine's loss-recovery machinery is
//! exercised on real wires.
//!
//! Everything here is std-only — socket timeouts, no thread of its own
//! and no async runtime — and strictly additive: the DES worlds remain
//! byte-identical and fully deterministic. Code in this crate asserts
//! delivery, ordering and exactly-once semantics, never latencies,
//! because the wall clock jitters.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod node;

pub use clock::WallClock;
pub use node::{quiesce, XportConfig, XportError, XportNode, XportStats};
