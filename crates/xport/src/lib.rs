//! # qpip-xport — the verbs API and NIC netstack over live OS sockets
//!
//! Everywhere else in this workspace, bytes move only inside the
//! discrete-event worlds: the fabric is simulated, time is simulated,
//! and the protocol engine's packets never leave the process. This
//! crate is the bridge to real I/O. An [`XportNode`] drives the
//! **unmodified** [`qpip_netstack::engine::Engine`] — the same IPv6/TCP/
//! UDP bytes from `qpip-wire`, the same TCBs, RTT estimators and
//! retransmit timers — over a `std::net::UdpSocket`:
//!
//! * **Frame mapping** — one engine output packet (a complete IPv6
//!   packet) is one UDP datagram; the fabric `Ipv6Addr` in the IPv6
//!   header names the node, and a peer table maps it to the live
//!   `SocketAddr` that reaches it (the role the Myrinet source routes
//!   played in the paper's testbed).
//! * **Clock mapping** — the engine wants a monotonically increasing
//!   [`SimTime`](qpip_sim::time::SimTime); the runtime feeds it the
//!   wall clock, measured from a per-node [`std::time::Instant`] epoch.
//! * **Timer mapping** — the socket read timeout is slaved to
//!   [`Engine::next_deadline`](qpip_netstack::engine::Engine::next_deadline),
//!   so retransmit, delayed-ACK and persist timers fire on time without a
//!   dedicated timer thread.
//!
//! On top of the runtime sits a **verbs facade** mirroring the per-node
//! surface of `qpip::world::QpipWorld` (`create_cq`/`create_qp`/
//! `udp_bind`/`tcp_listen`/`tcp_connect`/`post_send`/`post_recv`/
//! `poll`/`wait`), reusing the `qpip-nic` work-request and completion
//! types and the firmware's own [`QpTable`](qpip_nic::qp_table::QpTable),
//! so application code written against the simulated world ports by
//! swapping the world handle for a node handle.
//!
//! [`proxy::ImpairProxy`] is a deterministic (SplitMix64-seeded)
//! drop/reorder/delay forwarder that sits between two nodes' sockets,
//! so the engine's loss-recovery machinery is exercised on real wires.
//!
//! Everything here is std-only — threads and socket timeouts, no async
//! runtime — and strictly additive: the DES worlds remain byte-identical
//! and fully deterministic. Code in this crate asserts delivery,
//! ordering and exactly-once semantics, never latencies, because the
//! wall clock jitters.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod node;
pub mod proxy;

pub use clock::WallClock;
pub use node::{quiesce, XportConfig, XportError, XportNode, XportStats};
pub use proxy::{ImpairConfig, ImpairProxy, ProxyHandle, ProxyStats};
