//! # qpip — Queue Pair IP
//!
//! A reproduction of *"Queue Pair IP: A Hybrid Architecture for System
//! Area Networks"* (Buonadonna & Culler, ISCA 2002): the Infiniband-style
//! **queue pair** communication abstraction implemented directly over
//! standard **TCP/UDP/IPv6** offloaded into an intelligent network
//! interface.
//!
//! The crate ties together the substrates of this workspace into the
//! paper's testbeds, all run by one discrete-event world loop
//! ([`des::World`], generic over a small [`des::Node`] trait: deliver a
//! packet, fire the timer, report the next deadline, take the latched
//! invariant violation):
//!
//! * [`world::QpipWorld`] — hosts with QPIP NICs (LANai-9-class
//!   firmware running the offloaded stack) on a Myrinet SAN, programmed
//!   through the **verbs API**: `create_qp`/`create_cq`,
//!   `post_send`/`post_recv`, `poll`/`wait`, `tcp_listen`/`tcp_connect`
//!   (§3, §4.1). Host-side verb costs follow Table 1 (≈ 2.5 µs per
//!   1-byte message); everything else happens on the NIC.
//! * [`baseline::SocketWorld`] — conventional hosts with host-resident
//!   stacks and sockets over Gigabit Ethernet or Myrinet/GM (§4.2's
//!   comparison systems).
//! * [`mixed::MixedWorld`] — both node kinds on one wire (§3's QPIP ↔
//!   socket interoperation), each with its own cost model.
//!
//! The verbs calls and the blocking socket calls are each written once
//! and shared by every world whose nodes support them, so all three
//! worlds share the protocol engine, the wire formats, the event loop
//! and the measurement machinery: every figure of the paper compares
//! like with like.
//!
//! ## Quickstart
//!
//! ```
//! use qpip::world::QpipWorld;
//! use qpip::{CompletionKind, NicConfig, RecvWr, SendWr, ServiceType};
//! use qpip_netstack::types::Endpoint;
//!
//! let mut world = QpipWorld::myrinet();
//! let client = world.add_node(NicConfig::paper_default());
//! let server = world.add_node(NicConfig::paper_default());
//!
//! // server: create a QP, post a receive buffer, monitor a port
//! let scq = world.create_cq(server);
//! let sqp = world.create_qp(server, ServiceType::ReliableTcp, scq, scq)?;
//! world.post_recv(server, sqp, RecvWr { wr_id: 1, capacity: 16 * 1024 })?;
//! world.tcp_listen(server, 5000, sqp)?;
//!
//! // client: connect and send one message
//! let ccq = world.create_cq(client);
//! let cqp = world.create_qp(client, ServiceType::ReliableTcp, ccq, ccq)?;
//! let dst = Endpoint::new(world.addr(server), 5000);
//! world.tcp_connect(client, cqp, 4000, dst)?;
//! let c = world.wait(client, ccq);
//! assert_eq!(c.kind, CompletionKind::ConnectionEstablished);
//!
//! world.post_send(client, cqp, SendWr { wr_id: 2, payload: b"hello".to_vec(), dst: None })?;
//! let c = world.wait_matching(server, scq, |c| matches!(c.kind, CompletionKind::Recv { .. }));
//! if let CompletionKind::Recv { data, .. } = c.kind {
//!     assert_eq!(data, b"hello");
//! }
//! # Ok::<(), qpip_nic::NicError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod des;
pub mod mixed;
pub mod world;

pub use mixed::MixedWorld;
pub use qpip_nic::{
    ChecksumMode, Completion, CompletionKind, CompletionStatus, CqId, MrKey, NicConfig, NicError,
    QpId, RdmaReadWr, RdmaWriteWr, RecvWr, SendWr, ServiceType,
};
pub use world::{NodeIdx, QpipWorld};
