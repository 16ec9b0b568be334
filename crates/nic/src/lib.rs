//! # qpip-nic — network interface models
//!
//! Two adapters, matching the paper's testbed (§4.1–4.2):
//!
//! * [`firmware::QpipNic`] — the prototype's **intelligent NIC**: a
//!   LANai-9-class 133 MHz processor, doorbell FIFO and PCI DMA engines
//!   running the QPIP firmware — doorbell, management, transmit and
//!   receive FSMs (Figures 1–2) over the offloaded TCP/UDP/IPv6 engine
//!   from `qpip-netstack`. Every stage charges cycles and is recorded in
//!   a per-stage [`occupancy::Occupancy`] table, which is how Tables 2
//!   and 3 are regenerated.
//! * [`qp_table::QpTable`] — the QP semantics with no time or cost:
//!   ids, completion queues, receive queues, backlog, windows, accept
//!   pools and send tokens. The firmware and the live-socket transport (`qpip-xport`)
//!   both drive it.
//! * [`conventional::ConventionalNic`] — the **dumb NICs** of the
//!   baselines (Intel Pro/1000 GigE, Myrinet+GM as an IP link): frame
//!   DMA, descriptor rings and interrupt moderation only; the protocol
//!   stack stays on the host (`qpip-host`).
//!
//! The QPIP NIC exposes the queue-pair verbs backend — create QP/CQ,
//! post send/receive, poll a CQ, connection management — used by the
//! `qpip` core crate. Transmits are time-stamped so the node simulation
//! can schedule fabric deliveries; completions carry the instant they
//! become visible to the host.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conventional;
pub mod firmware;
pub mod occupancy;
pub mod qp_table;
pub mod rdma;
pub mod types;

pub use conventional::{ConvNicConfig, ConventionalNic, RxOutcome};
pub use firmware::{NicOutput, NicStats, QpipNic};
pub use occupancy::{Occupancy, PacketClass, Stage};
pub use rdma::{RdmaFrame, RdmaOpcode};
pub use types::{
    endpoint_net, ChecksumMode, Completion, CompletionKind, CompletionStatus, CqId, MrKey,
    NicConfig, NicError, QpId, RdmaReadWr, RdmaWriteWr, RecvWr, SendWr, ServiceType,
};
