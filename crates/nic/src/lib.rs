//! # qpip-nic — network interface models
//!
//! Two adapters, matching the paper's testbed (§4.1–4.2):
//!
//! * [`firmware::QpipNic`] — the prototype's **intelligent NIC**: the
//!   QPIP firmware — doorbell, management, transmit and receive FSMs
//!   (Figures 1–2) over the offloaded TCP/UDP/IPv6 engine from
//!   `qpip-netstack` — keeping its QPs, CQs, receive queues, backlog,
//!   windows, accept pools and send tokens in one QP table. A
//!   [`CostModel`] prices the firmware's work. The default, [`Lanai`],
//!   is the prototype's LANai-9-class 133 MHz processor with its PCI DMA
//!   engines: every stage charges cycles, and a traced run's
//!   `FwFsm` events fold into a per-stage [`occupancy::Occupancy`]
//!   table, which is how Tables 2 and 3 are regenerated. [`ZeroCost`]
//!   charges nothing; the live-socket
//!   transport (`qpip-xport`) runs the same firmware on it, so the verbs
//!   are written once for both substrates.
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
mod qp_table;
pub mod rdma;
pub mod types;

pub use conventional::{ConvNicConfig, ConventionalNic, RxOutcome};
pub use firmware::{CostModel, Lanai, NicOutput, NicStats, QpCounters, QpipNic, ZeroCost};
pub use occupancy::{Occupancy, PacketClass, Stage};
pub use rdma::{RdmaFrame, RdmaOpcode};
pub use types::{
    ChecksumMode, Completion, CompletionKind, CompletionStatus, CqId, MrKey, NicConfig, NicError,
    QpId, RdmaReadWr, RdmaWriteWr, RecvWr, SendWr, ServiceType,
};
