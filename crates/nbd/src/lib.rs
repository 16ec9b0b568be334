//! # qpip-nbd — the Network Block Device over sockets and over QPIP
//!
//! The storage application of §4.2.3 (Figures 5–7): a client-side block
//! driver forwards block I/O to a server emulating a network-attached
//! disk. Three drivers time the Figure 7 benchmark on the simulated
//! SAN:
//!
//! * [`socket_impl`] — the conventional layering (Figure 5): NBD above
//!   a kernel socket, host TCP/IP at both ends, over GigE or Myrinet/GM.
//! * [`qpip_impl`] — the QPIP layering (Figure 6): the driver posts
//!   block requests directly onto a QP; no host protocol stack anywhere.
//! * [`rdma_impl`] — an extension: reads served by one-sided RDMA
//!   writes into the client's registered buffer (the idiom NFS/RDMA and
//!   iSER later built on iWARP, of which QPIP is a precursor).
//!
//! The content-checked session, whose server keeps every written byte
//! and whose driver reads it back, is written once over the two-node
//! verbs seam in `qpip-bench` (`workloads::nbd`), so the same block
//! driver and [`proto`] run on the DES and on live sockets.
//!
//! The benchmark is the paper's: a 409 MB sequential write (flushed with
//! `sync`) and sequential read, reporting throughput and CPU
//! effectiveness (MB per CPU-second).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod disk;
pub mod proto;
pub mod qpip_impl;
pub mod rdma_impl;
pub mod result;
pub mod socket_impl;

pub use qpip_impl::NbdConfig;
pub use result::{NbdResult, PhaseResult};
