//! NBD over QPIP (Figure 6): the client-side block driver posts work
//! requests straight onto a QP — no host TCP/IP at either end — and the
//! server runs its disk loop off receive completions.
//!
//! "Integrating the QP interface into NBD was straightforward and proved
//! simpler than the socket implementation by eliminating multiple socket
//! calls and OS specific wrappers" (§4.2.3). Block requests are carried
//! as one header message plus MTU-sized data messages (9000-byte MTU,
//! per the paper's NBD configuration).

use qpip::world::QpipWorld;
use qpip::{CompletionKind, NicConfig, NodeIdx, RecvWr, SendWr, ServiceType};
use qpip_netstack::types::Endpoint;
use qpip_sim::params;

use crate::disk::ServerDisk;
use crate::proto::{NbdOp, NbdRequest, NBD_PORT};
use crate::result::{NbdResult, PhaseMeter, PhaseResult};

/// Benchmark configuration.
#[derive(Debug, Clone, Copy)]
pub struct NbdConfig {
    /// Total file bytes (the paper uses 409 MB).
    pub total_bytes: u64,
    /// Logical block size per request.
    pub block: usize,
    /// Outstanding block requests (block-layer queue depth).
    pub queue_depth: u64,
}

impl Default for NbdConfig {
    fn default() -> Self {
        NbdConfig { total_bytes: params::NBD_TRANSFER_BYTES, block: 64 * 1024, queue_depth: 4 }
    }
}

/// Largest TCP payload one message carries at `nic`'s MTU.
pub(crate) fn data_msg(nic: &NicConfig) -> usize {
    qpip_netstack::types::NetConfig::qpip(nic.mtu).max_tcp_payload()
}

/// A connected QPIP client/server pair with receive WRs posted on both
/// sides; [`rdma_impl`](crate::rdma_impl) runs on the same set-up.
pub(crate) struct Bench {
    pub(crate) w: QpipWorld,
    pub(crate) client: NodeIdx,
    pub(crate) server: NodeIdx,
    pub(crate) cqc: qpip::CqId,
    pub(crate) cqs: qpip::CqId,
    pub(crate) qc: qpip::QpId,
    pub(crate) qs: qpip::QpId,
    /// Largest TCP payload at the NIC's MTU: one data message.
    data_msg: usize,
    /// Capacity of every receive WR posted.
    recv_cap: usize,
    pub(crate) disk: ServerDisk,
    recv_seq: u64,
}

impl Bench {
    /// Builds the pair on a Myrinet fabric at `nic`'s MTU, posts
    /// `recv_wrs` receive WRs of `recv_cap` bytes on each side, and
    /// brings the connection up.
    pub(crate) fn new(nic: NicConfig, recv_wrs: u64, recv_cap: usize) -> Bench {
        let mut w = QpipWorld::new(qpip_fabric::FabricConfig {
            mtu: nic.mtu,
            ..qpip_fabric::FabricConfig::myrinet()
        });
        let client = w.add_node(nic.clone());
        let server = w.add_node(nic.clone());
        let cqc = w.create_cq(client);
        let cqs = w.create_cq(server);
        let qc = w.create_qp(client, ServiceType::ReliableTcp, cqc, cqc).expect("client QP");
        let qs = w.create_qp(server, ServiceType::ReliableTcp, cqs, cqs).expect("server QP");
        let mut b = Bench {
            w,
            client,
            server,
            cqc,
            cqs,
            qc,
            qs,
            data_msg: data_msg(&nic),
            recv_cap,
            disk: ServerDisk::new(),
            recv_seq: 0,
        };
        for _ in 0..recv_wrs {
            b.post_recv(b.server, b.qs);
            b.post_recv(b.client, b.qc);
        }
        b.w.tcp_listen(b.server, NBD_PORT, qs).expect("idle QP listens");
        let remote = Endpoint::new(b.w.addr(b.server), NBD_PORT);
        b.w.tcp_connect(b.client, qc, 40000, remote).expect("idle QP connects");
        b.w.wait_matching(b.client, cqc, |c| c.kind == CompletionKind::ConnectionEstablished);
        b.w.wait_matching(b.server, cqs, |c| c.kind == CompletionKind::ConnectionEstablished);
        b
    }

    pub(crate) fn post_recv(&mut self, node: NodeIdx, qp: qpip::QpId) {
        self.recv_seq += 1;
        let wr = RecvWr { wr_id: self.recv_seq, capacity: self.recv_cap };
        self.w.post_recv(node, qp, wr).expect("QP exists");
    }

    fn msgs_per_block(&self, block: usize) -> u64 {
        block.div_ceil(self.data_msg) as u64
    }

    /// Client-side filesystem work for one block (ext2 + block layer).
    fn charge_fs(&mut self, node: NodeIdx, block: usize) {
        let cycles = params::NBD_FS_PER_REQUEST_CYCLES
            + (block as u64 * params::NBD_FS_CYCLES_PER_BYTE_X100) / 100;
        self.w.charge_app(node, cycles);
    }

    /// Sequential write phase: client streams blocks, server commits to
    /// the page cache/disk and acknowledges; ends with `sync`.
    fn run_write(&mut self, cfg: NbdConfig) -> PhaseResult {
        let nblocks = cfg.total_bytes / cfg.block as u64;
        let msgs = self.msgs_per_block(cfg.block);
        let meter = PhaseMeter::start(&self.w, self.client);
        let mut sent = 0u64;
        let mut done = 0u64;
        let mut srv_msgs_pending = 0u64; // messages of the in-progress block
        while done < nblocks {
            while sent < nblocks && sent - done < cfg.queue_depth {
                self.charge_fs(self.client, cfg.block);
                let req = NbdRequest {
                    op: NbdOp::Write,
                    handle: sent,
                    offset: sent * cfg.block as u64,
                    len: cfg.block as u32,
                };
                self.w
                    .post_send(
                        self.client,
                        self.qc,
                        SendWr { wr_id: sent * 100, payload: req.encode(), dst: None },
                    )
                    .unwrap();
                let mut left = cfg.block;
                for m in 0..msgs {
                    let n = left.min(self.data_msg);
                    left -= n;
                    self.w
                        .post_send(
                            self.client,
                            self.qc,
                            SendWr { wr_id: sent * 100 + 1 + m, payload: vec![0x5a; n], dst: None },
                        )
                        .unwrap();
                }
                sent += 1;
            }
            // server consumes one message at a time; a block is committed
            // when its header + all data messages arrived
            let c = self.w.wait(self.server, self.cqs);
            if matches!(c.kind, CompletionKind::Recv { .. }) {
                self.post_recv(self.server, self.qs);
                srv_msgs_pending += 1;
                if srv_msgs_pending == 1 + msgs {
                    srv_msgs_pending = 0;
                    self.w.charge_app(
                        self.server,
                        params::NBD_SERVER_PER_REQUEST_CYCLES
                            + (cfg.block as u64 * params::HOST_COPY_CYCLES_PER_BYTE_X100) / 100,
                    );
                    let now = self.w.app_time(self.server);
                    self.disk.write(now, cfg.block);
                    self.w
                        .post_send(
                            self.server,
                            self.qs,
                            SendWr {
                                wr_id: done,
                                payload: crate::proto::NbdReply { error: 0, handle: done }.encode(),
                                dst: None,
                            },
                        )
                        .unwrap();
                }
            }
            // client reaps replies without spinning
            while let Some(c) = self.w.try_wait(self.client, self.cqc) {
                if matches!(c.kind, CompletionKind::Recv { .. }) {
                    self.post_recv(self.client, self.qc);
                    done += 1;
                }
            }
        }
        // sync: wait for the server's writeback tail
        let sync_done = self.disk.sync_done();
        let t1 = self.w.app_time(self.client).max(sync_done);
        meter.finish(&self.w, nblocks * cfg.block as u64, t1)
    }

    /// Sequential read phase: cache-warm server streams blocks back.
    fn run_read(&mut self, cfg: NbdConfig) -> PhaseResult {
        let nblocks = cfg.total_bytes / cfg.block as u64;
        let msgs = self.msgs_per_block(cfg.block);
        let meter = PhaseMeter::start(&self.w, self.client);
        let mut sent = 0u64;
        let mut done = 0u64;
        let mut cli_msgs_pending = 0u64;
        while done < nblocks {
            while sent < nblocks && sent - done < cfg.queue_depth {
                // the block layer submits the read request
                self.w.charge_app(self.client, params::NBD_FS_PER_REQUEST_CYCLES);
                let req = NbdRequest {
                    op: NbdOp::Read,
                    handle: sent,
                    offset: sent * cfg.block as u64,
                    len: cfg.block as u32,
                };
                self.w
                    .post_send(
                        self.client,
                        self.qc,
                        SendWr { wr_id: sent, payload: req.encode(), dst: None },
                    )
                    .unwrap();
                sent += 1;
            }
            // server answers each request with the data messages
            if let Some(c) = self.w.try_wait(self.server, self.cqs) {
                if let CompletionKind::Recv { data, .. } = c.kind {
                    self.post_recv(self.server, self.qs);
                    let req = NbdRequest::parse(&data).expect("well-formed request");
                    assert_eq!(req.op, NbdOp::Read);
                    let now = self.w.app_time(self.server);
                    self.disk.read(now, req.len as usize);
                    self.w.charge_app(
                        self.server,
                        params::NBD_SERVER_PER_REQUEST_CYCLES
                            + (u64::from(req.len) * params::HOST_COPY_CYCLES_PER_BYTE_X100) / 100,
                    );
                    let mut left = req.len as usize;
                    for m in 0..msgs {
                        let n = left.min(self.data_msg);
                        left -= n;
                        self.w
                            .post_send(
                                self.server,
                                self.qs,
                                SendWr {
                                    wr_id: req.handle * 100 + m,
                                    payload: vec![0xc3; n],
                                    dst: None,
                                },
                            )
                            .unwrap();
                    }
                }
                continue;
            }
            // client collects a whole block, then the fs layer processes it
            let c = self.w.wait(self.client, self.cqc);
            if matches!(c.kind, CompletionKind::Recv { .. }) {
                self.post_recv(self.client, self.qc);
                cli_msgs_pending += 1;
                if cli_msgs_pending == msgs {
                    cli_msgs_pending = 0;
                    self.charge_fs(self.client, cfg.block);
                    done += 1;
                }
            }
        }
        meter.finish(&self.w, nblocks * cfg.block as u64, self.w.app_time(self.client))
    }
}

/// Runs the Figure 7 benchmark over QPIP: sequential write (+sync),
/// then sequential read of the same file.
pub fn run(cfg: NbdConfig) -> NbdResult {
    // the paper ran the QPIP NBD at a 9000-byte MTU (§4.2.3); both
    // sides pre-post generous message buffers
    let nic = NicConfig { mtu: params::GM_MTU, ..NicConfig::paper_default() };
    let recv_cap = data_msg(&nic);
    let mut b = Bench::new(nic, 64, recv_cap);
    let write = b.run_write(cfg);
    let read = b.run_read(cfg);
    NbdResult { write, read }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> NbdConfig {
        NbdConfig { total_bytes: 8 * 1024 * 1024, block: 64 * 1024, queue_depth: 4 }
    }

    #[test]
    fn qpip_nbd_moves_data_both_ways() {
        let r = run(small());
        assert!(r.write.mbytes_per_sec > 10.0, "{r:?}");
        assert!(r.read.mbytes_per_sec > 10.0, "{r:?}");
        assert!(r.read.mbytes_per_sec >= r.write.mbytes_per_sec * 0.8, "{r:?}");
    }

    #[test]
    fn qpip_nbd_cpu_is_mostly_filesystem() {
        // §4.2.3: "For QPIP, none of this is associated with the TCP/IP
        // stack as this is entirely within the adapter."
        let r = run(small());
        assert!(r.write.fs_fraction > 0.5 * r.write.client_cpu, "{r:?}");
        // almost all of the client's CPU is ext2/block-layer work, not
        // protocol processing (which lives in the NIC)
        assert!(r.read.fs_fraction > 0.9 * r.read.client_cpu, "{r:?}");
    }
}
