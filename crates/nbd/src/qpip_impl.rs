//! NBD over QPIP (Figure 6): the client-side block driver posts work
//! requests straight onto a QP — no host TCP/IP at either end — and the
//! server runs its disk loop off receive completions.
//!
//! "Integrating the QP interface into NBD was straightforward and proved
//! simpler than the socket implementation by eliminating multiple socket
//! calls and OS specific wrappers" (§4.2.3). Block requests are carried
//! as one header message plus MTU-sized data messages (9000-byte MTU,
//! per the paper's NBD configuration).
//!
//! The read loop here is also the one [`rdma_impl`](crate::rdma_impl)
//! runs: a read request that names a slot in the client's registered
//! region is answered with RDMA writes into it, any other with data
//! messages.

use qpip::world::QpipWorld;
use qpip::{
    CompletionKind, CqId, MrKey, NicConfig, NodeIdx, QpId, RdmaWriteWr, RecvWr, SendWr, ServiceType,
};
use qpip_netstack::types::Endpoint;
use qpip_sim::params;

use crate::disk::ServerDisk;
use crate::proto::{NbdOp, NbdReply, NbdRequest, NBD_PORT, REQUEST_LEN};
use crate::result::{fs_cycles, serve_cycles, NbdConfig, NbdResult, Phase, PhaseResult};

/// Largest payload one data message carries at `nic`'s MTU: a TCP
/// segment's, less the RDMA frame header when the NIC frames RDMA.
fn data_msg(nic: &NicConfig) -> usize {
    let frame = if nic.rdma_framing { qpip_nic::rdma::RDMA_FRAME_LEN } else { 0 };
    qpip_netstack::types::NetConfig::qpip(nic.mtu).max_tcp_payload() - frame
}

/// Where a read request asks its data to be placed: the client's
/// region and the offset of the block's slot in it, after the header.
fn placement(tail: &[u8]) -> Option<(MrKey, u64)> {
    let (rkey, slot) = tail.split_first_chunk::<4>()?;
    Some((MrKey(u32::from_be_bytes(*rkey)), u64::from_be_bytes(slot.try_into().ok()?)))
}

/// A connected QPIP client/server pair with receive WRs posted on both
/// sides.
pub(crate) struct Bench {
    pub(crate) w: QpipWorld,
    pub(crate) client: NodeIdx,
    server: NodeIdx,
    cqc: CqId,
    cqs: CqId,
    qc: QpId,
    qs: QpId,
    /// Largest payload of one data message.
    pub(crate) data_msg: usize,
    /// Capacity of every receive WR posted.
    recv_cap: usize,
    disk: ServerDisk,
    /// Receive WRs posted so far, on either side.
    pub(crate) recv_seq: u64,
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
        let data_msg = data_msg(&nic);
        let disk = ServerDisk::new();
        let mut b =
            Bench { w, client, server, cqc, cqs, qc, qs, data_msg, recv_cap, disk, recv_seq: 0 };
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

    fn post_recv(&mut self, node: NodeIdx, qp: QpId) {
        self.recv_seq += 1;
        let wr = RecvWr { wr_id: self.recv_seq, capacity: self.recv_cap };
        self.w.post_recv(node, qp, wr).expect("QP exists");
    }

    fn send(&mut self, node: NodeIdx, qp: QpId, wr_id: u64, payload: Vec<u8>) {
        self.w.post_send(node, qp, SendWr { wr_id, payload, dst: None }).expect("QP takes sends");
    }

    /// Posts `len` bytes of block data as data messages: sends, or RDMA
    /// writes from the slot `place` names on.
    fn post_data(
        &mut self,
        node: NodeIdx,
        qp: QpId,
        wr_id: u64,
        len: usize,
        place: Option<(MrKey, u64)>,
    ) {
        let mut off = 0;
        while off < len {
            let data = vec![0x5a; (len - off).min(self.data_msg)];
            let n = data.len();
            match place {
                None => self.send(node, qp, wr_id, data),
                Some((rkey, slot)) => {
                    let wr = RdmaWriteWr { wr_id, data, rkey, remote_offset: slot + off as u64 };
                    self.w
                        .post_rdma_write(node, qp, wr)
                        .expect("RDMA write to a registered region");
                }
            }
            off += n;
        }
    }

    /// Sequential write phase: client streams blocks, server commits to
    /// the page cache/disk and acknowledges; ends with `sync`.
    fn run_write(&mut self, cfg: NbdConfig) -> PhaseResult {
        let msgs = 1 + cfg.block.div_ceil(self.data_msg) as u64;
        let mut phase = Phase::start(&self.w, self.client, cfg);
        let mut srv_msgs = 0u64; // messages of the in-progress block
        while phase.running() {
            while let Some(req) = phase.next(NbdOp::Write) {
                self.w.charge_app(self.client, fs_cycles(cfg.block));
                self.send(self.client, self.qc, req.handle, req.encode());
                self.post_data(self.client, self.qc, req.handle, cfg.block, None);
                phase.sent += 1;
            }
            // server consumes one message at a time; a block is committed
            // when its header + all data messages arrived
            let c = self.w.wait(self.server, self.cqs);
            if matches!(c.kind, CompletionKind::Recv { .. }) {
                self.post_recv(self.server, self.qs);
                srv_msgs += 1;
                if srv_msgs == msgs {
                    srv_msgs = 0;
                    self.w.charge_app(self.server, serve_cycles(cfg.block));
                    let now = self.w.app_time(self.server);
                    self.disk.write(now, cfg.block);
                    let reply = NbdReply { error: 0, handle: phase.done }.encode();
                    self.send(self.server, self.qs, phase.done, reply);
                }
            }
            // client reaps replies without spinning
            while let Some(c) = self.w.try_wait(self.client, self.cqc) {
                if matches!(c.kind, CompletionKind::Recv { .. }) {
                    self.post_recv(self.client, self.qc);
                    phase.done += 1;
                }
            }
        }
        // sync: wait for the server's writeback tail
        phase.finish(&self.w, self.w.app_time(self.client).max(self.disk.sync_done()))
    }

    /// Sequential read phase: the cache-warm server streams blocks back,
    /// as data messages, or as RDMA writes into the client's `arena`
    /// (one block-sized slot per queued request) plus a short reply.
    pub(crate) fn run_read(&mut self, cfg: NbdConfig, arena: Option<MrKey>) -> PhaseResult {
        // client receive completions per block
        let msgs = if arena.is_some() { 1 } else { cfg.block.div_ceil(self.data_msg) as u64 };
        let mut phase = Phase::start(&self.w, self.client, cfg);
        let mut cli_msgs = 0u64;
        while phase.running() {
            while let Some(req) = phase.next(NbdOp::Read) {
                // the block layer submits the read request
                self.w.charge_app(self.client, params::NBD_FS_PER_REQUEST_CYCLES);
                let mut payload = req.encode();
                if let Some(rkey) = arena {
                    let slot = (req.handle % cfg.queue_depth) * cfg.block as u64;
                    payload.extend_from_slice(&rkey.0.to_be_bytes());
                    payload.extend_from_slice(&slot.to_be_bytes());
                }
                self.send(self.client, self.qc, req.handle, payload);
                phase.sent += 1;
            }
            if let Some(c) = self.w.try_wait(self.server, self.cqs) {
                if let CompletionKind::Recv { data, .. } = c.kind {
                    self.post_recv(self.server, self.qs);
                    let req = NbdRequest::parse(&data).expect("well-formed request");
                    assert_eq!(req.op, NbdOp::Read);
                    let now = self.w.app_time(self.server);
                    self.disk.read(now, req.len as usize);
                    self.w.charge_app(self.server, serve_cycles(req.len as usize));
                    let place = placement(&data[REQUEST_LEN..]);
                    self.post_data(self.server, self.qs, req.handle, req.len as usize, place);
                    // an RDMA read completes on an ordinary send, which TCP
                    // orders behind the data it placed
                    if place.is_some() {
                        let reply = req.handle.to_be_bytes().to_vec();
                        self.send(self.server, self.qs, req.handle, reply);
                    }
                    // a send-receive read has no reply header (ROADMAP item 8)
                }
                continue;
            }
            // client collects a whole block, then the fs layer processes it
            let c = self.w.wait(self.client, self.cqc);
            if matches!(c.kind, CompletionKind::Recv { .. }) {
                self.post_recv(self.client, self.qc);
                cli_msgs += 1;
                if cli_msgs == msgs {
                    cli_msgs = 0;
                    let fs = fs_cycles(cfg.block);
                    // a send-receive read charges the per-request cycles twice (ROADMAP item 8)
                    let fs =
                        if arena.is_some() { fs - params::NBD_FS_PER_REQUEST_CYCLES } else { fs };
                    self.w.charge_app(self.client, fs);
                    phase.done += 1;
                }
            }
        }
        phase.finish(&self.w, self.w.app_time(self.client))
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
    let read = b.run_read(cfg, None);
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
