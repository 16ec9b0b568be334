//! NBD over QPIP with RDMA reads: the storage idiom the iWARP lineage
//! standardized (NFS/RDMA, iSER) on exactly this kind of transport.
//!
//! The client registers its block buffer as a memory region and sends
//! the rkey with each read request; the server's NIC RDMA-Writes the
//! data straight into the client's buffer — no receive WRs consumed on
//! the data path, no per-message completions — and a single
//! send-receive reply signals completion. Writes use the ordinary
//! send-receive path (the server must see them to commit).

use qpip::{CompletionKind, MrKey, NicConfig, RdmaWriteWr, SendWr};
use qpip_sim::params;
use qpip_sim::time::SimTime;

use crate::proto::{NbdOp, NbdRequest};
use crate::qpip_impl::{Bench, NbdConfig};
use crate::result::{PhaseMeter, PhaseResult};

/// An NBD read request extended with the client's region key: the
/// "where to put it" that turns the reply into a one-sided write.
fn encode_read_request(req: &NbdRequest, rkey: MrKey, buf_offset: u64) -> Vec<u8> {
    let mut b = req.encode();
    b.extend_from_slice(&rkey.0.to_be_bytes());
    b.extend_from_slice(&buf_offset.to_be_bytes());
    b
}

fn parse_read_request(data: &[u8]) -> (NbdRequest, MrKey, u64) {
    let req = NbdRequest::parse(data).expect("request header");
    let tail = &data[crate::proto::REQUEST_LEN..];
    let rkey = MrKey(u32::from_be_bytes(tail[..4].try_into().expect("sized")));
    let off = u64::from_be_bytes(tail[4..12].try_into().expect("sized"));
    (req, rkey, off)
}

/// Runs the sequential-read phase of the Figure 7 benchmark with RDMA
/// data placement, for comparison with the send-receive NBD.
pub fn run_read(cfg: NbdConfig) -> PhaseResult {
    let nic = NicConfig { mtu: params::GM_MTU, rdma_framing: true, ..NicConfig::paper_default() };
    let data_msg = crate::qpip_impl::data_msg(&nic) - qpip_nic::rdma::RDMA_FRAME_LEN;
    let mut b = Bench::new(nic, 32, 16 * 1024);
    let (client, server, qc, qs) = (b.client, b.server, b.qc, b.qs);

    // the client's block-buffer arena, registered once
    let arena = b.w.register_mr(client, cfg.block * cfg.queue_depth as usize);

    let nblocks = cfg.total_bytes / cfg.block as u64;
    let meter = PhaseMeter::start(&b.w, client);
    let mut sent = 0u64;
    let mut done = 0u64;
    let mut t_end = SimTime::ZERO;
    while done < nblocks {
        while sent < nblocks && sent - done < cfg.queue_depth {
            b.w.charge_app(client, params::NBD_FS_PER_REQUEST_CYCLES);
            let req = NbdRequest {
                op: NbdOp::Read,
                handle: sent,
                offset: sent * cfg.block as u64,
                len: cfg.block as u32,
            };
            let slot = (sent % cfg.queue_depth) * cfg.block as u64;
            b.w.post_send(
                client,
                qc,
                SendWr { wr_id: sent, payload: encode_read_request(&req, arena, slot), dst: None },
            )
            .expect("read request fits the QP");
            sent += 1;
        }
        // server: answer each request with RDMA writes + a tiny reply
        if let Some(c) = b.w.try_wait(server, b.cqs) {
            if let CompletionKind::Recv { data, .. } = c.kind {
                b.post_recv(server, qs);
                let (req, rkey, slot) = parse_read_request(&data);
                let now = b.w.app_time(server);
                b.disk.read(now, req.len as usize);
                b.w.charge_app(
                    server,
                    params::NBD_SERVER_PER_REQUEST_CYCLES
                        + (u64::from(req.len) * params::HOST_COPY_CYCLES_PER_BYTE_X100) / 100,
                );
                let mut remaining = req.len as usize;
                let mut off = slot;
                while remaining > 0 {
                    let n = remaining.min(data_msg);
                    remaining -= n;
                    b.w.post_rdma_write(
                        server,
                        qs,
                        RdmaWriteWr {
                            wr_id: req.handle,
                            data: vec![0xd1; n],
                            rkey,
                            remote_offset: off,
                        },
                    )
                    .expect("RDMA write to a registered region");
                    off += n as u64;
                }
                // completion notification rides an ordinary send; TCP
                // ordering guarantees the RDMA data landed first
                b.w.post_send(
                    server,
                    qs,
                    SendWr {
                        wr_id: req.handle,
                        payload: req.handle.to_be_bytes().to_vec(),
                        dst: None,
                    },
                )
                .expect("reply fits the QP");
            }
            continue;
        }
        // client: ONE completion per block, regardless of block size
        let c = b.w.wait(client, b.cqc);
        if matches!(c.kind, CompletionKind::Recv { .. }) {
            b.post_recv(client, qc);
            b.w.charge_app(client, (cfg.block as u64 * params::NBD_FS_CYCLES_PER_BYTE_X100) / 100);
            done += 1;
            t_end = b.w.app_time(client);
        }
    }
    meter.finish(&b.w, nblocks * cfg.block as u64, t_end)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rdma_read_phase_moves_data_with_one_completion_per_block() {
        let cfg = NbdConfig { total_bytes: 8 * 1024 * 1024, block: 64 * 1024, queue_depth: 4 };
        let r = run_read(cfg);
        assert!(r.mbytes_per_sec > 20.0, "{r:?}");
        assert!(r.client_cpu < 0.8, "{r:?}");
    }

    #[test]
    fn rdma_read_reduces_client_verb_work_vs_send_receive() {
        let cfg = NbdConfig { total_bytes: 8 * 1024 * 1024, block: 64 * 1024, queue_depth: 4 };
        let rdma = run_read(cfg);
        let sr = crate::qpip_impl::run(cfg).read;
        // same data volume; the RDMA client takes ~1/8 the completions
        // (one per 64 KB block instead of one per 8.9 KB message), so its
        // CPU effectiveness is at least as good
        assert!(
            rdma.mb_per_cpu_sec >= sr.mb_per_cpu_sec * 0.95,
            "rdma {rdma:?} vs send-recv {sr:?}"
        );
    }
}
