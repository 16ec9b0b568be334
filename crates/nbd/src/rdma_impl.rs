//! NBD over QPIP with RDMA reads: the storage idiom the iWARP lineage
//! standardized (NFS/RDMA, iSER) on exactly this kind of transport.
//!
//! The client registers its block buffer as a memory region and sends
//! the rkey with each read request; the server's NIC RDMA-Writes the
//! data straight into the client's buffer — no receive WRs consumed on
//! the data path, no per-message completions — and a single
//! send-receive reply signals completion. Writes use the ordinary
//! send-receive path (the server must see them to commit). The read
//! loop is the send-receive NBD's; only the request differs.

use qpip::{MrKey, NicConfig};
use qpip_sim::params;

use crate::qpip_impl::Bench;
use crate::result::{NbdConfig, PhaseResult};

/// A connected pair whose NICs frame RDMA, and the client's block-buffer
/// arena (one slot per queued request), registered once.
fn framed(cfg: NbdConfig) -> (Bench, MrKey) {
    let nic = NicConfig { mtu: params::GM_MTU, rdma_framing: true, ..NicConfig::paper_default() };
    let mut b = Bench::new(nic, 32, 16 * 1024);
    let arena = b.w.register_mr(b.client, cfg.block * cfg.queue_depth as usize);
    (b, arena)
}

/// Runs the sequential-read phase of the Figure 7 benchmark with RDMA
/// data placement, for comparison with the send-receive NBD.
pub fn run_read(cfg: NbdConfig) -> PhaseResult {
    let (mut b, arena) = framed(cfg);
    b.run_read(cfg, Some(arena))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> NbdConfig {
        NbdConfig { total_bytes: 8 * 1024 * 1024, block: 64 * 1024, queue_depth: 4 }
    }

    /// Client receive completions and RDMA writes placed at the client
    /// during one read phase of `b`.
    fn read_counts(b: &mut Bench, arena: Option<MrKey>) -> (u64, u64) {
        let (posted, placed) = (b.recv_seq, b.w.nic(b.client).stats().rdma_writes);
        let r = b.run_read(small(), arena);
        assert!(r.mbytes_per_sec > 20.0, "{r:?}");
        assert!(r.client_cpu < 0.8, "{r:?}");
        // every completion re-posts its receive WR, and the server takes
        // one per request
        let nblocks = small().total_bytes / small().block as u64;
        (b.recv_seq - posted - nblocks, b.w.nic(b.client).stats().rdma_writes - placed)
    }

    #[test]
    fn rdma_read_phase_moves_data_with_one_completion_per_block() {
        let nblocks = small().total_bytes / small().block as u64;
        let (mut b, arena) = framed(small());
        let per_block = small().block.div_ceil(b.data_msg) as u64;
        assert_eq!(read_counts(&mut b, Some(arena)), (nblocks, nblocks * per_block));
        // the send-receive read takes a completion per message, places nothing
        let (recvs, placed) = read_counts(&mut b, None);
        assert_eq!((recvs, placed), (nblocks * per_block, 0));
    }

    #[test]
    fn rdma_read_reduces_client_verb_work_vs_send_receive() {
        let rdma = run_read(small());
        let sr = crate::qpip_impl::run(small()).read;
        // same data volume; the RDMA client takes ~1/8 the completions
        // (one per 64 KB block instead of one per 8.9 KB message), so its
        // CPU effectiveness is at least as good
        assert!(
            rdma.mb_per_cpu_sec >= sr.mb_per_cpu_sec * 0.95,
            "rdma {rdma:?} vs send-recv {sr:?}"
        );
    }
}
