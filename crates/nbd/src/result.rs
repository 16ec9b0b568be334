//! What the NBD implementations share: the benchmark configuration, the
//! measurement record, the one cost rule for filesystem and server work,
//! and the one block queue every simulated phase runs through.

use qpip::des::{Node, World};
use qpip::NodeIdx;
use qpip_host::WorkClass;
use qpip_sim::params;
use qpip_sim::time::{SimDuration, SimTime};

use crate::proto::{NbdOp, NbdRequest};

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

/// Outcome of one sequential NBD phase (read or write).
#[derive(Debug, Clone, Copy)]
pub struct PhaseResult {
    /// Goodput in MB/s (10⁶ bytes per second of file data).
    pub mbytes_per_sec: f64,
    /// Client CPU utilization during the phase (fraction of one CPU).
    pub client_cpu: f64,
    /// CPU effectiveness: MB transferred per client CPU-second (the
    /// y2-axis of Figure 7).
    pub mb_per_cpu_sec: f64,
    /// Fraction of client busy cycles spent in filesystem processing
    /// (the ≥ 26 % floor of §4.2.3).
    pub fs_fraction: f64,
    /// Elapsed simulated seconds.
    pub elapsed_s: f64,
}

/// Both phases of the Figure 7 benchmark.
#[derive(Debug, Clone, Copy)]
pub struct NbdResult {
    /// Sequential write of the file (flushed with `sync`).
    pub write: PhaseResult,
    /// Sequential read back (client cache invalidated by the unmount).
    pub read: PhaseResult,
}

/// Client-side filesystem work for one block (ext2 + block layer).
pub(crate) fn fs_cycles(block: usize) -> u64 {
    params::NBD_FS_PER_REQUEST_CYCLES + (block as u64 * params::NBD_FS_CYCLES_PER_BYTE_X100) / 100
}

/// Server work to serve a request of `len` bytes from its own buffer
/// onto a QP: the request itself plus one copy of the data.
pub(crate) fn serve_cycles(len: usize) -> u64 {
    params::NBD_SERVER_PER_REQUEST_CYCLES
        + (len as u64 * params::HOST_COPY_CYCLES_PER_BYTE_X100) / 100
}

/// One sequential phase: the client's block queue, and its application
/// clock, busy time and application cycles at the start, in any
/// simulated world.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Phase {
    cfg: NbdConfig,
    /// Blocks in the file.
    pub(crate) nblocks: u64,
    /// Requests the transport has accepted; the driver bumps it.
    pub(crate) sent: u64,
    /// Blocks completed; the driver bumps it.
    pub(crate) done: u64,
    client: NodeIdx,
    t0: SimTime,
    busy0: SimDuration,
    fs0: u64,
}

impl Phase {
    /// Starts a phase of `cfg` on `client` now.
    pub(crate) fn start<N: Node>(w: &World<N>, client: NodeIdx, cfg: NbdConfig) -> Phase {
        Phase {
            cfg,
            nblocks: cfg.total_bytes / cfg.block as u64,
            sent: 0,
            done: 0,
            client,
            t0: w.app_time(client),
            busy0: w.cpu(client).busy_time(),
            fs0: w.cpu(client).cycles(WorkClass::App),
        }
    }

    /// Whether blocks are still outstanding or unsent.
    pub(crate) fn running(&self) -> bool {
        self.done < self.nblocks
    }

    /// The next block's request, while the queue has room for it.
    pub(crate) fn next(&self, op: NbdOp) -> Option<NbdRequest> {
        let block = self.cfg.block as u64;
        (self.sent < self.nblocks && self.sent - self.done < self.cfg.queue_depth).then(|| {
            NbdRequest { op, handle: self.sent, offset: self.sent * block, len: block as u32 }
        })
    }

    /// Ends the phase at `t1`, after the whole file moved.
    pub(crate) fn finish<N: Node>(&self, w: &World<N>, t1: SimTime) -> PhaseResult {
        let elapsed = t1.duration_since(self.t0).as_secs_f64();
        let busy = (w.cpu(self.client).busy_time() - self.busy0).as_secs_f64();
        let fs_cycles = w.cpu(self.client).cycles(WorkClass::App) - self.fs0;
        let mb = (self.nblocks * self.cfg.block as u64) as f64 / 1e6;
        PhaseResult {
            mbytes_per_sec: mb / elapsed,
            client_cpu: busy / elapsed,
            mb_per_cpu_sec: mb / busy,
            fs_fraction: (fs_cycles as f64 / params::HOST_CLOCK_MHZ as f64 / 1e6) / elapsed,
            elapsed_s: elapsed,
        }
    }
}
