//! Measurement record shared by the NBD implementations, and the one
//! phase meter the simulated runners take it with.

use qpip::des::{Node, World};
use qpip::NodeIdx;
use qpip_host::WorkClass;
use qpip_sim::params;
use qpip_sim::time::{SimDuration, SimTime};

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

/// The client's application clock, busy time and application cycles at
/// the start of a phase, in any simulated world.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PhaseMeter {
    client: NodeIdx,
    t0: SimTime,
    busy0: SimDuration,
    fs0: u64,
}

impl PhaseMeter {
    /// Starts metering `client` now.
    pub(crate) fn start<N: Node>(w: &World<N>, client: NodeIdx) -> PhaseMeter {
        PhaseMeter {
            client,
            t0: w.app_time(client),
            busy0: w.cpu(client).busy_time(),
            fs0: w.cpu(client).cycles(WorkClass::App),
        }
    }

    /// Ends the phase at `t1`, after `bytes` of file data moved.
    pub(crate) fn finish<N: Node>(&self, w: &World<N>, bytes: u64, t1: SimTime) -> PhaseResult {
        let elapsed = t1.duration_since(self.t0).as_secs_f64();
        let busy = (w.cpu(self.client).busy_time() - self.busy0).as_secs_f64();
        let fs_cycles = w.cpu(self.client).cycles(WorkClass::App) - self.fs0;
        let mb = bytes as f64 / 1e6;
        PhaseResult {
            mbytes_per_sec: mb / elapsed,
            client_cpu: busy / elapsed,
            mb_per_cpu_sec: mb / busy,
            fs_fraction: (fs_cycles as f64 / params::HOST_CLOCK_MHZ as f64 / 1e6) / elapsed,
            elapsed_s: elapsed,
        }
    }
}
