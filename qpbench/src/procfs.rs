//! Probes of `/proc`: process CPU time, peak RSS, context switches,
//! host steal time, kernel UDP drop counters and a machine fingerprint.
//!
//! Each probe is a pure parser over the file's text (tested on fixture
//! text) plus a thin reader. A file that is missing or malformed reads
//! as zero counters, so the benchmark still runs where `/proc` differs.

use std::fs;

/// Linux reports `/proc/*/stat` CPU times in `USER_HZ` ticks, which the
/// kernel ABI fixes at 100 per second for user space.
pub const TICKS_PER_SEC: u64 = 100;

/// User and system CPU time of this process, in clock ticks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuTicks {
    /// `utime`, field 14 of `/proc/self/stat`.
    pub user: u64,
    /// `stime`, field 15 of `/proc/self/stat`.
    pub sys: u64,
}

/// Parses `/proc/<pid>/stat`. The command name (field 2) may hold
/// spaces and parentheses, so fields are counted after its last `)`.
pub fn parse_stat(text: &str) -> Option<CpuTicks> {
    let rest = &text[text.rfind(')')? + 1..];
    // rest starts at field 3 (state); utime/stime are fields 14/15
    let mut f = rest.split_whitespace().skip(11);
    Some(CpuTicks { user: f.next()?.parse().ok()?, sys: f.next()?.parse().ok()? })
}

/// Memory and scheduling figures from `/proc/self/status`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Status {
    /// `VmHWM`: peak resident set size, in KiB.
    pub vm_hwm_kib: u64,
    /// Times the scheduler took the CPU away from this process.
    pub nonvoluntary_ctxt_switches: u64,
}

/// Parses `/proc/self/status`; absent keys read as zero.
pub fn parse_status(text: &str) -> Status {
    let mut s = Status::default();
    for line in text.lines() {
        let Some((key, val)) = line.split_once(':') else { continue };
        let num = || val.split_whitespace().next().and_then(|v| v.parse().ok()).unwrap_or(0);
        match key {
            "VmHWM" => s.vm_hwm_kib = num(),
            "nonvoluntary_ctxt_switches" => s.nonvoluntary_ctxt_switches = num(),
            _ => {}
        }
    }
    s
}

/// Steal ticks summed over all CPUs: the aggregate `cpu` line of
/// `/proc/stat`, eighth value.
pub fn parse_steal(text: &str) -> Option<u64> {
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// Kernel UDP counters from `/proc/net/snmp`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UdpCounters {
    /// Datagrams dropped because the receiving socket's buffer was full.
    pub rcvbuf_errors: u64,
    /// Datagrams that could not be delivered for any reason other than
    /// a missing port (includes the `RcvbufErrors`).
    pub in_errors: u64,
}

/// Parses the `Udp:` header/value line pair of `/proc/net/snmp`,
/// matching columns by name (their order differs across kernels).
pub fn parse_snmp_udp(text: &str) -> Option<UdpCounters> {
    let mut udp = text.lines().filter(|l| l.starts_with("Udp:"));
    let names: Vec<&str> = udp.next()?.split_whitespace().skip(1).collect();
    let values: Vec<&str> = udp.next()?.split_whitespace().skip(1).collect();
    let get = |name: &str| -> Option<u64> {
        let i = names.iter().position(|n| *n == name)?;
        values.get(i)?.parse().ok()
    };
    Some(UdpCounters { rcvbuf_errors: get("RcvbufErrors")?, in_errors: get("InErrors")? })
}

/// The first `model name` of `/proc/cpuinfo`.
pub fn parse_cpu_model(text: &str) -> Option<String> {
    let line = text.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

fn read(path: &str) -> String {
    fs::read_to_string(path).unwrap_or_default()
}

/// One reading of every counter, taken at a segment boundary.
#[derive(Debug, Clone, Copy, Default)]
pub struct Probe {
    /// This process's CPU time.
    pub cpu: CpuTicks,
    /// This process's memory and scheduling figures.
    pub status: Status,
    /// Host steal ticks.
    pub steal_ticks: u64,
    /// Kernel UDP counters (network-namespace wide).
    pub udp: UdpCounters,
}

impl Probe {
    /// Reads every counter now.
    pub fn take() -> Probe {
        Probe {
            cpu: parse_stat(&read("/proc/self/stat")).unwrap_or_default(),
            status: parse_status(&read("/proc/self/status")),
            steal_ticks: parse_steal(&read("/proc/stat")).unwrap_or(0),
            udp: parse_snmp_udp(&read("/proc/net/snmp")).unwrap_or_default(),
        }
    }
}

/// Machine fingerprint printed with every run: logical CPUs and model.
pub fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let model = parse_cpu_model(&read("/proc/cpuinfo")).unwrap_or_else(|| "unknown".into());
    format!("nproc={nproc} cpu=\"{model}\"")
}
