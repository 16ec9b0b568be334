//! `des_nbd`: the paper's Figure 7 NBD run — sequential write+`sync`,
//! then read, 64 KB blocks at queue depth 4 — through the socket NBD
//! over GigE and Myrinet/GM, the QPIP NBD, and the RDMA-read NBD.
//!
//! Two nodes and large segments: per-byte work dominates and the fleet
//! structures stay tiny. Every iteration's simulated results must equal
//! the `fig7_nbd` harness's output bit for bit.

use std::time::{Duration, Instant};

use qpip::baseline::SocketWorld;
use qpip::world::QpipWorld;
use qpip::{CompletionKind, NicConfig, RecvWr, ServiceType};
use qpip_host::stack::StackConfig;
use qpip_nbd::socket_impl::{self, Transport};
use qpip_nbd::{qpip_impl, rdma_impl, NbdConfig, PhaseResult};
use qpip_netstack::types::Endpoint;
use qpip_sim::params;

use crate::alloc::AllocCount;
use crate::clock::{Elapsed, Stopwatch};
use crate::spans::Spans;
use crate::{Epoch, Outcome};

/// The `fig7_nbd` harness's default transfer.
pub const TOTAL_BYTES: u64 = 64 * 1024 * 1024;

/// Set-up samples taken before each iteration. A set-up takes about
/// 0.1 ms, so many samples, spread over the run, cost little and steady
/// the median.
const SETUP_REPS: usize = 25;

/// `fig7_nbd` output at [`TOTAL_BYTES`], every field of every phase in
/// the order GigE write/read, GM write/read, QPIP write/read, RDMA
/// read; each row is `[MB/s, client CPU, MB per CPU-second, fs
/// fraction, elapsed simulated seconds]`.
const FIG7: [[f64; 5]; 7] = [
    [
        30.365384888315067,
        0.7926245786525985,
        38.30992087065217,
        0.22757863922865393,
        2.210044899705,
    ],
    [
        31.161951376033755,
        0.9572701342873624,
        32.552933868799954,
        0.2404649159805446,
        2.153551399596,
    ],
    [34.92909949935404, 0.5977573567512364, 58.43357527072674, 0.2617821892520834, 1.921288122565],
    [46.33639275244101, 0.851291256541209, 54.43071615783472, 0.35756030344834633, 1.448297116233],
    [79.81638840580932, 0.6160455277216035, 129.56248331353694, 0.5981977547246469, 0.840790536134],
    [79.92226480265809, 0.6328139951052829, 126.29661388787906, 0.6167296925290343, 0.83967670543],
    [79.5970490950846, 0.6001136222370661, 132.63663104058142, 0.596553878249915, 0.843107436305],
];

fn row(p: &PhaseResult) -> [f64; 5] {
    [p.mbytes_per_sec, p.client_cpu, p.mb_per_cpu_sec, p.fs_fraction, p.elapsed_s]
}

/// The runners' own set-up, rebuilt through the same public APIs: a
/// socket-world pair per socket transport and a QPIP pair (GM MTU, 64
/// receive WRs a side) per QP runner, each up to an established
/// connection. The runners keep their worlds private, so this is the
/// set-up cost the benchmark can observe.
fn setup_once() {
    for (mut w, cfg) in [
        (SocketWorld::gige(), StackConfig::gige()),
        (SocketWorld::gm_myrinet(), StackConfig::gm_myrinet()),
    ] {
        let client = w.add_node(cfg.clone());
        let server = w.add_node(cfg);
        let ls = w.tcp_socket(server);
        w.listen(server, ls, 10809).expect("listen");
        let cs = w.tcp_socket(client);
        let remote = Endpoint::new(w.addr(server), 10809);
        w.connect_blocking(client, cs, 40000, remote).expect("connect");
        std::hint::black_box(w.accept_blocking(server, ls));
    }
    for _ in 0..2 {
        let nic = NicConfig { mtu: params::GM_MTU, ..NicConfig::paper_default() };
        let mut w = QpipWorld::new(qpip_fabric::FabricConfig {
            mtu: params::GM_MTU,
            ..qpip_fabric::FabricConfig::myrinet()
        });
        let client = w.add_node(nic.clone());
        let server = w.add_node(nic);
        let cqc = w.create_cq(client);
        let cqs = w.create_cq(server);
        let qc = w.create_qp(client, ServiceType::ReliableTcp, cqc, cqc).expect("qp");
        let qs = w.create_qp(server, ServiceType::ReliableTcp, cqs, cqs).expect("qp");
        for i in 0..64 {
            w.post_recv(server, qs, RecvWr { wr_id: i, capacity: params::GM_MTU }).expect("recv");
            w.post_recv(client, qc, RecvWr { wr_id: i, capacity: params::GM_MTU }).expect("recv");
        }
        w.tcp_listen(server, 10809, qs).expect("listen");
        let remote = Endpoint::new(w.addr(server), 10809);
        w.tcp_connect(client, qc, 40000, remote).expect("connect");
        w.wait_matching(client, cqc, |c| c.kind == CompletionKind::ConnectionEstablished);
        w.wait_matching(server, cqs, |c| c.kind == CompletionKind::ConnectionEstablished);
    }
}

/// Runs `f` on a [`Stopwatch`].
fn timed<T>(f: impl FnOnce() -> T) -> (T, Elapsed) {
    let t = Stopwatch::start();
    let r = f();
    (r, t.elapsed())
}

/// Runs Figure 7 iterations until `budget` is spent (at least one).
/// Each runner call is an epoch of its own class, so the host's speed
/// is probed around every call and a runner's rate is compared only
/// with the same runner's.
pub fn run(budget: Duration, spans: &mut Spans) -> Outcome {
    let mut out = Outcome::default();
    let cfg = NbdConfig { total_bytes: TOTAL_BYTES, ..NbdConfig::default() };
    let blocks = TOTAL_BYTES / cfg.block as u64;
    let start = Instant::now();
    let mut iters = 0;
    while iters == 0 || start.elapsed() < budget {
        // a set-up is too short to probe around each one: the probes
        // around the batch scale every set-up in it
        let batch = Stopwatch::start();
        let setups: Vec<f64> = (0..SETUP_REPS)
            .map(|_| {
                let t = Instant::now();
                setup_once();
                t.elapsed().as_secs_f64()
            })
            .collect();
        let b = batch.elapsed();
        out.setup.extend(setups.into_iter().map(|wall| Elapsed { wall, ..b }));
        let a0 = AllocCount::now();
        let (gige, t_gige) =
            timed(|| spans.span("nbd.gige", |_| socket_impl::run(Transport::GigE, cfg)));
        let (gm, t_gm) =
            timed(|| spans.span("nbd.gm", |_| socket_impl::run(Transport::GmMyrinet, cfg)));
        let (qpip, t_qpip) = timed(|| spans.span("nbd.qpip", |_| qpip_impl::run(cfg)));
        let (rdma, t_rdma) = timed(|| spans.span("nbd.rdma_read", |_| rdma_impl::run_read(cfg)));
        out.alloc.add(AllocCount::now().since(a0));
        let phases = [gige.write, gige.read, gm.write, gm.read, qpip.write, qpip.read, rdma];
        // every phase moves the whole file in `blocks` requests
        for (got, want) in phases.iter().map(row).zip(FIG7) {
            out.attempted += blocks;
            if got.iter().zip(want).any(|(g, w)| g.to_bits() != w.to_bits()) {
                out.failed += blocks;
                out.notes.push(format!("Figure 7 mismatch: got {got:?}, want {want:?}"));
            }
        }
        // the socket and QPIP runners write then read, RDMA only reads
        for (class, (phases, time)) in
            [(2, t_gige), (2, t_gm), (2, t_qpip), (1, t_rdma)].into_iter().enumerate()
        {
            out.epochs.push(Epoch {
                class: class as u8,
                msgs: phases * blocks,
                bytes: phases * TOTAL_BYTES,
                time,
            });
        }
        iters += 1;
    }
    if spans.is_on() {
        for (span, metric) in [
            ("nbd.gige", "nbd.gige_s"),
            ("nbd.gm", "nbd.gm_s"),
            ("nbd.qpip", "nbd.qpip_s"),
            ("nbd.rdma_read", "nbd.rdma_read_s"),
        ] {
            out.layers.push((metric, crate::stats::median(&spans.durations_ns(span)) / 1e9));
        }
    }
    out.notes.push(format!("{iters} Figure 7 iterations, each matched against fig7_nbd output"));
    out
}
