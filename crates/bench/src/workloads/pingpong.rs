//! Application-to-application round-trip time (Figure 3): one 1-byte
//! message from one application to another and back, over each of the
//! three implementations and both transports.

use std::sync::Arc;

use qpip::baseline::SocketWorld;
use qpip::world::QpipWorld;
use qpip::{Completion, CompletionKind, NicConfig, RecvWr, SendWr, ServiceType};
use qpip_host::stack::StackConfig;
use qpip_netstack::types::Endpoint;
use qpip_sim::stats::Summary;
use qpip_trace::{FlightRecorder, Snapshot};

use super::verbs::End::{self, A, B};
use super::verbs::{wait_for, DesPair, VerbsPair};

/// RTT measurement result.
#[derive(Debug, Clone)]
pub struct RttResult {
    /// Mean round-trip time in microseconds.
    pub mean_us: f64,
    /// Sample summary.
    pub samples: Summary,
    /// Packets both ends put on the wire over the measured rounds, when
    /// the harness counts them (the QPIP verbs pairs do, the host-stack
    /// baselines do not).
    pub packets: Option<u64>,
}

impl RttResult {
    /// The p50, p99 and p99.9 round trip, in microseconds.
    pub fn percentiles(&self) -> [f64; 3] {
        let mut samples = self.samples.clone();
        [50.0, 99.0, 99.9].map(|p| samples.percentile(p).unwrap_or(0.0))
    }
}

/// Measures QPIP QP-to-QP RTT over TCP (reliable service).
pub fn qpip_tcp_rtt(nic: NicConfig, payload: usize, rounds: usize) -> RttResult {
    qpip_tcp_rtt_observed(nic, payload, rounds, None).0
}

/// [`qpip_tcp_rtt`] with observability: optionally installs a flight
/// recorder on the world (tracing changes no simulation outcome — the
/// RTT numbers are identical either way) and also returns the world's
/// unified counter snapshots for the benches' `counters` JSON section.
pub fn qpip_tcp_rtt_observed(
    nic: NicConfig,
    payload: usize,
    rounds: usize,
    recorder: Option<Arc<FlightRecorder>>,
) -> (RttResult, Vec<Snapshot>) {
    let mut w = QpipWorld::myrinet();
    if let Some(rec) = recorder {
        w.install_recorder(rec);
    }
    let mut pair = DesPair::new(w, nic);
    let r = rtt(&mut pair, ServiceType::ReliableTcp, payload, rounds);
    (r, pair.world.counter_snapshots())
}

/// Measures QPIP QP-to-QP RTT over UDP (unreliable service).
pub fn qpip_udp_rtt(nic: NicConfig, payload: usize, rounds: usize) -> RttResult {
    rtt(&mut DesPair::new(QpipWorld::myrinet(), nic), ServiceType::UnreliableUdp, payload, rounds)
}

/// Ping-pong on any [`VerbsPair`]: end A sends `payload` bytes, end B
/// answers with as many, `rounds` times after four warm-up rounds, over
/// TCP or UDP as `service` says. Each end keeps one spare receive
/// posted so reposting stays off the critical path. Samples are end
/// A's application-clock round trips. UDP resends nothing, so on live
/// sockets a dropped datagram stalls the round until the wait times
/// out. Each round trip should cost two packets: the ping carries the
/// ACK of the previous pong, and the pong the ACK of the ping.
pub fn rtt<P: VerbsPair>(
    p: &mut P,
    service: ServiceType,
    payload: usize,
    rounds: usize,
) -> RttResult {
    let cqs = [p.create_cq(A), p.create_cq(B)];
    let qps = [p.create_qp(A, service, cqs[0], cqs[0]), p.create_qp(B, service, cqs[1], cqs[1])];
    let tcp = service == ServiceType::ReliableTcp;
    if !tcp {
        p.udp_bind(A, qps[0], 9000);
        p.udp_bind(B, qps[1], 9001);
    }
    let post_recv = |p: &mut P, wr_id: u64| {
        for (end, qp) in [(A, qps[0]), (B, qps[1])] {
            p.post_recv(end, qp, RecvWr { wr_id, capacity: 16 * 1024 });
        }
    };
    for i in 0..4 {
        post_recv(p, i);
    }
    if tcp {
        p.tcp_listen(B, qps[1], 5000);
        p.tcp_connect(A, qps[0], 4000, 5000);
        wait_for(p, A, cqs[0], |c| c.kind == CompletionKind::ConnectionEstablished);
        wait_for(p, B, cqs[1], |c| c.kind == CompletionKind::ConnectionEstablished);
    }
    let dst = |end: End, port| (!tcp).then(|| Endpoint::new(p.addr(end), port));
    let (to_b, to_a) = (dst(B, 9001), dst(A, 9000));

    let mut samples = Summary::new();
    let warmup = 4;
    let is_recv = |c: &Completion| matches!(c.kind, CompletionKind::Recv { .. });
    let sent = |p: &P| p.packets_sent(A) + p.packets_sent(B);
    let mut sent_before = 0;
    for round in 0..rounds + warmup {
        if round == warmup {
            sent_before = sent(p);
        }
        post_recv(p, 900 + round as u64);
        let t0 = p.now(A);
        p.post_send(A, qps[0], SendWr { wr_id: 1, payload: vec![0x5a; payload], dst: to_b });
        wait_for(p, B, cqs[1], is_recv);
        p.post_send(B, qps[1], SendWr { wr_id: 2, payload: vec![0xa5; payload], dst: to_a });
        wait_for(p, A, cqs[0], is_recv);
        if round >= warmup {
            samples.record(p.now(A).duration_since(t0).as_micros_f64());
        }
    }
    RttResult { mean_us: samples.mean(), samples, packets: Some(sent(p) - sent_before) }
}

/// Which host baseline fabric to measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Baseline {
    /// IP over Gigabit Ethernet.
    GigE,
    /// IP over Myrinet (GM).
    GmMyrinet,
}

fn baseline_world(which: Baseline) -> (SocketWorld, StackConfig) {
    match which {
        Baseline::GigE => (SocketWorld::gige(), StackConfig::gige()),
        Baseline::GmMyrinet => (SocketWorld::gm_myrinet(), StackConfig::gm_myrinet()),
    }
}

/// Measures socket-to-socket TCP RTT on a host baseline.
pub fn socket_tcp_rtt(which: Baseline, payload: usize, rounds: usize) -> RttResult {
    let (mut w, cfg) = baseline_world(which);
    let a = w.add_node(cfg.clone());
    let b = w.add_node(cfg);
    let ls = w.tcp_socket(b);
    w.listen(b, ls, 5000).unwrap();
    let cs = w.tcp_socket(a);
    let remote = Endpoint::new(w.addr(b), 5000);
    w.connect_blocking(a, cs, 4000, remote).unwrap();
    let ss = w.accept_blocking(b, ls);
    let mut samples = Summary::new();
    let warmup = 4;
    for round in 0..rounds + warmup {
        let t0 = w.app_time(a);
        w.send_blocking(a, cs, vec![0x5a; payload]).unwrap();
        let _ = w.recv_exact(b, ss, payload);
        w.send_blocking(b, ss, vec![0xa5; payload]).unwrap();
        let _ = w.recv_exact(a, cs, payload);
        if round >= warmup {
            samples.record(w.app_time(a).duration_since(t0).as_micros_f64());
        }
    }
    RttResult { mean_us: samples.mean(), samples, packets: None }
}

/// Measures socket-to-socket UDP RTT on a host baseline.
pub fn socket_udp_rtt(which: Baseline, payload: usize, rounds: usize) -> RttResult {
    let (mut w, cfg) = baseline_world(which);
    let a = w.add_node(cfg.clone());
    let b = w.add_node(cfg);
    let sa = w.udp_socket(a);
    let sb = w.udp_socket(b);
    w.udp_bind(a, sa, 9000).unwrap();
    w.udp_bind(b, sb, 9001).unwrap();
    let to_b = Endpoint::new(w.addr(b), 9001);
    let to_a = Endpoint::new(w.addr(a), 9000);
    let mut samples = Summary::new();
    let warmup = 4;
    for round in 0..rounds + warmup {
        let t0 = w.app_time(a);
        w.udp_send(a, sa, to_b, &vec![1; payload]).unwrap();
        let _ = w.udp_recv_blocking(b, sb);
        w.udp_send(b, sb, to_a, &vec![2; payload]).unwrap();
        let _ = w.udp_recv_blocking(a, sa);
        if round >= warmup {
            samples.record(w.app_time(a).duration_since(t0).as_micros_f64());
        }
    }
    RttResult { mean_us: samples.mean(), samples, packets: None }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qpip_rtt_is_stable_across_rounds() {
        let r = qpip_tcp_rtt(NicConfig::paper_default(), 1, 10);
        let spread = r.samples.max().unwrap() - r.samples.min().unwrap();
        assert!(spread < 3.0, "steady-state rtt jitter {spread} µs");
    }

    #[test]
    fn udp_rtt_is_below_tcp_rtt() {
        let udp = qpip_udp_rtt(NicConfig::paper_default(), 1, 8);
        let tcp = qpip_tcp_rtt(NicConfig::paper_default(), 1, 8);
        assert!(udp.mean_us < tcp.mean_us, "udp {} vs tcp {}", udp.mean_us, tcp.mean_us);
    }

    #[test]
    fn firmware_checksum_adds_latency() {
        let hw = qpip_udp_rtt(NicConfig::paper_default(), 1, 6);
        let fw = qpip_udp_rtt(NicConfig::firmware_checksum(), 1, 6);
        assert!(fw.mean_us > hw.mean_us);
    }

    #[test]
    fn socket_rtts_measure() {
        let t = socket_tcp_rtt(Baseline::GigE, 1, 6);
        let u = socket_udp_rtt(Baseline::GigE, 1, 6);
        assert!(t.mean_us > 0.0 && u.mean_us > 0.0);
        assert!(u.mean_us < t.mean_us);
    }
}
