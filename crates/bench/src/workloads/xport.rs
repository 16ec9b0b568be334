//! Live-socket workloads: the ttcp-style RTT and streaming benchmarks
//! of Figures 3/4, but run between two real [`XportNode`]s over
//! 127.0.0.1 instead of inside the DES.
//!
//! Numbers from these workloads are **wall-clock measurements** — they
//! vary run to run with machine load, unlike everything else in this
//! crate. Use them as a smoke-level sanity check that the engine
//! behaves on real wires, not as reproducible figures.

use std::net::Ipv6Addr;
use std::time::{Duration, Instant};

use qpip_netstack::types::Endpoint;
use qpip_nic::types::{CompletionKind, CompletionStatus, RecvWr, SendWr, ServiceType};
use qpip_xport::{ImpairConfig, ImpairProxy, XportConfig, XportNode};

const FABRIC_A: Ipv6Addr = Ipv6Addr::new(0xfc00, 0, 0, 0, 0, 0, 0, 0xa);
const FABRIC_B: Ipv6Addr = Ipv6Addr::new(0xfc00, 0, 0, 0, 0, 0, 0, 0xb);
const PORT: u16 = 5001;

/// Live round-trip measurement.
#[derive(Debug, Clone, Copy)]
pub struct LiveRtt {
    /// Ping-pong rounds measured.
    pub rounds: u32,
    /// Payload bytes per ping.
    pub payload: usize,
    /// Mean RTT in microseconds.
    pub mean_us: f64,
    /// Median RTT in microseconds.
    pub p50_us: f64,
    /// Fastest observed round.
    pub min_us: f64,
}

/// Live streaming measurement.
#[derive(Debug, Clone, Copy)]
pub struct LiveStream {
    /// Messages streamed.
    pub messages: u32,
    /// Bytes per message.
    pub message_len: usize,
    /// Total payload bytes.
    pub bytes: u64,
    /// Wall seconds from first send to last acknowledgment.
    pub wall_s: f64,
    /// Goodput in MB/s (10⁶ bytes per second).
    pub mbytes_per_sec: f64,
    /// Sender-side TCP retransmissions. Nonzero even on clean
    /// loopback: the kernel drops datagrams when a receive buffer
    /// overflows, and the engine recovers them.
    pub retransmissions: u64,
    /// Datagrams the impairment proxy deliberately dropped (0 when
    /// running direct).
    pub proxy_dropped: u64,
}

fn pair() -> (XportNode, XportNode) {
    let a = XportNode::bind(FABRIC_A, XportConfig::default()).expect("bind a");
    let b = XportNode::bind(FABRIC_B, XportConfig::default()).expect("bind b");
    (a, b)
}

fn wire_direct(a: &mut XportNode, b: &mut XportNode) {
    let (aa, ba) = (a.local_addr().expect("addr"), b.local_addr().expect("addr"));
    a.add_peer(FABRIC_B, ba);
    b.add_peer(FABRIC_A, aa);
}

/// Pumps both nodes until neither has read a datagram for 50 rounds in
/// a row, so the FIN exchange and any last ACKs are answered.
fn quiesce(a: &mut XportNode, b: &mut XportNode) {
    let mut idle = 0;
    while idle < 50 {
        let got = a.pump(Duration::ZERO).expect("pump") | b.pump(Duration::ZERO).expect("pump");
        idle = if got { 0 } else { idle + 1 };
    }
}

/// Measures QP-to-QP round-trip time over live loopback sockets:
/// `rounds` ping-pongs of `payload` bytes on a reliable (TCP) QP. One
/// thread drives both nodes: each wait pumps the other node.
pub fn live_rtt(rounds: u32, payload: usize) -> LiveRtt {
    let (mut a, mut b) = pair();
    wire_direct(&mut a, &mut b);
    let cap = payload.max(64);

    let echo_cq = b.create_cq();
    let echo_qp = b.create_qp(ServiceType::ReliableTcp, echo_cq, echo_cq).expect("qp");
    b.tcp_listen(echo_qp, PORT).expect("listen");
    let send_cq = a.create_cq();
    let recv_cq = a.create_cq();
    let qp = a.create_qp(ServiceType::ReliableTcp, send_cq, recv_cq).expect("qp");
    for i in 0..8 {
        b.post_recv(echo_qp, RecvWr { wr_id: i, capacity: cap }).expect("recv");
        a.post_recv(qp, RecvWr { wr_id: i, capacity: cap }).expect("recv");
    }
    a.tcp_connect(qp, 4000, Endpoint::new(FABRIC_B, PORT)).expect("connect");
    loop {
        let c = a.wait_pumping(recv_cq, &mut b).expect("established");
        if c.kind == CompletionKind::ConnectionEstablished {
            break;
        }
    }

    let mut samples_us = Vec::with_capacity(rounds as usize);
    let ping = vec![0x5a; payload];
    for _ in 0..rounds {
        let t0 = Instant::now();
        a.post_send(qp, SendWr { wr_id: 0, payload: ping.clone(), dst: None }).expect("send");
        loop {
            let c = b.wait_pumping(echo_cq, &mut a).expect("echo completion");
            if let CompletionKind::Recv { data, .. } = c.kind {
                b.post_recv(echo_qp, RecvWr { wr_id: 0, capacity: cap }).expect("recv");
                b.post_send(echo_qp, SendWr { wr_id: 0, payload: data, dst: None }).expect("send");
                break;
            }
        }
        loop {
            let c = a.wait_pumping(recv_cq, &mut b).expect("pong");
            if let CompletionKind::Recv { .. } = c.kind {
                break;
            }
        }
        samples_us.push(t0.elapsed().as_secs_f64() * 1e6);
        a.post_recv(qp, RecvWr { wr_id: 0, capacity: cap }).expect("recv");
        while a.poll(send_cq).expect("drain").is_some() {}
    }
    a.tcp_close(qp).expect("close");
    quiesce(&mut a, &mut b);

    samples_us.sort_by(|x, y| x.partial_cmp(y).expect("finite"));
    let mean = samples_us.iter().sum::<f64>() / samples_us.len() as f64;
    LiveRtt {
        rounds,
        payload,
        mean_us: mean,
        p50_us: samples_us[samples_us.len() / 2],
        min_us: samples_us[0],
    }
}

/// Streams `messages` messages of `message_len` bytes from one live
/// node to another, optionally through an impairment proxy, and
/// reports goodput. One thread drives both nodes: the sender waits on
/// acknowledgments while pumping the receiver, and the receiver's CQ is
/// drained between waits. Delivery is verified exactly-once in-order on
/// the receiver; the wall clock only prices it. Also returns the
/// sender's unified counter snapshots (`engine`, `xport`, and `proxy`
/// when impaired) for the benches' `counters` JSON section.
pub fn live_stream(
    messages: u32,
    message_len: usize,
    impair: Option<ImpairConfig>,
) -> (LiveStream, Vec<qpip_trace::Snapshot>) {
    let (mut a, mut b) = pair();
    let proxy = match impair {
        Some(cfg) => {
            let p = ImpairProxy::new(cfg)
                .route(FABRIC_A, a.local_addr().expect("addr"))
                .route(FABRIC_B, b.local_addr().expect("addr"))
                .spawn()
                .expect("proxy");
            a.add_peer(FABRIC_B, p.addr());
            b.add_peer(FABRIC_A, p.addr());
            Some(p)
        }
        None => {
            wire_direct(&mut a, &mut b);
            None
        }
    };

    let sink_cq = b.create_cq();
    let sink_qp = b.create_qp(ServiceType::ReliableTcp, sink_cq, sink_cq).expect("qp");
    b.tcp_listen(sink_qp, PORT).expect("listen");
    for i in 0..64 {
        b.post_recv(sink_qp, RecvWr { wr_id: i, capacity: message_len }).expect("recv");
    }
    let mut seq = 0u32;
    // exactly-once in-order: each message opens with its sequence
    // number; each consumed WR is recycled until the last message
    let sink = |b: &mut XportNode, seq: &mut u32, kind: CompletionKind| {
        if let CompletionKind::Recv { data, .. } = kind {
            let got = u32::from_be_bytes(data[..4].try_into().expect("header"));
            assert_eq!(got, *seq, "stream out of order");
            *seq += 1;
            if *seq < messages {
                b.post_recv(sink_qp, RecvWr { wr_id: 0, capacity: message_len }).expect("recv");
            }
        }
    };

    let send_cq = a.create_cq();
    let recv_cq = a.create_cq();
    let qp = a.create_qp(ServiceType::ReliableTcp, send_cq, recv_cq).expect("qp");
    a.tcp_connect(qp, 4000, Endpoint::new(FABRIC_B, PORT)).expect("connect");
    loop {
        let c = a.wait_pumping(recv_cq, &mut b).expect("established");
        if c.kind == CompletionKind::ConnectionEstablished {
            break;
        }
    }

    let t0 = Instant::now();
    let mut next = 0u32;
    let mut inflight = 0u32;
    let mut completed = 0u32;
    while completed < messages {
        while next < messages && inflight < 32 {
            let mut m = vec![0u8; message_len];
            m[..4].copy_from_slice(&next.to_be_bytes());
            a.post_send(qp, SendWr { wr_id: u64::from(next), payload: m, dst: None })
                .expect("send");
            next += 1;
            inflight += 1;
        }
        while let Some(c) = b.poll(sink_cq).expect("sink poll") {
            sink(&mut b, &mut seq, c.kind);
        }
        let done = a.wait_pumping(send_cq, &mut b).expect("ack");
        assert_eq!(done.status, CompletionStatus::Success);
        inflight -= 1;
        completed += 1;
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let retransmissions = a.engine().retransmissions();
    // every message is acknowledged, so every one is on the sink's CQ
    while seq < messages {
        let c = b.wait_pumping(sink_cq, &mut a).expect("sink completion");
        sink(&mut b, &mut seq, c.kind);
    }
    a.tcp_close(qp).expect("close");
    quiesce(&mut a, &mut b);

    let mut counters = vec![a.engine().stats().snapshot(), a.stats().snapshot()];
    let proxy_dropped = proxy.map_or(0, |p| {
        counters.push(p.stats().snapshot());
        p.stats().dropped
    });
    let bytes = u64::from(messages) * message_len as u64;
    let stream = LiveStream {
        messages,
        message_len,
        bytes,
        wall_s,
        mbytes_per_sec: bytes as f64 / 1e6 / wall_s,
        retransmissions,
        proxy_dropped,
    };
    (stream, counters)
}
