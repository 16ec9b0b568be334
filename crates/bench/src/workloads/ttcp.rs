//! The ttcp v1.4-style throughput benchmark (Figure 4): a 10 MB
//! transfer in 16 KB application writes with TCP_NODELAY, reporting
//! goodput and host CPU utilization on each implementation (§4.2.1).

use qpip::baseline::SocketWorld;
use qpip::world::QpipWorld;
use qpip::{CompletionKind, NicConfig, RecvWr, SendWr, ServiceType};
use qpip_host::stack::{HostOutput, StackConfig};
use qpip_netstack::types::Endpoint;
use qpip_sim::time::SimTime;

use super::pingpong::Baseline;

/// Throughput measurement result.
#[derive(Debug, Clone, Copy)]
pub struct TtcpResult {
    /// Goodput in MB/s (10⁶ bytes per second).
    pub mbytes_per_sec: f64,
    /// Sender host CPU utilization (fraction of one 550 MHz CPU).
    pub sender_cpu: f64,
    /// Receiver host CPU utilization.
    pub receiver_cpu: f64,
    /// Elapsed simulated seconds.
    pub elapsed_s: f64,
    /// TCP retransmissions observed (0 on the lossless SAN).
    pub retransmissions: u64,
}

/// Runs ttcp over QPIP. `message` is the QP message size (one message
/// per TCP segment, §4.1); the native configuration writes 16 KB
/// messages onto the 16 KB MTU.
pub fn qpip_ttcp(nic: NicConfig, total_bytes: u64, message: usize) -> TtcpResult {
    // one message per segment: clamp the write size to what one segment
    // carries (IPv6 40 + TCP 32 with timestamps); with jumbo segments
    // the wire MTU no longer bounds the message (IPv6 fragmentation)
    let message =
        message.min(qpip_netstack::types::NetConfig::qpip(nic.segment_mtu()).max_tcp_payload());
    let mut w = QpipWorld::new(qpip_fabric::FabricConfig {
        mtu: nic.mtu,
        ..qpip_fabric::FabricConfig::myrinet()
    });
    let tx = w.add_node(nic.clone());
    let rx = w.add_node(nic);
    let cqt = w.create_cq(tx);
    let cqr = w.create_cq(rx);
    let qt = w.create_qp(tx, ServiceType::ReliableTcp, cqt, cqt).unwrap();
    let qr = w.create_qp(rx, ServiceType::ReliableTcp, cqr, cqr).unwrap();

    // receiver pre-posts a ring of message buffers; the posted space is
    // the advertised TCP window (§5.1)
    let ring = 32u64;
    for i in 0..ring {
        w.post_recv(rx, qr, RecvWr { wr_id: i, capacity: message }).unwrap();
    }
    w.tcp_listen(rx, 5000, qr).unwrap();
    let remote = Endpoint::new(w.addr(rx), 5000);
    w.tcp_connect(tx, qt, 4000, remote).unwrap();
    w.wait_matching(tx, cqt, |c| c.kind == CompletionKind::ConnectionEstablished);
    w.wait_matching(rx, cqr, |c| c.kind == CompletionKind::ConnectionEstablished);

    let messages = total_bytes.div_ceil(message as u64);
    let window = 16u64; // outstanding send WRs, like ttcp's socket buffer
    let mut posted = 0u64;
    let mut send_done = 0u64;
    let mut recv_done = 0u64;
    let t_start = w.app_time(tx);
    let tx_busy0 = w.cpu(tx).busy_time();
    let rx_busy0 = w.cpu(rx).busy_time();
    let mut t_end = SimTime::ZERO;

    while recv_done < messages {
        while posted < messages && posted - send_done < window {
            w.post_send(tx, qt, SendWr { wr_id: posted, payload: vec![0x42; message], dst: None })
                .unwrap();
            posted += 1;
        }
        let c = w.wait(rx, cqr);
        if matches!(c.kind, CompletionKind::Recv { .. }) {
            recv_done += 1;
            t_end = w.app_time(rx);
            // recycle the buffer
            w.post_recv(rx, qr, RecvWr { wr_id: ring + recv_done, capacity: message }).unwrap();
        }
        // harvest sender completions without spinning
        while let Some(c) = w.try_wait(tx, cqt) {
            if c.kind == CompletionKind::Send {
                send_done += 1;
            }
        }
    }

    let elapsed = t_end.duration_since(t_start);
    let tx_busy = w.cpu(tx).busy_time() - tx_busy0;
    let rx_busy = w.cpu(rx).busy_time() - rx_busy0;
    TtcpResult {
        mbytes_per_sec: (messages * message as u64) as f64 / elapsed.as_secs_f64() / 1e6,
        sender_cpu: tx_busy.as_secs_f64() / elapsed.as_secs_f64(),
        receiver_cpu: rx_busy.as_secs_f64() / elapsed.as_secs_f64(),
        elapsed_s: elapsed.as_secs_f64(),
        retransmissions: w.nic(tx).retransmissions(),
    }
}

/// Runs ttcp over a host-based socket baseline: 16 KB blocking writes,
/// 16 KB reads, exactly like ttcp -t/-r.
pub fn socket_ttcp(which: Baseline, total_bytes: u64, chunk: usize) -> TtcpResult {
    let (mut w, cfg) = match which {
        Baseline::GigE => (SocketWorld::gige(), StackConfig::gige()),
        Baseline::GmMyrinet => (SocketWorld::gm_myrinet(), StackConfig::gm_myrinet()),
    };
    let a = w.add_node(cfg.clone());
    let b = w.add_node(cfg);
    let ls = w.tcp_socket(b);
    w.listen(b, ls, 5000).unwrap();
    let cs = w.tcp_socket(a);
    let remote = Endpoint::new(w.addr(b), 5000);
    w.connect_blocking(a, cs, 4000, remote).unwrap();
    let ss = w.accept_blocking(b, ls);

    let total = total_bytes as usize;
    let mut sent = 0usize;
    let mut received = 0usize;
    let t_start = w.app_time(a);
    let a_busy0 = w.cpu(a).busy_time();
    let b_busy0 = w.cpu(b).busy_time();
    let mut t_end = SimTime::ZERO;
    // blocked-writer state: after WouldBlock, sleep until SendSpace
    let mut awaiting_space = false;
    let block = vec![0x42; chunk];

    while received < total {
        let mut progress = false;
        if !awaiting_space {
            while sent < total {
                let n = chunk.min(total - sent);
                if w.try_send(a, cs, &block[..n]).expect("send") {
                    sent += n;
                    progress = true;
                } else {
                    awaiting_space = true;
                    w.clear_events(a);
                    break;
                }
            }
        }
        // receiver drains in chunk-sized reads, like ttcp -r
        while w.readable(b, ss) > 0 && received < total {
            let data = w.recv_available(b, ss, chunk);
            received += data.len();
            progress = true;
            t_end = w.app_time(b);
        }
        if received >= total {
            break;
        }
        if !progress {
            assert!(w.step(), "ttcp deadlocked: sent {sent} received {received}");
            if awaiting_space {
                // woken by the stack?
                let has_space = {
                    let evs = w.events(a);
                    evs.iter().any(|e| matches!(e, HostOutput::SendSpace { .. }))
                };
                if has_space {
                    awaiting_space = false;
                    w.clear_events(a);
                }
            }
        }
    }

    let elapsed = t_end.duration_since(t_start);
    let a_busy = w.cpu(a).busy_time() - a_busy0;
    let b_busy = w.cpu(b).busy_time() - b_busy0;
    TtcpResult {
        mbytes_per_sec: total as f64 / elapsed.as_secs_f64() / 1e6,
        sender_cpu: a_busy.as_secs_f64() / elapsed.as_secs_f64(),
        receiver_cpu: b_busy.as_secs_f64() / elapsed.as_secs_f64(),
        elapsed_s: elapsed.as_secs_f64(),
        retransmissions: w.stack(a).retransmissions(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpip_sim::params;

    const MB: u64 = 1024 * 1024;

    #[test]
    fn qpip_native_mtu_outperforms_with_negligible_cpu() {
        let r = qpip_ttcp(NicConfig::paper_default(), 2 * MB, params::TTCP_CHUNK_BYTES);
        assert!(r.mbytes_per_sec > 40.0, "{:?}", r);
        assert!(r.sender_cpu < 0.05, "{:?}", r);
        assert!(r.receiver_cpu < 0.05, "{:?}", r);
        assert_eq!(r.retransmissions, 0);
    }

    #[test]
    fn qpip_small_mtu_is_nic_processor_limited() {
        let big = qpip_ttcp(NicConfig::paper_default(), MB, params::TTCP_CHUNK_BYTES);
        let small = qpip_ttcp(NicConfig { mtu: 1500, ..NicConfig::paper_default() }, MB, 1408);
        assert!(small.mbytes_per_sec < big.mbytes_per_sec, "{small:?} vs {big:?}");
    }

    #[test]
    fn socket_gige_saturates_host_cpu_fractionally() {
        let r = socket_ttcp(Baseline::GigE, 2 * MB, 16 * 1024);
        assert!(r.mbytes_per_sec > 10.0, "{r:?}");
        let peak = r.sender_cpu.max(r.receiver_cpu);
        assert!(peak > 0.2, "host stack should burn real CPU: {r:?}");
        assert_eq!(r.retransmissions, 0);
    }
}
