//! The ttcp v1.4-style throughput benchmark (Figure 4): a 10 MB
//! transfer in 16 KB application writes with TCP_NODELAY, reporting
//! goodput and host CPU utilization on each implementation (§4.2.1).

use qpip::baseline::{SocketWorld, Transport};
use qpip::world::QpipWorld;
use qpip::ServiceType;
use qpip::{Completion, CompletionKind, CompletionStatus, CqId, NicConfig, QpId, RecvWr, SendWr};
use qpip_host::stack::HostOutput;
use qpip_netstack::types::Endpoint;
use qpip_sim::time::{SimDuration, SimTime};

use super::verbs::End::{A, B};
use super::verbs::{wait_for, DesPair, VerbsPair};

/// Throughput measurement result.
#[derive(Debug, Clone, Copy)]
pub struct TtcpResult {
    /// Payload bytes delivered.
    pub bytes: u64,
    /// Goodput in MB/s (10⁶ bytes per second).
    pub mbytes_per_sec: f64,
    /// Sender host CPU utilization (fraction of one 550 MHz CPU); NaN
    /// on live sockets, which keep no CPU ledger.
    pub sender_cpu: f64,
    /// Receiver host CPU utilization; NaN on live sockets.
    pub receiver_cpu: f64,
    /// Elapsed seconds, simulated or wall.
    pub elapsed_s: f64,
    /// TCP retransmissions observed (0 on the lossless SAN).
    pub retransmissions: u64,
}

impl TtcpResult {
    /// Prices `bytes` moved in `elapsed`, given each end's host CPU
    /// busy time over the same span.
    fn priced(bytes: u64, elapsed: SimDuration, busy: [f64; 2], retransmissions: u64) -> Self {
        let secs = elapsed.as_secs_f64();
        TtcpResult {
            bytes,
            mbytes_per_sec: bytes as f64 / secs / 1e6,
            sender_cpu: busy[0] / secs,
            receiver_cpu: busy[1] / secs,
            elapsed_s: secs,
            retransmissions,
        }
    }
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
    let w = QpipWorld::new(qpip_fabric::FabricConfig {
        mtu: nic.mtu,
        ..qpip_fabric::FabricConfig::myrinet()
    });
    let mut p = DesPair::new(w, nic);
    let stream = Stream::connect(&mut p, message);
    let ledgers = |p: &DesPair| p.nodes.map(|n| p.world.cpu(n).busy_time());
    let busy0 = ledgers(&p);
    let messages = total_bytes.div_ceil(message as u64);
    let elapsed = stream.run(&mut p, messages);
    let busy1 = ledgers(&p);
    let busy = [0, 1].map(|i| (busy1[i] - busy0[i]).as_secs_f64());
    TtcpResult::priced(messages * message as u64, elapsed, busy, p.retransmissions(A))
}

/// ttcp on any [`VerbsPair`], without CPU accounting: `messages`
/// messages of `message` bytes from end A to end B. The live-socket
/// form of [`qpip_ttcp`]; its CPU fields are NaN.
pub fn ttcp<P: VerbsPair>(p: &mut P, messages: u64, message: usize) -> TtcpResult {
    let elapsed = Stream::connect(p, message).run(p, messages);
    TtcpResult::priced(messages * message as u64, elapsed, [f64::NAN; 2], p.retransmissions(A))
}

/// A connected ttcp stream from end A to end B. Connecting and
/// streaming are separate steps so a caller can read CPU ledgers
/// between them.
#[derive(Debug, Clone, Copy)]
pub struct Stream {
    qps: [QpId; 2],
    cqs: [CqId; 2],
    message: usize,
}

/// Receive WRs end B keeps posted: the posted space is the advertised
/// TCP window (§5.1).
const RING: u64 = 32;
/// Send WRs end A keeps outstanding, like ttcp's socket buffer.
const WINDOW: u64 = 16;

impl Stream {
    /// Sets up one TCP QP per end with end B's receive ring posted, and
    /// connects A to B.
    pub fn connect<P: VerbsPair>(p: &mut P, message: usize) -> Stream {
        assert!(message >= 4, "a message carries a 4-byte sequence number");
        let cqs = [p.create_cq(A), p.create_cq(B)];
        let tcp = ServiceType::ReliableTcp;
        let qps = [p.create_qp(A, tcp, cqs[0], cqs[0]), p.create_qp(B, tcp, cqs[1], cqs[1])];
        for i in 0..RING {
            p.post_recv(B, qps[1], RecvWr { wr_id: i, capacity: message });
        }
        p.tcp_listen(B, qps[1], 5000);
        p.tcp_connect(A, qps[0], 4000, 5000);
        let up = |c: &Completion| c.kind == CompletionKind::ConnectionEstablished;
        wait_for(p, A, cqs[0], up);
        wait_for(p, B, cqs[1], up);
        Stream { qps, cqs, message }
    }

    /// Streams `messages` messages with at most 16 sends in
    /// flight, recycling each consumed receive WR, and returns the span
    /// from the first send to the last delivery. Every message opens
    /// with its sequence number; each delivery must be the next one,
    /// intact, so delivery is checked exactly-once and in order.
    pub fn run<P: VerbsPair>(&self, p: &mut P, messages: u64) -> SimDuration {
        let (mut posted, mut send_done, mut recv_done) = (0u64, 0u64, 0u64);
        let t_start = p.now(A);
        let mut t_end = SimTime::ZERO;
        let sent = |c: Completion| match c.kind {
            CompletionKind::Send => {
                assert_eq!(c.status, CompletionStatus::Success, "send {}", c.wr_id);
                1
            }
            _ => 0,
        };
        while recv_done < messages {
            while posted < messages && posted - send_done < WINDOW {
                let wr =
                    SendWr { wr_id: posted, payload: message(posted, self.message), dst: None };
                p.post_send(A, self.qps[0], wr);
                posted += 1;
            }
            if recv_done == posted {
                // every posted message has landed but the window is
                // full of sends whose ACKs are still on their way: B
                // would wait for a message A never sends
                send_done += sent(p.wait(A, self.cqs[0]));
                continue;
            }
            let c = p.wait(B, self.cqs[1]);
            if let CompletionKind::Recv { data, .. } = c.kind {
                assert_eq!(c.status, CompletionStatus::Success, "message {recv_done}");
                assert!(
                    data == message(recv_done, self.message),
                    "message {recv_done} corrupted, duplicated or out of order"
                );
                recv_done += 1;
                t_end = p.now(B);
                let wr = RecvWr { wr_id: RING + recv_done, capacity: self.message };
                p.post_recv(B, self.qps[1], wr);
            }
            // harvest sender completions without spinning
            while let Some(c) = p.try_wait(A, self.cqs[0]) {
                send_done += sent(c);
            }
        }
        t_end.duration_since(t_start)
    }
}

/// Message `seq` of a stream: its sequence number, then a seq-derived
/// fill, so corruption and misordering are both detectable.
fn message(seq: u64, len: usize) -> Vec<u8> {
    let mut m = Vec::with_capacity(len);
    m.extend_from_slice(&(seq as u32).to_be_bytes());
    m.extend((4..len).map(|i| (seq as usize).wrapping_mul(31).wrapping_add(i) as u8));
    m
}

/// Runs ttcp over a host-based socket baseline: 16 KB blocking writes,
/// 16 KB reads, exactly like ttcp -t/-r.
pub fn socket_ttcp(which: Transport, total_bytes: u64, chunk: usize) -> TtcpResult {
    let (mut w, cfg) = SocketWorld::testbed(which);
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
    let busy =
        [(a, a_busy0), (b, b_busy0)].map(|(n, b0)| (w.cpu(n).busy_time() - b0).as_secs_f64());
    TtcpResult::priced(total as u64, elapsed, busy, w.stack(a).engine_stats().tcp.retransmissions())
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

    /// On a link whose round trip outlasts the delivery of a full
    /// window, every posted message lands before the first ACK is back;
    /// the stream must then wait on the sender's CQ, not on a receiver
    /// that nothing will feed.
    #[test]
    fn long_link_stream_waits_on_the_sender_for_a_full_window() {
        let w = QpipWorld::new(qpip_fabric::FabricConfig {
            cable_latency: SimDuration::from_millis(5),
            ..qpip_fabric::FabricConfig::myrinet()
        });
        let mut p = DesPair::new(w, NicConfig::paper_default());
        assert_eq!(ttcp(&mut p, 64, 1024).bytes, 64 * 1024);
    }

    /// A hold-only fault plan reorders the stream on the DES: every
    /// message still arrives exactly once and in order (`Stream::run`
    /// checks each one), through the receiver's out-of-order path: the
    /// segment that overtook a held one draws a duplicate ACK.
    #[test]
    fn reordered_stream_delivers_exactly_once_in_order() {
        let mut w = QpipWorld::myrinet();
        w.set_fault_plan(qpip_fabric::FaultPlan::Impair {
            drop_permille: 0,
            hold_permille: 50,
            seed: 5,
        });
        let mut p = DesPair::new(w, NicConfig::paper_default());
        assert_eq!(ttcp(&mut p, 400, 1024).bytes, 400 * 1024);
        assert!(p.world.injected_holds() > 0, "nothing was held");
        let dupacks = p.world.engine_stats(p.nodes[0]).tcp.dupacks_rx;
        assert!(dupacks > 0, "the sender saw no duplicate ACK");
    }

    #[test]
    fn socket_gige_saturates_host_cpu_fractionally() {
        let r = socket_ttcp(Transport::GigE, 2 * MB, 16 * 1024);
        assert!(r.mbytes_per_sec > 10.0, "{r:?}");
        let peak = r.sender_cpu.max(r.receiver_cpu);
        assert!(peak > 0.2, "host stack should burn real CPU: {r:?}");
        assert_eq!(r.retransmissions, 0);
    }
}
