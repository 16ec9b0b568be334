//! The steady-state allocation budget of the QPIP event path, on the DES
//! and on live sockets alike: once a two-node pair is warm, a 1 KB
//! message costs only the allocations that carry bytes — the packets on
//! the wire, whose payload the engine reads straight from the sender's
//! send buffer, and the data delivered to the receiver, copied once out
//! of the packet that brought it. Every container an event passes
//! through (TCB segments and events, engine emissions, NIC outputs, the
//! event queue, the completion queues) is reused, so it never allocates
//! per message.
//!
//! The codec underneath keeps the same budget per packet: building one
//! allocates only the headroom `Packet` that carries it, and decoding
//! borrows the payload in place. The host socket path of the Fig. 7 NBD
//! run holds a 64 KB block in three buffers: the socket's send buffer,
//! the packets, and the reader's buffer, each time it crosses the wire.
//!
//! This file is its own test binary so that it can install a counting
//! global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use std::net::Ipv6Addr;

use qpip::world::QpipWorld;
use qpip_bench::workloads::verbs::End::{A, B};
use qpip_bench::workloads::verbs::{wait_for, LivePair, VerbsPair};
use qpip_nbd::socket_impl::{self, Transport};
use qpip_nbd::NbdConfig;
use qpip_netstack::codec::{build_tcp_packet, build_udp_packet, decode_packet, Decoded};
use qpip_netstack::tcp::{SegPayload, SegmentOut};
use qpip_netstack::types::{Endpoint, PacketKind};
use qpip_nic::{CompletionKind, CompletionStatus, NicConfig, RecvWr, SendWr, ServiceType};
use qpip_wire::packet::HEADROOM;
use qpip_wire::tcp::{SeqNum, TcpFlags, TcpOptions};

thread_local! {
    // per thread, so the test harness's own threads do not count
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

fn bytes() -> u64 {
    BYTES.with(Cell::get)
}

/// System allocator that counts `alloc`, `alloc_zeroed` and `realloc`
/// calls made on the current thread, and the bytes they ask for (a
/// `realloc` counts its new size).
struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches no
// allocator state and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's guarantees on `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's guarantees on `layout` pass through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from `System`; the caller's guarantees on
        // `layout` and `new_size` pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Messages in the measured region.
const MSGS: u64 = 256;

/// Size of each message.
const MSG: usize = 1024;

/// Allocations one message may cost, all of them bytes: three packets
/// (the receiver's window update for the posted receive, the data
/// segment, and its delayed ACK) and the data delivered to the
/// receiver.
const ALLOCS_PER_MSG: u64 = 4;

/// Bytes those allocations may ask for: each packet's headroom, and the
/// payload twice, in the data packet and in the delivered copy.
const BYTES_PER_MSG: u64 = 3 * HEADROOM as u64 + 2 * MSG as u64;

/// Runs `message` for 64 warm-up messages and then for [`MSGS`]
/// measured ones, numbered from 64, each with a fresh payload built
/// before counting starts (the payloads are the application's), and
/// returns the allocations and bytes the measured ones made.
fn measure(mut message: impl FnMut(u64, Vec<u8>)) -> (u64, u64) {
    // warm-up: every reused buffer reaches its working capacity
    for i in 0..64 {
        message(i, vec![0x5a; MSG]);
    }
    let payloads: Vec<Vec<u8>> = (0..MSGS).map(|i| vec![i as u8; MSG]).collect();
    let (before, bytes_before) = (allocs(), bytes());
    for (i, payload) in (64..).zip(payloads) {
        message(i, payload);
    }
    (allocs() - before, bytes() - bytes_before)
}

/// Asserts the per-message budgets.
fn assert_budget(what: &str, (allocated, bytes): (u64, u64)) {
    let per = |n: u64| n as f64 / MSGS as f64;
    assert!(
        allocated <= ALLOCS_PER_MSG * MSGS,
        "{what}: {allocated} allocations for {MSGS} messages ({:.2} per message, budget {ALLOCS_PER_MSG})",
        per(allocated)
    );
    assert!(
        bytes <= BYTES_PER_MSG * MSGS,
        "{what}: {bytes} bytes allocated for {MSGS} messages ({:.1} per message, budget {BYTES_PER_MSG})",
        per(bytes)
    );
}

#[test]
fn warm_message_stream_allocates_only_bytes() {
    let mut w = QpipWorld::myrinet();
    let a = w.add_node(NicConfig::paper_default());
    let b = w.add_node(NicConfig::paper_default());
    let cqa = w.create_cq(a);
    let cqb = w.create_cq(b);
    let qa = w.create_qp(a, ServiceType::ReliableTcp, cqa, cqa).unwrap();
    let qb = w.create_qp(b, ServiceType::ReliableTcp, cqb, cqb).unwrap();
    w.post_recv(b, qb, RecvWr { wr_id: 0, capacity: MSG }).unwrap();
    w.tcp_listen(b, 5000, qb).unwrap();
    let remote = Endpoint::new(w.addr(b), 5000);
    w.tcp_connect(a, qa, 4000, remote).unwrap();
    w.wait_matching(a, cqa, |c| c.kind == CompletionKind::ConnectionEstablished);
    w.wait_matching(b, cqb, |c| c.kind == CompletionKind::ConnectionEstablished);

    // one lockstep message: post the receive, send, wait for both ends
    let mut events = 0;
    let counts = measure(|i, payload| {
        let before = w.events_processed();
        w.post_recv(b, qb, RecvWr { wr_id: 1 + i, capacity: MSG }).unwrap();
        w.post_send(a, qa, SendWr { wr_id: i, payload, dst: None }).unwrap();
        let got = w.wait(b, cqb);
        assert!(matches!(&got.kind, CompletionKind::Recv { data, .. } if data.len() == MSG));
        let sent = w.wait(a, cqa);
        assert_eq!((sent.kind, sent.status), (CompletionKind::Send, CompletionStatus::Success));
        if i >= 64 {
            events += w.events_processed() - before;
        }
    });
    assert!(events >= 3 * MSGS, "{events} events for {MSGS} messages");
    assert_budget("DES pair", counts);
}

/// The same message stream between two live nodes on loopback sockets
/// keeps the same budget: the node receives into one reused buffer and
/// sends the packet the NIC hands it.
#[test]
fn warm_live_message_stream_allocates_only_bytes() {
    let mut p = LivePair::direct();
    let cqa = p.create_cq(A);
    let cqb = p.create_cq(B);
    let qa = p.create_qp(A, ServiceType::ReliableTcp, cqa, cqa);
    let qb = p.create_qp(B, ServiceType::ReliableTcp, cqb, cqb);
    p.post_recv(B, qb, RecvWr { wr_id: 0, capacity: MSG });
    p.tcp_listen(B, qb, 5000);
    p.tcp_connect(A, qa, 4000, 5000);
    wait_for(&mut p, A, cqa, |c| c.kind == CompletionKind::ConnectionEstablished);
    wait_for(&mut p, B, cqb, |c| c.kind == CompletionKind::ConnectionEstablished);
    let counts = measure(|i, payload| {
        p.post_recv(B, qb, RecvWr { wr_id: 1 + i, capacity: MSG });
        p.post_send(A, qa, SendWr { wr_id: i, payload, dst: None });
        let got = p.wait(B, cqb);
        assert!(matches!(&got.kind, CompletionKind::Recv { data, .. } if data.len() == MSG));
        let sent = wait_for(&mut p, A, cqa, |c| c.kind == CompletionKind::Send);
        assert_eq!(sent.status, CompletionStatus::Success);
    });
    assert_budget("live pair", counts);
}

/// Bytes one 64 KB block of the Fig. 7 NBD run over host sockets may
/// allocate. The block crosses the wire twice, written and then read
/// back, and each time it is held in three buffers (the socket's send
/// buffer, the packets, and the reader's buffer), plus 32 KB for packet
/// headers, the request and reply, and ACKs.
const BYTES_PER_SOCKET_BLOCK: u64 = 2 * (3 * 64 * 1024 + 32 * 1024);

#[test]
fn socket_nbd_block_allocates_three_copies() {
    for t in [Transport::GigE, Transport::GmMyrinet] {
        let run = |blocks: u64| {
            let cfg =
                NbdConfig { total_bytes: blocks * 64 * 1024, block: 64 * 1024, queue_depth: 4 };
            let before = bytes();
            let _ = socket_impl::run(t, cfg);
            bytes() - before
        };
        // the difference of two runs leaves out the set-up and the
        // buffers' growth to their working capacity
        let per_block = (run(48) - run(16)) / 32;
        assert!(
            per_block <= BYTES_PER_SOCKET_BLOCK,
            "{t:?}: {per_block} bytes allocated per block, budget {BYTES_PER_SOCKET_BLOCK}"
        );
    }
}

/// Allocations `f` makes on this thread, and its result.
fn counted<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = allocs();
    let r = f();
    (allocs() - before, r)
}

#[test]
fn codec_allocates_one_packet_and_decodes_in_place() {
    let src = Endpoint::new(Ipv6Addr::new(0xfc00, 0, 0, 0, 0, 0, 0, 1), 9);
    let dst = Endpoint::new(Ipv6Addr::new(0xfc00, 0, 0, 0, 0, 0, 0, 2), 10);
    for size in [64usize, 1460, 8928] {
        let payload = vec![0x42; size];
        let seg = SegmentOut {
            seq: SeqNum(0x1000),
            ack: SeqNum(0x2000),
            flags: TcpFlags { ack: true, psh: true, ..TcpFlags::NONE },
            window: 32_000,
            options: TcpOptions { timestamps: Some((7, 9)), ..TcpOptions::default() },
            payload: SegPayload::Buffered(size as u32),
            kind: PacketKind::TcpData,
            is_retransmit: false,
            ect: false,
        };

        let (n, pkt) =
            counted(|| build_tcp_packet(src, dst, &seg, |p| p.extend_from_slice(&payload)));
        assert_eq!(n, 1, "build_tcp_packet({size} B) made {n} allocations");
        let (n, decoded) = counted(|| decode_packet(&pkt));
        assert_eq!(n, 0, "decode_packet(TCP, {size} B) made {n} allocations");
        assert!(matches!(decoded, Ok(Decoded::Tcp { payload: p, .. }) if p == &payload[..]));

        let (n, pkt) = counted(|| build_udp_packet(src, dst, &payload));
        assert_eq!(n, 1, "build_udp_packet({size} B) made {n} allocations");
        let (n, decoded) = counted(|| decode_packet(&pkt));
        assert_eq!(n, 0, "decode_packet(UDP, {size} B) made {n} allocations");
        assert!(matches!(decoded, Ok(Decoded::Udp { payload: p, .. }) if p == &payload[..]));
    }
}
