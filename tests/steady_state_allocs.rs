//! The steady-state allocation budget of the QPIP DES event path: once
//! a two-node world is warm, a 1 KB message costs only the allocations
//! that carry bytes — the packets on the wire, the segment payload the
//! sender's TCB cuts from its send buffer, and the data delivered to
//! the receiver. Every container an event passes through (TCB segments
//! and events, engine emissions, NIC outputs, the event queue, the
//! completion queues) is reused, so it never allocates per message.
//!
//! This file is its own test binary so that it can install a counting
//! global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use qpip::world::QpipWorld;
use qpip_netstack::types::Endpoint;
use qpip_nic::{CompletionKind, CompletionStatus, NicConfig, RecvWr, SendWr, ServiceType};

thread_local! {
    // per thread, so the test harness's own threads do not count
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// System allocator that counts `alloc`, `alloc_zeroed` and `realloc`
/// calls made on the current thread.
struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches no
// allocator state and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees on `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees on `layout` pass through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System`; the caller's guarantees on
        // `layout` and `new_size` pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Messages in the measured region.
const MSGS: u64 = 256;

/// Allocations one message may cost, all of them bytes: three packets
/// (the receiver's window update for the posted receive, the data
/// segment, and its delayed ACK), the segment payload the sender cuts
/// from its send buffer, and the data delivered to the receiver.
const ALLOCS_PER_MSG: u64 = 5;

#[test]
fn warm_message_stream_allocates_only_bytes() {
    let mut w = QpipWorld::myrinet();
    let a = w.add_node(NicConfig::paper_default());
    let b = w.add_node(NicConfig::paper_default());
    let cqa = w.create_cq(a);
    let cqb = w.create_cq(b);
    let qa = w.create_qp(a, ServiceType::ReliableTcp, cqa, cqa).unwrap();
    let qb = w.create_qp(b, ServiceType::ReliableTcp, cqb, cqb).unwrap();
    w.post_recv(b, qb, RecvWr { wr_id: 0, capacity: 1024 }).unwrap();
    w.tcp_listen(b, 5000, qb).unwrap();
    let remote = Endpoint::new(w.addr(b), 5000);
    w.tcp_connect(a, qa, 4000, remote).unwrap();
    w.wait_matching(a, cqa, |c| c.kind == CompletionKind::ConnectionEstablished);
    w.wait_matching(b, cqb, |c| c.kind == CompletionKind::ConnectionEstablished);

    // one lockstep message: post the receive, send, wait for both ends
    let message = |w: &mut QpipWorld, i: u64, payload: Vec<u8>| {
        w.post_recv(b, qb, RecvWr { wr_id: 1 + i, capacity: 1024 }).unwrap();
        w.post_send(a, qa, SendWr { wr_id: i, payload, dst: None }).unwrap();
        let got = w.wait(b, cqb);
        assert!(matches!(&got.kind, CompletionKind::Recv { data, .. } if data.len() == 1024));
        let sent = w.wait(a, cqa);
        assert_eq!((sent.kind, sent.status), (CompletionKind::Send, CompletionStatus::Success));
    };
    // warm-up: every reused buffer reaches its working capacity
    for i in 0..64 {
        message(&mut w, i, vec![0x5a; 1024]);
    }
    // the payloads are the application's; build them before counting
    let payloads: Vec<Vec<u8>> = (0..MSGS).map(|i| vec![i as u8; 1024]).collect();
    let events = w.events_processed();
    let before = allocs();
    for (i, payload) in (64..).zip(payloads) {
        message(&mut w, i, payload);
    }
    let allocated = allocs() - before;
    let events = w.events_processed() - events;

    assert!(events >= 3 * MSGS, "{events} events for {MSGS} messages");
    assert!(
        allocated <= ALLOCS_PER_MSG * MSGS,
        "{allocated} allocations for {MSGS} messages ({:.2} per message, budget {ALLOCS_PER_MSG})",
        allocated as f64 / MSGS as f64
    );
}
