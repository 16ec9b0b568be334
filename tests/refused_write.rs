//! The refused-write contract of the socket baseline: a `try_send` that
//! the full send buffer refuses charges its one syscall and does nothing
//! else — no bytes buffered, no frames, no app-clock movement and no
//! heap allocation, since the modeled kernel copies nothing either.
//!
//! This file is its own test binary so that it can install a counting
//! global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use qpip::baseline::SocketWorld;
use qpip_host::cpu::WorkClass;
use qpip_host::stack::StackConfig;
use qpip_netstack::types::Endpoint;
use qpip_sim::params;

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

#[test]
fn refused_try_send_charges_one_syscall_and_copies_nothing() {
    let mut w = SocketWorld::gige();
    let a = w.add_node(StackConfig::gige());
    let b = w.add_node(StackConfig::gige());
    let ls = w.tcp_socket(b);
    w.listen(b, ls, 5000).unwrap();
    let cs = w.tcp_socket(a);
    let remote = Endpoint::new(w.addr(b), 5000);
    w.connect_blocking(a, cs, 4000, remote).unwrap();
    let _ss = w.accept_blocking(b, ls);

    // fill the send buffer without letting the wire run
    let piece = vec![0x42u8; 16 * 1024];
    let mut accepted = 0;
    while w.try_send(a, cs, &piece).unwrap() {
        accepted += 1;
        assert!(accepted <= 64, "send buffer never filled");
    }

    let buffered = w.stack(a).buffered(cs);
    let tx_packets = w.engine_stats(a).tx_packets;
    let delivered = w.fabric().stats().delivered;
    let app_time = w.app_time(a);
    let syscall = w.cpu(a).cycles(WorkClass::Syscall);
    let total = w.cpu(a).total_cycles();

    let before = allocs();
    let refused = w.try_send(a, cs, &piece).unwrap();
    let allocated = allocs() - before;

    assert!(!refused, "a full send buffer accepted another piece");
    assert_eq!(allocated, 0, "the refused write allocated");
    assert_eq!(w.stack(a).buffered(cs), buffered);
    assert_eq!(w.engine_stats(a).tx_packets, tx_packets);
    assert_eq!(w.fabric().stats().delivered, delivered);
    assert_eq!(w.app_time(a), app_time);
    assert_eq!(w.cpu(a).cycles(WorkClass::Syscall) - syscall, params::HOST_SYSCALL_CYCLES);
    assert_eq!(w.cpu(a).total_cycles() - total, params::HOST_SYSCALL_CYCLES);

    // once the wire drains, the same slice goes in
    w.run_until_idle();
    assert!(w.try_send(a, cs, &piece).unwrap(), "the drained buffer refused the piece");
    assert_eq!(w.stack(a).buffered(cs), piece.len() as u64);
}
