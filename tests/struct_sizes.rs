//! Size guards on the per-connection and per-node structs a DES run
//! holds by the thousand: a few bytes more in each multiply across a
//! 4,096-flow fan-in, and peak-RSS figures have moved with them through
//! glibc's dynamic mmap threshold. Growth must be a decision, not an
//! accident. The limits are today's sizes on 64-bit targets: a change
//! that shrinks a struct lowers its limit here.

#![cfg(target_pointer_width = "64")]

use std::mem::size_of;

use qpip::world::QpipNode;
use qpip_netstack::tcp::Tcb;
use qpip_nic::QpipNic;
use qpip_trace::TraceEvent;

#[test]
fn tcb_does_not_grow() {
    assert!(size_of::<Tcb>() <= 456, "Tcb is {} B", size_of::<Tcb>());
}

#[test]
fn qpip_nic_does_not_grow() {
    assert!(size_of::<QpipNic>() <= 1160, "QpipNic is {} B", size_of::<QpipNic>());
}

#[test]
fn qpip_node_does_not_grow() {
    assert!(size_of::<QpipNode>() <= 1288, "QpipNode is {} B", size_of::<QpipNode>());
}

#[test]
fn trace_event_does_not_grow() {
    // every recorder ring holds its capacity of these
    assert!(size_of::<TraceEvent>() <= 40, "TraceEvent is {} B", size_of::<TraceEvent>());
}
