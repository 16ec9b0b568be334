//! Flight recorder: structured, allocation-light event tracing plus a
//! unified counter-snapshot API for every QPIP layer.
//!
//! The paper's whole evaluation is an instrumentation exercise (Tables
//! 1–3, Figures 3–7); this crate gives the reproduction the same
//! introspection at event granularity. Three pieces:
//!
//! 1. **[`Tracer`]** — layers hold an `Option<Tracer>` and emit typed
//!    [`TraceEvent`]s through it. `None` (the default everywhere) costs
//!    one branch on the datapath. Timestamps are [`SimTime`]: picosecond
//!    simulated time in the DES worlds (same seed ⇒ byte-identical
//!    trace) and `WallClock`-mapped time in `qpip-xport`.
//! 2. **[`FlightRecorder`]** — a per-connection ring buffer (fixed
//!    capacity, overwrite-oldest) keyed by `(node, conn)`, with
//!    [`NODE_SCOPE`] for events that belong to a node rather than a
//!    connection (firmware FSM charges, fabric drops, socket I/O).
//! 3. **[`Snapshot`]** — named `(str, u64)` counter pairs; every stats
//!    struct in the workspace is a record declared with [`counters!`],
//!    which renders it through one of these so `bench/report.rs` can
//!    emit a `counters` section generically.
//!
//! Exports live in [`export`]: JSONL (one flat object per event),
//! a tcpdump-style one-line dump, and a tcptrace-style per-connection
//! summary — all also reachable through the `qpip-trace` CLI.

pub mod export;
pub mod snapshot;

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex};

use qpip_sim::time::SimTime;

pub use snapshot::Snapshot;

/// `conn` value for events scoped to a node rather than a connection
/// (firmware FSM transitions, fabric drops, raw socket I/O).
pub const NODE_SCOPE: u32 = u32::MAX;

/// One typed trace event. String fields are `&'static str` so that
/// recording never allocates; numeric fields are the wire-visible
/// values (sequence numbers as raw `u32`, windows in bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// TCP state machine transition.
    TcpState {
        /// State left.
        from: &'static str,
        /// State entered.
        to: &'static str,
    },
    /// Segment handed to the wire.
    SegTx {
        /// Sequence number.
        seq: u32,
        /// Acknowledgment number.
        ack: u32,
        /// Payload bytes.
        len: u32,
        /// Advertised window.
        wnd: u32,
        /// Flag bits ([`flags`]).
        flags: u8,
        /// Whether this segment is a retransmission.
        retransmit: bool,
    },
    /// Segment accepted from the wire.
    SegRx {
        /// Sequence number.
        seq: u32,
        /// Acknowledgment number.
        ack: u32,
        /// Payload bytes.
        len: u32,
        /// Advertised window.
        wnd: u32,
        /// Flag bits ([`flags`]).
        flags: u8,
    },
    /// A retransmission was triggered (`fast` distinguishes the
    /// third-dup-ACK path from RTO expiry).
    Retransmit {
        /// First sequence number retransmitted.
        seq: u32,
        /// Fast retransmit (vs RTO).
        fast: bool,
    },
    /// A duplicate ACK was received.
    DupAck {
        /// The duplicated acknowledgment number.
        ack: u32,
        /// Consecutive duplicates seen so far.
        count: u32,
    },
    /// Connection timer armed (or re-armed to a new deadline).
    TimerArm {
        /// Absolute deadline.
        deadline: SimTime,
    },
    /// Connection timer cancelled.
    TimerCancel,
    /// Connection timer fired.
    TimerFire,
    /// Congestion window or slow-start threshold changed.
    CwndChange {
        /// New congestion window (bytes).
        cwnd: u32,
        /// New slow-start threshold (bytes).
        ssthresh: u32,
        /// What moved it: "ack", "dup_ack", "rto", "ecn".
        reason: &'static str,
    },
    /// An RTT measurement was folded into the estimator.
    RttSample {
        /// The raw sample, microseconds.
        rtt_us: u64,
        /// Smoothed RTT after the sample, microseconds.
        srtt_us: u64,
        /// Retransmission timeout after the sample, microseconds.
        rto_us: u64,
    },
    /// Peer advertised a zero window (transition into zero).
    ZeroWindow,
    /// A pure window update: every change of the posted receive space
    /// announces the window again, in the DES and on live sockets alike.
    WindowRefresh {
        /// Window field advertised (scaled down for the wire).
        wnd: u32,
    },
    /// A firmware stage held the NIC processor: one
    /// `CostModel::charge` in `qpip-nic`, the sample Tables 2 and 3
    /// are folded from.
    FwFsm {
        /// Stage (`Stage::trace_name`): "doorbell", "schedule",
        /// "get_wr", "get_data", "build_tcp_hdr", "build_udp_hdr",
        /// "build_ip_hdr", "fw_checksum", "media_xmt", "wr_status_tx",
        /// "media_rcv", "ip_parse", "tcp_parse", "udp_parse",
        /// "put_data" or "wr_status_rx".
        stage: &'static str,
        /// Packet class (`PacketClass::trace_name`): "data_send",
        /// "ack_send", "data_recv", "ack_recv", "udp_send", "udp_recv"
        /// or "control".
        class: &'static str,
        /// NIC-processor cycles charged.
        cycles: u32,
    },
    /// The fabric dropped a packet.
    FabricDrop {
        /// Drop reason: "too_large", "no_route", "injected".
        reason: &'static str,
        /// Packet length, bytes.
        len: u32,
    },
    /// Live-socket operation (qpip-xport).
    Sock {
        /// "tx" or "rx".
        op: &'static str,
        /// Datagram length, bytes.
        bytes: u32,
    },
}

/// TCP flag bits used in [`TraceEvent::SegTx`]/[`TraceEvent::SegRx`],
/// matching the wire header order.
pub mod flags {
    /// FIN.
    pub const FIN: u8 = 0x01;
    /// SYN.
    pub const SYN: u8 = 0x02;
    /// RST.
    pub const RST: u8 = 0x04;
    /// PSH.
    pub const PSH: u8 = 0x08;
    /// ACK.
    pub const ACK: u8 = 0x10;
}

/// A recorded event: global arrival index, timestamp, scope, payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rec {
    /// Global monotone arrival index (stable export order).
    pub index: u64,
    /// Timestamp.
    pub t: SimTime,
    /// Node scope.
    pub node: u32,
    /// Connection scope ([`NODE_SCOPE`] for node-level events).
    pub conn: u32,
    /// The event.
    pub ev: TraceEvent,
}

struct Ring {
    events: VecDeque<Rec>,
    /// Events evicted by the overwrite-oldest policy.
    overwritten: u64,
}

struct Inner {
    capacity: usize,
    next_index: u64,
    /// `(node, conn)` → ring. BTreeMap so iteration (and therefore
    /// every export) is deterministically ordered.
    rings: BTreeMap<(u32, u32), Ring>,
}

/// Per-connection ring-buffer flight recorder.
///
/// Fixed capacity per `(node, conn)` ring; when a ring fills, the
/// oldest event is overwritten (and counted), so after an incident the
/// *last* `capacity` events per connection are always available — the
/// property the `wait()` deadlock dump relies on. Interior mutability
/// via a `Mutex` lets one `Arc<FlightRecorder>` serve every layer of a
/// single-threaded DES world and both threads of a live-socket pair.
pub struct FlightRecorder {
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().expect("recorder lock");
        f.debug_struct("FlightRecorder")
            .field("capacity", &inner.capacity)
            .field("rings", &inner.rings.len())
            .field("events", &inner.next_index)
            .finish()
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new(1024)
    }
}

impl FlightRecorder {
    /// Creates a recorder holding up to `capacity` events per
    /// connection (and per node for [`NODE_SCOPE`] events).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        FlightRecorder {
            inner: Mutex::new(Inner { capacity, next_index: 0, rings: BTreeMap::new() }),
        }
    }

    /// All recorded events in arrival order.
    pub fn events(&self) -> Vec<Rec> {
        let inner = self.inner.lock().expect("recorder lock");
        let mut out: Vec<Rec> =
            inner.rings.values().flat_map(|r| r.events.iter().copied()).collect();
        out.sort_unstable_by_key(|r| r.index);
        out
    }

    /// The last `n` events of one `(node, conn)` ring, oldest first.
    pub fn last_events(&self, node: u32, conn: u32, n: usize) -> Vec<Rec> {
        let inner = self.inner.lock().expect("recorder lock");
        match inner.rings.get(&(node, conn)) {
            Some(r) => {
                let skip = r.events.len().saturating_sub(n);
                r.events.iter().skip(skip).copied().collect()
            }
            None => Vec::new(),
        }
    }

    /// Every `(node, conn)` scope with at least one recorded event,
    /// in deterministic order.
    pub fn scopes(&self) -> Vec<(u32, u32)> {
        self.inner.lock().expect("recorder lock").rings.keys().copied().collect()
    }

    /// Events evicted from one ring by the overwrite-oldest policy.
    pub fn overwritten(&self, node: u32, conn: u32) -> u64 {
        let inner = self.inner.lock().expect("recorder lock");
        inner.rings.get(&(node, conn)).map_or(0, |r| r.overwritten)
    }

    /// Total events ever recorded (including overwritten ones).
    pub fn total_recorded(&self) -> u64 {
        self.inner.lock().expect("recorder lock").next_index
    }

    /// Exports every surviving event as JSONL, one flat object per
    /// line, in arrival order. Deterministic: identical event
    /// sequences produce identical bytes.
    pub fn export_jsonl(&self) -> String {
        export::to_jsonl(&self.events())
    }

    /// Records one event in the `(node, conn)` ring.
    pub fn record(&self, t: SimTime, node: u32, conn: u32, ev: TraceEvent) {
        let mut inner = self.inner.lock().expect("recorder lock");
        let index = inner.next_index;
        inner.next_index += 1;
        let capacity = inner.capacity;
        let ring = inner
            .rings
            .entry((node, conn))
            .or_insert_with(|| Ring { events: VecDeque::with_capacity(capacity), overwritten: 0 });
        if ring.events.len() == capacity {
            ring.events.pop_front();
            ring.overwritten += 1;
        }
        ring.events.push_back(Rec { index, t, node, conn, ev });
    }
}

/// A node-scoped handle on a shared [`FlightRecorder`]: layers store
/// `Option<Tracer>` and call [`Tracer::emit`]; the `None` check is the
/// entire disabled-path cost.
#[derive(Debug, Clone)]
pub struct Tracer {
    recorder: Arc<FlightRecorder>,
    node: u32,
}

impl Tracer {
    /// Scopes `recorder` to `node`.
    pub fn new(recorder: Arc<FlightRecorder>, node: u32) -> Self {
        Tracer { recorder, node }
    }

    /// The node this handle stamps on every event.
    pub fn node(&self) -> u32 {
        self.node
    }

    /// The shared recorder.
    pub fn recorder(&self) -> &Arc<FlightRecorder> {
        &self.recorder
    }

    /// Records a connection-scoped event.
    #[inline]
    pub fn emit(&self, t: SimTime, conn: u32, ev: TraceEvent) {
        self.recorder.record(t, self.node, conn, ev);
    }

    /// Records a node-scoped event.
    #[inline]
    pub fn emit_node(&self, t: SimTime, ev: TraceEvent) {
        self.recorder.record(t, self.node, NODE_SCOPE, ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u32) -> TraceEvent {
        TraceEvent::SegTx { seq, ack: 0, len: 1, wnd: 100, flags: flags::ACK, retransmit: false }
    }

    #[test]
    fn ring_overwrites_oldest() {
        let rec = FlightRecorder::new(3);
        for i in 0..5u32 {
            rec.record(SimTime::from_micros(u64::from(i)), 0, 7, ev(i));
        }
        let evs = rec.last_events(0, 7, 10);
        assert_eq!(evs.len(), 3);
        let seqs: Vec<u32> = evs
            .iter()
            .map(|r| match r.ev {
                TraceEvent::SegTx { seq, .. } => seq,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(seqs, [2, 3, 4], "oldest two must be evicted");
        assert_eq!(rec.overwritten(0, 7), 2);
        assert_eq!(rec.total_recorded(), 5);
    }

    #[test]
    fn scopes_are_deterministically_ordered() {
        let rec = FlightRecorder::new(4);
        rec.record(SimTime::ZERO, 1, 5, ev(0));
        rec.record(SimTime::ZERO, 0, 9, ev(1));
        rec.record(SimTime::ZERO, 0, 2, ev(2));
        assert_eq!(rec.scopes(), [(0, 2), (0, 9), (1, 5)]);
    }

    #[test]
    fn events_interleave_rings_in_arrival_order() {
        let rec = FlightRecorder::new(4);
        rec.record(SimTime::from_micros(1), 0, 1, ev(10));
        rec.record(SimTime::from_micros(2), 0, 2, ev(20));
        rec.record(SimTime::from_micros(3), 0, 1, ev(30));
        let idx: Vec<u64> = rec.events().iter().map(|r| r.index).collect();
        assert_eq!(idx, [0, 1, 2]);
    }

    #[test]
    fn tracer_stamps_node_and_scope() {
        let rec = Arc::new(FlightRecorder::new(8));
        let tr = Tracer::new(Arc::clone(&rec), 3);
        tr.emit(SimTime::ZERO, 1, ev(0));
        tr.emit_node(SimTime::ZERO, TraceEvent::Sock { op: "tx", bytes: 64 });
        assert_eq!(rec.scopes(), [(3, 1), (3, NODE_SCOPE)]);
    }
}
