//! Many-flow correctness: 256+ concurrent connections through one
//! engine pair under seeded loss and reordering. Every flow must
//! deliver its bytes exactly once and in order, every send token must
//! complete exactly once, and after all flows close the connection
//! slab, demux table, and timer index must all drain to empty — a
//! leaked timer or slab entry here means the O(1) index and the
//! connection table have fallen out of sync.

use std::collections::{HashMap, VecDeque};
use std::net::Ipv6Addr;
use std::sync::Arc;

use qpip_netstack::engine::Engine;
use qpip_netstack::tcp::TcpState;
use qpip_netstack::types::{ConnId, Emit, Endpoint, NetConfig, SendToken};
use qpip_sim::rng::SplitMix64;
use qpip_sim::time::{SimDuration, SimTime};
use qpip_trace::{FlightRecorder, TraceEvent, Tracer};

mod common;
use common::Collect;

const FLOWS: usize = 256;
const MSGS: usize = 2;
const BASE_PORT: u16 = 1024;

fn addr(n: u16) -> Ipv6Addr {
    Ipv6Addr::new(0xfc00, 0, 0, 0, 0, 0, 0, n)
}

/// A wire with seeded loss and adjacent-packet reordering between a
/// client engine (all flows originate here) and a server engine.
struct Net {
    a: Engine,
    b: Engine,
    now: SimTime,
    queue: VecDeque<(bool, qpip_wire::Packet)>,
    rng: SplitMix64,
    /// Server-side conn → flow index (from the accepted peer port).
    flow_of: HashMap<u32, usize>,
    /// Per-flow bytes delivered to the server.
    delivered: Vec<Vec<u8>>,
    /// Client-side send-completion tokens, in arrival order.
    completions: Vec<u64>,
    /// Shared flight recorder: client engine is node 0, server node 1.
    rec: Arc<FlightRecorder>,
}

impl Net {
    fn new(seed: u64) -> Self {
        let cfg = NetConfig::qpip(16 * 1024);
        let rec = Arc::new(FlightRecorder::new(4096));
        let mut a = Engine::new(cfg.clone(), addr(1));
        let mut b = Engine::new(cfg, addr(2));
        a.set_tracer(Tracer::new(Arc::clone(&rec), 0));
        b.set_tracer(Tracer::new(Arc::clone(&rec), 1));
        Net {
            a,
            b,
            now: SimTime::ZERO,
            queue: VecDeque::new(),
            rng: SplitMix64::new(seed),
            flow_of: HashMap::new(),
            delivered: vec![Vec::new(); FLOWS],
            completions: Vec::new(),
            rec,
        }
    }

    /// Absorbs what an engine emitted; delivered payload is copied out
    /// of `rx`, the packet the engine was handling (empty otherwise).
    fn absorb(&mut self, from_a: bool, emits: Vec<Emit>, rx: &[u8]) {
        for e in emits {
            match e {
                Emit::Packet(p) => {
                    // 2% loss; never enough consecutive drops on one
                    // segment to exhaust TCP's retry limit
                    if self.rng.chance(1, 50) {
                        continue;
                    }
                    self.queue.push_back((from_a, p.bytes));
                    // 12.5% chance the packet overtakes its predecessor
                    let n = self.queue.len();
                    if n >= 2 && self.rng.chance(1, 8) {
                        self.queue.swap(n - 1, n - 2);
                    }
                }
                Emit::TcpAccepted { conn, peer, .. } => {
                    assert!(!from_a, "only the server accepts");
                    let flow = (peer.port - BASE_PORT) as usize;
                    assert!(self.flow_of.insert(conn.0, flow).is_none(), "duplicate accept");
                }
                Emit::TcpDelivered { conn, at } => {
                    assert!(!from_a, "only the server receives data");
                    let flow = self.flow_of[&conn.0];
                    self.delivered[flow].extend_from_slice(&rx[at]);
                }
                Emit::TcpSendComplete { token, .. } => {
                    assert!(from_a, "only the client sends");
                    self.completions.push(token.0);
                }
                _ => {}
            }
        }
    }

    fn drain(&mut self) {
        while let Some((to_b, bytes)) = self.queue.pop_front() {
            self.now += SimDuration::from_micros(3);
            if to_b {
                let e = self.b.on_packet_vec(self.now, &bytes);
                self.absorb(false, e, &bytes);
            } else {
                let e = self.a.on_packet_vec(self.now, &bytes);
                self.absorb(true, e, &bytes);
            }
        }
        self.assert_table_invariants();
    }

    fn fire_timers(&mut self) -> bool {
        let next = [self.a.next_deadline(), self.b.next_deadline()].into_iter().flatten().min();
        let Some(d) = next else { return false };
        self.now = self.now.max(d);
        let ea = self.a.on_timer_vec(self.now);
        self.absorb(true, ea, &[]);
        let eb = self.b.on_timer_vec(self.now);
        self.absorb(false, eb, &[]);
        self.drain();
        true
    }

    /// The slab, demux table, and timer index must agree at all times.
    fn assert_table_invariants(&self) {
        for e in [&self.a, &self.b] {
            assert_eq!(e.demux_len(), e.conn_count(), "demux and slab out of sync");
            assert!(
                e.timer_index_len() <= e.conn_count(),
                "timer index holds more entries than live connections"
            );
        }
    }
}

#[test]
fn many_flows_survive_loss_and_reorder_then_drain() {
    let mut n = Net::new(0x9af1_4e57);
    n.b.tcp_listen(80).unwrap();

    // connect storm: every flow dials at once
    let mut conns = Vec::with_capacity(FLOWS);
    for i in 0..FLOWS {
        let (c, emits) =
            n.a.tcp_connect_vec(n.now, BASE_PORT + i as u16, Endpoint::new(addr(2), 80));
        conns.push(c);
        n.absorb(true, emits, &[]);
    }
    n.drain();
    for _ in 0..200 {
        let pending = conns.iter().any(|&c| n.a.conn_state(c) != Some(TcpState::Established));
        if !pending {
            break;
        }
        assert!(n.fire_timers(), "handshakes stalled with timers idle");
    }
    assert_eq!(n.a.conn_count(), FLOWS);
    assert_eq!(n.b.conn_count(), FLOWS);

    // each flow streams MSGS messages with flow-distinct contents
    let mut expected: Vec<Vec<u8>> = vec![Vec::new(); FLOWS];
    for (i, &c) in conns.iter().enumerate() {
        for m in 0..MSGS {
            let len = n.rng.range_usize(1, 3000);
            let payload = vec![(i * 31 + m * 7) as u8; len];
            expected[i].extend(&payload);
            let token = SendToken((i * MSGS + m) as u64);
            let emits = n.a.tcp_send_vec(n.now, c, payload, token).unwrap();
            n.absorb(true, emits, &[]);
        }
        // interleave flows on the wire rather than sending sequentially
        if i % 16 == 15 {
            n.drain();
        }
    }
    n.drain();

    let want_bytes: usize = expected.iter().map(Vec::len).sum();
    let mut rounds = 0;
    while n.delivered.iter().map(Vec::len).sum::<usize>() < want_bytes && rounds < 3000 {
        rounds += 1;
        assert!(n.fire_timers(), "transfer stalled with timers idle");
    }

    // exactly-once, in-order delivery per flow
    for (i, want) in expected.iter().enumerate() {
        assert_eq!(&n.delivered[i], want, "flow {i} bytes mangled");
    }
    // every token completed exactly once
    let mut tokens = n.completions.clone();
    tokens.sort_unstable();
    let all: Vec<u64> = (0..(FLOWS * MSGS) as u64).collect();
    assert_eq!(tokens, all, "send completions must arrive exactly once each");

    // teardown: close both halves of every flow, then let timers quiesce
    for &c in &conns {
        let emits = n.a.tcp_close_vec(n.now, c).unwrap();
        n.absorb(true, emits, &[]);
    }
    n.drain();
    let server_conns: Vec<u32> = n.flow_of.keys().copied().collect();
    for c in server_conns {
        let emits = n.b.tcp_close_vec(n.now, ConnId(c)).unwrap();
        n.absorb(false, emits, &[]);
    }
    n.drain();
    let mut rounds = 0;
    while n.fire_timers() {
        rounds += 1;
        assert!(rounds < 5000, "timers never quiesced after close");
    }

    // the tables must drain completely: no leaked conns, demux
    // entries, or timer-index slots
    assert_eq!(n.a.conn_count(), 0, "client connections leaked");
    assert_eq!(n.b.conn_count(), 0, "server connections leaked");
    assert_eq!(n.a.demux_len(), 0);
    assert_eq!(n.b.demux_len(), 0);
    assert_eq!(n.a.timer_index_len(), 0, "client timer index not empty");
    assert_eq!(n.b.timer_index_len(), 0, "server timer index not empty");
    assert_eq!(n.a.next_deadline(), None);
    assert_eq!(n.b.next_deadline(), None);

    // recovery-path counters must equal the traced event counts: the
    // flight recorder and EngineStats are two views of one history.
    // Exactness needs every event retained — verify no ring overwrote.
    for (node, conn) in n.rec.scopes() {
        assert_eq!(n.rec.overwritten(node, conn), 0, "ring ({node},{conn}) overwrote events");
    }
    let events = n.rec.events();
    let count = |node: u32, pred: &dyn Fn(&TraceEvent) -> bool| {
        events.iter().filter(|r| r.node == node && pred(&r.ev)).count() as u64
    };
    for (node, stats) in [(0u32, n.a.stats()), (1u32, n.b.stats())] {
        assert_eq!(
            stats.tcp.rto_retransmits,
            count(node, &|ev| matches!(ev, TraceEvent::Retransmit { fast: false, .. })),
            "node {node}: rto_retransmits vs traced RTO retransmit events"
        );
        assert_eq!(
            stats.tcp.fast_retransmits,
            count(node, &|ev| matches!(ev, TraceEvent::Retransmit { fast: true, .. })),
            "node {node}: fast_retransmits vs traced fast-retransmit events"
        );
        assert_eq!(
            stats.tcp.dupacks_rx,
            count(node, &|ev| matches!(ev, TraceEvent::DupAck { .. })),
            "node {node}: dupacks_rx vs traced dupack events"
        );
        assert_eq!(
            stats.tcp.zero_window_events,
            count(node, &|ev| matches!(ev, TraceEvent::ZeroWindow)),
            "node {node}: zero_window_events vs traced zero-window events"
        );
    }
    // under 2% loss the client must actually have retransmitted — the
    // counters are proven non-vacuous
    let a_stats = n.a.stats();
    assert!(
        a_stats.tcp.rto_retransmits + a_stats.tcp.fast_retransmits > 0,
        "2% loss over {FLOWS} flows must force at least one retransmit"
    );
}
