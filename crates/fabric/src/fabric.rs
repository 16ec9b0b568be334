//! The switched system-area-network model.
//!
//! Two fabrics are provided, matching the paper's testbed (§4.1–§4.2):
//!
//! * **Myrinet**: 2.0 Gb/s full-duplex links into a crossbar using
//!   source-based, oblivious *cut-through* routing — the head of a
//!   packet leaves the switch after only the route byte is consumed, so
//!   serialization is paid once end-to-end.
//! * **Gigabit Ethernet**: 1 Gb/s links into a *store-and-forward*
//!   switch — the frame is fully received before it is forwarded, so
//!   serialization is paid per hop, plus per-frame preamble/IFG overhead.
//!
//! The fabric is analytic: given a send instant it computes the arrival
//! instant from link occupancy ([`BandwidthPipe`]) and latencies, so the
//! caller schedules exactly one delivery event per packet. Contention,
//! pipelining and head-of-line blocking all emerge from the pipes.

use std::net::Ipv6Addr;
use std::sync::Arc;

use qpip_sim::hash::FxHashMap;
use qpip_sim::params;
use qpip_sim::resource::BandwidthPipe;
use qpip_sim::time::{SimDuration, SimTime};
use qpip_trace::{FlightRecorder, Snapshot, TraceEvent, TraceSink, NODE_SCOPE};

/// Identifies one attached node (one NIC port on the fabric).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// How the switch forwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Switching {
    /// Myrinet-style cut-through: forwarding begins as soon as the route
    /// byte arrives.
    CutThrough,
    /// Ethernet-style store-and-forward: the whole frame is buffered.
    StoreAndForward,
}

/// Fixed characteristics of a fabric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FabricConfig {
    /// Link rate in bytes per second (each direction of each link).
    pub bytes_per_sec: u64,
    /// Switch forwarding behaviour.
    pub switching: Switching,
    /// Switch forwarding latency per hop.
    pub switch_latency: SimDuration,
    /// Cable propagation per link traversal.
    pub cable_latency: SimDuration,
    /// Largest IP packet the fabric accepts (link overhead excluded).
    pub mtu: usize,
    /// Link-layer overhead bytes serialized per packet (framing,
    /// preamble, route bytes, CRC, inter-frame gap equivalent).
    pub frame_overhead: usize,
    /// RED/ECN in the switch (§5.2: inter-network protocols admit
    /// "network-based mechanisms such as RED or ECN" in the SAN fabric):
    /// when a packet's queueing delay at the output port exceeds this
    /// threshold, the switch marks it Congestion-Experienced instead of
    /// dropping. `None` disables marking.
    pub ecn_mark_threshold: Option<SimDuration>,
}

impl FabricConfig {
    /// The paper's Myrinet SAN (§4.1): 2 Gb/s, cut-through, arbitrary
    /// MTU — we default to the QPIP native 16 KB (§4.2.1) but any value
    /// can be set afterwards.
    pub fn myrinet() -> Self {
        FabricConfig {
            bytes_per_sec: params::MYRINET_BYTES_PER_SEC,
            switching: Switching::CutThrough,
            switch_latency: SimDuration::from_nanos(params::MYRINET_SWITCH_LATENCY_NS),
            cable_latency: SimDuration::from_nanos(params::MYRINET_CABLE_LATENCY_NS),
            mtu: params::QPIP_NATIVE_MTU,
            frame_overhead: params::MYRINET_LINK_OVERHEAD_BYTES,
            ecn_mark_threshold: None,
        }
    }

    /// The paper's Gigabit Ethernet baseline (§4.2.1): 1 Gb/s,
    /// store-and-forward, 1500-byte MTU.
    pub fn gigabit_ethernet() -> Self {
        FabricConfig {
            bytes_per_sec: params::GIGE_BYTES_PER_SEC,
            switching: Switching::StoreAndForward,
            switch_latency: SimDuration::from_nanos(params::GIGE_SWITCH_LATENCY_NS),
            cable_latency: SimDuration::from_nanos(params::GIGE_CABLE_LATENCY_NS),
            mtu: params::GIGE_MTU,
            frame_overhead: params::GIGE_FRAME_OVERHEAD_BYTES,
            ecn_mark_threshold: None,
        }
    }

    /// Myrinet carrying IP at the GM jumbo MTU (the IP-over-Myrinet
    /// baseline, §4.2.1).
    pub fn myrinet_gm() -> Self {
        FabricConfig { mtu: params::GM_MTU, ..FabricConfig::myrinet() }
    }
}

/// Why a packet did not arrive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// Larger than the fabric MTU.
    TooLarge {
        /// Packet length offered.
        len: usize,
        /// Fabric MTU.
        mtu: usize,
    },
    /// No node with that address is attached.
    NoRoute,
}

/// The outcome of a transmit call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransmitOutcome {
    /// The last byte arrives at `to` at instant `at`.
    Delivered {
        /// Destination node.
        to: NodeId,
        /// Arrival instant of the packet's last byte.
        at: SimTime,
        /// The switch's RED/ECN queue marked this packet
        /// Congestion-Experienced (the caller rewrites the ECN bits).
        marked: bool,
    },
    /// The packet is gone; the caller schedules nothing.
    Dropped(DropReason),
}

/// Aggregate fabric counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct FabricStats {
    /// Packets delivered.
    pub delivered: u64,
    /// Packets dropped (any reason).
    pub dropped: u64,
    /// Payload bytes delivered (excluding frame overhead).
    pub bytes: u64,
}

impl FabricStats {
    /// Renders the counters as a named snapshot (scope `"fabric"`).
    pub fn snapshot(&self) -> Snapshot {
        let mut s = Snapshot::new("fabric");
        s.push("delivered", self.delivered).push("dropped", self.dropped).push("bytes", self.bytes);
        s
    }
}

/// A switched system area network: one or more switches in a linear
/// chain, each with directly attached nodes.
///
/// The paper's two-server testbed is the single-switch (star) case —
/// [`Fabric::new`]. [`Fabric::with_switches`] builds a chain of
/// switches joined by full-duplex trunk links (Myrinet's source routes
/// name one output port per hop), so multi-hop latency and trunk
/// contention can be studied.
#[derive(Debug)]
pub struct Fabric {
    cfg: FabricConfig,
    /// Per node: uplink (node→switch) and downlink (switch→node).
    uplinks: Vec<BandwidthPipe>,
    downlinks: Vec<BandwidthPipe>,
    /// Which switch each node hangs off (always 0 in the star case).
    node_switch: Vec<usize>,
    /// Inter-switch trunks: `trunks[d][i]` carries traffic from switch
    /// `i` to switch `i+1` (`d = 0`) or from `i+1` to `i` (`d = 1`).
    trunks: [Vec<BandwidthPipe>; 2],
    addrs: Vec<Ipv6Addr>,
    addr_map: FxHashMap<Ipv6Addr, NodeId>,
    stats: FabricStats,
    /// Packets a fault plan dropped before they reached the fabric
    /// (also counted in `stats.dropped`).
    injected_drops: u64,
    ecn_marks: u64,
    /// Flight recorder; drops are recorded against the transmitting
    /// node's scope.
    recorder: Option<Arc<FlightRecorder>>,
}

impl Fabric {
    /// Creates an empty single-switch fabric.
    pub fn new(cfg: FabricConfig) -> Self {
        Fabric::with_switches(cfg, 1)
    }

    /// Creates a fabric of `switches` switches in a chain, joined by
    /// full-duplex trunk links at the same rate as edge links.
    ///
    /// # Panics
    ///
    /// Panics if `switches` is zero.
    pub fn with_switches(cfg: FabricConfig, switches: usize) -> Self {
        assert!(switches > 0, "a fabric needs at least one switch");
        let trunk = |_: usize| BandwidthPipe::new("trunk", cfg.bytes_per_sec);
        Fabric {
            trunks: [(1..switches).map(trunk).collect(), (1..switches).map(trunk).collect()],
            cfg,
            uplinks: Vec::new(),
            downlinks: Vec::new(),
            node_switch: Vec::new(),
            addrs: Vec::new(),
            addr_map: FxHashMap::default(),
            stats: FabricStats::default(),
            injected_drops: 0,
            ecn_marks: 0,
            recorder: None,
        }
    }

    /// Installs a flight recorder. Every drop (oversize, unroutable,
    /// fault-injected) is recorded node-scoped against the transmitter.
    pub fn set_recorder(&mut self, recorder: Arc<FlightRecorder>) {
        self.recorder = Some(recorder);
    }

    /// Full counter snapshot (scope `"fabric"`), including the ECN-mark
    /// and fault-injection counters kept outside [`FabricStats`].
    pub fn snapshot(&self) -> Snapshot {
        let mut s = self.stats.snapshot();
        s.push("ecn_marks", self.ecn_marks).push("injected_drops", self.injected_drops);
        s
    }

    /// Accounts for a `len`-byte packet from `from` that a fault plan
    /// dropped at `now`: counted and traced like any other drop, so
    /// every packet a node transmits is delivered or dropped here.
    pub fn drop_injected(&mut self, now: SimTime, from: NodeId, len: usize) {
        self.stats.dropped += 1;
        self.injected_drops += 1;
        self.trace_drop(now, from, "injected", len);
    }

    /// The fabric configuration.
    pub fn config(&self) -> &FabricConfig {
        &self.cfg
    }

    /// Counters.
    pub fn stats(&self) -> FabricStats {
        self.stats
    }

    /// Packets dropped by a fault plan.
    pub fn injected_drops(&self) -> u64 {
        self.injected_drops
    }

    /// Packets marked Congestion-Experienced by the RED/ECN queue.
    pub fn ecn_marks(&self) -> u64 {
        self.ecn_marks
    }

    /// Attaches a node with the given IPv6 address, returning its port.
    ///
    /// # Panics
    ///
    /// Panics if the address is already attached.
    pub fn attach(&mut self, addr: Ipv6Addr) -> NodeId {
        self.attach_at(addr, 0)
    }

    /// Attaches a node to a specific switch of a multi-switch fabric.
    ///
    /// # Panics
    ///
    /// Panics if the address is already attached or the switch index is
    /// out of range.
    pub fn attach_at(&mut self, addr: Ipv6Addr, switch: usize) -> NodeId {
        assert!(!self.addr_map.contains_key(&addr), "address {addr} already attached");
        assert!(switch <= self.trunks[0].len(), "switch {switch} out of range");
        let id = NodeId(self.uplinks.len() as u32);
        self.uplinks.push(BandwidthPipe::new("uplink", self.cfg.bytes_per_sec));
        self.downlinks.push(BandwidthPipe::new("downlink", self.cfg.bytes_per_sec));
        self.node_switch.push(switch);
        self.addrs.push(addr);
        self.addr_map.insert(addr, id);
        id
    }

    /// Number of switches in the chain.
    pub fn switch_count(&self) -> usize {
        self.trunks[0].len() + 1
    }

    /// Switch hops between two attached nodes.
    pub fn hops_between(&self, a: NodeId, b: NodeId) -> usize {
        let (sa, sb) = (self.node_switch[a.0 as usize], self.node_switch[b.0 as usize]);
        sa.abs_diff(sb) + 1
    }

    /// Number of attached nodes.
    pub fn node_count(&self) -> usize {
        self.uplinks.len()
    }

    /// Resolves an address to its attached node.
    pub fn resolve(&self, addr: Ipv6Addr) -> Option<NodeId> {
        self.addr_map.get(&addr).copied()
    }

    /// Address of an attached node.
    pub fn addr_of(&self, node: NodeId) -> Ipv6Addr {
        self.addrs[node.0 as usize]
    }

    /// Serialization time of a packet of `len` IP bytes on one link.
    pub fn serialization(&self, len: usize) -> SimDuration {
        SimDuration::for_bytes((len + self.cfg.frame_overhead) as u64, self.cfg.bytes_per_sec)
    }

    /// One-way latency of a `len`-byte packet across an idle fabric,
    /// for two nodes on the *same* switch (multi-switch paths add one
    /// trunk hop of latency — and a second serialization per hop in
    /// store-and-forward mode — per switch crossed).
    pub fn idle_latency(&self, len: usize) -> SimDuration {
        let ser = self.serialization(len);
        match self.cfg.switching {
            Switching::CutThrough => ser + self.cfg.cable_latency * 2 + self.cfg.switch_latency,
            Switching::StoreAndForward => {
                ser * 2 + self.cfg.cable_latency * 2 + self.cfg.switch_latency
            }
        }
    }

    fn trace_drop(&self, now: SimTime, from: NodeId, reason: &'static str, len: usize) {
        if let Some(rec) = &self.recorder {
            rec.record(now, from.0, NODE_SCOPE, TraceEvent::FabricDrop { reason, len: len as u32 });
        }
    }

    /// Transmits a `len`-byte IP packet from `from` to the node owning
    /// `dst`, starting no earlier than `now`. The returned instant is
    /// when the *last byte* is available at the destination NIC.
    pub fn transmit(
        &mut self,
        now: SimTime,
        from: NodeId,
        dst: Ipv6Addr,
        len: usize,
    ) -> TransmitOutcome {
        if len > self.cfg.mtu {
            self.stats.dropped += 1;
            self.trace_drop(now, from, "too_large", len);
            return TransmitOutcome::Dropped(DropReason::TooLarge { len, mtu: self.cfg.mtu });
        }
        let Some(to) = self.resolve(dst) else {
            self.stats.dropped += 1;
            self.trace_drop(now, from, "no_route", len);
            return TransmitOutcome::Dropped(DropReason::NoRoute);
        };
        let wire = (len + self.cfg.frame_overhead) as u64;
        let up = &mut self.uplinks[from.0 as usize];
        let up_start = now.max(up.next_free());
        let up_done = up.transfer(up_start, wire);
        // walk the switch chain from the source's switch to the
        // destination's, crossing one trunk per hop
        let s_from = self.node_switch[from.0 as usize];
        let s_to = self.node_switch[to.0 as usize];
        let (at, queue_delay) = match self.cfg.switching {
            Switching::CutThrough => {
                // the head flows through each hop; serialization is paid
                // once, and each busy pipe along the way can stall it
                let mut head = up_start + self.cfg.cable_latency + self.cfg.switch_latency;
                let mut sw = s_from;
                while sw != s_to {
                    // rightward hop sw→sw+1 uses trunks[0][sw];
                    // leftward hop sw→sw-1 uses trunks[1][sw-1]
                    let (dir, idx, next) =
                        if s_to > sw { (0, sw, sw + 1) } else { (1, sw - 1, sw - 1) };
                    let trunk = &mut self.trunks[dir][idx];
                    let start = head.max(trunk.next_free());
                    // cut-through: the trunk is occupied for the frame
                    // but the head moves on after the hop latencies
                    trunk.transfer(start, wire);
                    head = start + self.cfg.cable_latency + self.cfg.switch_latency;
                    sw = next;
                }
                let down = &mut self.downlinks[to.0 as usize];
                let down_start = head.max(down.next_free());
                let down_done = down.transfer(down_start, wire);
                (down_done + self.cfg.cable_latency, down_start.duration_since(head))
            }
            Switching::StoreAndForward => {
                let mut ready = up_done + self.cfg.cable_latency + self.cfg.switch_latency;
                let mut sw = s_from;
                while sw != s_to {
                    let (dir, idx, next) =
                        if s_to > sw { (0, sw, sw + 1) } else { (1, sw - 1, sw - 1) };
                    let trunk = &mut self.trunks[dir][idx];
                    let start = ready.max(trunk.next_free());
                    // the whole frame re-serializes on each trunk
                    ready = trunk.transfer(start, wire)
                        + self.cfg.cable_latency
                        + self.cfg.switch_latency;
                    sw = next;
                }
                let down = &mut self.downlinks[to.0 as usize];
                let down_start = ready.max(down.next_free());
                let down_done = down.transfer(down_start, wire);
                (down_done + self.cfg.cable_latency, down_start.duration_since(ready))
            }
        };
        let marked = self.cfg.ecn_mark_threshold.is_some_and(|thresh| queue_delay > thresh);
        if marked {
            self.ecn_marks += 1;
        }
        self.stats.delivered += 1;
        self.stats.bytes += len as u64;
        TransmitOutcome::Delivered { to, at, marked }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(n: u16) -> Ipv6Addr {
        Ipv6Addr::new(0xfc00, 0, 0, 0, 0, 0, 0, n)
    }

    fn myrinet_pair() -> (Fabric, NodeId, NodeId) {
        let mut f = Fabric::new(FabricConfig::myrinet());
        let a = f.attach(addr(1));
        let b = f.attach(addr(2));
        (f, a, b)
    }

    #[test]
    fn myrinet_small_packet_latency_is_sub_microsecond_plus_wire() {
        let (mut f, a, _) = myrinet_pair();
        // 100-byte packet: ser = 116B / 250MB/s = 0.464us, + 0.2us cable
        // + 0.3us switch ≈ 0.96us
        let out = f.transmit(SimTime::ZERO, a, addr(2), 100);
        let TransmitOutcome::Delivered { at, .. } = out else { panic!("dropped: {out:?}") };
        let us = at.as_micros_f64();
        assert!((0.9..1.1).contains(&us), "{us}");
        assert_eq!(at - SimTime::ZERO, f.idle_latency(100));
    }

    #[test]
    fn cut_through_beats_store_and_forward_for_large_packets() {
        let mut ct = Fabric::new(FabricConfig::myrinet());
        let mut sf = Fabric::new(FabricConfig {
            switching: Switching::StoreAndForward,
            ..FabricConfig::myrinet()
        });
        for f in [&mut ct, &mut sf] {
            f.attach(addr(1));
            f.attach(addr(2));
        }
        let big = 9000;
        let t_ct = ct.idle_latency(big);
        let t_sf = sf.idle_latency(big);
        // store-and-forward pays serialization twice
        assert!(t_sf > t_ct);
        let delta = (t_sf - t_ct).as_micros_f64();
        let ser = ct.serialization(big).as_micros_f64();
        assert!((delta - ser).abs() < 0.01, "delta {delta} vs ser {ser}");
    }

    #[test]
    fn gige_16kb_would_exceed_mtu() {
        let mut f = Fabric::new(FabricConfig::gigabit_ethernet());
        let a = f.attach(addr(1));
        f.attach(addr(2));
        let out = f.transmit(SimTime::ZERO, a, addr(2), 16 * 1024);
        assert_eq!(
            out,
            TransmitOutcome::Dropped(DropReason::TooLarge { len: 16 * 1024, mtu: 1500 })
        );
    }

    #[test]
    fn back_to_back_packets_queue_on_the_uplink() {
        let (mut f, a, _) = myrinet_pair();
        let o1 = f.transmit(SimTime::ZERO, a, addr(2), 16_000);
        let o2 = f.transmit(SimTime::ZERO, a, addr(2), 16_000);
        let (TransmitOutcome::Delivered { at: t1, .. }, TransmitOutcome::Delivered { at: t2, .. }) =
            (o1, o2)
        else {
            panic!()
        };
        let gap = (t2 - t1).as_micros_f64();
        let ser = f.serialization(16_000).as_micros_f64();
        assert!((gap - ser).abs() < 0.05, "gap {gap} ser {ser}");
    }

    #[test]
    fn two_senders_contend_on_receiver_downlink() {
        let mut f = Fabric::new(FabricConfig::myrinet());
        let a = f.attach(addr(1));
        let b = f.attach(addr(2));
        f.attach(addr(3));
        let o1 = f.transmit(SimTime::ZERO, a, addr(3), 16_000);
        let o2 = f.transmit(SimTime::ZERO, b, addr(3), 16_000);
        let (TransmitOutcome::Delivered { at: t1, .. }, TransmitOutcome::Delivered { at: t2, .. }) =
            (o1, o2)
        else {
            panic!()
        };
        assert!(t2 > t1, "second arrival blocked behind the first");
        let gap = (t2 - t1).as_micros_f64();
        let ser = f.serialization(16_000).as_micros_f64();
        assert!(gap >= ser * 0.95, "gap {gap} < ser {ser}");
    }

    #[test]
    fn full_duplex_directions_do_not_interfere() {
        let (mut f, a, b) = myrinet_pair();
        let o1 = f.transmit(SimTime::ZERO, a, addr(2), 16_000);
        let o2 = f.transmit(SimTime::ZERO, b, addr(1), 16_000);
        let (TransmitOutcome::Delivered { at: t1, .. }, TransmitOutcome::Delivered { at: t2, .. }) =
            (o1, o2)
        else {
            panic!()
        };
        assert_eq!(t1, t2, "opposite directions are independent");
    }

    #[test]
    fn unknown_destination_is_dropped() {
        let (mut f, a, _) = myrinet_pair();
        assert_eq!(
            f.transmit(SimTime::ZERO, a, addr(99), 100),
            TransmitOutcome::Dropped(DropReason::NoRoute)
        );
    }

    #[test]
    fn injected_drops_count_as_drops() {
        let (mut f, a, _) = myrinet_pair();
        assert!(matches!(
            f.transmit(SimTime::ZERO, a, addr(2), 100),
            TransmitOutcome::Delivered { .. }
        ));
        f.drop_injected(SimTime::ZERO, a, 100);
        assert_eq!(f.injected_drops(), 1);
        assert_eq!(f.stats().delivered, 1);
        assert_eq!(f.stats().dropped, 1);
        assert_eq!(f.snapshot().get("injected_drops"), Some(1));
    }

    #[test]
    fn throughput_approaches_line_rate_under_saturation() {
        let (mut f, a, _) = myrinet_pair();
        let n = 1000u64;
        let len = 16_000usize;
        let mut last = SimTime::ZERO;
        for _ in 0..n {
            if let TransmitOutcome::Delivered { at, .. } =
                f.transmit(SimTime::ZERO, a, addr(2), len)
            {
                last = at;
            }
        }
        let mbps = (n * len as u64) as f64 / last.as_secs_f64() / 1e6;
        // 2 Gb/s = 250 MB/s line rate, minus framing overhead ≈ 249.75
        assert!((245.0..251.0).contains(&mbps), "{mbps}");
    }

    #[test]
    fn gige_throughput_respects_frame_overhead() {
        let mut f = Fabric::new(FabricConfig::gigabit_ethernet());
        let a = f.attach(addr(1));
        f.attach(addr(2));
        let n = 1000u64;
        let len = 1500usize;
        let mut last = SimTime::ZERO;
        for _ in 0..n {
            if let TransmitOutcome::Delivered { at, .. } =
                f.transmit(SimTime::ZERO, a, addr(2), len)
            {
                last = at;
            }
        }
        let mbps = (n * len as u64) as f64 / last.as_secs_f64() / 1e6;
        // 125 MB/s × 1500/1538 ≈ 121.9 MB/s goodput ceiling
        assert!((118.0..123.0).contains(&mbps), "{mbps}");
    }

    #[test]
    fn attach_rejects_duplicate_addresses() {
        let mut f = Fabric::new(FabricConfig::myrinet());
        f.attach(addr(1));
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f.attach(addr(1))));
        assert!(r.is_err());
    }

    #[test]
    fn resolve_and_addr_of_are_inverses() {
        let (f, a, b) = myrinet_pair();
        assert_eq!(f.resolve(addr(1)), Some(a));
        assert_eq!(f.resolve(addr(2)), Some(b));
        assert_eq!(f.addr_of(a), addr(1));
        assert_eq!(f.node_count(), 2);
    }
}

#[cfg(test)]
mod multiswitch_tests {
    use super::*;
    use std::net::Ipv6Addr;

    fn addr(n: u16) -> Ipv6Addr {
        Ipv6Addr::new(0xfc00, 0, 0, 0, 0, 0, 1, n)
    }

    fn arrival(out: TransmitOutcome) -> SimTime {
        match out {
            TransmitOutcome::Delivered { at, .. } => at,
            other => panic!("dropped: {other:?}"),
        }
    }

    #[test]
    fn chain_attachment_and_hop_counts() {
        let mut f = Fabric::with_switches(FabricConfig::myrinet(), 3);
        assert_eq!(f.switch_count(), 3);
        let a = f.attach_at(addr(1), 0);
        let b = f.attach_at(addr(2), 2);
        let c = f.attach_at(addr(3), 0);
        assert_eq!(f.hops_between(a, b), 3);
        assert_eq!(f.hops_between(a, c), 1);
    }

    #[test]
    fn cut_through_multihop_adds_per_hop_latency_only() {
        let mut near = Fabric::with_switches(FabricConfig::myrinet(), 3);
        let n1 = near.attach_at(addr(1), 0);
        near.attach_at(addr(2), 0);
        let mut far = Fabric::with_switches(FabricConfig::myrinet(), 3);
        let f1 = far.attach_at(addr(1), 0);
        far.attach_at(addr(2), 2);
        let t_near = arrival(near.transmit(SimTime::ZERO, n1, addr(2), 4096));
        let t_far = arrival(far.transmit(SimTime::ZERO, f1, addr(2), 4096));
        // two extra hops: 2 × (cable + switch) = 2 × 0.4 µs, NOT two
        // extra serializations (cut-through)
        let delta = (t_far - t_near).as_micros_f64();
        assert!((0.7..1.0).contains(&delta), "{delta}");
    }

    #[test]
    fn store_and_forward_multihop_reserializes_per_trunk() {
        let cfg = FabricConfig { switching: Switching::StoreAndForward, ..FabricConfig::myrinet() };
        let mut near = Fabric::with_switches(cfg.clone(), 2);
        let n1 = near.attach_at(addr(1), 0);
        near.attach_at(addr(2), 0);
        let mut far = Fabric::with_switches(cfg, 2);
        let f1 = far.attach_at(addr(1), 0);
        far.attach_at(addr(2), 1);
        let len = 8192;
        let t_near = arrival(near.transmit(SimTime::ZERO, n1, addr(2), len));
        let t_far = arrival(far.transmit(SimTime::ZERO, f1, addr(2), len));
        let ser = near.serialization(len).as_micros_f64();
        let delta = (t_far - t_near).as_micros_f64();
        assert!(delta > ser * 0.95, "one extra serialization: {delta} vs {ser}");
    }

    #[test]
    fn trunk_contention_serializes_cross_switch_flows() {
        let mut f = Fabric::with_switches(FabricConfig::myrinet(), 2);
        let a = f.attach_at(addr(1), 0);
        let b = f.attach_at(addr(2), 0);
        f.attach_at(addr(3), 1);
        f.attach_at(addr(4), 1);
        // both flows cross the single trunk simultaneously
        let t1 = arrival(f.transmit(SimTime::ZERO, a, addr(3), 16_000));
        let t2 = arrival(f.transmit(SimTime::ZERO, b, addr(4), 16_000));
        let gap = (t2 - t1).as_micros_f64();
        let ser = f.serialization(16_000).as_micros_f64();
        assert!(gap >= ser * 0.9, "trunk shared: gap {gap} vs ser {ser}");
    }

    #[test]
    fn trunk_directions_are_independent() {
        let mut f = Fabric::with_switches(FabricConfig::myrinet(), 2);
        let a = f.attach_at(addr(1), 0);
        let b = f.attach_at(addr(2), 1);
        let t1 = arrival(f.transmit(SimTime::ZERO, a, addr(2), 16_000));
        let t2 = arrival(f.transmit(SimTime::ZERO, b, addr(1), 16_000));
        assert_eq!(t1, t2, "full-duplex trunk");
    }

    #[test]
    fn same_switch_traffic_ignores_trunks() {
        let mut f = Fabric::with_switches(FabricConfig::myrinet(), 4);
        let a = f.attach_at(addr(1), 2);
        f.attach_at(addr(2), 2);
        let single = Fabric::new(FabricConfig::myrinet());
        let t = arrival(f.transmit(SimTime::ZERO, a, addr(2), 2048));
        assert_eq!(t - SimTime::ZERO, single.idle_latency(2048));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn attach_beyond_chain_panics() {
        let mut f = Fabric::with_switches(FabricConfig::myrinet(), 2);
        f.attach_at(addr(1), 2);
    }
}
