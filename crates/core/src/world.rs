//! The full QPIP system: hosts with QPIP NICs on a switched SAN.
//!
//! [`QpipWorld`] is the shared world loop ([`crate::des::World`]) over
//! [`QpipNode`]s — the host CPU model (`qpip-host`) plus the
//! intelligent NIC (`qpip-nic`) — and exposes the **verbs API** of §4.1
//! — `post_send`, `post_recv`, `poll`, `wait` plus QP/CQ creation and
//! connection management — with the host-side cycle costs of Table 1
//! charged on every call. The verbs are written once here, for every
//! world whose nodes implement [`AsQpip`] (so [`crate::MixedWorld`]'s
//! QPIP nodes take exactly this path).
//!
//! Applications written against this API read like the paper's
//! pseudo-code: post receives, connect, post a send, wait on the CQ.

use std::net::Ipv6Addr;
use std::sync::Arc;

use qpip_fabric::FabricConfig;
use qpip_host::cpu::{CpuLedger, WorkClass};
use qpip_netstack::types::Endpoint;
use qpip_nic::{
    Completion, CqId, MrKey, NicConfig, NicError, NicOutput, QpId, QpipNic, RdmaReadWr,
    RdmaWriteWr, RecvWr, SendWr, ServiceType,
};
use qpip_sim::params;
use qpip_sim::time::{SimDuration, SimTime};
use qpip_trace::{FlightRecorder, Tracer};

pub use crate::des::NodeIdx;
use crate::des::{Net, Node, World};

/// Extra latency of the doorbell PIO write crossing PCI (posted write).
const DOORBELL_PCI_LATENCY: SimDuration = SimDuration::from_nanos(200);

/// A host with a QPIP NIC: the stack runs in the NIC's firmware, the
/// host only pays for verbs calls. Its CQs are the NIC's.
pub struct QpipNode {
    nic: QpipNic,
    cpu: CpuLedger,
    /// When this node's application thread is next free.
    app_time: SimTime,
    port: qpip_fabric::NodeId,
}

impl QpipNode {
    /// A node at `addr` on fabric port `port`; its MTU is clamped to the
    /// fabric's and it records into the world's recorder, if any.
    pub(crate) fn new<N>(
        w: &World<N>,
        cfg: NicConfig,
        addr: Ipv6Addr,
        port: qpip_fabric::NodeId,
    ) -> Self {
        let mut cfg = cfg;
        cfg.mtu = cfg.mtu.min(w.net.fabric.config().mtu);
        let mut nic = QpipNic::new(cfg, addr);
        if let Some(rec) = &w.recorder {
            nic.set_tracer(Tracer::new(Arc::clone(rec), port.0));
        }
        QpipNode { nic, cpu: CpuLedger::new(), app_time: SimTime::ZERO, port }
    }

    /// Runs one NIC call on the world's lent output buffer, then puts
    /// the packets it produced on the wire.
    fn drive<R>(
        &mut self,
        net: &mut Net,
        call: impl FnOnce(&mut QpipNic, &mut Vec<NicOutput>) -> R,
    ) -> R {
        let mut outs = std::mem::take(&mut net.nic_out);
        let r = call(&mut self.nic, &mut outs);
        for NicOutput { at, dst, bytes } in outs.drain(..) {
            net.transmit(self.port, at, dst, bytes);
        }
        net.nic_out = outs;
        r
    }

    /// Sleeps until the head entry of `cq` is visible, then pays the
    /// poll that finds it.
    fn take_head(&mut self, cq: CqId) -> Option<Completion> {
        let visible = self.nic.cq_head(cq)?.visible_at;
        self.app_time = self.app_time.max(visible);
        self.charge(WorkClass::Verbs, params::QPIP_POLL_HIT_CYCLES);
        self.nic.cq_pop(cq).ok().flatten()
    }
}

impl Node for QpipNode {
    fn on_packet(&mut self, net: &mut Net, now: SimTime, bytes: &[u8]) {
        self.drive(net, |nic, out| nic.on_packet(now, bytes, out));
    }

    fn on_timer(&mut self, net: &mut Net, now: SimTime) {
        self.drive(net, |nic, out| nic.on_timer(now, out));
    }

    fn next_deadline(&self) -> Option<SimTime> {
        self.nic.next_deadline()
    }

    fn take_invariant_violation(&mut self) -> Option<qpip_netstack::invariant::InvariantViolation> {
        self.nic.take_invariant_violation()
    }

    fn addr(&self) -> Ipv6Addr {
        self.nic.addr()
    }

    fn engine_stats(&self) -> qpip_netstack::engine::EngineStats {
        self.nic.engine_stats()
    }

    fn cpu(&self) -> &CpuLedger {
        &self.cpu
    }

    fn app_time(&self) -> SimTime {
        self.app_time
    }

    fn charge(&mut self, class: WorkClass, cycles: u64) {
        self.app_time = self.cpu.charge(self.app_time, class, cycles);
    }
}

/// Node kinds that can be QPIP nodes: the verbs API works on them.
pub trait AsQpip: Node {
    /// The QPIP node, unless this one is something else.
    fn qpip(&self) -> Option<&QpipNode>;
    /// Mutable access to the QPIP node, unless this one is something
    /// else.
    fn qpip_mut(&mut self) -> Option<&mut QpipNode>;
}

impl AsQpip for QpipNode {
    fn qpip(&self) -> Option<&QpipNode> {
        Some(self)
    }

    fn qpip_mut(&mut self) -> Option<&mut QpipNode> {
        Some(self)
    }
}

/// A simulated SAN of QPIP nodes.
pub type QpipWorld = World<QpipNode>;

impl QpipWorld {
    /// A Myrinet world with the QPIP native MTU (the paper's testbed).
    pub fn myrinet() -> Self {
        QpipWorld::new(FabricConfig::myrinet())
    }

    /// A Myrinet world whose fabric is a chain of `switches` switches.
    pub fn myrinet_chain(switches: usize) -> Self {
        QpipWorld::with_fabric(qpip_fabric::Fabric::with_switches(
            FabricConfig::myrinet(),
            switches,
        ))
    }

    /// Adds a node with the given NIC configuration; its address is
    /// `fc00::{n+1}`.
    pub fn add_node(&mut self, nic_cfg: NicConfig) -> NodeIdx {
        self.add_node_at(nic_cfg, 0)
    }

    /// Adds a node attached to a specific switch of a multi-switch
    /// fabric.
    pub fn add_node_at(&mut self, nic_cfg: NicConfig, switch: usize) -> NodeIdx {
        let addr = Ipv6Addr::new(0xfc00, 0, 0, 0, 0, 0, 0, (self.nodes.len() + 1) as u16);
        self.attach(addr, switch, |w, port| QpipNode::new(w, nic_cfg, addr, port))
    }

    /// Installs a shared flight recorder: every node's firmware and
    /// protocol engine (existing and future) plus the fabric record
    /// into it. Traces are stamped with simulated time, so the same
    /// seed and workload produce byte-identical exports.
    pub fn install_recorder(&mut self, recorder: Arc<FlightRecorder>) {
        for (i, n) in self.nodes.iter_mut().enumerate() {
            n.nic.set_tracer(Tracer::new(Arc::clone(&recorder), i as u32));
        }
        self.net.fabric.set_recorder(Arc::clone(&recorder));
        self.recorder = Some(recorder);
    }

    /// Unified counter snapshots for the whole world: per-node engine
    /// and NIC firmware counters folded into one fleet-wide `"engine"`
    /// and one `"nic"` snapshot, plus the fabric's. This is the
    /// `counters` section the benches stamp into their JSON reports.
    pub fn counter_snapshots(&self) -> Vec<qpip_trace::Snapshot> {
        let mut engine = qpip_trace::Snapshot::new("engine");
        let mut nic = qpip_trace::Snapshot::new("nic");
        for n in &self.nodes {
            engine.absorb(&n.nic.engine_stats().snapshot());
            nic.absorb(&n.nic.stats().snapshot());
        }
        vec![engine, nic, self.net.fabric.stats().snapshot()]
    }

    /// Binds a UDP QP to a port.
    ///
    /// # Errors
    ///
    /// Propagates [`NicError`].
    pub fn udp_bind(&mut self, node: NodeIdx, qp: QpId, port: u16) -> Result<(), NicError> {
        self.nodes[node.0].nic.udp_bind(qp, port)
    }
}

impl<N: AsQpip> World<N> {
    fn qpip_node(&self, node: NodeIdx) -> &QpipNode {
        self.nodes[node.0].qpip().unwrap_or_else(|| panic!("node {} is a socket host", node.0))
    }

    fn qpip_node_mut(&mut self, node: NodeIdx) -> &mut QpipNode {
        self.nodes[node.0].qpip_mut().unwrap_or_else(|| panic!("node {} is a socket host", node.0))
    }

    /// NIC access for instrumentation (stats, counters).
    pub fn nic(&self, node: NodeIdx) -> &QpipNic {
        &self.qpip_node(node).nic
    }

    // ----- management verbs ------------------------------------------------

    /// Creates a completion queue on a node.
    pub fn create_cq(&mut self, node: NodeIdx) -> CqId {
        self.qpip_node_mut(node).nic.create_cq()
    }

    /// Creates a queue pair on a node.
    ///
    /// # Errors
    ///
    /// Propagates [`NicError`] for invalid CQ handles.
    pub fn create_qp(
        &mut self,
        node: NodeIdx,
        service: ServiceType,
        send_cq: CqId,
        recv_cq: CqId,
    ) -> Result<QpId, NicError> {
        self.qpip_node_mut(node).nic.create_qp(service, send_cq, recv_cq)
    }

    /// Monitors a TCP port, queuing `qp` for the next incoming
    /// connection (§3's rendezvous).
    ///
    /// # Errors
    ///
    /// Propagates [`NicError`].
    pub fn tcp_listen(&mut self, node: NodeIdx, port: u16, qp: QpId) -> Result<(), NicError> {
        self.qpip_node_mut(node).nic.tcp_listen(port, qp)
    }

    /// Starts a connection from a node's QP to any peer (QPIP or
    /// socket).
    ///
    /// # Errors
    ///
    /// Propagates [`NicError`].
    pub fn tcp_connect(
        &mut self,
        node: NodeIdx,
        qp: QpId,
        local_port: u16,
        remote: Endpoint,
    ) -> Result<(), NicError> {
        self.doorbell(node, |nic, db, out| nic.tcp_connect(db, qp, local_port, remote, out))
    }

    /// Begins a graceful close of a node's connected TCP QP.
    ///
    /// # Errors
    ///
    /// Propagates [`NicError`].
    pub fn tcp_close(&mut self, node: NodeIdx, qp: QpId) -> Result<(), NicError> {
        self.doorbell(node, |nic, db, out| nic.tcp_close(db, qp, out))
    }

    // ----- data verbs ---------------------------------------------------------

    /// Posts a send work request (Table 1: build WR + ring doorbell on
    /// the host; everything else happens on the NIC).
    ///
    /// # Errors
    ///
    /// Propagates [`NicError`].
    pub fn post_send(&mut self, node: NodeIdx, qp: QpId, wr: SendWr) -> Result<(), NicError> {
        self.doorbell(node, |nic, db, out| nic.post_send(db, qp, wr, out))
    }

    /// Registers host memory on a node for remote access (the RDMA
    /// transaction class, §2.1). The returned key is shared with peers
    /// out of band — typically via a send-receive message, exactly as
    /// the paper prescribes.
    pub fn register_mr(&mut self, node: NodeIdx, len: usize) -> MrKey {
        self.qpip_node_mut(node).nic.register_mr(len)
    }

    /// Host-side write into a locally registered region.
    pub fn mr_write(&mut self, node: NodeIdx, key: MrKey, offset: usize, data: &[u8]) {
        self.qpip_node_mut(node).nic.mr_write(key, offset, data);
    }

    /// Host-side read of a locally registered region.
    pub fn mr_read(&self, node: NodeIdx, key: MrKey, offset: usize, len: usize) -> Vec<u8> {
        self.qpip_node(node).nic.mr_read(key, offset, len)
    }

    /// Posts an RDMA Write work request.
    ///
    /// # Errors
    ///
    /// Propagates [`NicError`] (requires an RDMA-enabled NIC).
    pub fn post_rdma_write(
        &mut self,
        node: NodeIdx,
        qp: QpId,
        wr: RdmaWriteWr,
    ) -> Result<(), NicError> {
        self.doorbell(node, |nic, db, out| nic.post_rdma_write(db, qp, wr, out))
    }

    /// Posts an RDMA Read work request.
    ///
    /// # Errors
    ///
    /// Propagates [`NicError`] (requires an RDMA-enabled NIC).
    pub fn post_rdma_read(
        &mut self,
        node: NodeIdx,
        qp: QpId,
        wr: RdmaReadWr,
    ) -> Result<(), NicError> {
        self.doorbell(node, |nic, db, out| nic.post_rdma_read(db, qp, wr, out))
    }

    /// Posts a receive work request.
    ///
    /// # Errors
    ///
    /// Propagates [`NicError`].
    pub fn post_recv(&mut self, node: NodeIdx, qp: QpId, wr: RecvWr) -> Result<(), NicError> {
        self.doorbell(node, |nic, db, out| nic.post_recv(db, qp, wr, out))
    }

    /// Polls a CQ once. A hit charges the cache-resident poll cost; a
    /// miss charges one spin iteration (§5.1: pollers spin in the
    /// processor cache).
    pub fn poll(&mut self, node: NodeIdx, cq: CqId) -> Option<Completion> {
        self.pump_ready(node);
        let n = self.qpip_node_mut(node);
        match n.nic.cq_head(cq) {
            Some(c) if c.visible_at <= n.app_time => n.take_head(cq),
            _ => {
                n.charge(WorkClass::Verbs, params::QPIP_POLL_MISS_CYCLES);
                None
            }
        }
    }

    /// Blocks the application until the CQ delivers an entry: the thread
    /// sleeps (no CPU burned while idle — how ttcp achieves < 1 %
    /// utilization in Figure 4) and is woken when the entry lands.
    ///
    /// # Panics
    ///
    /// Panics if the simulation runs dry with nothing to deliver — a
    /// deadlocked workload is a bug in the caller. The panic message
    /// describes what every node still has in flight (CQ contents,
    /// posted WRs, backlogs, open connections) so the missing post or
    /// the wrong-CQ wait is visible from the message alone.
    pub fn wait(&mut self, node: NodeIdx, cq: CqId) -> Completion {
        loop {
            if let Some(c) = self.qpip_node_mut(node).take_head(cq) {
                return c;
            }
            if !self.step() {
                panic!("{}", self.deadlock_report(node, cq));
            }
        }
    }

    /// Builds the `wait()` deadlock panic message: which wait starved,
    /// then a per-node dump of CQ depths, posted WRs, backlogs and open
    /// connections across the whole world (the entry a waiter is
    /// missing is usually stuck on *another* node or another CQ).
    fn deadlock_report(&self, node: NodeIdx, cq: CqId) -> String {
        use core::fmt::Write as _;
        let mut s = format!(
            "wait() deadlocked at t={}: simulation ran dry with {cq} empty on node {}\n",
            self.now(),
            node.0
        );
        for (i, n) in self.nodes.iter().enumerate() {
            let _ = writeln!(s, "  node {i} (addr {}):", n.addr());
            // socket hosts have no CQs or QPs to show
            let Some(n) = n.qpip() else { continue };
            s.push_str(&n.nic.pending_summary());
            if let Some(rec) = &self.recorder {
                let node32 = i as u32;
                for (_, conn) in rec.scopes().into_iter().filter(|&(nn, _)| nn == node32) {
                    let tail = rec.last_events(node32, conn, 8);
                    if tail.is_empty() {
                        continue;
                    }
                    let scope = if conn == qpip_trace::NODE_SCOPE {
                        "node scope".to_string()
                    } else {
                        format!("conn {conn}")
                    };
                    let _ = writeln!(s, "    flight recorder ({scope}), last {}:", tail.len());
                    for line in qpip_trace::export::dump(&tail).lines() {
                        let _ = writeln!(s, "      {line}");
                    }
                }
            }
        }
        s.push_str("  hint: a missing post_recv/post_send, a wait on the wrong CQ, or a\n");
        s.push_str("  peer that never answers leaves the event queue dry.");
        s
    }

    /// Consumes the head CQ entry if one has been produced, sleeping
    /// forward to its visibility instant (no spin cycles). Returns
    /// `None` when the CQ is empty — the non-blocking companion of
    /// [`World::wait`] for callers juggling several queues.
    pub fn try_wait(&mut self, node: NodeIdx, cq: CqId) -> Option<Completion> {
        self.pump_ready(node);
        self.qpip_node_mut(node).take_head(cq)
    }

    /// Convenience: wait until a completion matching the predicate
    /// arrives on `cq`; non-matching entries are consumed and discarded.
    pub fn wait_matching(
        &mut self,
        node: NodeIdx,
        cq: CqId,
        mut pred: impl FnMut(&Completion) -> bool,
    ) -> Completion {
        loop {
            let c = self.wait(node, cq);
            if pred(&c) {
                return c;
            }
        }
    }

    /// Drains events that are already due relative to the node's app
    /// clock (so polls observe everything that "has happened").
    fn pump_ready(&mut self, node: NodeIdx) {
        let t = self.qpip_node(node).app_time;
        self.pump_until_time(t);
    }

    /// Table 1's host side of a verb: build the WR and ring the
    /// doorbell on the application thread, then let the simulation
    /// catch up to the instant the doorbell reaches the NIC.
    fn verbs_preamble(&mut self, node: NodeIdx) -> SimTime {
        let now = self.now();
        let n = self.qpip_node_mut(node);
        // the app cannot act before the sim's current instant
        n.app_time = n.app_time.max(now);
        n.charge(WorkClass::Verbs, params::QPIP_BUILD_WR_CYCLES);
        n.charge(WorkClass::Verbs, params::QPIP_DOORBELL_CYCLES);
        let db = n.app_time + DOORBELL_PCI_LATENCY;
        self.pump_until_time(db);
        db
    }

    /// Runs a data verb on the NIC at the doorbell instant and routes
    /// what it produces.
    fn doorbell(
        &mut self,
        node: NodeIdx,
        verb: impl FnOnce(&mut QpipNic, SimTime, &mut Vec<NicOutput>) -> Result<(), NicError>,
    ) -> Result<(), NicError> {
        let db = self.verbs_preamble(node);
        let n = self.nodes[node.0].qpip_mut().expect("checked by the preamble");
        n.drive(&mut self.net, |nic, out| verb(nic, db, out))?;
        self.refresh_timer(node.0);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpip_nic::{CompletionKind, CompletionStatus};

    /// Two nodes, TCP QPs, full verb-level exchange.
    fn connected_world() -> (QpipWorld, NodeIdx, NodeIdx, QpId, QpId, CqId, CqId) {
        connected_world_posting(8)
    }

    /// [`connected_world`] whose server posts only `server_wrs` receive
    /// WRs before the handshake (the client always posts 8).
    fn connected_world_posting(
        server_wrs: u64,
    ) -> (QpipWorld, NodeIdx, NodeIdx, QpId, QpId, CqId, CqId) {
        let mut w = QpipWorld::myrinet();
        let a = w.add_node(NicConfig::paper_default());
        let b = w.add_node(NicConfig::paper_default());
        let cqa = w.create_cq(a);
        let cqb = w.create_cq(b);
        let qa = w.create_qp(a, ServiceType::ReliableTcp, cqa, cqa).unwrap();
        let qb = w.create_qp(b, ServiceType::ReliableTcp, cqb, cqb).unwrap();
        for i in 0..8 {
            if i < server_wrs {
                w.post_recv(b, qb, RecvWr { wr_id: 100 + i, capacity: 16 * 1024 }).unwrap();
            }
            w.post_recv(a, qa, RecvWr { wr_id: 200 + i, capacity: 16 * 1024 }).unwrap();
        }
        w.tcp_listen(b, 5000, qb).unwrap();
        let remote = Endpoint::new(w.addr(b), 5000);
        w.tcp_connect(a, qa, 4000, remote).unwrap();
        let c = w.wait(a, cqa);
        assert_eq!(c.kind, CompletionKind::ConnectionEstablished);
        let c = w.wait(b, cqb);
        assert_eq!(c.kind, CompletionKind::ConnectionEstablished);
        (w, a, b, qa, qb, cqa, cqb)
    }

    #[test]
    fn verbs_level_message_exchange() {
        let (mut w, a, b, qa, _qb, cqa, cqb) = connected_world();
        w.post_send(a, qa, SendWr { wr_id: 1, payload: vec![7; 4096], dst: None }).unwrap();
        // receiver blocks until the message lands
        let c = w.wait(b, cqb);
        match c.kind {
            CompletionKind::Recv { data, .. } => assert_eq!(data, vec![7; 4096]),
            k => panic!("{k:?}"),
        }
        // sender's completion arrives once the data is acknowledged
        let c = w.wait(a, cqa);
        assert_eq!(c.kind, CompletionKind::Send);
        assert_eq!(c.wr_id, 1);
    }

    #[test]
    fn ping_pong_round_trip_time_is_tens_of_microseconds() {
        let (mut w, a, b, qa, qb, cqa, cqb) = connected_world();
        // warm up one round
        w.post_send(a, qa, SendWr { wr_id: 1, payload: vec![0], dst: None }).unwrap();
        w.wait_matching(b, cqb, |c| matches!(c.kind, CompletionKind::Recv { .. }));
        w.post_send(b, qb, SendWr { wr_id: 2, payload: vec![0], dst: None }).unwrap();
        w.wait_matching(a, cqa, |c| matches!(c.kind, CompletionKind::Recv { .. }));
        // timed round
        let t0 = w.app_time(a);
        w.post_send(a, qa, SendWr { wr_id: 3, payload: vec![0], dst: None }).unwrap();
        w.wait_matching(b, cqb, |c| matches!(c.kind, CompletionKind::Recv { .. }));
        w.post_send(b, qb, SendWr { wr_id: 4, payload: vec![0], dst: None }).unwrap();
        w.wait_matching(a, cqa, |c| matches!(c.kind, CompletionKind::Recv { .. }));
        let rtt = w.app_time(a).duration_since(t0).as_micros_f64();
        assert!((40.0..180.0).contains(&rtt), "rtt {rtt} µs");
    }

    #[test]
    fn poll_miss_charges_spin_and_hit_returns_entry() {
        let (mut w, a, b, qa, _qb, _cqa, cqb) = connected_world();
        let spin_before = w.cpu(b).cycles(WorkClass::Verbs);
        assert!(w.poll(b, cqb).is_none());
        assert!(w.cpu(b).cycles(WorkClass::Verbs) > spin_before);
        w.post_send(a, qa, SendWr { wr_id: 1, payload: vec![1], dst: None }).unwrap();
        w.run_until_idle();
        // advance the app clock past delivery by spinning
        let mut got = None;
        for _ in 0..100_000 {
            if let Some(c) = w.poll(b, cqb) {
                got = Some(c);
                break;
            }
        }
        let c = got.expect("poll eventually hits");
        assert!(matches!(c.kind, CompletionKind::Recv { .. }));
    }

    #[test]
    fn host_cpu_work_is_only_verbs_calls() {
        let (mut w, a, b, qa, qb, cqa, cqb) = connected_world();
        for i in 0..10 {
            // keep the receive queue topped up (8 were pre-posted)
            w.post_recv(b, qb, RecvWr { wr_id: 300 + i, capacity: 16 * 1024 }).unwrap();
            w.post_send(a, qa, SendWr { wr_id: i, payload: vec![0; 8192], dst: None }).unwrap();
            w.wait_matching(b, cqb, |c| matches!(c.kind, CompletionKind::Recv { .. }));
            w.wait_matching(a, cqa, |c| c.kind == CompletionKind::Send);
        }
        let cpu = w.cpu(a);
        assert_eq!(cpu.cycles(WorkClass::Protocol), 0, "no host protocol work");
        assert_eq!(cpu.cycles(WorkClass::Interrupt), 0, "no interrupts");
        // the verbs path is Table 1 sized: ~806 cycles per message pair
        let verbs = cpu.cycles(WorkClass::Verbs);
        assert!(verbs < 30_000, "{verbs} cycles for 10 sends is too much");
    }

    #[test]
    fn udp_qps_exchange_datagrams() {
        let mut w = QpipWorld::myrinet();
        let a = w.add_node(NicConfig::paper_default());
        let b = w.add_node(NicConfig::paper_default());
        let cqa = w.create_cq(a);
        let cqb = w.create_cq(b);
        let qa = w.create_qp(a, ServiceType::UnreliableUdp, cqa, cqa).unwrap();
        let qb = w.create_qp(b, ServiceType::UnreliableUdp, cqb, cqb).unwrap();
        w.udp_bind(a, qa, 9000).unwrap();
        w.udp_bind(b, qb, 9001).unwrap();
        w.post_recv(b, qb, RecvWr { wr_id: 5, capacity: 1024 }).unwrap();
        let dst = Endpoint::new(w.addr(b), 9001);
        w.post_send(a, qa, SendWr { wr_id: 1, payload: b"dgram".to_vec(), dst: Some(dst) })
            .unwrap();
        // UDP send completes immediately
        let c = w.wait(a, cqa);
        assert_eq!(c.kind, CompletionKind::Send);
        let c = w.wait(b, cqb);
        match c.kind {
            CompletionKind::Recv { data, src } => {
                assert_eq!(data, b"dgram");
                assert_eq!(src.unwrap().port, 9000);
            }
            k => panic!("{k:?}"),
        }
    }

    #[test]
    fn loss_on_fabric_is_recovered_transparently() {
        let (mut w, a, b, qa, _qb, cqa, cqb) = connected_world();
        // drop the next packet on the fabric (the fresh injector indexes
        // from zero): that is the data segment of the send below
        w.set_fault_plan(qpip_fabric::FaultPlan::DropIndices(vec![0]));
        w.post_send(a, qa, SendWr { wr_id: 77, payload: vec![9; 2048], dst: None }).unwrap();
        let c = w.wait_matching(b, cqb, |c| matches!(c.kind, CompletionKind::Recv { .. }));
        match c.kind {
            CompletionKind::Recv { data, .. } => assert_eq!(data, vec![9; 2048]),
            _ => unreachable!(),
        }
        let c = w.wait_matching(a, cqa, |c| c.kind == CompletionKind::Send);
        assert_eq!(c.wr_id, 77);
        assert!(w.nic(a).engine_stats().tcp.retransmissions() >= 1, "loss forced a retransmission");
        let fabric = w.fabric();
        assert_eq!((fabric.stats().injected_drops, fabric.stats().dropped), (1, 1));
    }

    /// The server's only window update is lost on the fabric; the
    /// client's persist timer probes the zero window and the reply
    /// carries the open window back, so the message still lands.
    #[test]
    fn lost_window_update_is_recovered_by_a_persist_probe() {
        let (mut w, a, b, qa, qb, cqa, cqb) = connected_world_posting(0);
        // let the zero-window announcement land before sending into it
        w.run_until_idle();
        w.post_send(a, qa, SendWr { wr_id: 1, payload: vec![5; 1024], dst: None }).unwrap();
        w.set_fault_plan(qpip_fabric::FaultPlan::DropIndices(vec![0]));
        w.post_recv(b, qb, RecvWr { wr_id: 9, capacity: 16 * 1024 }).unwrap();
        let c = w.wait_matching(b, cqb, |c| matches!(c.kind, CompletionKind::Recv { .. }));
        assert_eq!(c.kind, CompletionKind::Recv { data: vec![5; 1024], src: None });
        let c = w.wait_matching(a, cqa, |c| c.kind == CompletionKind::Send);
        assert_eq!(c.wr_id, 1);
        let stats = w.nic(a).engine_stats();
        assert_eq!(stats.tcp.persist_probes, 1, "{stats:?}");
        assert_eq!(stats.tcp.retransmissions(), 0, "a probe is not a retransmission");
    }

    /// Retransmissions are an engine total: they survive both ends
    /// closing and their connections being reaped, counted neither
    /// twice nor not at all.
    #[test]
    fn retransmissions_survive_the_close() {
        let (mut w, a, b, qa, qb, cqa, cqb) = connected_world();
        let plan = qpip_fabric::FaultPlan::Impair { drop_permille: 200, hold_permille: 0, seed: 7 };
        w.set_fault_plan(plan);
        for i in 0..8 {
            w.post_send(a, qa, SendWr { wr_id: i, payload: vec![3; 4096], dst: None }).unwrap();
        }
        for _ in 0..8 {
            w.wait_matching(b, cqb, |c| matches!(c.kind, CompletionKind::Recv { .. }));
            w.wait_matching(a, cqa, |c| c.kind == CompletionKind::Send);
        }
        let open = w.engine_stats(a).tcp.retransmissions();
        assert!(open > 0, "loss forced a retransmission");
        // a lossless close retransmits nothing more
        w.set_fault_plan(qpip_fabric::FaultPlan::None);
        w.tcp_close(a, qa).unwrap();
        w.tcp_close(b, qb).unwrap();
        w.run_until_idle();
        assert_eq!((w.nic(a).engine().conn_count(), w.nic(b).engine().conn_count()), (0, 0));
        let tcp = w.engine_stats(a).tcp;
        assert_eq!(tcp.retransmissions(), open, "{tcp:?}");
    }

    /// A window that never opens ends the connection after the retry
    /// budget: the client's CQ gets a `ConnectionError` and the world
    /// then runs dry instead of probing forever.
    #[test]
    fn window_that_never_opens_ends_in_connection_error() {
        let (mut w, a, _b, qa, _qb, cqa, _cqb) = connected_world_posting(0);
        w.run_until_idle();
        w.post_send(a, qa, SendWr { wr_id: 1, payload: vec![5; 1024], dst: None }).unwrap();
        let c = w.wait_matching(a, cqa, |c| c.status == CompletionStatus::ConnectionError);
        assert_eq!(c.status, CompletionStatus::ConnectionError);
        w.run_until_idle();
        assert_eq!(w.nic(a).engine_stats().tcp.persist_probes, 15);
        let gave_up = w.now().duration_since(SimTime::ZERO);
        assert!(gave_up > SimDuration::from_secs(46), "gave up at {gave_up:?}");
    }

    /// Waiting on a CQ that can never produce must panic with a
    /// diagnostic that names the starved wait and shows where the
    /// completions actually went — not just "deadlocked".
    #[test]
    fn wait_deadlock_panic_names_the_pending_state() {
        let (mut w, a, b, qa, _qb, _cqa, _cqb) = connected_world();
        // a message flies a→b, so a Recv entry lands on b's CQ and a
        // Send entry on a's CQ — but we wait on a freshly created CQ
        // nothing feeds. Once the ACK exchange drains, the event queue
        // runs dry and wait() must explain the world state.
        w.post_send(a, qa, SendWr { wr_id: 5, payload: vec![3; 1024], dst: None }).unwrap();
        let wrong_cq = w.create_cq(a);
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            w.wait(a, wrong_cq);
        }))
        .expect_err("wait() on a starved CQ must panic, not hang");
        let msg = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .expect("panic payload is a message");
        assert!(msg.contains("wait() deadlocked"), "headline missing: {msg}");
        assert!(
            msg.contains(&format!("{wrong_cq} empty on node {}", a.0)),
            "starved wait not named: {msg}"
        );
        // the diagnostic shows where the completions actually are
        assert!(msg.contains("Send"), "sender's pending Send entry not shown: {msg}");
        assert!(msg.contains("Recv(1024B)"), "receiver's pending Recv entry not shown: {msg}");
        assert!(msg.contains(&format!("node {}", b.0)), "other node's state not dumped: {msg}");
        assert!(msg.contains("qp#"), "per-QP state not dumped: {msg}");
        assert!(msg.contains("hint:"), "hint missing: {msg}");
    }

    /// When the oracle trips inside a DES world, the report must name
    /// the failing invariant and include the connection's recent
    /// flight-recorder events — not just "invariant violated".
    #[test]
    fn oracle_report_names_invariant_and_dumps_recorder_tail() {
        let mut w = QpipWorld::myrinet();
        let a = w.add_node(NicConfig::paper_default());
        let b = w.add_node(NicConfig::paper_default());
        let rec = Arc::new(FlightRecorder::new(64));
        w.install_recorder(Arc::clone(&rec));
        let cqa = w.create_cq(a);
        let cqb = w.create_cq(b);
        let qa = w.create_qp(a, ServiceType::ReliableTcp, cqa, cqa).unwrap();
        let qb = w.create_qp(b, ServiceType::ReliableTcp, cqb, cqb).unwrap();
        w.post_recv(b, qb, RecvWr { wr_id: 1, capacity: 16 * 1024 }).unwrap();
        w.post_recv(a, qa, RecvWr { wr_id: 2, capacity: 16 * 1024 }).unwrap();
        w.tcp_listen(b, 5000, qb).unwrap();
        w.tcp_connect(a, qa, 4000, Endpoint::new(w.addr(b), 5000)).unwrap();
        w.wait(a, cqa);
        w.wait(b, cqb);

        // the handshake was recorded; pick node a's traced connection
        let conn = rec
            .scopes()
            .into_iter()
            .find(|&(n, c)| n == 0 && c != qpip_trace::NODE_SCOPE)
            .map(|(_, c)| c)
            .expect("handshake left a per-connection trace");
        let violation = qpip_netstack::invariant::InvariantViolation {
            invariant: "snd_seq_order",
            conn: Some(qpip_netstack::ConnId(conn)),
            detail: "snd_una=5 snd_nxt=3 buffered_end=9".to_string(),
        };
        let report = w.oracle_report(a.0, &violation);
        assert!(report.contains("TCB invariant `snd_seq_order` violated on node 0"), "{report}");
        assert!(report.contains("snd_una=5"), "detail missing: {report}");
        assert!(report.contains("flight-recorder events"), "{report}");
        // the dump shows real handshake traffic for that connection
        assert!(report.contains("flags S"), "recorder tail missing segment events: {report}");
        assert!(report.contains("syn_sent -> established"), "state transitions missing: {report}");
    }
}
