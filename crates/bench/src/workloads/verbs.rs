//! One verbs seam over both substrates: a workload written once
//! against [`VerbsPair`] runs on the DES ([`DesPair`]) and on live
//! loopback sockets ([`LivePair`]).
//!
//! The seam is Kerr's minimal verbs flow (*Dissecting a Small
//! InfiniBand Application Using the Verbs API*): create CQs and QPs,
//! bind or connect, post sends and receives, wait on completions. As in
//! QPIP (§3), the application sees only QPs and CQs; whether the engine
//! beneath them is a simulated NIC or a live socket driver is the pair's
//! business.
//!
//! The trait addresses a **pair** of nodes, not one node: both DES ends
//! borrow the same world, and a live wait on one end must pump the
//! other, so neither end can be handed out on its own. Every method
//! names the [`End`] it acts on. Verbs panic on error: a workload that
//! posts on a bad handle or waits past the live timeout is a bug in the
//! workload, and the panic carries the substrate's diagnostic.

use std::net::Ipv6Addr;

use qpip::world::{NodeIdx, QpipWorld};
use qpip::{Completion, CqId, NicConfig, QpId, RecvWr, SendWr, ServiceType};
use qpip_fabric::FaultPlan;
use qpip_netstack::types::Endpoint;
use qpip_sim::time::SimTime;
use qpip_xport::{quiesce, XportConfig, XportNode};

/// One end of a two-node pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum End {
    /// The first node (`fc00::1` on both substrates).
    A,
    /// The second node (`fc00::2`).
    B,
}

impl End {
    /// The opposite end.
    pub fn other(self) -> End {
        match self {
            End::A => End::B,
            End::B => End::A,
        }
    }

    /// The end's position in a two-element array: A is 0, B is 1.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// The verbs of two connected nodes, each call aimed at one [`End`].
pub trait VerbsPair {
    /// Creates a completion queue.
    fn create_cq(&mut self, end: End) -> CqId;
    /// Creates a queue pair on the given service and CQs.
    fn create_qp(&mut self, end: End, service: ServiceType, send_cq: CqId, recv_cq: CqId) -> QpId;
    /// Binds a UDP QP to a local port.
    fn udp_bind(&mut self, end: End, qp: QpId, port: u16);
    /// Adds a TCP QP to the accept pool for `port`.
    fn tcp_listen(&mut self, end: End, qp: QpId, port: u16);
    /// Connects a TCP QP to `remote_port` on the other end.
    fn tcp_connect(&mut self, end: End, qp: QpId, local_port: u16, remote_port: u16);
    /// Posts a send work request.
    fn post_send(&mut self, end: End, qp: QpId, wr: SendWr);
    /// Posts a receive work request.
    fn post_recv(&mut self, end: End, qp: QpId, wr: RecvWr);
    /// Blocks until `cq` delivers an entry, keeping both ends running.
    fn wait(&mut self, end: End, cq: CqId) -> Completion;
    /// Pops the head of `cq` if an entry is there, without blocking.
    fn try_wait(&mut self, end: End, cq: CqId) -> Option<Completion>;
    /// The end's application clock: simulated time on the DES, the
    /// wall clock on live sockets.
    fn now(&self, end: End) -> SimTime;
    /// TCP retransmissions the end's engine has issued.
    fn retransmissions(&self, end: End) -> u64;
    /// Packets the end has put on the wire: NIC transmits on the DES,
    /// datagrams on live sockets.
    fn packets_sent(&self, end: End) -> u64;
    /// The end's fabric address (a UDP send's destination).
    fn addr(&self, end: End) -> Ipv6Addr;
    /// The largest message one TCP send on the end carries: one
    /// segment of its engine.
    fn max_tcp_message(&self, end: End) -> usize;
    /// Runs both ends until neither has anything left to do.
    fn settle(&mut self);
}

/// Waits on `cq` until an entry matching `pred` arrives, consuming the
/// entries before it.
pub fn wait_for<P: VerbsPair>(
    p: &mut P,
    end: End,
    cq: CqId,
    pred: impl Fn(&Completion) -> bool,
) -> Completion {
    loop {
        let c = p.wait(end, cq);
        if pred(&c) {
            return c;
        }
    }
}

/// Two nodes of one simulated SAN.
pub struct DesPair {
    /// The world holding both nodes.
    pub world: QpipWorld,
    /// End A's node, then end B's.
    pub nodes: [NodeIdx; 2],
}

impl DesPair {
    /// Adds two nodes with NIC configuration `nic` to `world`.
    pub fn new(mut world: QpipWorld, nic: NicConfig) -> DesPair {
        let a = world.add_node(nic.clone());
        let b = world.add_node(nic);
        DesPair { world, nodes: [a, b] }
    }

    fn node(&self, end: End) -> NodeIdx {
        self.nodes[end.index()]
    }
}

impl VerbsPair for DesPair {
    fn create_cq(&mut self, end: End) -> CqId {
        self.world.create_cq(self.node(end))
    }

    fn create_qp(&mut self, end: End, service: ServiceType, send_cq: CqId, recv_cq: CqId) -> QpId {
        self.world.create_qp(self.node(end), service, send_cq, recv_cq).expect("create_qp")
    }

    fn udp_bind(&mut self, end: End, qp: QpId, port: u16) {
        self.world.udp_bind(self.node(end), qp, port).expect("udp_bind");
    }

    fn tcp_listen(&mut self, end: End, qp: QpId, port: u16) {
        self.world.tcp_listen(self.node(end), port, qp).expect("tcp_listen");
    }

    fn tcp_connect(&mut self, end: End, qp: QpId, local_port: u16, remote_port: u16) {
        let remote = Endpoint::new(self.addr(end.other()), remote_port);
        self.world.tcp_connect(self.node(end), qp, local_port, remote).expect("tcp_connect");
    }

    fn post_send(&mut self, end: End, qp: QpId, wr: SendWr) {
        self.world.post_send(self.node(end), qp, wr).expect("post_send");
    }

    fn post_recv(&mut self, end: End, qp: QpId, wr: RecvWr) {
        self.world.post_recv(self.node(end), qp, wr).expect("post_recv");
    }

    fn wait(&mut self, end: End, cq: CqId) -> Completion {
        self.world.wait(self.node(end), cq)
    }

    fn try_wait(&mut self, end: End, cq: CqId) -> Option<Completion> {
        self.world.try_wait(self.node(end), cq)
    }

    fn now(&self, end: End) -> SimTime {
        self.world.app_time(self.node(end))
    }

    fn retransmissions(&self, end: End) -> u64 {
        self.world.engine_stats(self.node(end)).tcp.retransmissions()
    }

    fn packets_sent(&self, end: End) -> u64 {
        self.world.nic(self.node(end)).stats().tx_packets
    }

    fn addr(&self, end: End) -> Ipv6Addr {
        self.world.addr(self.node(end))
    }

    fn max_tcp_message(&self, end: End) -> usize {
        self.world.nic(self.node(end)).engine().config().max_tcp_payload()
    }

    fn settle(&mut self) {
        self.world.run_until_idle();
    }
}

/// Two live nodes on 127.0.0.1, driven from one thread: a wait on one
/// end pumps the other, so neither needs a thread of its own.
pub struct LivePair {
    /// End A's node, then end B's.
    pub nodes: [XportNode; 2],
}

impl LivePair {
    /// Two nodes whose sockets reach each other directly.
    pub fn direct() -> LivePair {
        let mut nodes = FABRIC
            .map(|addr| XportNode::bind(addr, XportConfig::default()).expect("bind loopback"));
        let at = nodes.each_ref().map(|n| n.local_addr().expect("local addr"));
        nodes[0].add_peer(FABRIC[1], at[1]);
        nodes[1].add_peer(FABRIC[0], at[0]);
        LivePair { nodes }
    }

    /// Two nodes whose datagrams, both ways, go through `plan`: end A
    /// draws from the plan's own stream and end B from its stream 1,
    /// so B does not replay A's drops and holds.
    pub fn impaired(plan: FaultPlan) -> LivePair {
        let mut p = LivePair::direct();
        p.nodes[1].set_fault_plan(plan.clone().stream(1));
        p.nodes[0].set_fault_plan(plan);
        p
    }

    /// The end's node and the other end's, both mutable.
    fn split(&mut self, end: End) -> (&mut XportNode, &mut XportNode) {
        let [a, b] = &mut self.nodes;
        match end {
            End::A => (a, b),
            End::B => (b, a),
        }
    }
}

/// The live nodes' fabric addresses: the DES world's first two.
const FABRIC: [Ipv6Addr; 2] =
    [Ipv6Addr::new(0xfc00, 0, 0, 0, 0, 0, 0, 1), Ipv6Addr::new(0xfc00, 0, 0, 0, 0, 0, 0, 2)];

impl VerbsPair for LivePair {
    fn create_cq(&mut self, end: End) -> CqId {
        self.nodes[end.index()].create_cq()
    }

    fn create_qp(&mut self, end: End, service: ServiceType, send_cq: CqId, recv_cq: CqId) -> QpId {
        self.nodes[end.index()].create_qp(service, send_cq, recv_cq).expect("create_qp")
    }

    fn udp_bind(&mut self, end: End, qp: QpId, port: u16) {
        self.nodes[end.index()].udp_bind(qp, port).expect("udp_bind");
    }

    fn tcp_listen(&mut self, end: End, qp: QpId, port: u16) {
        self.nodes[end.index()].tcp_listen(qp, port).expect("tcp_listen");
    }

    fn tcp_connect(&mut self, end: End, qp: QpId, local_port: u16, remote_port: u16) {
        let remote = Endpoint::new(self.addr(end.other()), remote_port);
        self.nodes[end.index()].tcp_connect(qp, local_port, remote).expect("tcp_connect");
    }

    fn post_send(&mut self, end: End, qp: QpId, wr: SendWr) {
        self.nodes[end.index()].post_send(qp, wr).expect("post_send");
    }

    fn post_recv(&mut self, end: End, qp: QpId, wr: RecvWr) {
        self.nodes[end.index()].post_recv(qp, wr).expect("post_recv");
    }

    fn wait(&mut self, end: End, cq: CqId) -> Completion {
        let (node, peer) = self.split(end);
        node.wait_pumping(cq, peer).unwrap_or_else(|e| panic!("end {end:?}: {e}"))
    }

    fn try_wait(&mut self, end: End, cq: CqId) -> Option<Completion> {
        self.nodes[end.index()].poll(cq).unwrap_or_else(|e| panic!("end {end:?}: {e}"))
    }

    /// Both ends share one thread and so one wall clock; every node's
    /// clock starts at its bind, so both ends read end A's axis.
    fn now(&self, _end: End) -> SimTime {
        self.nodes[0].now()
    }

    fn retransmissions(&self, end: End) -> u64 {
        self.nodes[end.index()].engine().stats().tcp.retransmissions()
    }

    fn packets_sent(&self, end: End) -> u64 {
        self.nodes[end.index()].stats().datagrams_tx
    }

    fn addr(&self, end: End) -> Ipv6Addr {
        self.nodes[end.index()].fabric_addr()
    }

    fn max_tcp_message(&self, end: End) -> usize {
        self.nodes[end.index()].max_tcp_message()
    }

    fn settle(&mut self) {
        let [a, b] = &mut self.nodes;
        quiesce(a, b).expect("pump");
    }
}
