//! The baseline testbed: host-based socket stacks over a fabric.
//!
//! [`SocketWorld`] is the counterpart of [`crate::world::QpipWorld`] for
//! the paper's comparison systems — IP over Gigabit Ethernet and IP over
//! Myrinet/GM (§4.2) — wiring `qpip-host` stacks to a `qpip-fabric`
//! network through the same world loop ([`crate::des::World`]), so both
//! sides of every figure are measured the same way. The blocking socket
//! calls are written once here, for every world whose nodes implement
//! [`AsHost`] (so [`crate::MixedWorld`]'s socket hosts take exactly
//! this path).

use std::net::Ipv6Addr;

use qpip_fabric::FabricConfig;
use qpip_host::cpu::{CpuLedger, WorkClass};
use qpip_host::stack::{HostOutput, HostStack, SendOutcome, SockError, SockId, StackConfig};
use qpip_netstack::types::Endpoint;
use qpip_sim::time::SimTime;

use crate::des::{Net, Node, World};
use crate::world::NodeIdx;

/// A conventional host: the stack runs on the host CPU behind sockets.
pub struct HostNode {
    stack: HostStack,
    app_time: SimTime,
    /// Wakeups the stack produced that the application has not
    /// consumed yet.
    events: Vec<HostOutput>,
    port: qpip_fabric::NodeId,
}

impl HostNode {
    pub(crate) fn new(cfg: StackConfig, addr: Ipv6Addr, port: qpip_fabric::NodeId) -> Self {
        HostNode {
            stack: HostStack::new(cfg, addr),
            app_time: SimTime::ZERO,
            events: Vec::new(),
            port,
        }
    }

    /// Routes stack outputs: frames onto the wire, wakeups into the
    /// event buffer.
    fn absorb(&mut self, net: &mut Net, outs: Vec<HostOutput>) {
        for o in outs {
            match o {
                HostOutput::Frame { at, dst, bytes } => net.transmit(self.port, at, dst, bytes),
                ev => {
                    // lift the app clock to wakeup instants when blocked;
                    // an accept lifts it only when the app takes it
                    if let HostOutput::DataReady { at, .. }
                    | HostOutput::Connected { at, .. }
                    | HostOutput::SendSpace { at, .. } = &ev
                    {
                        self.lift(*at);
                    }
                    self.events.push(ev);
                }
            }
        }
    }

    /// Moves the application clock forward to `t` (a syscall return or
    /// a wakeup).
    fn lift(&mut self, t: SimTime) {
        self.app_time = self.app_time.max(t);
    }
}

impl Node for HostNode {
    fn on_packet(&mut self, net: &mut Net, now: SimTime, bytes: &[u8]) {
        let outs = self.stack.on_frame(now, bytes);
        self.absorb(net, outs);
    }

    fn on_timer(&mut self, net: &mut Net, now: SimTime) {
        let outs = self.stack.on_timer(now);
        self.absorb(net, outs);
    }

    fn next_deadline(&self) -> Option<SimTime> {
        self.stack.next_deadline()
    }

    fn take_invariant_violation(&mut self) -> Option<qpip_netstack::invariant::InvariantViolation> {
        self.stack.take_invariant_violation()
    }

    fn addr(&self) -> Ipv6Addr {
        self.stack.addr()
    }

    fn engine_stats(&self) -> qpip_netstack::engine::EngineStats {
        self.stack.engine_stats()
    }

    fn cpu(&self) -> &CpuLedger {
        self.stack.cpu()
    }

    fn app_time(&self) -> SimTime {
        self.app_time
    }

    fn charge(&mut self, class: WorkClass, cycles: u64) {
        self.app_time = self.stack.cpu_mut().charge(self.app_time, class, cycles);
    }
}

/// Node kinds that can be socket hosts: the socket API works on them.
pub trait AsHost: Node {
    /// The socket host, unless this node is something else.
    fn host(&self) -> Option<&HostNode>;
    /// Mutable access to the socket host, unless this node is something
    /// else.
    fn host_mut(&mut self) -> Option<&mut HostNode>;
}

impl AsHost for HostNode {
    fn host(&self) -> Option<&HostNode> {
        Some(self)
    }

    fn host_mut(&mut self) -> Option<&mut HostNode> {
        Some(self)
    }
}

/// A simulated network of conventional socket hosts.
pub type SocketWorld = World<HostNode>;

impl SocketWorld {
    /// The IP-over-Gigabit-Ethernet testbed (§4.2.1).
    pub fn gige() -> Self {
        SocketWorld::new(FabricConfig::gigabit_ethernet())
    }

    /// The IP-over-Myrinet (GM, 9000-byte MTU) testbed (§4.2.1).
    pub fn gm_myrinet() -> Self {
        SocketWorld::new(FabricConfig::myrinet_gm())
    }

    /// Adds a host; the stack configuration should match the fabric.
    pub fn add_node(&mut self, cfg: StackConfig) -> NodeIdx {
        let addr = Ipv6Addr::new(0xfd00, 0, 0, 0, 0, 0, 0, (self.nodes.len() + 1) as u16);
        self.attach(addr, 0, |_, port| HostNode::new(cfg, addr, port))
    }
}

impl<N: AsHost> World<N> {
    fn host_node(&self, node: NodeIdx) -> &HostNode {
        self.nodes[node.0].host().unwrap_or_else(|| panic!("node {} is a QPIP node", node.0))
    }

    fn host_node_mut(&mut self, node: NodeIdx) -> &mut HostNode {
        self.nodes[node.0].host_mut().unwrap_or_else(|| panic!("node {} is a QPIP node", node.0))
    }

    /// A socket host and the instant its application can next act.
    fn host_now(&mut self, node: NodeIdx) -> (SimTime, &mut HostStack) {
        let now = self.now();
        let h = self.host_node_mut(node);
        (h.app_time.max(now), &mut h.stack)
    }

    /// Routes what a socket call produced and re-arms the node's timer.
    fn host_outputs(&mut self, node: NodeIdx, outs: Vec<HostOutput>) {
        let h = self.nodes[node.0].host_mut().expect("checked by the caller");
        h.absorb(&mut self.net, outs);
        self.refresh_timer(node.0);
    }

    /// Stack access for instrumentation.
    pub fn stack(&self, node: NodeIdx) -> &HostStack {
        &self.host_node(node).stack
    }

    /// Discards buffered application events on a node (between phases).
    pub fn clear_events(&mut self, node: NodeIdx) {
        self.host_node_mut(node).events.clear();
    }

    /// Buffered application events on a node (wakeups not yet consumed).
    pub fn events(&self, node: NodeIdx) -> &[HostOutput] {
        &self.host_node(node).events
    }

    // ----- sockets ---------------------------------------------------------

    /// Creates a TCP socket.
    pub fn tcp_socket(&mut self, node: NodeIdx) -> SockId {
        self.host_node_mut(node).stack.tcp_socket()
    }

    /// Creates a UDP socket.
    pub fn udp_socket(&mut self, node: NodeIdx) -> SockId {
        self.host_node_mut(node).stack.udp_socket()
    }

    /// Binds a UDP socket.
    ///
    /// # Errors
    ///
    /// Propagates [`SockError`].
    pub fn udp_bind(&mut self, node: NodeIdx, sock: SockId, port: u16) -> Result<(), SockError> {
        self.host_node_mut(node).stack.udp_bind(sock, port)
    }

    /// Listens on a TCP port.
    ///
    /// # Errors
    ///
    /// Propagates [`SockError`].
    pub fn listen(&mut self, node: NodeIdx, sock: SockId, port: u16) -> Result<(), SockError> {
        self.host_node_mut(node).stack.listen(sock, port)
    }

    /// Connects to any peer (socket or QPIP) and blocks until
    /// established.
    ///
    /// # Errors
    ///
    /// Propagates [`SockError`].
    ///
    /// # Panics
    ///
    /// Panics if the simulation deadlocks before the handshake finishes.
    pub fn connect_blocking(
        &mut self,
        node: NodeIdx,
        sock: SockId,
        local_port: u16,
        remote: Endpoint,
    ) -> Result<(), SockError> {
        let (t, stack) = self.host_now(node);
        let outs = stack.connect(t, sock, local_port, remote)?;
        self.host_outputs(node, outs);
        self.block_until(
            node,
            |e| matches!(e, HostOutput::Connected { sock: s, .. } if *s == sock),
        );
        Ok(())
    }

    /// Blocks until a listener produces a connection; returns the new
    /// socket.
    ///
    /// # Panics
    ///
    /// Panics on simulation deadlock.
    pub fn accept_blocking(&mut self, node: NodeIdx, listener: SockId) -> SockId {
        let accepted = |e: &HostOutput| matches!(e, HostOutput::Accepted { listener: l, .. } if *l == listener);
        self.block_until(node, accepted);
        let h = self.host_node_mut(node);
        let pos = h.events.iter().position(accepted).expect("just observed");
        let HostOutput::Accepted { sock, at, .. } = h.events.remove(pos) else { unreachable!() };
        h.lift(at);
        sock
    }

    /// Sends all of `data`, blocking (and retrying) when the socket
    /// buffer is full. Returns when the final write syscall returns.
    ///
    /// # Errors
    ///
    /// Propagates [`SockError`].
    ///
    /// # Panics
    ///
    /// Panics on simulation deadlock while waiting for send space.
    pub fn send_blocking(
        &mut self,
        node: NodeIdx,
        sock: SockId,
        data: Vec<u8>,
    ) -> Result<(), SockError> {
        // a blocking write loops over pieces the socket buffer can hold
        let mut offset = 0;
        while offset < data.len() {
            let n = (data.len() - offset).min(16 * 1024);
            if self.try_send(node, sock, &data[offset..offset + n])? {
                offset += n;
            } else {
                // sleep until the stack signals space
                let space = |e: &HostOutput| matches!(e, HostOutput::SendSpace { .. });
                self.host_node_mut(node).events.retain(|e| !space(e));
                self.block_until(node, space);
            }
        }
        Ok(())
    }

    /// Receives exactly `len` bytes, blocking as needed.
    ///
    /// # Panics
    ///
    /// Panics on simulation deadlock.
    pub fn recv_exact(&mut self, node: NodeIdx, sock: SockId, len: usize) -> Vec<u8> {
        let mut got = Vec::with_capacity(len);
        while got.len() < len {
            if self.readable(node, sock) == 0 {
                let ready = |e: &HostOutput| matches!(e, HostOutput::DataReady { sock: s, .. } if *s == sock);
                self.block_until(node, ready);
                self.host_node_mut(node).events.retain(|e| !ready(e));
            }
            let (t, stack) = self.host_now(node);
            let (data, done) = stack.recv(t, sock, len - got.len()).expect("known socket");
            got.extend(data);
            self.host_node_mut(node).lift(done);
        }
        got
    }

    /// Non-blocking send attempt: returns `true` when accepted, `false`
    /// when the send buffer is full (use [`World::step`] to make
    /// progress and retry) — the building block for pumped workloads
    /// like ttcp where one driver loop plays both endpoints. A refused
    /// attempt copies nothing but still charges its syscall, so the
    /// number of attempts is part of the simulation.
    ///
    /// # Errors
    ///
    /// Propagates [`SockError`].
    pub fn try_send(
        &mut self,
        node: NodeIdx,
        sock: SockId,
        data: &[u8],
    ) -> Result<bool, SockError> {
        let (t, stack) = self.host_now(node);
        let (outcome, outs) = stack.send(t, sock, data)?;
        self.host_outputs(node, outs);
        match outcome {
            SendOutcome::Sent { done } => {
                self.host_node_mut(node).lift(done);
                Ok(true)
            }
            SendOutcome::WouldBlock => Ok(false),
        }
    }

    /// Bytes currently readable on a socket.
    pub fn readable(&self, node: NodeIdx, sock: SockId) -> usize {
        self.host_node(node).stack.readable(sock)
    }

    /// Drains up to `max` readable bytes without blocking.
    pub fn recv_available(&mut self, node: NodeIdx, sock: SockId, max: usize) -> Vec<u8> {
        if self.readable(node, sock) == 0 {
            return Vec::new();
        }
        let (t, stack) = self.host_now(node);
        let (data, done) = stack.recv(t, sock, max).expect("known socket");
        self.host_node_mut(node).lift(done);
        data
    }

    /// Sends one UDP datagram.
    ///
    /// # Errors
    ///
    /// Propagates [`SockError`].
    pub fn udp_send(
        &mut self,
        node: NodeIdx,
        sock: SockId,
        dst: Endpoint,
        data: &[u8],
    ) -> Result<(), SockError> {
        let (t, stack) = self.host_now(node);
        let (done, outs) = stack.udp_send(t, sock, dst, data)?;
        self.host_outputs(node, outs);
        self.host_node_mut(node).lift(done);
        Ok(())
    }

    /// Blocks until a UDP datagram is readable, then returns it.
    ///
    /// # Panics
    ///
    /// Panics on simulation deadlock.
    pub fn udp_recv_blocking(&mut self, node: NodeIdx, sock: SockId) -> (Endpoint, Vec<u8>) {
        loop {
            let (t, stack) = self.host_now(node);
            if let Some((src, data, done)) = stack.udp_recv(t, sock) {
                self.host_node_mut(node).lift(done);
                return (src, data);
            }
            assert!(self.step(), "udp_recv deadlocked");
        }
    }

    /// Half-closes a TCP socket.
    ///
    /// # Errors
    ///
    /// Propagates [`SockError`].
    pub fn close(&mut self, node: NodeIdx, sock: SockId) -> Result<(), SockError> {
        let (t, stack) = self.host_now(node);
        let outs = stack.close(t, sock)?;
        self.host_outputs(node, outs);
        Ok(())
    }

    /// Runs the world until a buffered event of the node satisfies
    /// `pred`; the waking event's timestamp already lifted the app
    /// clock.
    fn block_until(&mut self, node: NodeIdx, pred: impl Fn(&HostOutput) -> bool) {
        while !self.host_node(node).events.iter().any(&pred) {
            assert!(self.step(), "socket world deadlocked waiting on node {}", node.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn connected_gige() -> (SocketWorld, NodeIdx, NodeIdx, SockId, SockId) {
        let mut w = SocketWorld::gige();
        let a = w.add_node(StackConfig::gige());
        let b = w.add_node(StackConfig::gige());
        let ls = w.tcp_socket(b);
        w.listen(b, ls, 5000).unwrap();
        let cs = w.tcp_socket(a);
        let remote = Endpoint::new(w.addr(b), 5000);
        w.connect_blocking(a, cs, 4000, remote).unwrap();
        let ss = w.accept_blocking(b, ls);
        (w, a, b, cs, ss)
    }

    #[test]
    fn sockets_connect_and_transfer_over_gige_fabric() {
        let (mut w, a, b, cs, ss) = connected_gige();
        let payload: Vec<u8> = (0..60_000u32).map(|i| (i % 251) as u8).collect();
        w.send_blocking(a, cs, payload.clone()).unwrap();
        let got = w.recv_exact(b, ss, payload.len());
        assert_eq!(got, payload);
    }

    #[test]
    fn gige_transfer_burns_host_cpu_on_both_sides() {
        let (mut w, a, b, cs, ss) = connected_gige();
        w.send_blocking(a, cs, vec![0; 64 * 1024]).unwrap();
        let _ = w.recv_exact(b, ss, 64 * 1024);
        assert!(w.cpu(a).total_cycles() > 50_000, "{}", w.cpu(a).total_cycles());
        assert!(w.cpu(b).total_cycles() > 50_000, "{}", w.cpu(b).total_cycles());
        assert!(w.stack(b).interrupts() > 0);
    }

    #[test]
    fn udp_round_trip_over_gige() {
        let mut w = SocketWorld::gige();
        let a = w.add_node(StackConfig::gige());
        let b = w.add_node(StackConfig::gige());
        let sa = w.udp_socket(a);
        let sb = w.udp_socket(b);
        w.udp_bind(a, sa, 7000).unwrap();
        w.udp_bind(b, sb, 7001).unwrap();
        let db = Endpoint::new(w.addr(b), 7001);
        w.udp_send(a, sa, db, b"ping").unwrap();
        let (src, data) = w.udp_recv_blocking(b, sb);
        assert_eq!(data, b"ping");
        let da = src;
        w.udp_send(b, sb, da, b"pong").unwrap();
        let (_, data) = w.udp_recv_blocking(a, sa);
        assert_eq!(data, b"pong");
        // round trip took tens of microseconds of simulated time
        let rtt = w.app_time(a).as_micros_f64();
        assert!((30.0..400.0).contains(&rtt), "{rtt}");
    }

    #[test]
    fn gm_world_uses_jumbo_frames() {
        let mut w = SocketWorld::gm_myrinet();
        let a = w.add_node(StackConfig::gm_myrinet());
        let b = w.add_node(StackConfig::gm_myrinet());
        let ls = w.tcp_socket(b);
        w.listen(b, ls, 5000).unwrap();
        let cs = w.tcp_socket(a);
        let remote = Endpoint::new(w.addr(b), 5000);
        w.connect_blocking(a, cs, 4000, remote).unwrap();
        let ss = w.accept_blocking(b, ls);
        w.send_blocking(a, cs, vec![3; 32 * 1024]).unwrap();
        let got = w.recv_exact(b, ss, 32 * 1024);
        assert_eq!(got.len(), 32 * 1024);
        // 9000-byte MTU → at most ceil(32768/8928) + handshake frames
        let frames = w.fabric().stats().delivered;
        assert!(frames < 30, "{frames} frames is too many for jumbo MTU");
    }
}
