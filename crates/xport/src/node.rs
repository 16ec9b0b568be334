//! The [`XportNode`] runtime: QPIP verbs over a live UDP socket.
//!
//! A node is a socket, a wall clock and a peer table around one
//! [`QpipNic`] — the very firmware the simulated NIC runs, priced by the
//! [`ZeroCost`] model: on real hardware the cost model *is* the
//! hardware. The NIC owns the **unmodified** protocol engine, the QP
//! table and the completion queues, so every verb, every datagram and
//! every timer takes the simulated NIC's code path. The node only stamps
//! each NIC call with the wall clock and sends what comes out through
//! the peer table, exactly as `QpipNode::drive` puts it on the simulated
//! fabric.
//!
//! The event loop is [`XportNode::pump`]: block on the socket until the
//! budget or the next engine deadline, hand one datagram to
//! [`QpipNic::on_packet`], send what it transmits, then fire due timers
//! through [`QpipNic::on_timer`]. Reading first means an ACK already
//! waiting in the socket beats its own retransmission timer after the
//! thread stalled; while a timer is due, the pump keeps reading what the
//! socket holds before it fires. Otherwise a datagram left in the socket
//! waits for the next pump, and callers loop. Every protocol timer —
//! retransmission, delayed ACK, TIME-WAIT and the persist timer that
//! recovers a lost window update — lives in the engine; the node adds
//! none. [`XportNode::poll`] pops the CQ and pumps only when it is
//! empty, as `ibv_poll_cq` takes entries without touching the wire.
//! [`XportNode::wait`] repeats that poll with a hard timeout and a
//! diagnostic error instead of a hang; [`XportNode::wait_pumping`] is
//! the same wait for two nodes driven from one thread, and [`quiesce`]
//! pumps two nodes until both fall silent. [`XportStats`] counts every
//! socket call by kind, so a message's syscalls are exact.
//!
//! **Flow control.** The window a node advertises is
//! `min(posted-WR space, socket capacity)`. The paper's NIC places data
//! straight into the posted buffers (§5.1), so posted space is all the
//! room there is, and a connection starts with a zero window: its SYN or
//! SYN-ACK advertises the space posted so far, which is none. A live
//! node has a kernel UDP receive buffer between the wire and the
//! engine, and a datagram that finds it full is dropped, so the NIC's
//! QP table caps every window at what the socket holds. The node never
//! sets `SO_RCVBUF`, so every socket starts at `net.core.rmem_default`;
//! a quarter of that is the payload capacity, because socket(7)
//! reserves half the buffer for bookkeeping and the kernel charges each
//! datagram about twice its length. The capacity is never below one
//! full-size segment, since a message cannot be split. The window scale
//! is 0, as on the simulated NIC, so no window exceeds 64 KB whatever the
//! socket holds. Two limits remain, and no current workload reaches
//! either: the kernel charges at least ~0.8 KB per datagram, so a flood
//! of messages under ~300 B can still overrun the socket; and every
//! connection on a node shares its one socket, while the cap applies per
//! connection.
//!
//! **ACKs and window updates** are the firmware's: a 300 µs delayed ACK
//! that rides on the answer in request-response traffic, and a pure
//! window update only when a post can unblock the sender. So a lockstep
//! 64 B round trip costs two datagrams, one message each way.

use std::collections::HashMap;
use std::fmt;
use std::io;
use std::net::{Ipv6Addr, SocketAddr, UdpSocket};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use crate::clock::WallClock;
use qpip_fabric::{Fate, FaultInjector, FaultPlan};
use qpip_netstack::engine::Engine;
use qpip_netstack::types::{Endpoint, NetConfig};
use qpip_nic::types::{Completion, CqId, NicConfig, NicError, QpId, RecvWr, SendWr, ServiceType};
use qpip_nic::{NicOutput, QpCounters, QpipNic, ZeroCost};
use qpip_trace::{TraceEvent, Tracer};
use qpip_wire::Packet;

/// Largest datagram the runtime will receive in one `recv_from`. The
/// engine never builds a packet above the node's MTU, which fits
/// comfortably.
const RECV_BUF: usize = 65536;

/// Every node's wire MTU: jumbo-frame class, like the paper's Myrinet
/// MTU.
const MTU: usize = 9000;

/// The shortest read timeout a blocking `pump` sets, and the one `bind`
/// sets: `set_read_timeout(0)` is an error, and sub-millisecond
/// timeouts just spin against OS timer granularity.
const MIN_READ_TIMEOUT: Duration = Duration::from_millis(1);

/// Most datagrams one `pump` reads while a timer is due.
const BURST: usize = 64;

/// Payload bytes a freshly bound UDP socket can hold: a quarter of
/// `net.core.rmem_default` (see the module docs), read once per
/// process. `None` when the size cannot be read; no cap applies then.
fn socket_capacity() -> Option<u64> {
    static CAPACITY: OnceLock<Option<u64>> = OnceLock::new();
    *CAPACITY.get_or_init(|| {
        let rmem = std::fs::read_to_string("/proc/sys/net/core/rmem_default").ok()?;
        Some(rmem.trim().parse::<u64>().ok()? / 4)
    })
}

/// The largest receive window a node may advertise: its socket's
/// capacity, but never less than one full-size segment; unbounded when
/// the capacity is unknown.
fn window_cap() -> u64 {
    let segment = NetConfig::qpip(MTU).max_tcp_payload() as u64;
    socket_capacity().map_or(u64::MAX, |c| c.max(segment))
}

/// Configuration for one live node. The protocol configuration is the
/// simulated NIC's at a 9000-byte MTU: one message per segment, a
/// 300 µs delayed ACK, a 10 ms minimum RTO.
#[derive(Debug, Clone)]
pub struct XportConfig {
    /// Local socket address to bind. Port 0 lets the OS pick.
    pub bind: SocketAddr,
    /// Hard ceiling on [`XportNode::wait`]: a CQ wait that exceeds this
    /// returns [`XportError::WaitTimeout`] with a diagnostic.
    pub wait_timeout: Duration,
}

impl Default for XportConfig {
    fn default() -> Self {
        XportConfig {
            bind: "127.0.0.1:0".parse().expect("literal addr"),
            wait_timeout: Duration::from_secs(30),
        }
    }
}

/// Errors from the live runtime: verb-layer rejections, socket
/// failures, or a CQ wait that ran out of wall clock.
#[derive(Debug)]
pub enum XportError {
    /// The verbs layer or protocol engine rejected the call.
    Nic(NicError),
    /// The OS socket failed.
    Io(io::Error),
    /// [`XportNode::wait`] exceeded [`XportConfig::wait_timeout`]; the
    /// string describes the pending state of the node and, for
    /// [`XportNode::wait_pumping`], of its peer.
    WaitTimeout(String),
}

impl fmt::Display for XportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XportError::Nic(e) => write!(f, "verbs: {e}"),
            XportError::Io(e) => write!(f, "socket: {e}"),
            XportError::WaitTimeout(d) => write!(f, "wait timed out: {d}"),
        }
    }
}

impl std::error::Error for XportError {}

impl From<NicError> for XportError {
    fn from(e: NicError) -> Self {
        XportError::Nic(e)
    }
}

impl From<io::Error> for XportError {
    fn from(e: io::Error) -> Self {
        XportError::Io(e)
    }
}

qpip_trace::counters! {
    /// Runtime counters (datapath health; all monotone): the socket's,
    /// the NIC's QP delivery counters embedded, and the fault plan's.
    /// A new socket counter is a field here.
    pub struct XportStats in "xport" {
        /// Datagrams read off the socket.
        pub datagrams_rx: u64,
        /// Datagrams written to the socket.
        pub datagrams_tx: u64,
        /// Reads that found no datagram (`WouldBlock` or `TimedOut`).
        pub empty_reads: u64,
        /// `set_nonblocking` and `set_read_timeout` calls that reached
        /// the kernel, the one in `bind` included.
        pub sockopt_calls: u64,
        /// NIC packets dropped because the destination fabric address
        /// has no peer-table entry.
        pub unroutable_drops: u64,
        /// The NIC's QP delivery counters.
        pub qp: QpCounters,
        /// Datagrams the fault plan dropped instead of sending.
        pub injected_drops: u64,
        /// Datagrams the fault plan held behind the node's next one.
        pub injected_holds: u64,
    }
}

/// One live QPIP node: verbs in, UDP datagrams out.
///
/// See the crate docs for the frame/clock/timer mapping. The verb
/// surface mirrors `qpip::world::QpipWorld` minus the node index (a
/// node *is* the handle) — application code ports by swapping the world
/// handle for a node and threading `?` through the results.
pub struct XportNode {
    cfg: XportConfig,
    sock: UdpSocket,
    /// The socket's current mode: nonblocking, or blocking with a read
    /// timeout. Changed only when `pump` wants the other one.
    nonblocking: bool,
    nic: QpipNic<ZeroCost>,
    clock: WallClock,
    peers: HashMap<Ipv6Addr, SocketAddr>,
    /// What the last NIC call transmitted; reused across calls.
    out: Vec<NicOutput>,
    /// The fault plan every outgoing datagram passes, and the
    /// datagrams it holds back; the node is its only sender.
    faults: FaultInjector<(Ipv6Addr, Packet)>,
    buf: Vec<u8>,
    stats: XportStats,
    /// Flight-recorder handle; also installed into the NIC. Events are
    /// stamped with this node's wall-clock-mapped [`SimTime`].
    ///
    /// [`SimTime`]: qpip_sim::time::SimTime
    tracer: Option<Tracer>,
}

impl fmt::Debug for XportNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("XportNode")
            .field("fabric_addr", &self.nic.addr())
            .field("peers", &self.peers.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl XportNode {
    /// Binds a live node: `fabric_addr` is its IPv6 identity on the
    /// fabric (what peers' engines address packets to), `cfg.bind` is
    /// the OS socket it answers on.
    ///
    /// # Errors
    ///
    /// Propagates socket bind/configuration failures.
    pub fn bind(fabric_addr: Ipv6Addr, cfg: XportConfig) -> io::Result<XportNode> {
        let sock = UdpSocket::bind(cfg.bind)?;
        sock.set_read_timeout(Some(MIN_READ_TIMEOUT))?;
        let nic_cfg = NicConfig { mtu: MTU, ..NicConfig::paper_default() };
        Ok(XportNode {
            cfg,
            sock,
            nonblocking: false,
            nic: QpipNic::with_model(nic_cfg, fabric_addr, ZeroCost, window_cap()),
            clock: WallClock::start(),
            peers: HashMap::new(),
            out: Vec::new(),
            faults: FaultInjector::default(),
            buf: vec![0; RECV_BUF],
            stats: XportStats { sockopt_calls: 1, ..XportStats::default() },
            tracer: None,
        })
    }

    /// Installs a flight-recorder handle on the runtime and its NIC.
    /// Socket-level tx/rx are recorded node-scoped; protocol events
    /// carry their connection. Timestamps are this node's
    /// wall-clock-mapped simulation time.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.nic.set_tracer(tracer.clone());
        self.tracer = Some(tracer);
    }

    /// The OS socket address this node receives on (the address to hand
    /// to peers' [`add_peer`](Self::add_peer)).
    ///
    /// # Errors
    ///
    /// Propagates `UdpSocket::local_addr` failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.sock.local_addr()
    }

    /// This node's fabric IPv6 address.
    pub fn fabric_addr(&self) -> Ipv6Addr {
        self.nic.addr()
    }

    /// The largest message one TCP send may carry: one segment.
    pub fn max_tcp_message(&self) -> usize {
        self.nic.engine().config().max_tcp_payload()
    }

    /// Routes fabric address `fabric` to live socket `at` — the role
    /// the Myrinet source-route table played in the paper's testbed.
    /// Re-adding an address overwrites the route.
    pub fn add_peer(&mut self, fabric: Ipv6Addr, at: SocketAddr) {
        self.peers.insert(fabric, at);
    }

    /// Installs a fault plan on every datagram the node sends (tests;
    /// the loopback wire is lossless and in order). Decisions follow
    /// the node's own datagram count, and a held datagram goes out
    /// right behind the node's next one. Datagrams held under the
    /// previous plan stay held.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults.set_plan(plan);
    }

    /// Runtime counters.
    pub fn stats(&self) -> XportStats {
        XportStats {
            qp: self.nic.stats().qp,
            injected_drops: self.faults.packets_dropped(),
            injected_holds: self.faults.packets_held(),
            ..self.stats
        }
    }

    /// The current instant on this node's wall-clock-backed simulation
    /// time axis (what completions' `visible_at` is stamped with).
    pub fn now(&self) -> qpip_sim::time::SimTime {
        self.clock.now()
    }

    /// Read-only view of the protocol engine (retransmission counters,
    /// connection state — useful for asserting that loss recovery
    /// actually ran).
    pub fn engine(&self) -> &Engine {
        self.nic.engine()
    }

    /// Runs the embedded engine's TCB invariant oracle (full sweep; see
    /// [`qpip_netstack::invariant`]).
    ///
    /// # Errors
    ///
    /// The first violation found.
    pub fn check_invariants(&mut self) -> Result<(), qpip_netstack::invariant::InvariantViolation> {
        self.nic.check_invariants()
    }

    // ----- verbs ----------------------------------------------------------

    /// Creates a completion queue.
    pub fn create_cq(&mut self) -> CqId {
        self.nic.create_cq()
    }

    /// Creates a queue pair bound to the given service and CQs.
    ///
    /// # Errors
    ///
    /// [`NicError::UnknownCq`] if either CQ does not exist.
    pub fn create_qp(
        &mut self,
        service: ServiceType,
        send_cq: CqId,
        recv_cq: CqId,
    ) -> Result<QpId, XportError> {
        Ok(self.nic.create_qp(service, send_cq, recv_cq)?)
    }

    /// Binds a UDP QP to a local port.
    ///
    /// # Errors
    ///
    /// [`NicError::InvalidState`] for a TCP QP; engine errors (e.g.
    /// port in use) via [`NicError::Engine`].
    pub fn udp_bind(&mut self, qp: QpId, port: u16) -> Result<(), XportError> {
        Ok(self.nic.udp_bind(qp, port)?)
    }

    /// Adds a TCP QP to the accept pool for `port` (and starts the
    /// listener if this is the first QP on that port) — §3's rendezvous
    /// model.
    ///
    /// # Errors
    ///
    /// [`NicError::InvalidState`] for a UDP QP or one already pooled or
    /// connected.
    pub fn tcp_listen(&mut self, qp: QpId, port: u16) -> Result<(), XportError> {
        Ok(self.nic.tcp_listen(port, qp)?)
    }

    /// Opens a connection from a TCP QP to `remote` (a fabric
    /// endpoint). The SYN leaves immediately; completion arrives later
    /// as a [`CompletionKind::ConnectionEstablished`] entry on the
    /// QP's receive CQ.
    ///
    /// # Errors
    ///
    /// [`NicError::InvalidState`] unless `qp` is an idle TCP QP.
    ///
    /// [`CompletionKind::ConnectionEstablished`]: qpip_nic::types::CompletionKind::ConnectionEstablished
    pub fn tcp_connect(
        &mut self,
        qp: QpId,
        local_port: u16,
        remote: Endpoint,
    ) -> Result<(), XportError> {
        let r = self.nic.tcp_connect(self.clock.now(), qp, local_port, remote, &mut self.out);
        self.send_out()?;
        Ok(r?)
    }

    /// Posts a send work request. UDP sends complete immediately
    /// (handed to the wire); TCP sends complete when every byte is
    /// acknowledged (§3).
    ///
    /// # Errors
    ///
    /// [`NicError::InvalidState`] if the QP is not ready;
    /// [`NicError::Engine`] for engine rejections (e.g. message larger
    /// than one segment in message-per-segment mode).
    pub fn post_send(&mut self, qp: QpId, wr: SendWr) -> Result<(), XportError> {
        let r = self.nic.post_send(self.clock.now(), qp, wr, &mut self.out);
        self.send_out()?;
        Ok(r?)
    }

    /// Posts a receive work request, draining any backlog it can now
    /// absorb and growing the advertised window (§5.1: the window *is*
    /// the posted receive-WR space, up to what the socket holds).
    ///
    /// # Errors
    ///
    /// [`NicError::UnknownQp`] for a bad handle.
    pub fn post_recv(&mut self, qp: QpId, wr: RecvWr) -> Result<(), XportError> {
        let r = self.nic.post_recv(self.clock.now(), qp, wr, &mut self.out);
        self.send_out()?;
        Ok(r?)
    }

    /// Begins a graceful close of a connected TCP QP. The peer sees
    /// [`CompletionKind::PeerDisconnected`]; in-flight sends that can
    /// no longer complete are flushed with
    /// [`CompletionStatus::ConnectionError`] once the connection dies.
    ///
    /// # Errors
    ///
    /// [`NicError::InvalidState`] if the QP has no connection.
    ///
    /// [`CompletionKind::PeerDisconnected`]: qpip_nic::types::CompletionKind::PeerDisconnected
    /// [`CompletionStatus::ConnectionError`]: qpip_nic::types::CompletionStatus::ConnectionError
    pub fn tcp_close(&mut self, qp: QpId) -> Result<(), XportError> {
        let r = self.nic.tcp_close(self.clock.now(), qp, &mut self.out);
        self.send_out()?;
        Ok(r?)
    }

    /// Pops the oldest completion from a CQ. Only when the CQ is empty
    /// does it service the socket, once and without blocking, and pop
    /// again: a poll that finds an entry makes no syscall. A bad handle
    /// is refused before the socket is touched.
    ///
    /// # Errors
    ///
    /// [`NicError::UnknownCq`] for a bad handle; socket errors.
    pub fn poll(&mut self, cq: CqId) -> Result<Option<Completion>, XportError> {
        self.poll_within(cq, Duration::ZERO)
    }

    /// [`poll`](Self::poll) whose pump may block for `max_wait`: one
    /// step of every CQ wait.
    fn poll_within(
        &mut self,
        cq: CqId,
        max_wait: Duration,
    ) -> Result<Option<Completion>, XportError> {
        if let Some(c) = self.nic.cq_pop(cq)? {
            return Ok(Some(c));
        }
        self.pump(max_wait)?;
        Ok(self.nic.cq_pop(cq)?)
    }

    /// Blocks (servicing the socket and timers) until a completion
    /// lands on `cq`.
    ///
    /// # Errors
    ///
    /// [`XportError::WaitTimeout`] — with a pending-state diagnostic —
    /// after [`XportConfig::wait_timeout`] of no completion; socket
    /// errors.
    pub fn wait(&mut self, cq: CqId) -> Result<Completion, XportError> {
        self.wait_loop(cq, None)
    }

    /// [`wait`](Self::wait) for two nodes driven from one thread: polls
    /// `cq` without blocking and pumps `peer` only when that poll, its
    /// own pump included, found nothing, so the other end keeps
    /// answering — the application-owned post-then-poll loop of the
    /// paper's verbs library.
    ///
    /// # Errors
    ///
    /// As [`wait`](Self::wait), with `peer`'s pending state in the
    /// timeout diagnostic; `peer`'s socket errors too.
    pub fn wait_pumping(
        &mut self,
        cq: CqId,
        peer: &mut XportNode,
    ) -> Result<Completion, XportError> {
        self.wait_loop(cq, Some(peer))
    }

    fn wait_loop(
        &mut self,
        cq: CqId,
        mut peer: Option<&mut XportNode>,
    ) -> Result<Completion, XportError> {
        let deadline = Instant::now() + self.cfg.wait_timeout;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            // with a peer on this thread, never block: its datagrams
            // land on its own socket
            let budget = if peer.is_some() { Duration::ZERO } else { left };
            if let Some(c) = self.poll_within(cq, budget)? {
                return Ok(c);
            }
            if left.is_zero() {
                let mut report = format!(
                    "no completion on {cq} within {:?}\n{}",
                    self.cfg.wait_timeout,
                    self.pending_summary()
                );
                if let Some(p) = &peer {
                    report.push_str(&p.pending_summary());
                }
                return Err(XportError::WaitTimeout(report));
            }
            if let Some(p) = peer.as_deref_mut() {
                p.pump(Duration::ZERO)?;
            }
        }
    }

    /// Services the node once: blocks on the socket for at most
    /// `max_wait` — cut short by the next engine deadline, so an overdue
    /// timer makes the read nonblocking — processes one datagram if one
    /// arrived, then fires due timers. While a timer is due it first
    /// reads on, up to 64 datagrams, so an ACK already in the socket
    /// beats its own overdue timer; otherwise a datagram left in the
    /// socket waits for the next pump, whose read returns at once.
    /// Returns whether a datagram was processed. Call in a loop to run
    /// the node without waiting on a specific CQ (e.g. a server between
    /// requests).
    ///
    /// # Errors
    ///
    /// Socket errors other than timeout/would-block.
    pub fn pump(&mut self, max_wait: Duration) -> Result<bool, XportError> {
        let mut budget = max_wait;
        if let Some(d) = self.nic.next_deadline() {
            budget = budget.min(self.clock.until(d));
        }
        if budget.is_zero() {
            self.set_nonblocking(true)?;
        } else {
            self.set_nonblocking(false)?;
            self.stats.sockopt_calls += 1;
            self.sock.set_read_timeout(Some(budget.max(MIN_READ_TIMEOUT)))?;
        }
        let got = self.recv_once()?;
        if got {
            // read before firing timers: an ACK already in the socket
            // must cancel its retransmission timer, not lose to it
            for _ in 1..BURST {
                if !self.timer_due() {
                    break;
                }
                self.set_nonblocking(true)?;
                if !self.recv_once()? {
                    break;
                }
            }
        }
        self.fire_due_timers()?;
        Ok(got)
    }

    // ----- event loop internals -------------------------------------------

    /// Puts the socket in the wanted mode, with a syscall only when it
    /// is in the other one: callers that pump with a zero budget stay
    /// nonblocking.
    fn set_nonblocking(&mut self, on: bool) -> io::Result<()> {
        if self.nonblocking != on {
            self.stats.sockopt_calls += 1;
            self.sock.set_nonblocking(on)?;
            self.nonblocking = on;
        }
        Ok(())
    }

    /// Whether the engine's next timer is due.
    fn timer_due(&self) -> bool {
        self.nic.next_deadline().is_some_and(|d| d <= self.clock.now())
    }

    fn fire_due_timers(&mut self) -> Result<(), XportError> {
        // loop: handling one batch takes real wall time, which may ripen
        // the next deadline
        while self.timer_due() {
            let now = self.clock.now();
            self.nic.on_timer(now, &mut self.out);
            self.send_out()?;
        }
        Ok(())
    }

    fn recv_once(&mut self) -> Result<bool, XportError> {
        match self.sock.recv_from(&mut self.buf) {
            Ok((n, _from)) => {
                self.stats.datagrams_rx += 1;
                let now = self.clock.now();
                if let Some(tr) = &self.tracer {
                    tr.emit_node(now, TraceEvent::Sock { op: "rx", bytes: n as u32 });
                }
                self.nic.on_packet(now, &self.buf[..n], &mut self.out);
                self.send_out()?;
                Ok(true)
            }
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                self.stats.empty_reads += 1;
                Ok(false)
            }
            Err(e) => Err(e.into()),
        }
    }

    /// The drive step after every NIC call: checks the engine's TCB
    /// invariants (debug builds), then sends what the call transmitted,
    /// in order, under the fault plan.
    fn send_out(&mut self) -> Result<(), XportError> {
        // debug-build oracle gate: a latched TCB invariant violation
        // surfaces right after the NIC call that caused it
        #[cfg(debug_assertions)]
        if let Some(v) = self.nic.take_invariant_violation() {
            panic!("TCB invariant `{}` violated in live transport: {}", v.invariant, v.detail);
        }
        // take the buffer so each send may borrow the node; put it back
        // to keep its allocation
        let mut out = std::mem::take(&mut self.out);
        let sent = out.drain(..).try_for_each(|o| {
            match self.faults.admit(0, (o.dst, o.bytes)) {
                Fate::Pass(p) => self.put(p)?,
                Fate::Drop(_) => {}
                Fate::Hold => return Ok(()),
            }
            // the datagrams held before this one follow it
            self.release_held()
        });
        self.out = out;
        sent
    }

    /// Sends every datagram the fault plan holds.
    fn release_held(&mut self) -> Result<(), XportError> {
        while let Some((_, p)) = self.faults.release(None) {
            self.put(p)?;
        }
        Ok(())
    }

    /// Sends one datagram through the peer table.
    fn put(&mut self, (dst, bytes): (Ipv6Addr, Packet)) -> Result<(), XportError> {
        let Some(&to) = self.peers.get(&dst) else {
            self.stats.unroutable_drops += 1;
            return Ok(());
        };
        self.sock.send_to(&bytes, to)?;
        self.stats.datagrams_tx += 1;
        if let Some(tr) = &self.tracer {
            tr.emit_node(
                self.clock.now(),
                TraceEvent::Sock { op: "tx", bytes: bytes.len() as u32 },
            );
        }
        Ok(())
    }

    /// Describes the node's pending state for the wait-timeout
    /// diagnostic: its fabric address and socket traffic, then what
    /// every CQ holds, what every QP still has outstanding, and what
    /// the engine thinks is in flight.
    fn pending_summary(&self) -> String {
        format!(
            "  fabric {} ({} datagrams rx / {} tx):\n{}",
            self.fabric_addr(),
            self.stats.datagrams_rx,
            self.stats.datagrams_tx,
            self.nic.pending_summary(),
        )
    }
}

/// How long [`quiesce`] pumps before it gives up.
const QUIESCE_CAP: Duration = Duration::from_secs(10);

/// Pumps both nodes without blocking until neither has a timer pending
/// (a delayed ACK, a retransmission, TIME-WAIT) and a round moved no
/// datagram, so a FIN exchange, the last ACKs and the completions they
/// retire are all done before the caller reads counters or drops the
/// nodes: the live counterpart of running a DES world until idle. Like
/// the DES world, it sends what a fault plan still holds before it
/// calls the nodes idle.
///
/// # Errors
///
/// Either node's socket errors.
///
/// # Panics
///
/// When the nodes are still busy after 10 s of wall time (a persist
/// timer facing a window that never opens never goes idle).
pub fn quiesce(a: &mut XportNode, b: &mut XportNode) -> Result<(), XportError> {
    let cap = Instant::now() + QUIESCE_CAP;
    loop {
        let sent = a.stats.datagrams_tx + b.stats.datagrams_tx;
        let got = a.pump(Duration::ZERO)? | b.pump(Duration::ZERO)?;
        let moved = got || a.stats.datagrams_tx + b.stats.datagrams_tx != sent;
        if !moved && a.nic.next_deadline().is_none() && b.nic.next_deadline().is_none() {
            a.release_held()?;
            b.release_held()?;
            if a.stats.datagrams_tx + b.stats.datagrams_tx == sent {
                return Ok(());
            }
        }
        assert!(
            Instant::now() < cap,
            "nodes still busy after {QUIESCE_CAP:?}\n{}{}",
            a.pending_summary(),
            b.pending_summary()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The cap is only as good as the kernel's charge per datagram: a
    /// socket nobody reads must keep a full capped window of messages,
    /// each in a datagram of its length plus IPv6, TCP and timestamp
    /// headers (72 B), at every message size a workload uses.
    #[test]
    fn an_unread_socket_holds_a_full_clamped_window() {
        let cap = window_cap();
        assert_ne!(cap, u64::MAX, "net.core.rmem_default unreadable");
        for m in [1024, 8192, NetConfig::qpip(MTU).max_tcp_payload()] {
            let count = cap / m as u64;
            let rx = UdpSocket::bind("127.0.0.1:0").unwrap();
            let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
            let to = rx.local_addr().unwrap();
            let datagram = vec![0x5a; m + 72];
            for _ in 0..count {
                tx.send_to(&datagram, to).unwrap();
            }
            // a timeout, not nonblocking: the last read waits out any
            // datagram still on its way through the loopback device
            rx.set_read_timeout(Some(Duration::from_millis(200))).unwrap();
            let mut buf = vec![0; RECV_BUF];
            let mut held = 0;
            while let Ok((n, _)) = rx.recv_from(&mut buf) {
                assert_eq!(n, m + 72);
                held += 1;
            }
            assert_eq!(held, count, "{m} B messages: the socket dropped {}", count - held);
        }
    }
}
