//! The [`XportNode`] runtime: QPIP verbs over a live UDP socket.
//!
//! One node owns one nonblocking-with-timeout `UdpSocket`, one
//! **unmodified** [`Engine`], and one [`QpTable`] — the very QP table
//! the simulated NIC firmware drives (receive-WR queues, SRAM backlog,
//! accept pools, send-token retirement, posted-WR receive windows —
//! §3/§5.1 of the paper). The table decides; this driver adds only
//! socket I/O, the wall clock, the peer table and CQ storage. Where the
//! firmware wraps each table outcome in cycle charges, the node stamps
//! it with the wall clock: on real hardware the cost model *is* the
//! hardware.
//!
//! The event loop is [`XportNode::pump`]: fire due engine timers, block
//! on the socket until the budget or the next engine deadline, feed any
//! datagram to [`Engine::on_packet`], and transmit whatever the engine
//! emits through the peer table. Every protocol timer — retransmission,
//! delayed ACK, TIME-WAIT and the persist timer that recovers a lost
//! window update — lives in the engine; the node adds none.
//! [`XportNode::wait`] layers a completion-queue wait on top with a hard
//! timeout and a diagnostic error instead of a hang;
//! [`XportNode::wait_pumping`] is the same wait for two nodes driven
//! from one thread, and [`quiesce`] pumps two nodes until both fall
//! silent.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::io;
use std::net::{Ipv6Addr, SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

use crate::clock::WallClock;
use qpip_netstack::engine::{with_emit_buffer, Engine, EngineError};
use qpip_netstack::types::{Emit, Endpoint, NetConfig, PacketOut};
use qpip_nic::qp_table::{CqEntry, Outcome, QpTable, TokenUse};
use qpip_nic::types::{
    Completion, CompletionKind, CompletionStatus, CqId, NicError, QpId, RecvWr, SendWr, ServiceType,
};
use qpip_trace::{Snapshot, TraceEvent, Tracer};

/// Largest datagram the runtime will receive in one `recv_from`. The
/// engine never builds a packet above the configured MTU, and the
/// default MTU (9000, jumbo-frame class like the paper's Myrinet MTU)
/// fits comfortably.
const RECV_BUF: usize = 65536;

/// Configuration for one live node.
#[derive(Debug, Clone)]
pub struct XportConfig {
    /// Protocol-engine configuration. Defaults to the paper's QPIP
    /// profile ([`NetConfig::qpip`]) at a 9000-byte MTU: one message per
    /// segment, immediate ACKs, 10 ms minimum RTO.
    pub net: NetConfig,
    /// Local socket address to bind. Port 0 lets the OS pick.
    pub bind: SocketAddr,
    /// Hard ceiling on [`XportNode::wait`]: a CQ wait that exceeds this
    /// returns [`XportError::WaitTimeout`] with a diagnostic.
    pub wait_timeout: Duration,
}

impl Default for XportConfig {
    fn default() -> Self {
        XportConfig {
            net: NetConfig::qpip(9000),
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
    /// string describes the node's pending state.
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

impl From<EngineError> for XportError {
    fn from(e: EngineError) -> Self {
        XportError::Nic(NicError::Engine(e))
    }
}

/// Runtime counters (datapath health; all monotone).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct XportStats {
    /// Datagrams read off the socket.
    pub datagrams_rx: u64,
    /// Datagrams written to the socket.
    pub datagrams_tx: u64,
    /// Engine packets dropped because the destination fabric address
    /// has no peer-table entry.
    pub unroutable_drops: u64,
    /// UDP messages dropped because no receive WR was posted
    /// (unreliable service — §3).
    pub udp_no_wr_drops: u64,
    /// TCP messages parked in the backlog awaiting a receive WR.
    pub tcp_backlogged: u64,
    /// Receive completions flagged with a length error.
    pub length_errors: u64,
}

impl XportStats {
    /// Renders the counters as a named snapshot (scope `"xport"`).
    pub fn snapshot(&self) -> Snapshot {
        let mut s = Snapshot::new("xport");
        s.push("datagrams_rx", self.datagrams_rx)
            .push("datagrams_tx", self.datagrams_tx)
            .push("unroutable_drops", self.unroutable_drops)
            .push("udp_no_wr_drops", self.udp_no_wr_drops)
            .push("tcp_backlogged", self.tcp_backlogged)
            .push("length_errors", self.length_errors);
        s
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
    engine: Engine,
    clock: WallClock,
    peers: HashMap<Ipv6Addr, SocketAddr>,
    qps: QpTable,
    cqs: HashMap<CqId, VecDeque<Completion>>,
    buf: Vec<u8>,
    stats: XportStats,
    /// Flight-recorder handle; also installed into the embedded engine.
    /// Events are stamped with this node's wall-clock-mapped [`SimTime`].
    tracer: Option<Tracer>,
}

impl fmt::Debug for XportNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("XportNode")
            .field("fabric_addr", &self.engine.local_addr())
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
        sock.set_read_timeout(Some(Duration::from_millis(1)))?;
        let engine = Engine::new(cfg.net.clone(), fabric_addr);
        let qps = QpTable::new(cfg.net.mtu);
        Ok(XportNode {
            cfg,
            sock,
            nonblocking: false,
            engine,
            clock: WallClock::start(),
            peers: HashMap::new(),
            qps,
            cqs: HashMap::new(),
            buf: vec![0; RECV_BUF],
            stats: XportStats::default(),
            tracer: None,
        })
    }

    /// Installs a flight-recorder handle on the runtime and its embedded
    /// engine. Socket-level tx/rx are recorded node-scoped; protocol
    /// events carry their connection. Timestamps are this node's
    /// wall-clock-mapped simulation time.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.engine.set_tracer(tracer.clone());
        self.tracer = Some(tracer);
    }

    /// The OS socket address this node receives on (the address to hand
    /// to peers' [`add_peer`](Self::add_peer), or to a proxy).
    ///
    /// # Errors
    ///
    /// Propagates `UdpSocket::local_addr` failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.sock.local_addr()
    }

    /// This node's fabric IPv6 address.
    pub fn fabric_addr(&self) -> Ipv6Addr {
        self.engine.local_addr()
    }

    /// Routes fabric address `fabric` to live socket `at` — the role
    /// the Myrinet source-route table played in the paper's testbed.
    /// Re-adding an address overwrites the route (e.g. to interpose a
    /// proxy).
    pub fn add_peer(&mut self, fabric: Ipv6Addr, at: SocketAddr) {
        self.peers.insert(fabric, at);
    }

    /// Runtime counters.
    pub fn stats(&self) -> XportStats {
        let c = self.qps.counters();
        XportStats {
            udp_no_wr_drops: c.udp_no_wr_drops,
            tcp_backlogged: c.tcp_backlogged,
            length_errors: c.length_errors,
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
        &self.engine
    }

    /// Runs the embedded engine's TCB invariant oracle (full sweep; see
    /// [`qpip_netstack::invariant`]).
    ///
    /// # Errors
    ///
    /// The first violation found.
    pub fn check_invariants(&mut self) -> Result<(), qpip_netstack::invariant::InvariantViolation> {
        self.engine.check_invariants()
    }

    // ----- verbs ----------------------------------------------------------

    /// Creates a completion queue.
    pub fn create_cq(&mut self) -> CqId {
        let id = self.qps.create_cq();
        self.cqs.insert(id, VecDeque::new());
        id
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
        Ok(self.qps.create_qp(service, send_cq, recv_cq)?)
    }

    /// Binds a UDP QP to a local port.
    ///
    /// # Errors
    ///
    /// [`NicError::InvalidState`] for a TCP QP; engine errors (e.g.
    /// port in use) via [`NicError::Engine`].
    pub fn udp_bind(&mut self, qp: QpId, port: u16) -> Result<(), XportError> {
        Ok(self.qps.udp_bind(&mut self.engine, qp, port)?)
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
        Ok(self.qps.tcp_listen(&mut self.engine, qp, port)?)
    }

    /// Opens a connection from a TCP QP to `remote` (a fabric
    /// endpoint). The SYN leaves immediately; completion arrives later
    /// as a [`CompletionKind::ConnectionEstablished`] entry on the
    /// QP's receive CQ.
    ///
    /// # Errors
    ///
    /// [`NicError::InvalidState`] unless `qp` is an idle TCP QP.
    pub fn tcp_connect(
        &mut self,
        qp: QpId,
        local_port: u16,
        remote: Endpoint,
    ) -> Result<(), XportError> {
        self.qps.check_connect(qp)?;
        let now = self.clock.now();
        with_emit_buffer(|emits| {
            let conn = self.engine.tcp_connect(now, local_port, remote, emits);
            let window = self.qps.attach(qp, conn);
            // announce the posted-WR window so the SYN-ACK peer sees real
            // space as soon as the handshake completes (§5.1)
            self.engine.set_recv_space(now, conn, window, emits)?;
            self.dispatch(emits)
        })
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
        if self.qps.service(qp)? == ServiceType::ReliableTcp {
            let conn = self.qps.conn(qp)?;
            let token = self.qps.issue_token(TokenUse::Send(qp, wr.wr_id));
            let now = self.clock.now();
            return with_emit_buffer(|emits| {
                self.engine
                    .tcp_send(now, conn, wr.payload, token, emits)
                    .inspect_err(|_| self.qps.cancel_token(token))?;
                self.dispatch(emits)
            });
        }
        let port = self.qps.udp_port(qp)?;
        let dst = wr.dst.ok_or(NicError::InvalidState("UDP send needs a destination"))?;
        let emit = self.engine.udp_send(port, dst, &wr.payload)?;
        with_emit_buffer(|emits| {
            emits.push(emit);
            self.dispatch(emits)
        })?;
        let kind = CompletionKind::Send;
        self.complete(self.qps.send_entry(qp, wr.wr_id, kind, CompletionStatus::Success));
        Ok(())
    }

    /// Posts a receive work request, draining any backlog it can now
    /// absorb and growing the advertised window (§5.1: the window *is*
    /// the posted receive-WR space).
    ///
    /// # Errors
    ///
    /// [`NicError::UnknownQp`] for a bad handle.
    pub fn post_recv(&mut self, qp: QpId, wr: RecvWr) -> Result<(), XportError> {
        let posted = self.qps.post_recv(qp, wr)?;
        while let Some(entry) = self.qps.pop_backlog(qp) {
            self.complete(entry);
        }
        if let Some(conn) = posted.conn {
            // read the posted space AFTER the drain: a backlogged
            // message may have consumed the WR just posted, and the
            // advertised window must equal the space actually available
            let window = self.qps.window(qp);
            let now = self.clock.now();
            with_emit_buffer(|emits| {
                self.engine.set_recv_space(now, conn, window, emits)?;
                if posted.announce {
                    self.dispatch(emits)?;
                }
                Ok::<_, XportError>(())
            })?;
        }
        Ok(())
    }

    /// Begins a graceful close of a connected TCP QP. The peer sees
    /// [`CompletionKind::PeerDisconnected`]; in-flight sends that can
    /// no longer complete are flushed with
    /// [`CompletionStatus::ConnectionError`] once the connection dies.
    ///
    /// # Errors
    ///
    /// [`NicError::InvalidState`] if the QP has no connection.
    pub fn tcp_close(&mut self, qp: QpId) -> Result<(), XportError> {
        let conn = self.qps.conn(qp)?;
        let now = self.clock.now();
        with_emit_buffer(|emits| {
            self.engine.tcp_close(now, conn, emits)?;
            self.dispatch(emits)
        })
    }

    /// Pops the oldest completion from a CQ, servicing the socket once
    /// (without blocking) first.
    ///
    /// # Errors
    ///
    /// [`NicError::UnknownCq`] for a bad handle; socket errors.
    pub fn poll(&mut self, cq: CqId) -> Result<Option<Completion>, XportError> {
        if !self.cqs.contains_key(&cq) {
            return Err(NicError::UnknownCq(cq).into());
        }
        self.pump(Duration::ZERO)?;
        Ok(self.cqs.get_mut(&cq).expect("checked").pop_front())
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
    /// `cq` without blocking and pumps `peer` after every empty poll, so
    /// the other end keeps answering — the application-owned
    /// post-then-poll loop of the paper's verbs library.
    ///
    /// # Errors
    ///
    /// As [`wait`](Self::wait); `peer`'s socket errors too.
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
        if !self.cqs.contains_key(&cq) {
            return Err(NicError::UnknownCq(cq).into());
        }
        let deadline = Instant::now() + self.cfg.wait_timeout;
        loop {
            if let Some(c) = self.cqs.get_mut(&cq).expect("checked").pop_front() {
                return Ok(c);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(XportError::WaitTimeout(self.pending_summary(cq)));
            }
            // with a peer on this thread, never block: its datagrams
            // land on its own socket
            self.pump(if peer.is_some() { Duration::ZERO } else { left })?;
            if let Some(p) = peer.as_deref_mut() {
                p.pump(Duration::ZERO)?;
            }
        }
    }

    /// Services the node once: fires due timers, blocks on the socket
    /// for at most `max_wait` — cut short by the next engine deadline —
    /// and processes one datagram if one arrived. Returns whether a
    /// datagram was processed. Call in a loop to run the node without
    /// waiting on a specific CQ (e.g. a server between requests).
    ///
    /// # Errors
    ///
    /// Socket errors other than timeout/would-block.
    pub fn pump(&mut self, max_wait: Duration) -> Result<bool, XportError> {
        self.fire_due_timers()?;
        let mut budget = max_wait;
        if let Some(d) = self.engine.next_deadline() {
            budget = budget.min(self.clock.until(d));
        }
        if budget.is_zero() {
            self.set_nonblocking(true)?;
        } else {
            self.set_nonblocking(false)?;
            // clamp: set_read_timeout(0) is an error, and sub-ms
            // timeouts just spin against OS timer granularity
            self.sock.set_read_timeout(Some(budget.max(Duration::from_millis(1))))?;
        }
        let got = self.recv_once()?;
        if got {
            // drain the burst behind the first datagram without
            // blocking, so queued packets don't sit out an RTO while
            // the loop sleeps between single reads
            self.set_nonblocking(true)?;
            for _ in 0..63 {
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
            self.sock.set_nonblocking(on)?;
            self.nonblocking = on;
        }
        Ok(())
    }

    fn fire_due_timers(&mut self) -> Result<(), XportError> {
        // loop: handling one batch takes real wall time, which may ripen
        // the next deadline
        while let Some(d) = self.engine.next_deadline() {
            let now = self.clock.now();
            if d > now {
                break;
            }
            with_emit_buffer(|emits| {
                self.engine.on_timer(now, emits);
                self.dispatch(emits)
            })?;
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
                with_emit_buffer(|emits| {
                    self.engine.on_packet(now, &self.buf[..n], emits);
                    self.dispatch(emits)
                })?;
                Ok(true)
            }
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                Ok(false)
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Drains engine emissions in order, depth-first: a window update or
    /// refusal an outcome triggers goes out (through a buffer of its
    /// own) before the rest of the batch, exactly as in the simulated
    /// firmware.
    fn dispatch(&mut self, emits: &mut Vec<Emit>) -> Result<(), XportError> {
        // debug-build oracle gate: every engine interaction funnels
        // through here, so a latched TCB invariant violation surfaces
        // on the very next dispatch
        #[cfg(debug_assertions)]
        if let Some(v) = self.engine.take_invariant_violation() {
            panic!("TCB invariant `{}` violated in live transport: {}", v.invariant, v.detail);
        }
        for e in emits.drain(..) {
            if let Emit::Packet(p) = e {
                self.transmit(p)?;
                continue;
            }
            match self.qps.handle(e) {
                Outcome::Nothing | Outcome::Backlogged | Outcome::Dropped => {}
                Outcome::Placed(entry) | Outcome::Retired(entry) | Outcome::PeerClosed(entry) => {
                    self.complete(entry);
                }
                Outcome::Up { entry, conn, window } => {
                    self.complete(entry);
                    // announce the real (posted-WR) window now that we
                    // are connected
                    let now = self.clock.now();
                    with_emit_buffer(|upd| {
                        let _ = self.engine.set_recv_space(now, conn, window, upd);
                        self.dispatch(upd)
                    })?;
                }
                Outcome::Refuse(conn) => {
                    let now = self.clock.now();
                    with_emit_buffer(|rst| {
                        let _ = self.engine.tcp_abort(now, conn, rst);
                        self.dispatch(rst)
                    })?;
                }
                Outcome::Down { notice, flushed, .. } => {
                    for entry in notice.into_iter().chain(flushed) {
                        self.complete(entry);
                    }
                }
            }
        }
        Ok(())
    }

    fn transmit(&mut self, p: PacketOut) -> Result<(), XportError> {
        let Some(&to) = self.peers.get(&p.dst) else {
            self.stats.unroutable_drops += 1;
            return Ok(());
        };
        self.sock.send_to(&p.bytes, to)?;
        self.stats.datagrams_tx += 1;
        if let Some(tr) = &self.tracer {
            tr.emit_node(
                self.clock.now(),
                TraceEvent::Sock { op: "tx", bytes: p.bytes.len() as u32 },
            );
        }
        Ok(())
    }

    fn complete(&mut self, entry: CqEntry) {
        let (cq, c) = entry.stamp(self.clock.now());
        self.cqs.entry(cq).or_default().push_back(c);
    }

    /// Describes the node's pending state for the wait-timeout
    /// diagnostic: which CQ was being waited on, what every QP still
    /// has outstanding, and what the engine thinks is in flight.
    fn pending_summary(&self, cq: CqId) -> String {
        format!(
            "no completion on {cq} within {:?} (fabric {}, {} datagrams rx / {} tx)\n{}; \
             engine conns={} retransmissions={}",
            self.cfg.wait_timeout,
            self.fabric_addr(),
            self.stats.datagrams_rx,
            self.stats.datagrams_tx,
            self.qps.summary(),
            self.engine.conn_count(),
            self.engine.retransmissions(),
        )
    }
}

/// Pumps both nodes without blocking until neither has read a datagram
/// for 50 rounds in a row, so a FIN exchange and any last ACKs are
/// answered before the caller reads counters or drops the nodes.
///
/// # Errors
///
/// Either node's socket errors.
pub fn quiesce(a: &mut XportNode, b: &mut XportNode) -> Result<(), XportError> {
    let mut idle = 0;
    while idle < 50 {
        let got = a.pump(Duration::ZERO)? | b.pump(Duration::ZERO)?;
        idle = if got { 0 } else { idle + 1 };
    }
    Ok(())
}
