//! The queue-pair table: every QP-semantics decision, with no notion
//! of time or cost.
//!
//! The firmware ([`crate::QpipNic`]) keeps its queue pairs here and
//! prices each step through its cost model, so the paper's QP
//! semantics are written once for the simulated NIC and the live-socket
//! transport alike:
//!
//! * an incoming connection is mated to an idle QP from the listening
//!   port's accept pool, or refused when the pool is empty (§3);
//! * one message consumes one posted receive WR; reliable messages
//!   with no WR wait in the SRAM backlog, datagrams with none are
//!   dropped (§3);
//! * the advertised TCP window is exactly the posted receive-WR space
//!   (§5.1), up to the table's window cap, and a post sends a pure
//!   window update only when it can unblock the sender (receiver SWS
//!   avoidance, RFC 1122 §4.2.3.3): the window was under one MTU, and
//!   the post reopens it from zero or grows it by at least min(half the
//!   new window, one MTU). Any other growth rides on the next data
//!   segment or ACK;
//! * a send WR retires when its bytes are acknowledged, and a dead
//!   connection flushes its QP's outstanding send WRs.
//!
//! The window cap is the one thing the substrate adds. The paper's NIC
//! places data straight into the posted buffers, so it has none
//! (`u64::MAX`). A live node has a kernel UDP receive buffer between
//! the wire and the engine, and caps every window at what that socket
//! holds.
//!
//! The table decides; the firmware does the work. [`QpTable::handle`]
//! consumes one non-packet engine [`Emit`] and reports an [`Outcome`]:
//! which WR and CQ a message lands on, whether it was backlogged or
//! dropped, which send token retired, which QP came up with which
//! window to announce, which connection to refuse, and what a dead QP
//! flushes.
//!
//! The completion queues live here too. The firmware charges whatever
//! work an outcome costs and hands each [`CqEntry`] back through
//! [`QpTable::complete`] with the instant it becomes visible; the
//! verbs library then pops it with [`QpTable::cq_pop`]. So one module
//! decides where a completion lands and in what order it is popped, and
//! [`QpTable::summary`] can show CQ contents next to the QP state.

use std::collections::VecDeque;
use std::fmt::Write as _;

use qpip_netstack::engine::{Engine, EngineError};
use qpip_netstack::hash::FxHashMap;
use qpip_netstack::types::{ConnId, Emit, Endpoint, SendToken};
use qpip_sim::time::SimTime;

use crate::types::{
    Completion, CompletionKind, CompletionStatus, CqId, NicError, QpId, RecvWr, ServiceType,
};

/// Where a TCP QP stands in the connection lifecycle. `tcp_listen` and
/// `tcp_connect` accept only an idle QP, so a QP is mated to at most
/// one connection and sits in at most one accept pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Link {
    /// No connection and no pool.
    Idle,
    /// Waiting in an accept pool for an incoming connection.
    Pooled,
    /// Active open in progress.
    Connecting(ConnId),
    /// Connection up; the posted window is being advertised.
    Established(ConnId),
}

impl Link {
    fn conn(self) -> Option<ConnId> {
        match self {
            Link::Connecting(c) | Link::Established(c) => Some(c),
            Link::Idle | Link::Pooled => None,
        }
    }
}

#[derive(Debug)]
struct Qp {
    service: ServiceType,
    send_cq: CqId,
    recv_cq: CqId,
    link: Link,
    local_port: Option<u16>,
    recv_queue: VecDeque<RecvWr>,
    posted_bytes: u64,
    /// In-order TCP messages waiting for the host to post a receive WR.
    backlog: VecDeque<Vec<u8>>,
}

impl Qp {
    /// Pops the oldest posted receive WR, shrinking the window.
    fn take_wr(&mut self) -> Option<RecvWr> {
        let wr = self.recv_queue.pop_front()?;
        self.posted_bytes = self.posted_bytes.saturating_sub(wr.capacity as u64);
        Some(wr)
    }
}

/// What a send token stands for, so ACK-driven completions dispatch to
/// the right CQ entry kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenUse {
    /// A send-receive WR: completes as [`CompletionKind::Send`].
    Send(QpId, u64),
    /// An RDMA Write WR: completes as [`CompletionKind::RdmaWrite`].
    RdmaWrite(QpId, u64),
    /// Driver-internal traffic (RDMA read requests/responses): no CQ
    /// entry.
    Internal,
}

impl TokenUse {
    /// The QP, WR id and completion kind of a host-posted WR.
    fn wr(self) -> Option<(QpId, u64, CompletionKind)> {
        match self {
            TokenUse::Send(qp, wr_id) => Some((qp, wr_id, CompletionKind::Send)),
            TokenUse::RdmaWrite(qp, wr_id) => Some((qp, wr_id, CompletionKind::RdmaWrite)),
            TokenUse::Internal => None,
        }
    }

    fn owned_by(self, qp: QpId) -> bool {
        matches!(self.wr(), Some((owner, ..)) if owner == qp)
    }
}

/// A completion the table decided on, not yet on its CQ: the driver
/// passes it to [`QpTable::complete`] with the instant it becomes
/// visible to the host.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CqEntry {
    /// The CQ the entry lands on.
    pub cq: CqId,
    /// The QP the work belonged to.
    pub qp: QpId,
    /// The work-request id (0 for connection events).
    pub wr_id: u64,
    /// What completed.
    pub kind: CompletionKind,
    /// Status.
    pub status: CompletionStatus,
}

/// The table's verdict on one non-packet engine emission.
#[derive(Debug)]
pub enum Outcome {
    /// Nothing reaches the host: an unmapped connection or a
    /// driver-internal send token.
    Nothing,
    /// A message landed on a posted receive WR (a `Recv` entry; UDP
    /// entries carry the sender, TCP entries do not).
    Placed(CqEntry),
    /// A reliable message found no receive WR and waits in the backlog.
    Backlogged,
    /// A datagram found no bound QP or no receive WR and is gone.
    Dropped,
    /// An acknowledged send or RDMA Write WR retired.
    Retired(CqEntry),
    /// A QP's connection came up: post `entry`, then announce `window`
    /// bytes of receive space on `conn`.
    Up {
        /// The `ConnectionEstablished` entry.
        entry: CqEntry,
        /// The connection to announce the window on.
        conn: ConnId,
        /// The QP's posted receive-WR bytes, up to the window cap.
        window: u64,
    },
    /// An incoming connection found its accept pool empty: abort it.
    Refuse(ConnId),
    /// The peer closed its half (a `PeerDisconnected` entry).
    PeerClosed(CqEntry),
    /// A connection died and `qp` is idle again.
    Down {
        /// The QP that lost its connection.
        qp: QpId,
        /// The `PeerDisconnected` error entry of a reset.
        notice: Option<CqEntry>,
        /// Every send WR still outstanding on `qp`, failed with
        /// [`CompletionStatus::ConnectionError`].
        flushed: Vec<CqEntry>,
    },
}

/// What posting a receive WR asks of the driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Posted {
    /// The QP's connection, whose window is now [`QpTable::window`].
    pub conn: Option<ConnId>,
    /// Transmit the window update: the QP is established and the post
    /// can unblock the sender (see [`QpTable::post_recv`]). Otherwise
    /// the new window rides on the next data segment or ACK.
    pub announce: bool,
}

/// Queue pairs, completion queues, accept pools and send tokens of one
/// node.
#[derive(Debug)]
pub struct QpTable {
    /// Window floor: only a post into a window below this many bytes
    /// may announce the update (the wire MTU).
    mtu: u64,
    /// Upper bound on every advertised window.
    window_cap: u64,
    qps: FxHashMap<QpId, Qp>,
    /// CQ contents, indexed by `CqId - 1` (CQ ids are dense and start
    /// at 1).
    cqs: Vec<VecDeque<Completion>>,
    conn_to_qp: FxHashMap<ConnId, QpId>,
    udp_port_to_qp: FxHashMap<u16, QpId>,
    /// Idle QPs awaiting an incoming connection, per listening port.
    accept_pool: FxHashMap<u16, VecDeque<QpId>>,
    next_token: u64,
    tokens: FxHashMap<u64, TokenUse>,
}

impl QpTable {
    /// An empty table whose window updates are announced only once
    /// the posted space has fallen below `mtu` bytes, and whose windows
    /// never exceed `window_cap` bytes.
    pub fn new(mtu: usize, window_cap: u64) -> QpTable {
        QpTable {
            mtu: mtu as u64,
            window_cap,
            qps: FxHashMap::default(),
            cqs: Vec::new(),
            conn_to_qp: FxHashMap::default(),
            udp_port_to_qp: FxHashMap::default(),
            accept_pool: FxHashMap::default(),
            next_token: 1,
            tokens: FxHashMap::default(),
        }
    }

    /// Creates an empty completion queue. Ids start at 1.
    pub fn create_cq(&mut self) -> CqId {
        self.cqs.push(VecDeque::new());
        CqId(self.cqs.len() as u32)
    }

    /// The ring of `cq`; `None` for id 0 and ids never created.
    fn cq(&self, cq: CqId) -> Option<&VecDeque<Completion>> {
        self.cqs.get((cq.0 as usize).wrapping_sub(1))
    }

    /// Checks that `cq` exists, without touching it.
    ///
    /// # Errors
    ///
    /// [`NicError::UnknownCq`] for id 0 or an id never created.
    pub fn check_cq(&self, cq: CqId) -> Result<(), NicError> {
        self.cq(cq).map(drop).ok_or(NicError::UnknownCq(cq))
    }

    fn cq_mut(&mut self, cq: CqId) -> Result<&mut VecDeque<Completion>, NicError> {
        self.cqs.get_mut((cq.0 as usize).wrapping_sub(1)).ok_or(NicError::UnknownCq(cq))
    }

    /// Appends `entry` to its CQ, visible to the host from `visible_at`
    /// on.
    ///
    /// # Panics
    ///
    /// On a CQ that was never created: entries name only the CQs their
    /// QP was created with.
    pub fn complete(&mut self, entry: CqEntry, visible_at: SimTime) {
        let CqEntry { cq, qp, wr_id, kind, status } = entry;
        let ring = self.cq_mut(cq).expect("a QP's CQs exist");
        ring.push_back(Completion { qp, wr_id, kind, status, visible_at });
    }

    /// The oldest entry of `cq`, left in place; `None` when the CQ is
    /// empty or unknown.
    pub fn cq_head(&self, cq: CqId) -> Option<&Completion> {
        self.cq(cq)?.front()
    }

    /// Removes and returns the oldest entry of `cq`.
    ///
    /// # Errors
    ///
    /// [`NicError::UnknownCq`] for id 0 or an id never created.
    pub fn cq_pop(&mut self, cq: CqId) -> Result<Option<Completion>, NicError> {
        Ok(self.cq_mut(cq)?.pop_front())
    }

    /// Creates an idle queue pair bound to send/receive CQs. Ids start
    /// at 1.
    ///
    /// # Errors
    ///
    /// [`NicError::UnknownCq`] if either CQ does not exist.
    pub fn create_qp(
        &mut self,
        service: ServiceType,
        send_cq: CqId,
        recv_cq: CqId,
    ) -> Result<QpId, NicError> {
        for cq in [send_cq, recv_cq] {
            if self.cq(cq).is_none() {
                return Err(NicError::UnknownCq(cq));
            }
        }
        // QPs are never removed, so ids are dense
        let id = QpId(self.qps.len() as u32 + 1);
        let qp = Qp {
            service,
            send_cq,
            recv_cq,
            link: Link::Idle,
            local_port: None,
            recv_queue: VecDeque::new(),
            posted_bytes: 0,
            backlog: VecDeque::new(),
        };
        self.qps.insert(id, qp);
        Ok(id)
    }

    fn get(&self, qp: QpId) -> Result<&Qp, NicError> {
        self.qps.get(&qp).ok_or(NicError::UnknownQp(qp))
    }

    /// The QP's transport service.
    ///
    /// # Errors
    ///
    /// [`NicError::UnknownQp`].
    pub fn service(&self, qp: QpId) -> Result<ServiceType, NicError> {
        Ok(self.get(qp)?.service)
    }

    /// The QP's connection.
    ///
    /// # Errors
    ///
    /// [`NicError::UnknownQp`]; [`NicError::InvalidState`] for a UDP QP
    /// or one without a connection.
    pub fn conn(&self, qp: QpId) -> Result<ConnId, NicError> {
        self.get(qp)?.link.conn().ok_or(NicError::InvalidState("QP has no connection"))
    }

    /// The QP a connection is mated to.
    pub fn qp_of(&self, conn: ConnId) -> Option<QpId> {
        self.conn_to_qp.get(&conn).copied()
    }

    /// The advertised window of `qp`: its posted receive-WR bytes, up
    /// to the window cap.
    ///
    /// # Panics
    ///
    /// On an unknown QP.
    pub fn window(&self, qp: QpId) -> u64 {
        self.qps[&qp].posted_bytes.min(self.window_cap)
    }

    /// Binds a UDP QP to a local port in `engine`.
    ///
    /// # Errors
    ///
    /// [`NicError::UnknownQp`], [`NicError::InvalidState`] for a TCP QP,
    /// or the engine's error if the port is taken.
    pub fn udp_bind(&mut self, engine: &mut Engine, qp: QpId, port: u16) -> Result<(), NicError> {
        let q = self.qps.get_mut(&qp).ok_or(NicError::UnknownQp(qp))?;
        if q.service != ServiceType::UnreliableUdp {
            return Err(NicError::InvalidState("udp_bind on a TCP QP"));
        }
        engine.udp_bind(port)?;
        q.local_port = Some(port);
        self.udp_port_to_qp.insert(port, qp);
        Ok(())
    }

    /// The port a UDP QP sends from.
    ///
    /// # Errors
    ///
    /// [`NicError::UnknownQp`]; [`NicError::InvalidState`] if unbound.
    pub fn udp_port(&self, qp: QpId) -> Result<u16, NicError> {
        self.get(qp)?.local_port.ok_or(NicError::InvalidState("send on unbound UDP QP"))
    }

    /// An entry for WR `wr_id` on `qp`'s send CQ.
    ///
    /// # Panics
    ///
    /// On an unknown QP.
    pub fn send_entry(
        &self,
        qp: QpId,
        wr_id: u64,
        kind: CompletionKind,
        status: CompletionStatus,
    ) -> CqEntry {
        CqEntry { cq: self.qps[&qp].send_cq, qp, wr_id, kind, status }
    }

    /// Queues an idle TCP QP to be mated to the next incoming
    /// connection on `port`, starting `engine`'s listener if this is
    /// the port's first QP (§3: more QPs deepen the pool).
    ///
    /// # Errors
    ///
    /// [`NicError::UnknownQp`]; [`NicError::InvalidState`] for a UDP QP
    /// or one already pooled or connected.
    pub fn tcp_listen(&mut self, engine: &mut Engine, qp: QpId, port: u16) -> Result<(), NicError> {
        let q = self.qps.get_mut(&qp).ok_or(NicError::UnknownQp(qp))?;
        if q.service != ServiceType::ReliableTcp {
            return Err(NicError::InvalidState("tcp_listen on a UDP QP"));
        }
        if q.link != Link::Idle {
            return Err(NicError::InvalidState("tcp_listen on a pooled or connected QP"));
        }
        match engine.tcp_listen(port) {
            Ok(()) | Err(EngineError::PortInUse(_)) => {}
            Err(e) => return Err(e.into()),
        }
        q.link = Link::Pooled;
        self.accept_pool.entry(port).or_default().push_back(qp);
        Ok(())
    }

    /// Checks that `qp` may open a connection: an idle TCP QP.
    ///
    /// # Errors
    ///
    /// [`NicError::UnknownQp`] / [`NicError::InvalidState`].
    pub fn check_connect(&self, qp: QpId) -> Result<(), NicError> {
        let q = self.get(qp)?;
        if q.service != ServiceType::ReliableTcp || q.link != Link::Idle {
            return Err(NicError::InvalidState("connect on a UDP, pooled or connected QP"));
        }
        Ok(())
    }

    /// Mates `qp` to the connection it just opened. Returns the window
    /// to announce (§5.1).
    ///
    /// # Panics
    ///
    /// On an unknown QP.
    pub fn attach(&mut self, qp: QpId, conn: ConnId) -> u64 {
        let q = self.qps.get_mut(&qp).expect("checked by check_connect");
        q.link = Link::Connecting(conn);
        self.conn_to_qp.insert(conn, qp);
        q.posted_bytes.min(self.window_cap)
    }

    /// Issues a send token for one message handed to the engine.
    pub fn issue_token(&mut self, use_: TokenUse) -> SendToken {
        let token = self.next_token;
        self.next_token += 1;
        self.tokens.insert(token, use_);
        SendToken(token)
    }

    /// Forgets a token whose message the engine refused.
    pub fn cancel_token(&mut self, token: SendToken) {
        self.tokens.remove(&token.0);
    }

    /// Appends a receive WR to `qp`'s queue, growing its window. The
    /// growth is announced only when the connection is established, the
    /// window was under one MTU before the post, and the post reopens a
    /// zero window or grows it by at least min(half the new window, one
    /// MTU). A smaller step rides on the next data segment or ACK, and
    /// a sender the window has stopped finds it with its persist timer.
    ///
    /// # Errors
    ///
    /// [`NicError::UnknownQp`].
    pub fn post_recv(&mut self, qp: QpId, wr: RecvWr) -> Result<Posted, NicError> {
        let q = self.qps.get_mut(&qp).ok_or(NicError::UnknownQp(qp))?;
        let before = q.posted_bytes;
        q.recv_queue.push_back(wr);
        q.posted_bytes += wr.capacity as u64;
        let after = q.posted_bytes;
        let grows = after > before && (before == 0 || after - before >= (after / 2).min(self.mtu));
        let announce = matches!(q.link, Link::Established(_)) && before < self.mtu && grows;
        Ok(Posted { conn: q.link.conn(), announce })
    }

    /// Places the oldest backlogged message of `qp` on its oldest
    /// receive WR, if both exist. Call until `None` after posting.
    ///
    /// # Panics
    ///
    /// On an unknown QP.
    pub fn pop_backlog(&mut self, qp: QpId) -> Option<CqEntry> {
        let q = self.qps.get_mut(&qp).expect("caller checked");
        if q.backlog.is_empty() || q.recv_queue.is_empty() {
            return None;
        }
        let data = q.backlog.pop_front().expect("nonempty");
        let wr = q.take_wr().expect("nonempty");
        Some(place(q, qp, wr, data, None))
    }

    /// Decides what one engine emission means for the host.
    ///
    /// # Panics
    ///
    /// On [`Emit::Packet`], since transmitting is the driver's job, and on
    /// [`Emit::TcpDelivered`], whose bytes only the driver holds: it
    /// calls [`QpTable::deliver_tcp`] instead.
    pub fn handle(&mut self, emit: Emit) -> Outcome {
        match emit {
            Emit::Packet(_) => unreachable!("the driver transmits packets"),
            Emit::TcpDelivered { .. } => {
                unreachable!("the driver delivers payload from the packet (deliver_tcp)")
            }
            Emit::UdpDelivered { port, src, payload } => self.deliver_udp(port, src, payload),
            Emit::TcpSendComplete { token, .. } => self.retire(token),
            Emit::TcpConnected { conn } => match self.qp_of(conn) {
                Some(qp) => self.up(qp, conn),
                None => Outcome::Nothing,
            },
            Emit::TcpAccepted { listener_port, conn, .. } => {
                let pool = self.accept_pool.get_mut(&listener_port);
                let Some(qp) = pool.and_then(VecDeque::pop_front) else {
                    return Outcome::Refuse(conn);
                };
                self.conn_to_qp.insert(conn, qp);
                self.up(qp, conn)
            }
            Emit::TcpPeerClosed { conn } => match self.qp_of(conn) {
                Some(qp) => Outcome::PeerClosed(self.notice(qp, CompletionStatus::Success)),
                None => Outcome::Nothing,
            },
            Emit::TcpClosed { conn } => self.down(conn, false),
            Emit::TcpReset { conn } => self.down(conn, true),
        }
    }

    fn deliver_udp(&mut self, port: u16, src: Endpoint, payload: Vec<u8>) -> Outcome {
        let Some(&qp) = self.udp_port_to_qp.get(&port) else {
            return Outcome::Dropped;
        };
        let q = self.qps.get_mut(&qp).expect("bound port has a QP");
        let Some(wr) = q.take_wr() else {
            // no WR posted: the datagram is dropped (unreliable service)
            return Outcome::Dropped;
        };
        Outcome::Placed(place(q, qp, wr, payload, Some(src)))
    }

    /// Decides where an in-order TCP message goes: the oldest receive
    /// WR of its QP, or the QP's backlog. The bytes are copied once,
    /// into the buffer the completion (or the backlog) holds.
    pub fn deliver_tcp(&mut self, conn: ConnId, data: &[u8]) -> Outcome {
        let Some(qp) = self.qp_of(conn) else {
            return Outcome::Nothing;
        };
        let data = data.to_vec();
        let q = self.qps.get_mut(&qp).expect("mapped conn has a QP");
        match q.take_wr() {
            Some(wr) => Outcome::Placed(place(q, qp, wr, data, None)),
            None => {
                // reliable service: park in SRAM until the host posts a WR
                q.backlog.push_back(data);
                Outcome::Backlogged
            }
        }
    }

    fn retire(&mut self, token: SendToken) -> Outcome {
        // internal traffic (read machinery) completes silently
        let Some((qp, wr_id, kind)) = self.tokens.remove(&token.0).and_then(TokenUse::wr) else {
            return Outcome::Nothing;
        };
        Outcome::Retired(self.send_entry(qp, wr_id, kind, CompletionStatus::Success))
    }

    fn up(&mut self, qp: QpId, conn: ConnId) -> Outcome {
        let q = self.qps.get_mut(&qp).expect("mapped conn has a QP");
        q.link = Link::Established(conn);
        let entry = CqEntry {
            cq: q.recv_cq,
            qp,
            wr_id: 0,
            kind: CompletionKind::ConnectionEstablished,
            status: CompletionStatus::Success,
        };
        Outcome::Up { entry, conn, window: q.posted_bytes.min(self.window_cap) }
    }

    fn notice(&self, qp: QpId, status: CompletionStatus) -> CqEntry {
        let cq = self.qps[&qp].recv_cq;
        CqEntry { cq, qp, wr_id: 0, kind: CompletionKind::PeerDisconnected, status }
    }

    fn down(&mut self, conn: ConnId, reset: bool) -> Outcome {
        let Some(qp) = self.conn_to_qp.remove(&conn) else {
            return Outcome::Nothing;
        };
        self.qps.get_mut(&qp).expect("mapped conn has a QP").link = Link::Idle;
        let notice = reset.then(|| self.notice(qp, CompletionStatus::ConnectionError));
        // the Infiniband queue-flush semantic: every in-flight WR of a
        // dead QP completes in error
        let flushed = self
            .tokens
            .values()
            .filter(|use_| use_.owned_by(qp))
            .filter_map(|use_| use_.wr())
            .map(|(_, wr_id, kind)| {
                self.send_entry(qp, wr_id, kind, CompletionStatus::ConnectionError)
            })
            .collect();
        self.tokens.retain(|_, use_| !use_.owned_by(qp));
        Outcome::Down { qp, notice, flushed }
    }

    /// What the node still has pending, for a deadlock or wait-timeout
    /// diagnostic: one line per CQ with its depth and first entries,
    /// one line per QP (sorted by id) with its link state, posted WRs
    /// and backlog, then the outstanding send tokens and `engine`'s
    /// live connections and retransmissions.
    pub fn summary(&self, engine: &Engine) -> String {
        const SHOWN: usize = 4;
        let mut s = String::new();
        for (i, ring) in self.cqs.iter().enumerate() {
            let kinds: Vec<String> = ring.iter().take(SHOWN).map(|c| label(&c.kind)).collect();
            let _ = write!(
                s,
                "    {}: {} entries [{}]",
                CqId(i as u32 + 1),
                ring.len(),
                kinds.join(", ")
            );
            if ring.len() > SHOWN {
                let _ = write!(s, " (+{} more)", ring.len() - SHOWN);
            }
            s.push('\n');
        }
        let mut qps: Vec<_> = self.qps.iter().collect();
        qps.sort_by_key(|(id, _)| id.0);
        for (id, q) in &qps {
            let _ = writeln!(
                s,
                "    {id}: {:?} {:?} recv_wrs={} posted_bytes={} backlog={} port={:?}",
                q.service,
                q.link,
                q.recv_queue.len(),
                q.posted_bytes,
                q.backlog.len(),
                q.local_port,
            );
        }
        if qps.is_empty() {
            s.push_str("    (no QPs)\n");
        }
        let _ = writeln!(
            s,
            "    send tokens outstanding: {}, engine connections: {}, retransmissions: {}",
            self.tokens.len(),
            engine.conn_count(),
            engine.stats().tcp.retransmissions(),
        );
        s
    }
}

/// How a completion shows in [`QpTable::summary`]: its kind, with the
/// byte count of any data it carries.
fn label(kind: &CompletionKind) -> String {
    match kind {
        CompletionKind::Send => "Send".into(),
        CompletionKind::Recv { data, .. } => format!("Recv({}B)", data.len()),
        CompletionKind::ConnectionEstablished => "ConnectionEstablished".into(),
        CompletionKind::PeerDisconnected => "PeerDisconnected".into(),
        CompletionKind::RdmaWrite => "RdmaWrite".into(),
        CompletionKind::RdmaRead { data } => format!("RdmaRead({}B)", data.len()),
    }
}

/// Consumes `wr` for one in-order message, flagging a message larger
/// than the posted buffer.
fn place(q: &Qp, qp: QpId, wr: RecvWr, data: Vec<u8>, src: Option<Endpoint>) -> CqEntry {
    let status = if data.len() > wr.capacity {
        CompletionStatus::LocalLengthError { len: data.len(), capacity: wr.capacity }
    } else {
        CompletionStatus::Success
    };
    CqEntry { cq: q.recv_cq, qp, wr_id: wr.wr_id, kind: CompletionKind::Recv { data, src }, status }
}

#[cfg(test)]
mod tests {
    use std::net::Ipv6Addr;

    use qpip_netstack::types::NetConfig;

    use super::*;

    const TCP: ServiceType = ServiceType::ReliableTcp;

    fn engine() -> Engine {
        Engine::new(NetConfig::qpip(9000), Ipv6Addr::LOCALHOST)
    }

    fn accepted(conn: ConnId) -> Emit {
        Emit::TcpAccepted { listener_port: 80, conn, peer: Endpoint::new(Ipv6Addr::LOCALHOST, 1) }
    }

    #[test]
    fn ids_start_at_one_and_zero_is_unknown() {
        let mut t = QpTable::new(1500, u64::MAX);
        let cq = t.create_cq();
        assert_eq!(cq, CqId(1));
        assert_eq!(t.create_qp(TCP, CqId(0), cq), Err(NicError::UnknownCq(CqId(0))));
        assert_eq!(t.create_qp(TCP, cq, CqId(2)), Err(NicError::UnknownCq(CqId(2))));
        assert_eq!(t.create_qp(TCP, cq, cq), Ok(QpId(1)));
        assert_eq!(t.service(QpId(2)), Err(NicError::UnknownQp(QpId(2))));
    }

    #[test]
    fn a_qp_is_mated_at_most_once() {
        let (mut t, mut e) = (QpTable::new(1500, u64::MAX), engine());
        let cq = t.create_cq();
        let qp = t.create_qp(TCP, cq, cq).unwrap();
        t.post_recv(qp, RecvWr { wr_id: 1, capacity: 4096 }).unwrap();
        t.tcp_listen(&mut e, qp, 80).unwrap();
        assert!(matches!(t.tcp_listen(&mut e, qp, 80), Err(NicError::InvalidState(_))));
        assert!(matches!(t.check_connect(qp), Err(NicError::InvalidState(_))));

        let Outcome::Up { entry, conn, window } = t.handle(accepted(ConnId(7))) else {
            panic!("pooled QP not mated")
        };
        assert_eq!(
            (entry.qp, entry.kind, conn, window),
            (qp, CompletionKind::ConnectionEstablished, ConnId(7), 4096)
        );
        // the pool held the QP once: the next connection is refused
        assert!(matches!(t.handle(accepted(ConnId(8))), Outcome::Refuse(ConnId(8))));
        assert!(matches!(t.tcp_listen(&mut e, qp, 81), Err(NicError::InvalidState(_))));

        // a reset frees the QP for a new rendezvous
        let Outcome::Down { qp: dead, notice: Some(n), flushed } =
            t.handle(Emit::TcpReset { conn: ConnId(7) })
        else {
            panic!("reset did not tear down")
        };
        assert_eq!((dead, n.status, flushed.len()), (qp, CompletionStatus::ConnectionError, 0));
        t.check_connect(qp).unwrap();
    }

    #[test]
    fn messages_take_wrs_in_order_else_wait_in_the_backlog() {
        let mut t = QpTable::new(1500, u64::MAX);
        let cq = t.create_cq();
        let qp = t.create_qp(TCP, cq, cq).unwrap();
        t.attach(qp, ConnId(3));
        let deliver = |t: &mut QpTable, n: usize| t.deliver_tcp(ConnId(3), &vec![0; n]);
        assert!(matches!(deliver(&mut t, 10), Outcome::Backlogged));
        assert!(matches!(deliver(&mut t, 4), Outcome::Backlogged));

        // the connection is not up yet, so the update is not announced
        let posted = t.post_recv(qp, RecvWr { wr_id: 1, capacity: 8 }).unwrap();
        assert_eq!(posted, Posted { conn: Some(ConnId(3)), announce: false });
        let first = t.pop_backlog(qp).expect("backlog drains into the new WR");
        assert_eq!(first.status, CompletionStatus::LocalLengthError { len: 10, capacity: 8 });
        assert_eq!(t.pop_backlog(qp), None);
        assert_eq!(t.window(qp), 0);

        t.post_recv(qp, RecvWr { wr_id: 2, capacity: 8 }).unwrap();
        assert_eq!(
            t.pop_backlog(qp).map(|e| (e.wr_id, e.status)),
            Some((2, CompletionStatus::Success))
        );
    }

    #[test]
    fn a_dead_qp_flushes_only_its_own_send_wrs() {
        let mut t = QpTable::new(1500, u64::MAX);
        let cq = t.create_cq();
        let (a, b) = (t.create_qp(TCP, cq, cq).unwrap(), t.create_qp(TCP, cq, cq).unwrap());
        t.attach(a, ConnId(1));
        t.attach(b, ConnId(2));
        let _ = t.issue_token(TokenUse::Send(a, 10));
        let _ = t.issue_token(TokenUse::RdmaWrite(a, 11));
        let internal = t.issue_token(TokenUse::Internal);
        let of_b = t.issue_token(TokenUse::Send(b, 20));

        let Outcome::Down { notice: None, mut flushed, .. } =
            t.handle(Emit::TcpClosed { conn: ConnId(1) })
        else {
            panic!("close did not tear down")
        };
        flushed.sort_by_key(|e| e.wr_id);
        let got: Vec<_> =
            flushed.iter().map(|e| (e.qp, e.wr_id, e.kind.clone(), e.status.clone())).collect();
        let err = CompletionStatus::ConnectionError;
        assert_eq!(
            got,
            [(a, 10, CompletionKind::Send, err.clone()), (a, 11, CompletionKind::RdmaWrite, err)]
        );

        let retire =
            |t: &mut QpTable, token| t.handle(Emit::TcpSendComplete { conn: ConnId(2), token });
        assert!(matches!(retire(&mut t, internal), Outcome::Nothing));
        let Outcome::Retired(e) = retire(&mut t, of_b) else { panic!("b's WR lost") };
        assert_eq!((e.qp, e.wr_id, e.status), (b, 20, CompletionStatus::Success));
        assert!(matches!(retire(&mut t, of_b), Outcome::Nothing), "a token retires once");
    }

    fn send_entry(cq: CqId, wr_id: u64) -> CqEntry {
        let (kind, status) = (CompletionKind::Send, CompletionStatus::Success);
        CqEntry { cq, qp: QpId(1), wr_id, kind, status }
    }

    #[test]
    fn each_cq_pops_its_own_entries_in_completion_order() {
        let mut t = QpTable::new(1500, u64::MAX);
        let (x, y) = (t.create_cq(), t.create_cq());
        for wr_id in 0..6 {
            let cq = if wr_id % 2 == 0 { x } else { y };
            t.complete(send_entry(cq, wr_id), SimTime::from_micros(10 * wr_id));
        }
        assert_eq!(t.cq_head(y).map(|c| c.wr_id), Some(1), "head is left in place");
        let drain = |t: &mut QpTable, cq| {
            std::iter::from_fn(|| t.cq_pop(cq).unwrap())
                .map(|c| (c.wr_id, c.visible_at.as_micros_f64()))
                .collect::<Vec<_>>()
        };
        assert_eq!(drain(&mut t, y), [(1, 10.0), (3, 30.0), (5, 50.0)]);
        assert_eq!(drain(&mut t, x), [(0, 0.0), (2, 20.0), (4, 40.0)]);
        assert_eq!(t.cq_head(x).map(|c| c.wr_id), None);
    }

    #[test]
    fn cq_zero_and_never_created_cqs_are_unknown() {
        let mut t = QpTable::new(1500, u64::MAX);
        let cq = t.create_cq();
        t.complete(send_entry(cq, 7), SimTime::ZERO);
        for bad in [CqId(0), CqId(2), CqId(u32::MAX)] {
            assert!(t.cq_head(bad).is_none(), "{bad} has a head");
            assert_eq!(t.cq_pop(bad).map(|c| c.is_some()), Err(NicError::UnknownCq(bad)));
        }
        assert_eq!(t.cq_pop(cq).unwrap().map(|c| c.wr_id), Some(7));
        assert_eq!(t.cq_pop(cq).map(|c| c.is_some()), Ok(false), "empty is not unknown");
    }

    #[test]
    fn summary_lists_each_cq_with_its_depth() {
        let mut t = QpTable::new(1500, u64::MAX);
        let (x, y, z) = (t.create_cq(), t.create_cq(), t.create_cq());
        for wr_id in 0..6 {
            t.complete(send_entry(x, wr_id), SimTime::ZERO);
        }
        let kind = CompletionKind::Recv { data: vec![0; 1024], src: None };
        let status = CompletionStatus::Success;
        t.complete(CqEntry { cq: y, qp: QpId(1), wr_id: 9, kind, status }, SimTime::ZERO);
        let s = t.summary(&engine());
        assert!(s.contains(&format!("{x}: 6 entries [Send, Send, Send, Send] (+2 more)")), "{s}");
        assert!(s.contains(&format!("{y}: 1 entries [Recv(1024B)]")), "{s}");
        assert!(s.contains(&format!("{z}: 0 entries []")), "{s}");
        assert!(s.contains("(no QPs)") && s.contains("engine connections: 0"), "{s}");
    }

    /// A TCP QP holding `wrs` receive WRs of `capacity` bytes, its
    /// connection up when `up`, and a post onto it.
    fn post_onto(wrs: u64, capacity: usize, up: bool) -> (QpTable, QpId) {
        let mut t = QpTable::new(1500, u64::MAX);
        let cq = t.create_cq();
        let qp = t.create_qp(TCP, cq, cq).unwrap();
        for wr_id in 0..wrs {
            t.post_recv(qp, RecvWr { wr_id, capacity }).unwrap();
        }
        t.attach(qp, ConnId(3));
        if up {
            let outcome = t.handle(Emit::TcpConnected { conn: ConnId(3) });
            assert!(matches!(outcome, Outcome::Up { .. }), "{outcome:?}");
        }
        (t, qp)
    }

    fn announced(t: &mut QpTable, qp: QpId, capacity: usize) -> bool {
        t.post_recv(qp, RecvWr { wr_id: 99, capacity }).unwrap().announce
    }

    #[test]
    fn a_small_repost_onto_an_open_window_is_not_announced() {
        // live_rpc's shape: one 64 B WR back onto seven
        let (mut t, qp) = post_onto(7, 64, true);
        assert!(!announced(&mut t, qp, 64));
        assert_eq!(t.window(qp), 512);
        // a window of one MTU or more never needs a pure update
        let (mut t, qp) = post_onto(1, 1500, true);
        assert!(!announced(&mut t, qp, 4096));
    }

    #[test]
    fn a_post_onto_a_zero_window_is_announced() {
        let (mut t, qp) = post_onto(0, 0, true);
        assert!(announced(&mut t, qp, 64));
    }

    #[test]
    fn a_post_that_doubles_the_window_is_announced() {
        let (mut t, qp) = post_onto(4, 64, true);
        assert!(announced(&mut t, qp, 256));
        assert_eq!(t.window(qp), 512);
    }

    #[test]
    fn nothing_is_announced_before_the_connection_is_up() {
        let (mut t, qp) = post_onto(0, 0, false);
        assert_eq!(
            t.post_recv(qp, RecvWr { wr_id: 1, capacity: 4096 }),
            Ok(Posted { conn: Some(ConnId(3)), announce: false })
        );
        let cq = t.create_cq();
        let idle = t.create_qp(TCP, cq, cq).unwrap();
        assert_eq!(
            t.post_recv(idle, RecvWr { wr_id: 1, capacity: 4096 }),
            Ok(Posted { conn: None, announce: false })
        );
    }

    #[test]
    fn every_advertised_window_stops_at_the_cap() {
        let mut t = QpTable::new(1500, 5000);
        let cq = t.create_cq();
        let qp = t.create_qp(TCP, cq, cq).unwrap();
        t.post_recv(qp, RecvWr { wr_id: 1, capacity: 4096 }).unwrap();
        assert_eq!(t.window(qp), 4096, "under the cap the window is the posted space");
        t.post_recv(qp, RecvWr { wr_id: 2, capacity: 4096 }).unwrap();
        assert_eq!(t.window(qp), 5000);
        assert_eq!(t.attach(qp, ConnId(3)), 5000);
        let Outcome::Up { window, .. } = t.handle(Emit::TcpConnected { conn: ConnId(3) }) else {
            panic!("connected QP not up")
        };
        assert_eq!(window, 5000);
    }
}
