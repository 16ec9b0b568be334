//! The per-node protocol engine: demultiplexing, connection management
//! and packet encode/decode over the TCP/UDP/IPv6 machinery.
//!
//! One [`Engine`] instance is the complete inter-network stack of one
//! node. The QPIP NIC firmware embeds an engine (offloaded stack,
//! Figure 1); the host baseline embeds an identical engine behind the
//! socket layer. Both therefore speak exactly the same wire protocol —
//! which is the paper's interoperability argument (§3): QP nodes and
//! socket nodes differ only in *where* the stack runs and what interface
//! sits on top.

use std::cell::Cell;
use std::net::Ipv6Addr;

use qpip_sim::time::SimTime;
use qpip_trace::{flags as tflags, TraceEvent, Tracer};

use crate::codec::{build_tcp_packet, build_udp_packet, decode_packet, Decoded};
use crate::hash::FxHashMap;
use crate::invariant::{self, InvariantViolation, TcbSnapshot};
use crate::slab::ConnSlab;
use crate::tcp::tcb::{SegmentOut, Tcb, TcbEvent, TcbOutput, TcpCounters, TcpState};
use crate::timer_index::TimerIndex;
use crate::types::{
    ConnId, Emit, Endpoint, NetConfig, OpCounters, PacketKind, PacketOut, SendToken,
};

// Scratch buffers are per thread rather than per engine or per node: a
// fan-in world runs thousands of engines, and buffers that keep their
// capacity between calls would cost each of them a heap block. A call
// takes its buffer and puts it back, so a nested call finds it taken
// and starts from an empty one: a buffer being drained is never
// appended to.
thread_local! {
    static SCRATCH: Cell<TcbOutput> = const {
        Cell::new(TcbOutput { segs: Vec::new(), events: Vec::new(), ops: OpCounters { muls: 0 } })
    };
    static EMITS: Cell<Vec<Emit>> = const { Cell::new(Vec::new()) };
}

/// Runs `f` on the thread's TCB output buffer, which `f` drains
/// ([`Engine::drain_output`]) for the next call.
fn with_scratch<R>(f: impl FnOnce(&mut TcbOutput) -> R) -> R {
    let mut scratch = SCRATCH.take();
    let r = f(&mut scratch);
    debug_assert!(
        scratch.segs.is_empty() && scratch.events.is_empty() && scratch.ops.muls == 0,
        "scratch not drained"
    );
    SCRATCH.set(scratch);
    r
}

/// Runs `f` on the thread's reusable [`Emit`] buffer, for a caller that
/// hands it to engine calls and drains it before returning (the NIC
/// firmware, the host stack, the live node). Whatever `f` leaves in it
/// is discarded. A nested call gets a fresh, empty buffer.
pub fn with_emit_buffer<R>(f: impl FnOnce(&mut Vec<Emit>) -> R) -> R {
    let mut buf = EMITS.take();
    let r = f(&mut buf);
    buf.clear();
    EMITS.set(buf);
    r
}

/// Errors surfaced by engine calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineError {
    /// The port is already bound/listening.
    PortInUse(u16),
    /// No such connection (closed or never existed).
    UnknownConn(ConnId),
    /// The UDP port is not bound.
    PortNotBound(u16),
    /// Payload exceeds what one datagram/segment can carry at this MTU.
    MessageTooLarge {
        /// Bytes requested.
        len: usize,
        /// Maximum allowed.
        max: usize,
    },
    /// The connection is closing or closed for sending (FIN already
    /// queued, or past ESTABLISHED/CLOSE-WAIT).
    ConnectionClosing(ConnId),
}

impl core::fmt::Display for EngineError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            EngineError::PortInUse(p) => write!(f, "port {p} already in use"),
            EngineError::UnknownConn(c) => write!(f, "unknown connection {c}"),
            EngineError::PortNotBound(p) => write!(f, "port {p} not bound"),
            EngineError::MessageTooLarge { len, max } => {
                write!(f, "message of {len} bytes exceeds maximum {max}")
            }
            EngineError::ConnectionClosing(c) => {
                write!(f, "{c} is closing; no further sends")
            }
        }
    }
}

impl std::error::Error for EngineError {}

qpip_trace::counters! {
    /// Traffic and error counters for one engine: the packet counters
    /// the engine keeps itself, then the TCP event counters of every
    /// connection, live or reaped. A new packet counter is a field
    /// here; a new TCP counter goes in [`TcpCounters`].
    pub struct EngineStats in "engine" {
        /// Packets handed to `on_packet`.
        pub rx_packets: u64,
        /// Packets produced.
        pub tx_packets: u64,
        /// Packets dropped for checksum failure.
        pub checksum_drops: u64,
        /// Packets dropped because no port/connection matched.
        pub demux_drops: u64,
        /// Packets dropped because the IPv6 destination was not ours.
        pub addr_drops: u64,
        /// Packets dropped because they did not parse (truncated or
        /// malformed headers — distinct from a checksum failure and from
        /// a well-formed packet that matched no port).
        pub parse_drops: u64,
        /// The TCP event counters, summed over live and reaped
        /// connections.
        pub tcp: TcpCounters,
    }
}

/// Stable lowercase name of a TCP state, for traces and reports.
pub fn state_name(s: TcpState) -> &'static str {
    match s {
        TcpState::SynSent => "syn_sent",
        TcpState::SynRcvd => "syn_rcvd",
        TcpState::Established => "established",
        TcpState::FinWait1 => "fin_wait1",
        TcpState::FinWait2 => "fin_wait2",
        TcpState::Closing => "closing",
        TcpState::TimeWait => "time_wait",
        TcpState::CloseWait => "close_wait",
        TcpState::LastAck => "last_ack",
        TcpState::Closed => "closed",
    }
}

fn flag_bits(f: &qpip_wire::tcp::TcpFlags) -> u8 {
    (u8::from(f.fin) * tflags::FIN)
        | (u8::from(f.syn) * tflags::SYN)
        | (u8::from(f.rst) * tflags::RST)
        | (u8::from(f.psh) * tflags::PSH)
        | (u8::from(f.ack) * tflags::ACK)
}

/// Counter sample taken around a mutating TCB call; the engine diffs
/// two of these to synthesize trace events without the TCB knowing the
/// tracer exists.
#[derive(Debug, Clone, Copy)]
struct Probe {
    state: TcpState,
    cwnd: u64,
    ssthresh: u64,
    counters: TcpCounters,
    rtt_samples: u64,
}

impl Probe {
    fn capture(tcb: &Tcb) -> Probe {
        Probe {
            state: tcb.state(),
            cwnd: tcb.cwnd(),
            ssthresh: tcb.ssthresh(),
            counters: tcb.counters(),
            rtt_samples: tcb.rtt_samples(),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnOrigin {
    Active,
    Passive { listener_port: u16 },
}

struct ConnEntry {
    tcb: Tcb,
    origin: ConnOrigin,
    established_reported: bool,
    /// State at the previous invariant check, for the oracle's
    /// cross-event (monotonicity) invariants.
    snapshot: Option<TcbSnapshot>,
}

/// The complete inter-network stack of one simulated node.
pub struct Engine {
    cfg: NetConfig,
    local_addr: Ipv6Addr,
    /// Connection state, resolved by slot index (no hashing).
    conns: ConnSlab<ConnEntry>,
    /// (local, remote) endpoint pair → connection, for segment demux.
    demux: FxHashMap<(Endpoint, Endpoint), ConnId>,
    /// Armed timer deadlines; kept in sync with the TCBs after every
    /// mutating call so `next_deadline` is a pure peek.
    timers: TimerIndex,
    listeners: FxHashMap<u16, ()>,
    udp_ports: FxHashMap<u16, ()>,
    iss_counter: u32,
    ops: OpCounters,
    stats: EngineStats,
    /// Flight-recorder handle; `None` (the default) costs one branch
    /// per hook site on the datapath.
    tracer: Option<Tracer>,
    /// First invariant violation seen by the per-event debug hook;
    /// latched until [`Engine::check_invariants`] surfaces it.
    poisoned: Option<InvariantViolation>,
}

impl core::fmt::Debug for Engine {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Engine")
            .field("local_addr", &self.local_addr)
            .field("conns", &self.conns.len())
            .field("listeners", &self.listeners.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl Engine {
    /// Creates a stack for the node at `local_addr`.
    pub fn new(cfg: NetConfig, local_addr: Ipv6Addr) -> Self {
        Engine {
            cfg,
            local_addr,
            conns: ConnSlab::new(),
            demux: FxHashMap::default(),
            timers: TimerIndex::new(),
            listeners: FxHashMap::default(),
            udp_ports: FxHashMap::default(),
            iss_counter: 0x1000,
            ops: OpCounters::default(),
            stats: EngineStats::default(),
            tracer: None,
            poisoned: None,
        }
    }

    /// Installs a flight-recorder handle; every subsequent protocol
    /// action emits trace events through it.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = Some(tracer);
    }

    /// This node's IPv6 address.
    pub fn local_addr(&self) -> Ipv6Addr {
        self.local_addr
    }

    /// The engine configuration.
    pub fn config(&self) -> &NetConfig {
        &self.cfg
    }

    /// Traffic counters. The TCP counters of reaped connections, added
    /// at reap time, are completed with the live connections', so the
    /// totals never regress when a connection closes.
    pub fn stats(&self) -> EngineStats {
        let mut s = self.stats;
        for e in self.conns.values() {
            s.tcp += e.tcb.counters();
        }
        s
    }

    /// Returns and resets the multiplies counted since the last call.
    /// Only segment arrivals and timers multiply, so the NIC cost model
    /// drains them after `on_packet` and `on_timer`.
    pub fn take_ops(&mut self) -> OpCounters {
        self.ops.take()
    }

    /// Number of live connections.
    pub fn conn_count(&self) -> usize {
        self.conns.len()
    }

    /// State of a connection, if it still exists.
    pub fn conn_state(&self, conn: ConnId) -> Option<TcpState> {
        self.conns.get(conn).map(|e| e.tcb.state())
    }

    /// Bytes buffered (unacknowledged + unsent) on a connection — the
    /// socket layer's send-buffer occupancy.
    pub fn conn_bytes_buffered(&self, conn: ConnId) -> Option<u64> {
        self.conns.get(conn).map(|e| e.tcb.bytes_buffered())
    }

    /// Number of armed connection timers (diagnostic: must reach 0 once
    /// every connection is closed and reaped).
    pub fn timer_index_len(&self) -> usize {
        self.timers.len()
    }

    /// Size of the endpoint-pair demux table (diagnostic: always equals
    /// [`Engine::conn_count`] — every live connection is demuxable).
    pub fn demux_len(&self) -> usize {
        self.demux.len()
    }

    /// Peer's advertised send window on a connection, in bytes.
    pub fn conn_snd_wnd(&self, conn: ConnId) -> Option<u64> {
        self.conns.get(conn).map(|e| e.tcb.snd_wnd())
    }

    // ----- invariant oracle ---------------------------------------------

    /// Runs the TCB invariant oracle over every live connection plus the
    /// engine's cross-table invariants (demux and timer-index
    /// consistency).
    ///
    /// Debug builds additionally run the per-connection oracle inline
    /// after every mutating engine call; the first violation found there
    /// is latched and returned by the next call here, so a caller that
    /// checks once per world step still learns exactly which event broke
    /// which invariant.
    ///
    /// # Errors
    ///
    /// The first [`InvariantViolation`] found, with the connection set.
    pub fn check_invariants(&mut self) -> Result<(), InvariantViolation> {
        if let Some(v) = self.poisoned.take() {
            return Err(v);
        }
        if self.demux.len() != self.conns.len() {
            return Err(InvariantViolation {
                invariant: "demux_covers_conns",
                conn: None,
                detail: format!(
                    "demux has {} entries but {} connections are live",
                    self.demux.len(),
                    self.conns.len()
                ),
            });
        }
        let ids: Vec<ConnId> = self.conns.iter().map(|(id, _)| id).collect();
        for id in ids {
            let entry = self.conns.get(id).expect("iterated id is live");
            let key = (entry.tcb.local(), entry.tcb.remote());
            if self.demux.get(&key) != Some(&id) {
                return Err(InvariantViolation {
                    invariant: "demux_maps_back",
                    conn: Some(id),
                    detail: format!("({} -> {}) does not resolve to this connection", key.0, key.1),
                });
            }
            if self.timers.get(id) != entry.tcb.next_deadline() {
                return Err(InvariantViolation {
                    invariant: "timer_index_sync",
                    conn: Some(id),
                    detail: format!(
                        "timer index holds {:?} but the TCB deadline is {:?}",
                        self.timers.get(id),
                        entry.tcb.next_deadline()
                    ),
                });
            }
            self.check_conn(id)?;
        }
        Ok(())
    }

    /// Takes the violation latched by the per-event debug hook, if any —
    /// the O(1) probe the DES worlds poll after every event.
    pub fn take_invariant_violation(&mut self) -> Option<InvariantViolation> {
        self.poisoned.take()
    }

    /// Audits one connection and refreshes its monotonicity snapshot.
    fn check_conn(&mut self, conn: ConnId) -> Result<(), InvariantViolation> {
        let Some(entry) = self.conns.get_mut(conn) else {
            return Ok(());
        };
        let res = invariant::check_tcb(&entry.tcb, entry.snapshot.as_ref());
        entry.snapshot = Some(TcbSnapshot::of(&entry.tcb));
        res.map_err(|v| v.for_conn(conn))
    }

    /// Per-event oracle hook: latch the first violation instead of
    /// panicking so the surrounding world can report it with flight-
    /// recorder context. Debug/test builds only — release datapaths pay
    /// nothing.
    #[cfg(debug_assertions)]
    fn debug_check_conn(&mut self, conn: ConnId) {
        if self.poisoned.is_none() {
            if let Err(v) = self.check_conn(conn) {
                self.poisoned = Some(v);
            }
        }
    }

    #[cfg(not(debug_assertions))]
    fn debug_check_conn(&mut self, _conn: ConnId) {}

    // ----- UDP ---------------------------------------------------------

    /// Binds a UDP port.
    ///
    /// # Errors
    ///
    /// [`EngineError::PortInUse`] if already bound.
    pub fn udp_bind(&mut self, port: u16) -> Result<(), EngineError> {
        if self.udp_ports.insert(port, ()).is_some() {
            return Err(EngineError::PortInUse(port));
        }
        Ok(())
    }

    /// Sends one UDP datagram (one QP message, §4.1). Returns the packet
    /// to transmit.
    ///
    /// # Errors
    ///
    /// [`EngineError::PortNotBound`] if `local_port` is not bound;
    /// [`EngineError::MessageTooLarge`] if the payload exceeds the MTU
    /// budget.
    pub fn udp_send(
        &mut self,
        local_port: u16,
        dst: Endpoint,
        payload: &[u8],
    ) -> Result<Emit, EngineError> {
        if !self.udp_ports.contains_key(&local_port) {
            return Err(EngineError::PortNotBound(local_port));
        }
        let max = self.cfg.max_udp_payload();
        if payload.len() > max {
            return Err(EngineError::MessageTooLarge { len: payload.len(), max });
        }
        let src = Endpoint::new(self.local_addr, local_port);
        let bytes = build_udp_packet(src, dst, payload);
        self.stats.tx_packets += 1;
        Ok(Emit::Packet(PacketOut { dst: dst.addr, bytes, kind: PacketKind::Udp, conn: None }))
    }

    // ----- TCP ---------------------------------------------------------

    /// Starts listening on a TCP port (§3: "The server application
    /// instructs the interface to monitor a TCP port for incoming
    /// connections").
    ///
    /// # Errors
    ///
    /// [`EngineError::PortInUse`] if already listening.
    pub fn tcp_listen(&mut self, port: u16) -> Result<(), EngineError> {
        if self.listeners.insert(port, ()).is_some() {
            return Err(EngineError::PortInUse(port));
        }
        Ok(())
    }

    /// Opens a connection using the sockets rendezvous model (§3),
    /// returning the new connection id; the SYN to transmit is appended
    /// to `out`.
    pub fn tcp_connect(
        &mut self,
        now: SimTime,
        local_port: u16,
        remote: Endpoint,
        out: &mut Vec<Emit>,
    ) -> ConnId {
        let local = Endpoint::new(self.local_addr, local_port);
        let iss = self.next_iss();
        with_scratch(|sc| {
            let tcb = Tcb::connect(&self.cfg, local, remote, iss, now, &mut sc.segs);
            let id = self.insert_conn(now, tcb, ConnOrigin::Active);
            self.drain_output(now, id, 0, sc, out);
            self.debug_check_conn(id);
            id
        })
    }

    /// Sends one unit of data on a connection, appending what it
    /// transmits to `out`. Completion is reported later via
    /// [`Emit::TcpSendComplete`] carrying `token`.
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownConn`] for dead connections and
    /// [`EngineError::MessageTooLarge`] in message mode when the payload
    /// cannot fit one segment.
    pub fn tcp_send(
        &mut self,
        now: SimTime,
        conn: ConnId,
        data: Vec<u8>,
        token: SendToken,
        out: &mut Vec<Emit>,
    ) -> Result<(), EngineError> {
        if self.cfg.segmentation == crate::types::SegmentationPolicy::MessagePerSegment {
            let max = self.cfg.max_tcp_payload();
            if data.len() > max {
                return Err(EngineError::MessageTooLarge { len: data.len(), max });
            }
        }
        let entry = self.conns.get_mut(conn).ok_or(EngineError::UnknownConn(conn))?;
        if !entry.tcb.can_send() {
            return Err(EngineError::ConnectionClosing(conn));
        }
        with_scratch(|sc| {
            let entry = self.conns.get_mut(conn).expect("checked above");
            entry.tcb.send(&self.cfg, data, token, now, &mut sc.segs);
            self.sync_timer(now, conn);
            self.drain_output(now, conn, 0, sc, out);
        });
        self.debug_check_conn(conn);
        Ok(())
    }

    /// Begins a graceful close, appending what it transmits to `out`.
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownConn`] if the connection is gone.
    pub fn tcp_close(
        &mut self,
        now: SimTime,
        conn: ConnId,
        out: &mut Vec<Emit>,
    ) -> Result<(), EngineError> {
        let entry = self.conns.get_mut(conn).ok_or(EngineError::UnknownConn(conn))?;
        let before = self.tracer.is_some().then(|| Probe::capture(&entry.tcb));
        with_scratch(|sc| {
            let entry = self.conns.get_mut(conn).expect("checked above");
            entry.tcb.close(&self.cfg, now, &mut sc.segs);
            self.sync_timer(now, conn);
            if let Some(b) = before {
                self.trace_probe_diff(now, conn, &b, &sc.segs, None, "ack");
            }
            self.drain_output(now, conn, 0, sc, out);
        });
        self.debug_check_conn(conn);
        Ok(())
    }

    /// Aborts with RST and removes the connection; the RST is appended
    /// to `out`.
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownConn`] if the connection is gone.
    pub fn tcp_abort(
        &mut self,
        now: SimTime,
        conn: ConnId,
        out: &mut Vec<Emit>,
    ) -> Result<(), EngineError> {
        let mut entry = self.conns.remove(conn).ok_or(EngineError::UnknownConn(conn))?;
        let prev = entry.tcb.state();
        let rst = entry.tcb.abort();
        self.demux.remove(&(entry.tcb.local(), entry.tcb.remote()));
        if let Some(tr) = &self.tracer {
            if self.timers.get(conn).is_some() {
                tr.emit(now, conn.0, TraceEvent::TimerCancel);
            }
            tr.emit(
                now,
                conn.0,
                TraceEvent::TcpState { from: state_name(prev), to: state_name(TcpState::Closed) },
            );
        }
        self.timers.update(conn, None);
        self.stats.tcp += entry.tcb.counters();
        out.push(encode(self.tracer.as_ref(), &mut self.stats, now, conn, &entry.tcb, &rst));
        Ok(())
    }

    /// Sets the receive-window backing space of a connection (QPIP:
    /// total posted receive-WR bytes). Every segment the connection
    /// sends from now on advertises it; [`Engine::announce_window`]
    /// sends it at once.
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownConn`] if the connection is gone.
    pub fn set_recv_space(&mut self, conn: ConnId, bytes: u64) -> Result<(), EngineError> {
        let entry = self.conns.get_mut(conn).ok_or(EngineError::UnknownConn(conn))?;
        entry.tcb.set_recv_space(bytes);
        self.debug_check_conn(conn);
        Ok(())
    }

    /// Appends a pure ACK announcing the connection's current receive
    /// window to `out`, if the connection is synchronized (a SYN or
    /// SYN-ACK already carries the window).
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownConn`] if the connection is gone.
    pub fn announce_window(
        &mut self,
        now: SimTime,
        conn: ConnId,
        out: &mut Vec<Emit>,
    ) -> Result<(), EngineError> {
        let entry = self.conns.get_mut(conn).ok_or(EngineError::UnknownConn(conn))?;
        let upd = entry.tcb.window_update(now);
        self.sync_timer(now, conn);
        if let Some(u) = upd {
            if let Some(tr) = &self.tracer {
                tr.emit(now, conn.0, TraceEvent::WindowRefresh { wnd: u32::from(u.window) });
            }
            let tcb = &self.conns.get(conn).expect("resolved above").tcb;
            out.push(encode(self.tracer.as_ref(), &mut self.stats, now, conn, tcb, &u));
        }
        self.debug_check_conn(conn);
        Ok(())
    }

    // ----- packet input --------------------------------------------------

    /// Processes one received packet, appending replies and events to
    /// `out`.
    pub fn on_packet(&mut self, now: SimTime, bytes: &[u8], out: &mut Vec<Emit>) {
        self.stats.rx_packets += 1;
        let decoded = match decode_packet(bytes) {
            Ok(d) => d,
            Err(qpip_wire::error::ParseWireError::BadChecksum) => {
                self.stats.checksum_drops += 1;
                return;
            }
            Err(_) => {
                self.stats.parse_drops += 1;
                return;
            }
        };
        match decoded {
            Decoded::Udp { ip, udp, payload } => {
                if ip.dst != self.local_addr {
                    self.stats.addr_drops += 1;
                    return;
                }
                if !self.udp_ports.contains_key(&udp.dst_port) {
                    self.stats.demux_drops += 1;
                    return;
                }
                out.push(Emit::UdpDelivered {
                    port: udp.dst_port,
                    src: Endpoint::new(ip.src, udp.src_port),
                    // the one copy on the UDP receive path: borrowed view
                    // into the wire buffer becomes the delivered datagram
                    payload: payload.to_vec(),
                });
            }
            Decoded::Tcp { ip, tcp, payload, payload_at } => {
                if ip.dst != self.local_addr {
                    self.stats.addr_drops += 1;
                    return;
                }
                self.on_tcp_segment(now, &ip, &tcp, payload, payload_at, out);
            }
            Decoded::Other { .. } => self.stats.demux_drops += 1,
        }
    }

    fn on_tcp_segment(
        &mut self,
        now: SimTime,
        ip: &qpip_wire::ipv6::Ipv6Header,
        tcp: &qpip_wire::tcp::TcpHeader,
        payload: &[u8],
        payload_at: usize,
        out: &mut Vec<Emit>,
    ) {
        let ce = ip.ecn() == qpip_wire::ipv6::Ecn::CongestionExperienced;
        let local = Endpoint::new(ip.dst, tcp.dst_port);
        let remote = Endpoint::new(ip.src, tcp.src_port);
        let conn = match self.demux.get(&(local, remote)) {
            Some(&c) => c,
            None => {
                // no connection: a SYN to a listening port spawns one
                if tcp.flags.syn
                    && !tcp.flags.ack
                    && !tcp.flags.rst
                    && self.listeners.contains_key(&tcp.dst_port)
                {
                    let iss = self.next_iss();
                    with_scratch(|sc| {
                        let tcb =
                            Tcb::accept(&self.cfg, local, remote, tcp, iss, now, &mut sc.segs);
                        let origin = ConnOrigin::Passive { listener_port: tcp.dst_port };
                        let id = self.insert_conn(now, tcb, origin);
                        self.trace_seg_rx(now, id, tcp, payload.len());
                        self.drain_output(now, id, 0, sc, out);
                        self.debug_check_conn(id);
                    });
                    return;
                }
                self.stats.demux_drops += 1;
                return;
            }
        };

        self.trace_seg_rx(now, conn, tcp, payload.len());
        with_scratch(|sc| {
            let entry = self.conns.get_mut(conn).expect("demux points at live conn");
            let before = self.tracer.is_some().then(|| Probe::capture(&entry.tcb));
            entry.tcb.on_segment_marked(&self.cfg, tcp, payload, ce, now, sc);
            self.sync_timer(now, conn);
            if let Some(b) = before {
                self.trace_probe_diff(now, conn, &b, &sc.segs, Some(tcp.ack.0), "ack");
            }
            self.drain_output(now, conn, payload_at, sc, out);
        });
        self.debug_check_conn(conn);
        self.reap_if_closed(conn);
    }

    // ----- timers --------------------------------------------------------

    /// The earliest timer deadline across all connections: an O(1) peek
    /// of the timer index (every mutating call re-syncs the index, so
    /// it is always settled here).
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.timers.peek().map(|(d, _)| d)
    }

    /// Fires all due timers, appending what they produce to `out` and
    /// popping only due connections from the timer index — connections
    /// whose deadlines lie ahead are never visited.
    pub fn on_timer(&mut self, now: SimTime, out: &mut Vec<Emit>) {
        with_scratch(|sc| self.fire_due(now, sc, out));
    }

    fn fire_due(&mut self, now: SimTime, sc: &mut TcbOutput, out: &mut Vec<Emit>) {
        while let Some((deadline, conn)) = self.timers.peek() {
            if deadline > now {
                break;
            }
            if let Some(tr) = &self.tracer {
                tr.emit(now, conn.0, TraceEvent::TimerFire);
            }
            let entry = self.conns.get_mut(conn).expect("timer index points at live conn");
            let before = self.tracer.is_some().then(|| Probe::capture(&entry.tcb));
            entry.tcb.on_timer(&self.cfg, now, sc);
            // a fired TCB either disarms or re-arms strictly past `now`
            // (min_rto > 0), so this loop pops each due entry once
            debug_assert!(entry.tcb.next_deadline().is_none_or(|d| d > now));
            self.sync_timer(now, conn);
            if let Some(b) = before {
                self.trace_probe_diff(now, conn, &b, &sc.segs, None, "rto");
            }
            // timers deliver nothing, so no packet offset applies
            self.drain_output(now, conn, 0, sc, out);
            self.debug_check_conn(conn);
            self.reap_if_closed(conn);
        }
    }

    // ----- internals -------------------------------------------------------

    fn next_iss(&mut self) -> qpip_wire::tcp::SeqNum {
        // deterministic ISS spacing (RFC 793's clock-driven ISS is
        // irrelevant in simulation; distinct values exercise wraparound)
        self.iss_counter = self.iss_counter.wrapping_add(0x3d09_0000);
        qpip_wire::tcp::SeqNum(self.iss_counter)
    }

    fn insert_conn(&mut self, now: SimTime, tcb: Tcb, origin: ConnOrigin) -> ConnId {
        let key = (tcb.local(), tcb.remote());
        let state = tcb.state();
        let id = self.conns.insert(ConnEntry {
            tcb,
            origin,
            established_reported: false,
            snapshot: None,
        });
        self.demux.insert(key, id);
        if let Some(tr) = &self.tracer {
            tr.emit(
                now,
                id.0,
                TraceEvent::TcpState { from: state_name(TcpState::Closed), to: state_name(state) },
            );
        }
        self.sync_timer(now, id);
        debug_assert_eq!(self.demux.len(), self.conns.len());
        id
    }

    /// Mirrors `conn`'s current TCB deadline into the timer index.
    /// Called after every TCB-mutating operation so the index is always
    /// settled when `next_deadline` peeks it; on a removed connection
    /// this disarms the slot.
    fn sync_timer(&mut self, now: SimTime, conn: ConnId) {
        let deadline = self.conns.get(conn).and_then(|e| e.tcb.next_deadline());
        if let Some(tr) = &self.tracer {
            let old = self.timers.get(conn);
            if old != deadline {
                match deadline {
                    Some(d) => tr.emit(now, conn.0, TraceEvent::TimerArm { deadline: d }),
                    None => tr.emit(now, conn.0, TraceEvent::TimerCancel),
                }
            }
        }
        self.timers.update(conn, deadline);
    }

    fn reap_if_closed(&mut self, conn: ConnId) {
        if self.conns.get(conn).is_some_and(|e| e.tcb.state() == TcpState::Closed) {
            let entry = self.conns.remove(conn).expect("just resolved");
            self.demux.remove(&(entry.tcb.local(), entry.tcb.remote()));
            self.timers.update(conn, None);
            self.stats.tcp += entry.tcb.counters();
            debug_assert_eq!(self.demux.len(), self.conns.len());
        }
    }

    /// Emits a [`TraceEvent::SegRx`] for a parsed inbound segment.
    fn trace_seg_rx(
        &self,
        now: SimTime,
        conn: ConnId,
        tcp: &qpip_wire::tcp::TcpHeader,
        len: usize,
    ) {
        if let Some(tr) = &self.tracer {
            tr.emit(
                now,
                conn.0,
                TraceEvent::SegRx {
                    seq: tcp.seq.0,
                    ack: tcp.ack.0,
                    len: len as u32,
                    wnd: u32::from(tcp.window),
                    flags: flag_bits(&tcp.flags),
                },
            );
        }
    }

    /// Diffs a [`Probe`] against the connection's current TCB and emits
    /// one event per observed change. The TCB itself stays tracer-free:
    /// at most one retransmission can leave a single mutating call, so
    /// its sequence number is recovered from the `is_retransmit` segment
    /// in that call's output.
    fn trace_probe_diff(
        &self,
        now: SimTime,
        conn: ConnId,
        before: &Probe,
        segs: &[SegmentOut],
        ack: Option<u32>,
        cwnd_reason: &'static str,
    ) {
        let Some(tr) = &self.tracer else { return };
        let Some(entry) = self.conns.get(conn) else { return };
        let tcb = &entry.tcb;
        let counters = tcb.counters();
        let c = conn.0;
        if tcb.state() != before.state {
            tr.emit(
                now,
                c,
                TraceEvent::TcpState {
                    from: state_name(before.state),
                    to: state_name(tcb.state()),
                },
            );
        }
        if counters.dupacks_rx > before.counters.dupacks_rx {
            tr.emit(now, c, TraceEvent::DupAck { ack: ack.unwrap_or(0), count: tcb.dup_acks() });
        }
        let retx_seq = segs.iter().find(|s| s.is_retransmit).map_or(0, |s| s.seq.0);
        if counters.fast_retransmits > before.counters.fast_retransmits {
            tr.emit(now, c, TraceEvent::Retransmit { seq: retx_seq, fast: true });
        }
        if counters.rto_retransmits > before.counters.rto_retransmits {
            tr.emit(now, c, TraceEvent::Retransmit { seq: retx_seq, fast: false });
        }
        if tcb.rtt_samples() > before.rtt_samples {
            let us = |d: qpip_sim::time::SimDuration| d.as_picos() / 1_000_000;
            tr.emit(
                now,
                c,
                TraceEvent::RttSample {
                    rtt_us: tcb.last_rtt_sample().map_or(0, us),
                    srtt_us: tcb.srtt().map_or(0, us),
                    rto_us: us(tcb.rto()),
                },
            );
        }
        if tcb.cwnd() != before.cwnd || tcb.ssthresh() != before.ssthresh {
            let clamp = |v: u64| u32::try_from(v).unwrap_or(u32::MAX);
            tr.emit(
                now,
                c,
                TraceEvent::CwndChange {
                    cwnd: clamp(tcb.cwnd()),
                    ssthresh: clamp(tcb.ssthresh()),
                    reason: cwnd_reason,
                },
            );
        }
        if counters.zero_window_events > before.counters.zero_window_events {
            tr.emit(now, c, TraceEvent::ZeroWindow);
        }
    }

    /// Drains one TCB call's output into `emits`: its events first (a
    /// delivered range, relative to the segment payload, moves by
    /// `payload_at` to point into the packet), then its segments, each
    /// payload read from the send buffer straight into its packet. Its
    /// multiplies join the engine's count.
    fn drain_output(
        &mut self,
        now: SimTime,
        conn: ConnId,
        payload_at: usize,
        sc: &mut TcbOutput,
        emits: &mut Vec<Emit>,
    ) {
        self.ops.muls += sc.ops.take().muls;
        for ev in sc.events.drain(..) {
            match ev {
                TcbEvent::Established => {
                    let entry = self.conns.get_mut(conn).expect("live conn");
                    if entry.established_reported {
                        continue;
                    }
                    entry.established_reported = true;
                    match entry.origin {
                        ConnOrigin::Active => emits.push(Emit::TcpConnected { conn }),
                        ConnOrigin::Passive { listener_port } => emits.push(Emit::TcpAccepted {
                            listener_port,
                            conn,
                            peer: entry.tcb.remote(),
                        }),
                    }
                }
                TcbEvent::Delivered(r) => emits.push(Emit::TcpDelivered {
                    conn,
                    at: payload_at + r.start..payload_at + r.end,
                }),
                TcbEvent::SendComplete(token) => emits.push(Emit::TcpSendComplete { conn, token }),
                TcbEvent::PeerClosed => emits.push(Emit::TcpPeerClosed { conn }),
                TcbEvent::Closed => emits.push(Emit::TcpClosed { conn }),
                TcbEvent::Reset => emits.push(Emit::TcpReset { conn }),
            }
        }
        let Some(entry) = self.conns.get(conn) else {
            sc.segs.clear();
            return;
        };
        let stats = &mut self.stats;
        emits.extend(
            sc.segs
                .drain(..)
                .map(|s| encode(self.tracer.as_ref(), stats, now, conn, &entry.tcb, &s)),
        );
    }
}

/// Encodes one segment `tcb` produced, its payload read from the send
/// buffer straight into the packet, and traces and counts it.
fn encode(
    tracer: Option<&Tracer>,
    stats: &mut EngineStats,
    now: SimTime,
    conn: ConnId,
    tcb: &Tcb,
    seg: &SegmentOut,
) -> Emit {
    if let Some(tr) = tracer {
        tr.emit(
            now,
            conn.0,
            TraceEvent::SegTx {
                seq: seg.seq.0,
                ack: seg.ack.0,
                len: seg.payload.len() as u32,
                wnd: u32::from(seg.window),
                flags: flag_bits(&seg.flags),
                retransmit: seg.is_retransmit,
            },
        );
    }
    let remote = tcb.remote();
    let bytes = build_tcp_packet(tcb.local(), remote, seg, |pkt| {
        tcb.read_payload(seg, |part| pkt.extend_from_slice(part));
    });
    stats.tx_packets += 1;
    Emit::Packet(PacketOut { dst: remote.addr, bytes, kind: seg.kind, conn: Some(conn) })
}
