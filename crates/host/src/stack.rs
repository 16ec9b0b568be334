//! The host-based baseline: a BSD-style socket layer over the same
//! protocol engine the QPIP firmware uses, with every class of host
//! work charged to the CPU ledger — syscalls, copies, protocol
//! processing, driver work, interrupts and wakeups.
//!
//! This is the "traditional inter-network protocol implementation" the
//! paper compares against (§4.2): IP over Gigabit Ethernet and IP over
//! Myrinet (GM). The identical wire behaviour comes from sharing
//! `qpip-netstack`; the cost difference is that all of it runs on the
//! 550 MHz host CPU instead of the NIC.

use std::collections::VecDeque;
use std::net::Ipv6Addr;

use qpip_netstack::engine::{with_emit_buffer, Engine};
use qpip_netstack::hash::FxHashMap;
use qpip_netstack::types::{ConnId, Emit, Endpoint, NetConfig, SendToken};
use qpip_nic::conventional::{ConvNicConfig, ConventionalNic};
use qpip_sim::params;
use qpip_sim::time::SimTime;

use crate::cpu::{CpuLedger, WorkClass};

/// Handle to a host socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SockId(pub u32);

/// Socket flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SockKind {
    Tcp,
    Udp,
}

/// Events surfaced by the host stack to the application/driver loop.
#[derive(Debug)]
pub enum HostOutput {
    /// A frame starts on the wire at `at`.
    Frame {
        /// Wire departure instant.
        at: SimTime,
        /// Destination address.
        dst: Ipv6Addr,
        /// IPv6 packet bytes (with transmit headroom in front).
        bytes: qpip_wire::Packet,
    },
    /// An active open completed.
    Connected {
        /// The socket.
        sock: SockId,
        /// Completion instant.
        at: SimTime,
    },
    /// A listener produced a new connected socket.
    Accepted {
        /// The listening socket.
        listener: SockId,
        /// The new socket.
        sock: SockId,
        /// Peer endpoint.
        peer: Endpoint,
        /// Completion instant.
        at: SimTime,
    },
    /// Data became readable (the blocked reader was woken).
    DataReady {
        /// The socket.
        sock: SockId,
        /// Wakeup instant.
        at: SimTime,
    },
    /// The send buffer drained below half: a blocked writer may retry.
    SendSpace {
        /// The socket.
        sock: SockId,
        /// Instant.
        at: SimTime,
    },
    /// The peer closed.
    PeerClosed {
        /// The socket.
        sock: SockId,
        /// Instant.
        at: SimTime,
    },
    /// Connection reset.
    Reset {
        /// The socket.
        sock: SockId,
        /// Instant.
        at: SimTime,
    },
}

/// Result of a send call.
#[derive(Debug, PartialEq, Eq)]
pub enum SendOutcome {
    /// Accepted into the send buffer; the syscall returned at `done`.
    Sent {
        /// Syscall return instant.
        done: SimTime,
    },
    /// The send buffer is full (a blocking socket would sleep here);
    /// retry after a [`HostOutput::SendSpace`] event.
    WouldBlock,
}

/// Host stack configuration.
#[derive(Debug, Clone)]
pub struct StackConfig {
    /// Link MTU (1500 for GigE, 9000 for GM, §4.2.1).
    pub mtu: usize,
    /// The adapter verifies/generates transport checksums (true for the
    /// Pro/1000; false puts ~0.8 cycles/byte on the host).
    pub hw_checksum: bool,
    /// Socket send-buffer cap in bytes.
    pub sndbuf: usize,
    /// Adapter model; `None` is the loopback device (no DMA, no
    /// interrupts, no driver — the Table 1 measurement condition).
    pub nic: Option<ConvNicConfig>,
    /// The driver stages packets through pre-registered DMA buffers,
    /// costing one extra copy per byte each way (the GM IP driver's
    /// registered-memory staging).
    pub staging_copy: bool,
}

impl StackConfig {
    /// IP over Gigabit Ethernet (Intel Pro/1000, 1500-byte MTU).
    pub fn gige() -> Self {
        StackConfig {
            mtu: params::GIGE_MTU,
            hw_checksum: true,
            sndbuf: 64 * 1024,
            nic: Some(ConvNicConfig::gige()),
            staging_copy: false,
        }
    }

    /// IP over Myrinet via GM (9000-byte MTU, no checksum offload).
    pub fn gm_myrinet() -> Self {
        StackConfig {
            mtu: params::GM_MTU,
            hw_checksum: false,
            sndbuf: 64 * 1024,
            nic: Some(ConvNicConfig::gm_myrinet()),
            staging_copy: true,
        }
    }

    /// The loopback interface (Table 1's measurement methodology:
    /// "determined by measuring RTT through the loopback interface …
    /// they do not include instructions executed by a particular
    /// interface driver").
    pub fn loopback() -> Self {
        StackConfig {
            mtu: 16 * 1024,
            hw_checksum: true,
            sndbuf: 256 * 1024,
            nic: None,
            staging_copy: false,
        }
    }
}

#[derive(Debug)]
struct Sock {
    kind: SockKind,
    conn: Option<ConnId>,
    listen_port: Option<u16>,
    udp_port: Option<u16>,
    rx: VecDeque<u8>,
    udp_rx: VecDeque<(Endpoint, Vec<u8>)>,
    peer_closed: bool,
}

impl Sock {
    fn new(kind: SockKind) -> Sock {
        Sock {
            kind,
            conn: None,
            listen_port: None,
            udp_port: None,
            rx: VecDeque::new(),
            udp_rx: VecDeque::new(),
            peer_closed: false,
        }
    }
}

/// Errors from socket calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SockError {
    /// Unknown socket handle.
    UnknownSock(SockId),
    /// Operation invalid for this socket's kind or state.
    InvalidState(&'static str),
    /// Engine-level failure (port in use, message too large, …).
    Engine(qpip_netstack::engine::EngineError),
}

impl core::fmt::Display for SockError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SockError::UnknownSock(s) => write!(f, "unknown socket {s:?}"),
            SockError::InvalidState(m) => write!(f, "invalid state: {m}"),
            SockError::Engine(e) => write!(f, "engine: {e}"),
        }
    }
}

impl std::error::Error for SockError {}

impl From<qpip_netstack::engine::EngineError> for SockError {
    fn from(e: qpip_netstack::engine::EngineError) -> Self {
        SockError::Engine(e)
    }
}

/// A complete host node: CPU + OS + sockets + conventional NIC.
#[derive(Debug)]
pub struct HostStack {
    cfg: StackConfig,
    cpu: CpuLedger,
    nic: Option<ConventionalNic>,
    engine: Engine,
    socks: FxHashMap<SockId, Sock>,
    conn_to_sock: FxHashMap<ConnId, SockId>,
    listen_to_sock: FxHashMap<u16, SockId>,
    udp_to_sock: FxHashMap<u16, SockId>,
    next_sock: u32,
    next_token: u64,
}

impl HostStack {
    /// Creates a host node at `addr`.
    pub fn new(cfg: StackConfig, addr: Ipv6Addr) -> Self {
        let net = NetConfig::host(cfg.mtu);
        let nic = cfg.nic.clone().map(ConventionalNic::new);
        HostStack {
            cfg,
            cpu: CpuLedger::new(),
            nic,
            engine: Engine::new(net, addr),
            socks: FxHashMap::default(),
            conn_to_sock: FxHashMap::default(),
            listen_to_sock: FxHashMap::default(),
            udp_to_sock: FxHashMap::default(),
            next_sock: 1,
            next_token: 1,
        }
    }

    /// This node's address.
    pub fn addr(&self) -> Ipv6Addr {
        self.engine.local_addr()
    }

    /// The CPU ledger (utilization and cycle breakdowns).
    pub fn cpu(&self) -> &CpuLedger {
        &self.cpu
    }

    /// Mutable CPU access (the application charges its own work here).
    pub fn cpu_mut(&mut self) -> &mut CpuLedger {
        &mut self.cpu
    }

    /// Adapter interrupt count (0 for loopback).
    pub fn interrupts(&self) -> u64 {
        self.nic.as_ref().map_or(0, ConventionalNic::interrupts)
    }

    /// Traffic/drop counters of the embedded protocol engine.
    pub fn engine_stats(&self) -> qpip_netstack::engine::EngineStats {
        self.engine.stats()
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

    /// Takes a violation latched by the engine's per-event debug hook —
    /// the O(1) probe the DES world polls after every event.
    pub fn take_invariant_violation(
        &mut self,
    ) -> Option<qpip_netstack::invariant::InvariantViolation> {
        self.engine.take_invariant_violation()
    }

    // ----- socket lifecycle ---------------------------------------------

    /// Creates a TCP socket.
    pub fn tcp_socket(&mut self) -> SockId {
        self.alloc(SockKind::Tcp)
    }

    /// Creates a UDP socket.
    pub fn udp_socket(&mut self) -> SockId {
        self.alloc(SockKind::Udp)
    }

    fn alloc(&mut self, kind: SockKind) -> SockId {
        let id = SockId(self.next_sock);
        self.next_sock += 1;
        self.socks.insert(id, Sock::new(kind));
        id
    }

    /// Binds a UDP socket to a local port.
    ///
    /// # Errors
    ///
    /// [`SockError`] for unknown sockets, TCP sockets or taken ports.
    pub fn udp_bind(&mut self, sock: SockId, port: u16) -> Result<(), SockError> {
        let s = self.socks.get_mut(&sock).ok_or(SockError::UnknownSock(sock))?;
        if s.kind != SockKind::Udp {
            return Err(SockError::InvalidState("udp_bind on TCP socket"));
        }
        self.engine.udp_bind(port)?;
        s.udp_port = Some(port);
        self.udp_to_sock.insert(port, sock);
        Ok(())
    }

    /// Starts listening on a TCP port.
    ///
    /// # Errors
    ///
    /// [`SockError`] as above.
    pub fn listen(&mut self, sock: SockId, port: u16) -> Result<(), SockError> {
        let s = self.socks.get_mut(&sock).ok_or(SockError::UnknownSock(sock))?;
        if s.kind != SockKind::Tcp {
            return Err(SockError::InvalidState("listen on UDP socket"));
        }
        self.engine.tcp_listen(port)?;
        s.listen_port = Some(port);
        self.listen_to_sock.insert(port, sock);
        Ok(())
    }

    /// Starts an active open, appending what it produces to `out`.
    ///
    /// # Errors
    ///
    /// [`SockError`] as above.
    pub fn connect(
        &mut self,
        now: SimTime,
        sock: SockId,
        local_port: u16,
        remote: Endpoint,
        out: &mut Vec<HostOutput>,
    ) -> Result<(), SockError> {
        let s = self.socks.get_mut(&sock).ok_or(SockError::UnknownSock(sock))?;
        if s.kind != SockKind::Tcp || s.conn.is_some() {
            return Err(SockError::InvalidState("connect on bound/UDP socket"));
        }
        let t = self.cpu.charge(
            now,
            WorkClass::Syscall,
            params::HOST_SYSCALL_CYCLES + params::HOST_SOCKET_LAYER_CYCLES,
        );
        with_emit_buffer(|emits| {
            let conn = self.engine.tcp_connect(t, local_port, remote, emits);
            self.socks.get_mut(&sock).expect("checked").conn = Some(conn);
            self.conn_to_sock.insert(conn, sock);
            self.process_emits(t, emits, &[], out);
        });
        Ok(())
    }

    // ----- data path -------------------------------------------------------

    /// Writes `data` to a connected TCP socket, appending what it
    /// transmits to `out`. The bytes are copied into the send buffer
    /// only when the write is accepted, which is where the model charges
    /// the copy; a refused write ([`SendOutcome::WouldBlock`]) copies
    /// nothing.
    ///
    /// # Errors
    ///
    /// [`SockError`] for unknown/unconnected sockets.
    pub fn send(
        &mut self,
        now: SimTime,
        sock: SockId,
        data: &[u8],
        out: &mut Vec<HostOutput>,
    ) -> Result<SendOutcome, SockError> {
        let s = self.socks.get(&sock).ok_or(SockError::UnknownSock(sock))?;
        let Some(conn) = s.conn else {
            return Err(SockError::InvalidState("send on unconnected socket"));
        };
        let buffered = self.engine.conn_bytes_buffered(conn).unwrap_or(0);
        if buffered + data.len() as u64 > self.cfg.sndbuf as u64 {
            // blocking socket: the writer sleeps; only the check costs
            self.cpu.charge(now, WorkClass::Syscall, params::HOST_SYSCALL_CYCLES);
            return Ok(SendOutcome::WouldBlock);
        }
        let mut t = self.cpu.charge(
            now,
            WorkClass::Syscall,
            params::HOST_SYSCALL_CYCLES + params::HOST_SOCKET_LAYER_CYCLES,
        );
        t = self.cpu.charge(t, WorkClass::Copy, params::HOST_COPY_FROM_USER_BASE_CYCLES);
        t = self.cpu.charge_copy(t, data.len());
        if !self.cfg.hw_checksum {
            t = self.cpu.charge_checksum(t, data.len());
        }
        let token = SendToken(self.next_token);
        self.next_token += 1;
        with_emit_buffer(|emits| {
            self.engine.tcp_send(t, conn, data.to_vec(), token, emits)?;
            let done = self.process_emits(t, emits, &[], out);
            Ok(SendOutcome::Sent { done })
        })
    }

    /// Reads up to `max` buffered bytes from a TCP socket, charging the
    /// receive-side syscall/copy costs. Returns the data and the instant
    /// the call returns.
    ///
    /// # Errors
    ///
    /// [`SockError::UnknownSock`].
    pub fn recv(
        &mut self,
        now: SimTime,
        sock: SockId,
        max: usize,
    ) -> Result<(Vec<u8>, SimTime), SockError> {
        let s = self.socks.get_mut(&sock).ok_or(SockError::UnknownSock(sock))?;
        let take = s.rx.len().min(max);
        // the ring's readable prefix is at most two slices
        let (head, tail) = s.rx.as_slices();
        let from_head = take.min(head.len());
        let mut data = Vec::with_capacity(take);
        data.extend_from_slice(&head[..from_head]);
        data.extend_from_slice(&tail[..take - from_head]);
        s.rx.drain(..take);
        let mut t = self.cpu.charge(
            now,
            WorkClass::Syscall,
            params::HOST_SYSCALL_CYCLES
                + params::HOST_SOCKET_LAYER_CYCLES
                + params::HOST_SOCK_DEQUEUE_CYCLES,
        );
        t = self.cpu.charge(t, WorkClass::Copy, params::HOST_COPY_TO_USER_BASE_CYCLES);
        t = self.cpu.charge_copy(t, data.len());
        Ok((data, t))
    }

    /// Bytes currently readable on a TCP socket.
    pub fn readable(&self, sock: SockId) -> usize {
        self.socks.get(&sock).map_or(0, |s| s.rx.len())
    }

    /// Bytes written to a TCP socket and not yet acknowledged by the
    /// peer: the send-buffer occupancy that `sndbuf` bounds.
    pub fn buffered(&self, sock: SockId) -> u64 {
        let conn = self.socks.get(&sock).and_then(|s| s.conn);
        conn.and_then(|c| self.engine.conn_bytes_buffered(c)).unwrap_or(0)
    }

    /// Whether the peer has closed (EOF after draining `readable`).
    pub fn peer_closed(&self, sock: SockId) -> bool {
        self.socks.get(&sock).is_some_and(|s| s.peer_closed)
    }

    /// Sends one UDP datagram, appending the frame to `out`; returns
    /// the instant the call returns.
    ///
    /// # Errors
    ///
    /// [`SockError`] for unbound sockets or oversized payloads.
    pub fn udp_send(
        &mut self,
        now: SimTime,
        sock: SockId,
        dst: Endpoint,
        data: &[u8],
        out: &mut Vec<HostOutput>,
    ) -> Result<SimTime, SockError> {
        let s = self.socks.get(&sock).ok_or(SockError::UnknownSock(sock))?;
        let Some(port) = s.udp_port else {
            return Err(SockError::InvalidState("udp_send on unbound socket"));
        };
        let mut t = self.cpu.charge(
            now,
            WorkClass::Syscall,
            params::HOST_SYSCALL_CYCLES + params::HOST_SOCKET_LAYER_CYCLES,
        );
        t = self.cpu.charge(t, WorkClass::Copy, params::HOST_COPY_FROM_USER_BASE_CYCLES);
        t = self.cpu.charge_copy(t, data.len());
        if !self.cfg.hw_checksum {
            t = self.cpu.charge_checksum(t, data.len());
        }
        t = self.cpu.charge(
            t,
            WorkClass::Protocol,
            params::HOST_UDP_OUTPUT_CYCLES + params::HOST_IP_OUTPUT_CYCLES,
        );
        let emit = self.engine.udp_send(port, dst, data)?;
        Ok(with_emit_buffer(|emits| {
            emits.push(emit);
            self.process_emits(t, emits, &[], out)
        }))
    }

    /// Reads one queued UDP datagram, if any.
    pub fn udp_recv(&mut self, now: SimTime, sock: SockId) -> Option<(Endpoint, Vec<u8>, SimTime)> {
        let s = self.socks.get_mut(&sock)?;
        let (src, data) = s.udp_rx.pop_front()?;
        let mut t = self.cpu.charge(
            now,
            WorkClass::Syscall,
            params::HOST_SYSCALL_CYCLES
                + params::HOST_SOCKET_LAYER_CYCLES
                + params::HOST_SOCK_DEQUEUE_CYCLES,
        );
        t = self.cpu.charge(t, WorkClass::Copy, params::HOST_COPY_TO_USER_BASE_CYCLES);
        t = self.cpu.charge_copy(t, data.len());
        Some((src, data, t))
    }

    /// Closes the write side of a TCP socket (FIN), appending what it
    /// transmits to `out`.
    ///
    /// # Errors
    ///
    /// [`SockError`] for unknown/unconnected sockets.
    pub fn close(
        &mut self,
        now: SimTime,
        sock: SockId,
        out: &mut Vec<HostOutput>,
    ) -> Result<(), SockError> {
        let s = self.socks.get(&sock).ok_or(SockError::UnknownSock(sock))?;
        let Some(conn) = s.conn else {
            return Err(SockError::InvalidState("close on unconnected socket"));
        };
        let t = self.cpu.charge(now, WorkClass::Syscall, params::HOST_SYSCALL_CYCLES);
        with_emit_buffer(|emits| {
            self.engine.tcp_close(t, conn, emits)?;
            self.process_emits(t, emits, &[], out);
            Ok(())
        })
    }

    // ----- wire input --------------------------------------------------------

    /// A frame's last byte arrived from the wire at `now`; what the
    /// stack produces in response is appended to `out`.
    pub fn on_frame(&mut self, now: SimTime, bytes: &[u8], out: &mut Vec<HostOutput>) {
        // adapter: DMA to the host ring and (maybe) interrupt
        let (data_ready, interrupt) = match self.nic.as_mut() {
            Some(nic) => {
                let o = nic.rx(now, bytes.len());
                (o.data_ready, o.interrupt)
            }
            None => (now, false), // loopback: no device
        };
        let mut t = data_ready;
        if interrupt {
            t = self.cpu.charge(t, WorkClass::Interrupt, params::HOST_INTERRUPT_CYCLES);
        }
        if self.nic.is_some() {
            t = self.cpu.charge(t, WorkClass::Driver, params::HOST_DRIVER_RX_CYCLES);
        }
        if self.cfg.staging_copy {
            t = self.cpu.charge_copy(t, bytes.len());
        }
        t = self.cpu.charge(t, WorkClass::Interrupt, params::HOST_SOFTIRQ_CYCLES);
        t = self.cpu.charge(t, WorkClass::Protocol, params::HOST_IP_INPUT_CYCLES);
        let is_udp = bytes.len() > 6 && bytes[6] == 17;
        if !self.cfg.hw_checksum {
            t = self.cpu.charge_checksum(t, bytes.len().saturating_sub(40));
        }
        t = self.cpu.charge(
            t,
            WorkClass::Protocol,
            if is_udp { params::HOST_UDP_INPUT_CYCLES } else { params::HOST_TCP_INPUT_CYCLES },
        );
        with_emit_buffer(|emits| {
            self.engine.on_packet(t, bytes, emits);
            let _ = self.engine.take_ops();
            self.process_emits(t, emits, bytes, out);
        });
    }

    // ----- timers ---------------------------------------------------------------

    /// Earliest protocol timer deadline.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.engine.next_deadline()
    }

    /// Fires due protocol timers, appending what they produce to `out`.
    pub fn on_timer(&mut self, now: SimTime, out: &mut Vec<HostOutput>) {
        with_emit_buffer(|emits| {
            self.engine.on_timer(now, emits);
            self.process_emits(now, emits, &[], out);
        });
    }

    // ----- internals --------------------------------------------------------------

    /// Drains engine emissions; returns the CPU completion time of the
    /// last charged work. `rx` is the packet the engine was handling
    /// (empty for other calls): delivered payload is copied from it
    /// once, into the socket's byte ring.
    fn process_emits(
        &mut self,
        t: SimTime,
        emits: &mut Vec<Emit>,
        rx: &[u8],
        out: &mut Vec<HostOutput>,
    ) -> SimTime {
        let mut t = t;
        for emit in emits.drain(..) {
            match emit {
                Emit::Packet(pkt) => {
                    // per-packet protocol output cost + driver + adapter DMA
                    let proto = if matches!(pkt.kind, qpip_netstack::types::PacketKind::Udp) {
                        0 // UDP output charged at the syscall site
                    } else {
                        params::HOST_TCP_OUTPUT_CYCLES + params::HOST_IP_OUTPUT_CYCLES
                    };
                    t = self.cpu.charge(t, WorkClass::Protocol, proto);
                    if self.cfg.staging_copy {
                        t = self.cpu.charge_copy(t, pkt.bytes.len());
                    }
                    let at = match self.nic.as_mut() {
                        Some(nic) => {
                            let td = self.cpu.charge(
                                t,
                                WorkClass::Driver,
                                params::HOST_DRIVER_TX_CYCLES,
                            );
                            nic.tx(td, pkt.bytes.len())
                        }
                        None => t,
                    };
                    out.push(HostOutput::Frame { at, dst: pkt.dst, bytes: pkt.bytes });
                }
                Emit::UdpDelivered { port, src, payload } => {
                    if let Some(&sock) = self.udp_to_sock.get(&port) {
                        let s = self.socks.get_mut(&sock).expect("mapped");
                        let was_empty = s.udp_rx.is_empty();
                        s.udp_rx.push_back((src, payload));
                        if was_empty {
                            t = self.cpu.charge(
                                t,
                                WorkClass::Interrupt,
                                params::HOST_WAKEUP_CYCLES,
                            );
                            out.push(HostOutput::DataReady { sock, at: t });
                        }
                    }
                }
                Emit::TcpDelivered { conn, at } => {
                    if let Some(&sock) = self.conn_to_sock.get(&conn) {
                        let s = self.socks.get_mut(&sock).expect("mapped");
                        let was_empty = s.rx.is_empty();
                        s.rx.extend(&rx[at]);
                        if was_empty {
                            t = self.cpu.charge(
                                t,
                                WorkClass::Interrupt,
                                params::HOST_WAKEUP_CYCLES,
                            );
                            out.push(HostOutput::DataReady { sock, at: t });
                        }
                    }
                }
                Emit::TcpSendComplete { conn, .. } => {
                    if let Some(&sock) = self.conn_to_sock.get(&conn) {
                        let buffered = self.engine.conn_bytes_buffered(conn).unwrap_or(0);
                        if buffered <= (self.cfg.sndbuf / 2) as u64 {
                            out.push(HostOutput::SendSpace { sock, at: t });
                        }
                    }
                }
                Emit::TcpConnected { conn } => {
                    if let Some(&sock) = self.conn_to_sock.get(&conn) {
                        out.push(HostOutput::Connected { sock, at: t });
                    }
                }
                Emit::TcpAccepted { listener_port, conn, peer } => {
                    if let Some(&listener) = self.listen_to_sock.get(&listener_port) {
                        let sock = self.alloc(SockKind::Tcp);
                        self.socks.get_mut(&sock).expect("new").conn = Some(conn);
                        self.conn_to_sock.insert(conn, sock);
                        t = self.cpu.charge(t, WorkClass::Interrupt, params::HOST_WAKEUP_CYCLES);
                        out.push(HostOutput::Accepted { listener, sock, peer, at: t });
                    }
                }
                Emit::TcpPeerClosed { conn } => {
                    if let Some(&sock) = self.conn_to_sock.get(&conn) {
                        self.socks.get_mut(&sock).expect("mapped").peer_closed = true;
                        out.push(HostOutput::PeerClosed { sock, at: t });
                    }
                }
                Emit::TcpClosed { conn } => {
                    if let Some(sock) = self.conn_to_sock.remove(&conn) {
                        if let Some(s) = self.socks.get_mut(&sock) {
                            s.conn = None;
                        }
                    }
                }
                Emit::TcpReset { conn } => {
                    if let Some(sock) = self.conn_to_sock.remove(&conn) {
                        if let Some(s) = self.socks.get_mut(&sock) {
                            s.conn = None;
                            s.peer_closed = true;
                        }
                        out.push(HostOutput::Reset { sock, at: t });
                    }
                }
            }
        }
        t
    }
}
