//! Packetdrill-style scripted segment harness.
//!
//! A test acts as the remote peer of one [`Engine`]: it builds raw wire
//! segments with [`seg`], injects them with [`Harness::inject`], and
//! asserts the engine's replies with [`Harness::expect`]. Every engine
//! call is followed by a full [`Engine::check_invariants`] sweep, so a
//! script that drives the state machine into an inconsistent TCB fails
//! immediately with the violated invariant's name.
//!
//! ```
//! use qpip_conform::{seg, Expect, Harness};
//! use qpip_netstack::types::NetConfig;
//!
//! let mut h = Harness::server(NetConfig::qpip(9000), 5000);
//! h.inject(seg().syn().seq(100).win(65535).mss(1460));
//! let synack = h.expect(Expect::synack().ack_no(101));
//! h.inject(seg().ack(synack.hdr.seq.0 + 1).seq(101));
//! ```

use std::collections::VecDeque;
use std::net::Ipv6Addr;

use qpip_netstack::codec::{self, Decoded};
use qpip_netstack::engine::{with_emit_buffer, Engine, EngineStats};
use qpip_netstack::tcp::{SegPayload, SegmentOut, TcpState};
use qpip_netstack::types::{Emit, Endpoint, NetConfig, PacketKind, SendToken};
use qpip_netstack::ConnId;
use qpip_sim::time::{SimDuration, SimTime};
use qpip_wire::tcp::{SeqNum, TcpFlags, TcpHeader, TcpOptions};

/// The engine-side address the harness gives the engine.
pub const LOCAL_ADDR: Ipv6Addr = Ipv6Addr::new(0xfc00, 0, 0, 0, 0, 0, 0, 1);
/// The scripted peer's address.
pub const PEER_ADDR: Ipv6Addr = Ipv6Addr::new(0xfc00, 0, 0, 0, 0, 0, 0, 0xaa);
/// The scripted peer's default source port (server-mode scripts).
pub const PEER_PORT: u16 = 33000;
/// The engine's local port in client-mode scripts.
pub const CLIENT_PORT: u16 = 44000;

/// One TCP segment captured off the engine's transmit path, decoded
/// back into header + payload for assertions.
#[derive(Debug, Clone)]
pub struct WireSeg {
    /// The decoded TCP header.
    pub hdr: TcpHeader,
    /// The segment payload.
    pub payload: Vec<u8>,
}

impl std::fmt::Display for WireSeg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let fl = &self.hdr.flags;
        let mut s = String::new();
        for (bit, ch) in [(fl.syn, 'S'), (fl.fin, 'F'), (fl.rst, 'R'), (fl.psh, 'P'), (fl.ack, '.')]
        {
            if bit {
                s.push(ch);
            }
        }
        write!(
            f,
            "flags {s} seq {} ack {} len {} win {}",
            self.hdr.seq,
            self.hdr.ack,
            self.payload.len(),
            self.hdr.window
        )?;
        if self.hdr.options != TcpOptions::default() {
            write!(f, " opts {:?}", self.hdr.options)?;
        }
        Ok(())
    }
}

/// Starts a segment builder with no flags, window 65535.
pub fn seg() -> SegBuilder {
    SegBuilder::default()
}

/// Builder for one injected wire segment. Starts with no flags and a
/// 65535 window; every method overrides one field.
#[derive(Debug, Clone)]
pub struct SegBuilder {
    seq: u32,
    ack: u32,
    flags: TcpFlags,
    win: u16,
    options: TcpOptions,
    payload: Vec<u8>,
    src_port: Option<u16>,
    dst_port: Option<u16>,
    bad_checksum: bool,
    truncate_to: Option<usize>,
}

impl Default for SegBuilder {
    fn default() -> Self {
        SegBuilder {
            seq: 0,
            ack: 0,
            flags: TcpFlags::NONE,
            win: 65535,
            options: TcpOptions::default(),
            payload: Vec::new(),
            src_port: None,
            dst_port: None,
            bad_checksum: false,
            truncate_to: None,
        }
    }
}

impl SegBuilder {
    /// Sets SYN.
    pub fn syn(mut self) -> Self {
        self.flags.syn = true;
        self
    }

    /// Sets ACK and the acknowledgment number.
    pub fn ack(mut self, n: u32) -> Self {
        self.flags.ack = true;
        self.ack = n;
        self
    }

    /// Sets the ACK flag without touching the ack number.
    pub fn ack_flag(mut self) -> Self {
        self.flags.ack = true;
        self
    }

    /// Sets FIN.
    pub fn fin(mut self) -> Self {
        self.flags.fin = true;
        self
    }

    /// Sets RST.
    pub fn rst(mut self) -> Self {
        self.flags.rst = true;
        self
    }

    /// Sets PSH.
    pub fn psh(mut self) -> Self {
        self.flags.psh = true;
        self
    }

    /// Sets the sequence number.
    pub fn seq(mut self, n: u32) -> Self {
        self.seq = n;
        self
    }

    /// Sets the window field.
    pub fn win(mut self, w: u16) -> Self {
        self.win = w;
        self
    }

    /// Carries an MSS option.
    pub fn mss(mut self, mss: u16) -> Self {
        self.options.mss = Some(mss);
        self
    }

    /// Carries a window-scale option.
    pub fn wscale(mut self, shift: u8) -> Self {
        self.options.window_scale = Some(shift);
        self
    }

    /// Carries a timestamps option `(TSval, TSecr)`.
    pub fn ts(mut self, val: u32, ecr: u32) -> Self {
        self.options.timestamps = Some((val, ecr));
        self
    }

    /// Carries this payload.
    pub fn payload(mut self, data: &[u8]) -> Self {
        self.payload = data.to_vec();
        self
    }

    /// Corrupts the TCP checksum after encoding.
    pub fn bad_checksum(mut self) -> Self {
        self.bad_checksum = true;
        self
    }

    /// Truncates the encoded packet to `n` bytes.
    pub fn truncated(mut self, n: usize) -> Self {
        self.truncate_to = Some(n);
        self
    }

    /// Overrides the peer-side source port.
    pub fn from_port(mut self, p: u16) -> Self {
        self.src_port = Some(p);
        self
    }

    /// Overrides the engine-side destination port.
    pub fn to_port(mut self, p: u16) -> Self {
        self.dst_port = Some(p);
        self
    }

    /// Encodes the segment as a full IPv6+TCP packet from `src` to
    /// `dst`, applying corruption/truncation last.
    pub fn build(&self, src: Endpoint, dst: Endpoint) -> Vec<u8> {
        let src = Endpoint::new(src.addr, self.src_port.unwrap_or(src.port));
        let dst = Endpoint::new(dst.addr, self.dst_port.unwrap_or(dst.port));
        let seg = SegmentOut {
            seq: SeqNum(self.seq),
            ack: SeqNum(self.ack),
            flags: self.flags,
            window: self.win,
            options: self.options,
            payload: SegPayload::Buffered(self.payload.len() as u32),
            kind: PacketKind::TcpData,
            is_retransmit: false,
            ect: false,
        };
        let pkt = codec::build_tcp_packet(src, dst, &seg, |p| p.extend_from_slice(&self.payload));
        let mut bytes = pkt.to_vec();
        if self.bad_checksum {
            // TCP checksum lives at offset 16 of the segment, after the
            // 40-byte IPv6 header.
            bytes[40 + 16] ^= 0xff;
        }
        if let Some(n) = self.truncate_to {
            bytes.truncate(n);
        }
        bytes
    }
}

/// What a script expects the engine to transmit next. Unset fields are
/// not checked.
#[derive(Debug, Clone, Default)]
pub struct Expect {
    label: &'static str,
    syn: Option<bool>,
    ack_flag: Option<bool>,
    rst: Option<bool>,
    fin: Option<bool>,
    seq: Option<u32>,
    ack: Option<u32>,
    win: Option<u16>,
    payload_len: Option<usize>,
    payload: Option<Vec<u8>>,
    mss_present: Option<bool>,
    wscale: Option<Option<u8>>,
    ts_present: Option<bool>,
    ts_ecr: Option<u32>,
}

impl Expect {
    /// Any segment at all.
    pub fn any() -> Self {
        Expect { label: "any segment", ..Expect::default() }
    }

    /// A SYN-ACK.
    pub fn synack() -> Self {
        Expect {
            label: "SYN-ACK",
            syn: Some(true),
            ack_flag: Some(true),
            rst: Some(false),
            fin: Some(false),
            ..Expect::default()
        }
    }

    /// A pure ACK: no SYN/FIN/RST, no payload.
    pub fn pure_ack() -> Self {
        Expect {
            label: "pure ACK",
            syn: Some(false),
            ack_flag: Some(true),
            rst: Some(false),
            fin: Some(false),
            payload_len: Some(0),
            ..Expect::default()
        }
    }

    /// A FIN (with ACK, as the engine always acks).
    pub fn fin_seg() -> Self {
        Expect {
            label: "FIN",
            fin: Some(true),
            ack_flag: Some(true),
            rst: Some(false),
            syn: Some(false),
            ..Expect::default()
        }
    }

    /// A data segment carrying exactly this payload.
    pub fn data(payload: &[u8]) -> Self {
        Expect {
            label: "data segment",
            syn: Some(false),
            rst: Some(false),
            fin: Some(false),
            payload: Some(payload.to_vec()),
            ..Expect::default()
        }
    }

    /// Requires this sequence number.
    pub fn seq(mut self, n: u32) -> Self {
        self.seq = Some(n);
        self
    }

    /// Requires this acknowledgment number.
    pub fn ack_no(mut self, n: u32) -> Self {
        self.ack = Some(n);
        self
    }

    /// Requires this window field.
    pub fn win(mut self, w: u16) -> Self {
        self.win = Some(w);
        self
    }

    /// Requires this payload length.
    pub fn payload_len(mut self, n: usize) -> Self {
        self.payload_len = Some(n);
        self
    }

    /// Requires an MSS option to be present (or absent).
    pub fn mss_present(mut self, p: bool) -> Self {
        self.mss_present = Some(p);
        self
    }

    /// Requires the window-scale option to be exactly this.
    pub fn wscale(mut self, w: Option<u8>) -> Self {
        self.wscale = Some(w);
        self
    }

    /// Requires a timestamps option to be present (or absent).
    pub fn ts_present(mut self, p: bool) -> Self {
        self.ts_present = Some(p);
        self
    }

    /// Requires the echoed TSecr to be exactly this.
    pub fn ts_ecr(mut self, e: u32) -> Self {
        self.ts_ecr = Some(e);
        self
    }

    fn mismatches(&self, w: &WireSeg) -> Vec<String> {
        let mut out = Vec::new();
        let mut flag = |name: &str, want: Option<bool>, got: bool| {
            if let Some(want) = want {
                if want != got {
                    out.push(format!("{name}: want {want}, got {got}"));
                }
            }
        };
        flag("syn", self.syn, w.hdr.flags.syn);
        flag("ack-flag", self.ack_flag, w.hdr.flags.ack);
        flag("rst", self.rst, w.hdr.flags.rst);
        flag("fin", self.fin, w.hdr.flags.fin);
        if let Some(n) = self.seq {
            if w.hdr.seq.0 != n {
                out.push(format!("seq: want {n}, got {}", w.hdr.seq));
            }
        }
        if let Some(n) = self.ack {
            if w.hdr.ack.0 != n {
                out.push(format!("ack: want {n}, got {}", w.hdr.ack));
            }
        }
        if let Some(win) = self.win {
            if w.hdr.window != win {
                out.push(format!("win: want {win}, got {}", w.hdr.window));
            }
        }
        if let Some(n) = self.payload_len {
            if w.payload.len() != n {
                out.push(format!("payload len: want {n}, got {}", w.payload.len()));
            }
        }
        if let Some(p) = &self.payload {
            if &w.payload != p {
                out.push(format!(
                    "payload: want {} bytes {:?}…, got {} bytes",
                    p.len(),
                    &p[..p.len().min(8)],
                    w.payload.len()
                ));
            }
        }
        if let Some(p) = self.mss_present {
            if w.hdr.options.mss.is_some() != p {
                out.push(format!("mss option: want present={p}, got {:?}", w.hdr.options.mss));
            }
        }
        if let Some(want) = self.wscale {
            if w.hdr.options.window_scale != want {
                out.push(format!(
                    "wscale option: want {want:?}, got {:?}",
                    w.hdr.options.window_scale
                ));
            }
        }
        if let Some(p) = self.ts_present {
            if w.hdr.options.timestamps.is_some() != p {
                out.push(format!(
                    "timestamps option: want present={p}, got {:?}",
                    w.hdr.options.timestamps
                ));
            }
        }
        if let Some(e) = self.ts_ecr {
            match w.hdr.options.timestamps {
                Some((_, ecr)) if ecr == e => {}
                other => out.push(format!("ts ecr: want {e}, got {other:?}")),
            }
        }
        out
    }
}

/// The scripted-test harness: one engine plus the peer the script plays.
pub struct Harness {
    engine: Engine,
    now: SimTime,
    local: Endpoint,
    peer: Endpoint,
    outbox: VecDeque<WireSeg>,
    events: Vec<Emit>,
    /// Payload delivered so far, in order, copied out of the injected
    /// packets.
    delivered: Vec<u8>,
    conn: Option<ConnId>,
    next_token: u64,
}

impl Harness {
    /// An engine listening on `port`; the script plays an active-opening
    /// client from [`PEER_ADDR`]:[`PEER_PORT`].
    pub fn server(cfg: NetConfig, port: u16) -> Harness {
        let mut engine = Engine::new(cfg, LOCAL_ADDR);
        engine.tcp_listen(port).expect("listen");
        Harness {
            engine,
            now: SimTime::ZERO,
            local: Endpoint::new(LOCAL_ADDR, port),
            peer: Endpoint::new(PEER_ADDR, PEER_PORT),
            outbox: VecDeque::new(),
            events: Vec::new(),
            delivered: Vec::new(),
            conn: None,
            next_token: 1,
        }
    }

    /// An engine actively connecting to the scripted peer on
    /// `dst_port`; the SYN lands in the outbox.
    pub fn client(cfg: NetConfig, dst_port: u16) -> Harness {
        let mut h = Harness {
            engine: Engine::new(cfg, LOCAL_ADDR),
            now: SimTime::ZERO,
            local: Endpoint::new(LOCAL_ADDR, CLIENT_PORT),
            peer: Endpoint::new(PEER_ADDR, dst_port),
            outbox: VecDeque::new(),
            events: Vec::new(),
            delivered: Vec::new(),
            conn: None,
            next_token: 1,
        };
        let remote = Endpoint::new(PEER_ADDR, dst_port);
        let conn = h.drive(|e, now, out| e.tcp_connect(now, CLIENT_PORT, remote, out));
        h.conn = Some(conn);
        h
    }

    // ----- injecting and expecting ----------------------------------

    /// Injects one scripted segment from the peer.
    pub fn inject(&mut self, b: SegBuilder) {
        let bytes = b.build(self.peer, self.local);
        self.inject_raw(&bytes);
    }

    /// Injects raw packet bytes (for corrupted/truncated cases built by
    /// hand).
    pub fn inject_raw(&mut self, bytes: &[u8]) {
        with_emit_buffer(|emits| {
            self.engine.on_packet(self.now, bytes, emits);
            self.absorb(emits, bytes);
        });
    }

    /// Pops the next transmitted segment and asserts it matches.
    ///
    /// # Panics
    ///
    /// Panics with the mismatch list (or "nothing sent") on failure —
    /// the script line number points at the failing expectation.
    #[track_caller]
    pub fn expect(&mut self, e: Expect) -> WireSeg {
        let Some(w) = self.outbox.pop_front() else {
            panic!("expected {}, but the engine sent nothing", e.label);
        };
        let miss = e.mismatches(&w);
        if !miss.is_empty() {
            panic!("expected {}, got [{w}]\n  {}", e.label, miss.join("\n  "));
        }
        w
    }

    /// Asserts the engine transmitted nothing (pending outbox empty).
    #[track_caller]
    pub fn expect_quiet(&mut self) {
        if let Some(w) = self.outbox.pop_front() {
            panic!("expected silence, but the engine sent [{w}]");
        }
    }

    // ----- time ------------------------------------------------------

    /// Advances the clock without firing timers.
    pub fn advance(&mut self, d: SimDuration) {
        self.now += d;
    }

    /// Advances the clock to the next armed deadline and fires it.
    ///
    /// # Panics
    ///
    /// Panics if no timer is armed.
    #[track_caller]
    pub fn fire_timer(&mut self) {
        let dl = self.engine.next_deadline().expect("fire_timer: no timer armed");
        if dl > self.now {
            self.now = dl;
        }
        self.drive(|e, now, out| e.on_timer(now, out));
    }

    /// The engine's next armed deadline, if any.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.engine.next_deadline()
    }

    /// The current scripted clock.
    pub fn now(&self) -> SimTime {
        self.now
    }

    // ----- application verbs on the engine side ---------------------

    /// Sends one message on the tracked connection.
    #[track_caller]
    pub fn send(&mut self, data: &[u8]) -> SendToken {
        let conn = self.conn.expect("send: no connection yet");
        let token = SendToken(self.next_token);
        self.next_token += 1;
        self.drive(|e, now, out| e.tcp_send(now, conn, data.to_vec(), token, out))
            .expect("tcp_send");
        token
    }

    /// Begins a graceful close on the tracked connection.
    #[track_caller]
    pub fn close(&mut self) {
        let conn = self.conn.expect("close: no connection yet");
        self.drive(|e, now, out| e.tcp_close(now, conn, out)).expect("tcp_close");
    }

    /// Aborts the tracked connection with RST.
    #[track_caller]
    pub fn abort(&mut self) {
        let conn = self.conn.expect("abort: no connection yet");
        self.drive(|e, now, out| e.tcp_abort(now, conn, out)).expect("tcp_abort");
    }

    /// Updates the receive-window backing space of the tracked
    /// connection and announces the new window with a pure ACK.
    #[track_caller]
    pub fn set_recv_space(&mut self, bytes: u64) {
        let conn = self.conn.expect("set_recv_space: no connection yet");
        self.drive(|e, now, out| {
            e.set_recv_space(conn, bytes)?;
            e.announce_window(now, conn, out)
        })
        .expect("set_recv_space");
    }

    // ----- observation ----------------------------------------------

    /// The tracked connection id (set by the first accept/connect).
    pub fn conn(&self) -> Option<ConnId> {
        self.conn
    }

    /// TCP state of the tracked connection (`None` once reaped).
    pub fn state(&self) -> Option<TcpState> {
        self.conn.and_then(|c| self.engine.conn_state(c))
    }

    /// Engine counters.
    pub fn stats(&self) -> EngineStats {
        self.engine.stats()
    }

    /// Direct engine access for assertions the helpers don't cover.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Drains the non-packet events absorbed so far, except
    /// [`Emit::TcpDelivered`]: its bytes go to
    /// [`take_delivered`](Self::take_delivered).
    pub fn take_events(&mut self) -> Vec<Emit> {
        std::mem::take(&mut self.events)
    }

    /// Drains the payload bytes delivered so far, in order.
    pub fn take_delivered(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.delivered)
    }

    // ----- canned sequences -----------------------------------------

    /// Standard server-side handshake: peer SYN (mss 1460, no window
    /// scale, no timestamps — keeps later sequence arithmetic unscaled)
    /// → SYN-ACK → peer ACK. Returns the engine's ISS.
    #[track_caller]
    pub fn handshake(&mut self, peer_iss: u32) -> u32 {
        self.inject(seg().syn().seq(peer_iss).win(65535).mss(1460));
        let sa = self.expect(Expect::synack().ack_no(peer_iss.wrapping_add(1)));
        let srv_iss = sa.hdr.seq.0;
        self.inject(seg().seq(peer_iss.wrapping_add(1)).ack(srv_iss.wrapping_add(1)));
        self.expect_quiet();
        assert_eq!(self.state(), Some(TcpState::Established));
        srv_iss
    }

    // ----- internals ------------------------------------------------

    /// Runs one engine call that hands the engine no packet at the
    /// scripted clock and absorbs what it emitted.
    fn drive<R>(&mut self, call: impl FnOnce(&mut Engine, SimTime, &mut Vec<Emit>) -> R) -> R {
        with_emit_buffer(|emits| {
            let r = call(&mut self.engine, self.now, emits);
            self.absorb(emits, &[]);
            r
        })
    }

    /// Absorbs an engine call's output; `rx` is the packet it handled
    /// (empty for other calls), which delivered payload is copied from.
    fn absorb(&mut self, emits: &mut Vec<Emit>, rx: &[u8]) {
        for e in emits.drain(..) {
            match e {
                Emit::TcpDelivered { at, .. } => self.delivered.extend_from_slice(&rx[at]),
                Emit::Packet(p) => {
                    // Track the embryonic connection from its first
                    // reply (TcpAccepted only fires at ESTABLISHED).
                    if self.conn.is_none() {
                        self.conn = p.conn;
                    }
                    match codec::decode_packet(&p.bytes) {
                        Ok(Decoded::Tcp { tcp, payload, .. }) => {
                            self.outbox.push_back(WireSeg { hdr: tcp, payload: payload.to_vec() });
                        }
                        other => panic!("engine transmitted a non-TCP packet: {other:?}"),
                    }
                }
                Emit::TcpAccepted { conn, .. } => {
                    self.conn = Some(conn);
                    self.events.push(e);
                }
                Emit::TcpConnected { conn } => {
                    self.conn = Some(conn);
                    self.events.push(e);
                }
                other => self.events.push(other),
            }
        }
        if let Err(v) = self.engine.check_invariants() {
            panic!("TCB invariant violated after engine call: {v}");
        }
    }
}
