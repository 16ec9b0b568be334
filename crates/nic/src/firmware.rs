//! The QPIP network-interface firmware.
//!
//! Implements the organization of Figures 1 and 2: a doorbell FSM fed by
//! host PIO writes, a management FSM for QP/CQ/connection commands, and
//! the transmit/receive FSMs that run the offloaded TCP/UDP/IPv6 engine
//! against the QP state table.
//!
//! The firmware is written once and priced by a [`CostModel`]. The
//! default, [`Lanai`], charges every stage in cycles on the 133 MHz NIC
//! processor ([`qpip_sim::params`]), moves data across the 64-bit/33 MHz
//! PCI bus through two DMA pipes. Each stage that holds the processor
//! is traced as a [`TraceEvent::FwFsm`] with its cycles, the sample
//! [`Occupancy::from_trace`](crate::Occupancy::from_trace) folds into
//! Tables 2 and 3. [`ZeroCost`]
//! charges nothing: the live-socket transport (`qpip-xport`) runs the
//! same firmware on real hardware, where the cost model *is* the
//! hardware.

use std::net::Ipv6Addr;

use qpip_netstack::engine::{with_emit_buffer, Engine};
use qpip_netstack::hash::FxHashMap;
use qpip_netstack::types::{ConnId, Emit, Endpoint, PacketKind, PacketOut};
use qpip_sim::params;
use qpip_sim::resource::{BandwidthPipe, SerialResource};
use qpip_sim::time::{Clock, Cycles, SimDuration, SimTime};
use qpip_trace::{TraceEvent, Tracer};

use crate::occupancy::{PacketClass, Stage};
use crate::qp_table::{CqEntry, Outcome, QpTable, TokenUse};
use crate::rdma::{RdmaFrame, RdmaOpcode};
use crate::types::{
    endpoint_net, ChecksumMode, Completion, CompletionKind, CompletionStatus, CqId, MrKey,
    NicConfig, NicError, QpId, RdmaReadWr, RdmaWriteWr, RecvWr, SendWr, ServiceType,
};

/// What the firmware's work costs. Every processor stage and both DMA
/// directions go through the model, and each returns the instant the
/// work is done.
pub trait CostModel {
    /// Runs `cycles` of `stage` work for a `class` packet on the NIC
    /// processor, from `start` or once the processor is free; returns
    /// when it is free again.
    fn charge(
        &mut self,
        start: SimTime,
        stage: Stage,
        class: PacketClass,
        cycles: Cycles,
    ) -> SimTime;
    /// Fetches `bytes` from host memory from `start` (transmit side);
    /// returns when the last byte has arrived.
    fn dma_read(&mut self, start: SimTime, bytes: u64) -> SimTime;
    /// Places `bytes` in host memory from `start` (receive side);
    /// returns when the last byte has landed.
    fn dma_write(&mut self, start: SimTime, bytes: u64) -> SimTime;
}

/// The prototype's LANai-9-class NIC: a 133 MHz processor that runs one
/// stage at a time and a 64-bit/33 MHz PCI bus with a DMA pipe each way.
/// It keeps no per-stage table: Tables 2 and 3 are folded from the
/// trace ([`Occupancy::from_trace`](crate::Occupancy::from_trace)).
#[derive(Debug)]
pub struct Lanai {
    clock: Clock,
    proc: SerialResource,
    /// Transmit-side data fetch (device reads of host memory).
    dma_read: BandwidthPipe,
    /// Receive-side data placement (device writes to host memory).
    dma_write: BandwidthPipe,
}

impl Default for Lanai {
    fn default() -> Self {
        Lanai {
            clock: params::nic_clock(),
            proc: SerialResource::new("nic-proc"),
            dma_read: BandwidthPipe::new("pci-dma-rd", params::PCI_DMA_READ_BYTES_PER_SEC),
            dma_write: BandwidthPipe::new("pci-dma-wr", params::PCI_DMA_WRITE_BYTES_PER_SEC),
        }
    }
}

impl CostModel for Lanai {
    fn charge(&mut self, start: SimTime, _: Stage, _: PacketClass, c: Cycles) -> SimTime {
        if c.count() == 0 {
            return start;
        }
        self.proc.acquire(start, self.clock.cycles_to_duration(c))
    }

    fn dma_read(&mut self, start: SimTime, bytes: u64) -> SimTime {
        self.dma_read.transfer(start, bytes) + SimDuration::from_nanos(params::PCI_DMA_SETUP_NS)
    }

    fn dma_write(&mut self, start: SimTime, bytes: u64) -> SimTime {
        self.dma_write.transfer(start, bytes) + SimDuration::from_nanos(params::PCI_DMA_SETUP_NS)
    }
}

/// A NIC whose work takes no time: every stage and transfer ends the
/// instant it starts. The live-socket transport runs the firmware on
/// this model.
#[derive(Debug, Clone, Copy, Default)]
pub struct ZeroCost;

impl CostModel for ZeroCost {
    fn charge(&mut self, start: SimTime, _: Stage, _: PacketClass, _: Cycles) -> SimTime {
        start
    }

    fn dma_read(&mut self, start: SimTime, _: u64) -> SimTime {
        start
    }

    fn dma_write(&mut self, start: SimTime, _: u64) -> SimTime {
        start
    }
}

/// A packet the NIC hands to the fabric. Completions stay on the NIC's
/// own CQs ([`QpipNic::cq_pop`]).
#[derive(Debug)]
pub struct NicOutput {
    /// Handoff instant (media transmit engine start).
    pub at: SimTime,
    /// Destination IPv6 address (fabric resolves the route).
    pub dst: Ipv6Addr,
    /// Complete IPv6 packet (with transmit headroom in front).
    pub bytes: qpip_wire::Packet,
}

qpip_trace::counters! {
    /// What became of the messages the engine delivered to QPs: the
    /// only declaration of these three, which [`NicStats`] and the live
    /// node's stats embed.
    pub struct QpCounters {
        /// UDP messages dropped for want of a bound QP or a receive WR
        /// (§3: unreliable delivery consumes a WR; none posted means the
        /// datagram is gone).
        pub udp_no_wr_drops: u64,
        /// TCP messages parked in SRAM awaiting a receive WR.
        pub tcp_backlogged: u64,
        /// Receive completions flagged with a length error.
        pub length_errors: u64,
    }
}

qpip_trace::counters! {
    /// Aggregate NIC counters, with the QP delivery counters embedded.
    /// A new NIC counter is a field here or in [`QpCounters`].
    pub struct NicStats in "nic" {
        /// Packets handed to the fabric.
        pub tx_packets: u64,
        /// Packets received from the fabric.
        pub rx_packets: u64,
        /// What became of the messages delivered to QPs.
        pub qp: QpCounters,
        /// RDMA Writes placed into local registered regions.
        pub rdma_writes: u64,
        /// RDMA Reads served from local registered regions.
        pub rdma_reads_served: u64,
        /// RDMA operations rejected for bad keys/bounds (each tears the
        /// connection down, as Infiniband protection errors do).
        pub rdma_protection_errors: u64,
    }
}

/// How much preamble work precedes a packet transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TxOrigin {
    /// Host-posted WR: doorbell + schedule + WR fetch already charged.
    PostedWr,
    /// Generated inside the receive path (ACKs, control): doorbell
    /// notification + scheduler pass are charged here (Table 2's ACK
    /// column includes them).
    Internal,
    /// Data pushed by the scheduler later (window opened, retransmit):
    /// scheduler pass + timer scan.
    Deferred,
}

/// The QPIP intelligent NIC: the firmware and its offloaded protocol
/// engine, priced by cost model `M` ([`Lanai`] unless named).
#[derive(Debug)]
pub struct QpipNic<M = Lanai> {
    cfg: NicConfig,
    model: M,
    engine: Engine,
    /// QPs, CQs, accept pools and send tokens (the QP semantics).
    qps: QpTable,
    /// Registered memory regions addressable by peers (rkey → bytes).
    mrs: FxHashMap<u32, Vec<u8>>,
    next_rkey: u32,
    /// Outstanding RDMA Read requests, by echoed context.
    pending_reads: FxHashMap<u64, (QpId, u64)>,
    next_read_ctx: u64,
    stats: NicStats,
    mul_cycles: u64,
    reassembler: qpip_netstack::frag::Reassembler,
    next_frag_id: u32,
    /// Flight-recorder handle; also installed into the embedded engine.
    tracer: Option<Tracer>,
}

impl QpipNic {
    /// Creates a LANai-costed NIC with the given configuration at IPv6
    /// `addr`.
    pub fn new(cfg: NicConfig, addr: Ipv6Addr) -> Self {
        QpipNic::with_model(cfg, addr, Lanai::default(), u64::MAX)
    }
}

impl<M: CostModel> QpipNic<M> {
    /// Creates a NIC with the given configuration at IPv6 `addr`, priced
    /// by `model`, that never advertises a receive window above
    /// `window_cap` bytes.
    pub fn with_model(cfg: NicConfig, addr: Ipv6Addr, model: M, window_cap: u64) -> Self {
        let mut net = endpoint_net(cfg.segment_mtu());
        // QPIP semantics: the advertised window is the posted receive-WR
        // space (§5.1), which starts at zero.
        net.recv_buffer = 0;
        net.ecn = cfg.ecn;
        let mul_cycles =
            if cfg.hw_multiply { params::NIC_HW_MUL_CYCLES } else { params::NIC_SOFT_MUL_CYCLES };
        let qps = QpTable::new(cfg.mtu, window_cap);
        QpipNic {
            cfg,
            model,
            engine: Engine::new(net, addr),
            qps,
            mrs: FxHashMap::default(),
            next_rkey: 1,
            pending_reads: FxHashMap::default(),
            next_read_ctx: 1,
            stats: NicStats::default(),
            mul_cycles,
            reassembler: qpip_netstack::frag::Reassembler::new(),
            next_frag_id: 0,
            tracer: None,
        }
    }

    /// Installs a flight-recorder handle on the firmware and its
    /// embedded protocol engine. Firmware FSM stage executions are
    /// recorded node-scoped; engine events carry their connection.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.engine.set_tracer(tracer.clone());
        self.tracer = Some(tracer);
    }

    /// This NIC's IPv6 address.
    pub fn addr(&self) -> Ipv6Addr {
        self.engine.local_addr()
    }

    /// The configuration.
    pub fn config(&self) -> &NicConfig {
        &self.cfg
    }

    /// Counters.
    pub fn stats(&self) -> NicStats {
        self.stats
    }

    /// Read-only view of the embedded protocol engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Direct access to protocol-engine statistics.
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

    /// Multi-line description of everything still pending on this NIC
    /// — CQ contents, per-QP WR/backlog state, outstanding send tokens
    /// and live engine connections — for deadlock diagnostics.
    pub fn pending_summary(&self) -> String {
        self.qps.summary(&self.engine)
    }

    // ----- management FSM ------------------------------------------------

    /// Creates a completion queue.
    pub fn create_cq(&mut self) -> CqId {
        self.qps.create_cq()
    }

    /// The oldest entry of `cq`, left in place; `None` when the CQ is
    /// empty or unknown. It may not be visible yet: check
    /// [`Completion::visible_at`].
    pub fn cq_head(&self, cq: CqId) -> Option<&Completion> {
        self.qps.cq_head(cq)
    }

    /// Removes and returns the oldest entry of `cq`, visible or not.
    ///
    /// # Errors
    ///
    /// [`NicError::UnknownCq`] for a CQ never created.
    pub fn cq_pop(&mut self, cq: CqId) -> Result<Option<Completion>, NicError> {
        self.qps.cq_pop(cq)
    }

    /// Creates a queue pair bound to send/receive CQs.
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
        self.qps.create_qp(service, send_cq, recv_cq)
    }

    /// Binds a UDP QP to a local port.
    ///
    /// # Errors
    ///
    /// [`NicError::UnknownQp`], [`NicError::InvalidState`] for a TCP QP,
    /// or the engine's error if the port is taken.
    pub fn udp_bind(&mut self, qp: QpId, port: u16) -> Result<(), NicError> {
        self.qps.udp_bind(&mut self.engine, qp, port)
    }

    /// Starts monitoring a TCP port and queues `qp` to be mated to the
    /// next incoming connection (§3).
    ///
    /// # Errors
    ///
    /// [`NicError::UnknownQp`]; [`NicError::InvalidState`] for a UDP QP
    /// or one already pooled or connected.
    pub fn tcp_listen(&mut self, port: u16, qp: QpId) -> Result<(), NicError> {
        self.qps.tcp_listen(&mut self.engine, qp, port)
    }

    /// Initiates a connection from `qp` (client side of the rendezvous),
    /// appending what it produces to `out`.
    ///
    /// # Errors
    ///
    /// [`NicError::UnknownQp`] / [`NicError::InvalidState`] unless `qp`
    /// is an idle TCP QP.
    pub fn tcp_connect(
        &mut self,
        now: SimTime,
        qp: QpId,
        local_port: u16,
        remote: Endpoint,
        out: &mut Vec<NicOutput>,
    ) -> Result<(), NicError> {
        self.qps.check_connect(qp)?;
        let t = self.charge(
            now,
            Stage::DoorbellProcess,
            PacketClass::Control,
            Cycles(params::NIC_STAGE_DOORBELL_CYCLES),
        );
        with_emit_buffer(|emits| {
            let conn = self.engine.tcp_connect(t, local_port, remote, emits);
            let window = self.qps.attach(qp, conn);
            // QPIP window semantics: advertise exactly the posted space
            let _ = self.engine.set_recv_space(conn, window);
            self.process_emits(t, emits, out);
        });
        Ok(())
    }

    /// Begins a graceful close of a connected TCP QP, appending what it
    /// produces to `out`. The peer sees
    /// [`CompletionKind::PeerDisconnected`]; send WRs that can no longer
    /// complete are flushed with [`CompletionStatus::ConnectionError`]
    /// once the connection dies.
    ///
    /// # Errors
    ///
    /// [`NicError::UnknownQp`] / [`NicError::InvalidState`] unless `qp`
    /// has a connection.
    pub fn tcp_close(
        &mut self,
        now: SimTime,
        qp: QpId,
        out: &mut Vec<NicOutput>,
    ) -> Result<(), NicError> {
        let conn = self.qps.conn(qp)?;
        let t = self.charge(
            now,
            Stage::DoorbellProcess,
            PacketClass::Control,
            Cycles(params::NIC_STAGE_DOORBELL_CYCLES),
        );
        with_emit_buffer(|emits| {
            self.engine.tcp_close(t, conn, emits)?;
            self.process_emits(t, emits, out);
            Ok(())
        })
    }

    // ----- doorbell + transmit FSMs ---------------------------------------

    /// Host rang the send doorbell for `qp` with one work request. The
    /// WR is fetched from host memory by DMA and processed (Figure 2's
    /// transmit FSM); what it produces is appended to `out`. `now` is
    /// when the doorbell write lands on the NIC.
    ///
    /// # Errors
    ///
    /// [`NicError::UnknownQp`], [`NicError::InvalidState`] for QPs
    /// without a bound port/connection, or engine errors (e.g. message
    /// larger than one segment).
    pub fn post_send(
        &mut self,
        now: SimTime,
        qp: QpId,
        wr: SendWr,
        out: &mut Vec<NicOutput>,
    ) -> Result<(), NicError> {
        let service = self.qps.service(qp)?;
        if service == ServiceType::ReliableTcp {
            let t = self.tx_wr_preamble(now, PacketClass::DataSend);
            let conn = self.qps.conn(qp)?;
            let payload = if self.cfg.rdma_framing {
                RdmaFrame::send(wr.payload.len() as u32).encode_with(&wr.payload)
            } else {
                wr.payload
            };
            return self.send_posted(t, conn, payload, TokenUse::Send(qp, wr.wr_id), out);
        }
        let t = self.tx_wr_preamble(now, PacketClass::UdpSend);
        let port = self.qps.udp_port(qp)?;
        let Some(dst) = wr.dst else {
            return Err(NicError::InvalidState("UDP send WR without destination"));
        };
        let emit = self.engine.udp_send(port, dst, &wr.payload)?;
        let Emit::Packet(pkt) = emit else { unreachable!("udp_send emits a packet") };
        let done = self.emit_one(t, pkt, TxOrigin::PostedWr, out);
        // UDP send WRs complete as soon as the message is sent (§3)
        let entry =
            self.qps.send_entry(qp, wr.wr_id, CompletionKind::Send, CompletionStatus::Success);
        self.qps.complete(entry, done);
        Ok(())
    }

    /// Host rang the receive doorbell for `qp` with one receive WR;
    /// what it produces is appended to `out`.
    ///
    /// Posting receive space grows the advertised TCP window (§5.1); a
    /// window update is transmitted when the window had collapsed below
    /// one full message.
    ///
    /// # Errors
    ///
    /// [`NicError::UnknownQp`].
    pub fn post_recv(
        &mut self,
        now: SimTime,
        qp: QpId,
        wr: RecvWr,
        out: &mut Vec<NicOutput>,
    ) -> Result<(), NicError> {
        let posted = self.qps.post_recv(qp, wr)?;
        let t = self.charge(
            now,
            Stage::DoorbellProcess,
            PacketClass::DataRecv,
            Cycles(params::NIC_STAGE_DOORBELL_CYCLES),
        );

        // drain any backlog now that a buffer exists
        let mut drained = t;
        while let Some(entry) = self.qps.pop_backlog(qp) {
            drained = self.place(drained, entry);
        }
        if let Some(conn) = posted.conn {
            // read the posted space AFTER the drain: a backlogged message
            // may have consumed the WR just posted, and the advertised
            // window must equal the space actually available (§5.1)
            let _ = self.engine.set_recv_space(conn, self.qps.window(qp));
            with_emit_buffer(|emits| {
                if posted.announce {
                    let _ = self.engine.announce_window(t, conn, emits);
                }
                self.process_emits(t, emits, out);
            });
        }
        Ok(())
    }

    // ----- RDMA transaction class (§2.1, extension) -----------------------

    /// Registers `len` bytes of host memory for remote access, returning
    /// the key peers use to address it. The region starts zeroed.
    pub fn register_mr(&mut self, len: usize) -> MrKey {
        let key = MrKey(self.next_rkey);
        self.next_rkey += 1;
        self.mrs.insert(key.0, vec![0; len]);
        key
    }

    /// Host-side access: writes into a local registered region (the
    /// application initializing its own memory — no NIC involvement).
    ///
    /// # Panics
    ///
    /// Panics on unknown keys or out-of-bounds ranges: local accesses
    /// are program errors, unlike remote ones which are protocol errors.
    pub fn mr_write(&mut self, key: MrKey, offset: usize, data: &[u8]) {
        let region = self.mrs.get_mut(&key.0).expect("unknown memory region");
        region[offset..offset + data.len()].copy_from_slice(data);
    }

    /// Host-side access: reads from a local registered region.
    ///
    /// # Panics
    ///
    /// Panics on unknown keys or out-of-bounds ranges.
    pub fn mr_read(&self, key: MrKey, offset: usize, len: usize) -> Vec<u8> {
        let region = self.mrs.get(&key.0).expect("unknown memory region");
        region[offset..offset + len].to_vec()
    }

    /// Posts an RDMA Write: `data` is placed at the peer's registered
    /// region without consuming a receive WR or involving the peer's
    /// process (§2.1). Completes as [`CompletionKind::RdmaWrite`] when
    /// every byte is acknowledged. What it produces is appended to
    /// `out`.
    ///
    /// # Errors
    ///
    /// [`NicError::InvalidState`] unless this NIC has `rdma_framing` and
    /// the QP is a connected TCP QP; engine errors for oversized data.
    pub fn post_rdma_write(
        &mut self,
        now: SimTime,
        qp: QpId,
        wr: RdmaWriteWr,
        out: &mut Vec<NicOutput>,
    ) -> Result<(), NicError> {
        let conn = self.rdma_conn(qp)?;
        let t = self.tx_wr_preamble(now, PacketClass::DataSend);
        let msg = RdmaFrame {
            opcode: RdmaOpcode::Write,
            rkey: wr.rkey.0,
            offset: wr.remote_offset,
            len: wr.data.len() as u32,
            context: 0,
        }
        .encode_with(&wr.data);
        self.send_posted(t, conn, msg, TokenUse::RdmaWrite(qp, wr.wr_id), out)
    }

    /// Posts an RDMA Read: asks the peer's NIC for `len` bytes of its
    /// registered region. Completes as [`CompletionKind::RdmaRead`]
    /// carrying the data; the peer's process is never involved. What it
    /// produces is appended to `out`.
    ///
    /// # Errors
    ///
    /// As for [`QpipNic::post_rdma_write`].
    pub fn post_rdma_read(
        &mut self,
        now: SimTime,
        qp: QpId,
        wr: RdmaReadWr,
        out: &mut Vec<NicOutput>,
    ) -> Result<(), NicError> {
        let conn = self.rdma_conn(qp)?;
        let t = self.tx_wr_preamble(now, PacketClass::DataSend);
        let ctx = self.next_read_ctx;
        self.next_read_ctx += 1;
        self.pending_reads.insert(ctx, (qp, wr.wr_id));
        let msg = RdmaFrame {
            opcode: RdmaOpcode::ReadRequest,
            rkey: wr.rkey.0,
            offset: wr.remote_offset,
            len: wr.len,
            context: ctx,
        }
        .encode();
        let sent = self.send_posted(t, conn, msg, TokenUse::Internal, out);
        if sent.is_err() {
            self.pending_reads.remove(&ctx);
        }
        sent
    }

    fn rdma_conn(&self, qp: QpId) -> Result<ConnId, NicError> {
        if !self.cfg.rdma_framing {
            return Err(NicError::InvalidState("RDMA verbs need rdma_framing"));
        }
        self.qps.conn(qp)
    }

    /// Doorbell + schedule + WR fetch for a host-posted work request
    /// (Table 2 rows 1–3).
    fn tx_wr_preamble(&mut self, now: SimTime, class: PacketClass) -> SimTime {
        let t = self.charge(
            now,
            Stage::DoorbellProcess,
            class,
            Cycles(params::NIC_STAGE_DOORBELL_CYCLES),
        );
        let t = self.charge(t, Stage::Schedule, class, Cycles(params::NIC_STAGE_SCHEDULE_CYCLES));
        self.charge(t, Stage::GetWr, class, Cycles(params::NIC_STAGE_GET_WR_CYCLES))
    }

    /// Hands one host-posted message to the engine under a fresh send
    /// token and transmits what it emits.
    fn send_posted(
        &mut self,
        t: SimTime,
        conn: ConnId,
        msg: Vec<u8>,
        use_: TokenUse,
        out: &mut Vec<NicOutput>,
    ) -> Result<(), NicError> {
        let token = self.qps.issue_token(use_);
        with_emit_buffer(|emits| {
            self.engine
                .tcp_send(t, conn, msg, token, emits)
                .inspect_err(|_| self.qps.cancel_token(token))?;
            self.process_emits_from(t, emits, TxOrigin::PostedWr, &[], out);
            Ok(())
        })
    }

    /// Dispatches one framed message (RDMA-enabled QPs), copying its
    /// payload once: into a receive buffer, a registered region, or the
    /// read response.
    fn deliver_framed(
        &mut self,
        t: SimTime,
        conn: ConnId,
        data: &[u8],
        outputs: &mut Vec<NicOutput>,
    ) -> SimTime {
        if self.qps.qp_of(conn).is_none() {
            return t;
        }
        let parsed = RdmaFrame::parse(data);
        let Ok((frame, payload)) = parsed else {
            return self.rdma_protection_error(t, conn, outputs);
        };
        match frame.opcode {
            RdmaOpcode::Send => {
                let outcome = self.qps.deliver_tcp(conn, payload);
                self.apply(t, outcome, outputs)
            }
            RdmaOpcode::Write => {
                let ok = self
                    .mrs
                    .get_mut(&frame.rkey)
                    .filter(|r| {
                        (frame.offset as usize)
                            .checked_add(payload.len())
                            .is_some_and(|end| end <= r.len())
                    })
                    .map(|r| {
                        let off = frame.offset as usize;
                        r[off..off + payload.len()].copy_from_slice(payload);
                    })
                    .is_some();
                if !ok {
                    return self.rdma_protection_error(t, conn, outputs);
                }
                self.stats.rdma_writes += 1;
                // direct data placement: DMA into the registered buffer
                let t = self.charge(
                    t,
                    Stage::PutData,
                    PacketClass::DataRecv,
                    Cycles(params::NIC_STAGE_PUT_DATA_CYCLES),
                );
                let _dma = self.model.dma_write(t, payload.len() as u64);
                self.charge(
                    t,
                    Stage::UpdateRx,
                    PacketClass::DataRecv,
                    Cycles(params::NIC_STAGE_UPDATE_RX_CYCLES),
                )
            }
            RdmaOpcode::ReadRequest => {
                // the response carries the region's bytes behind its frame
                let Some(msg) = self.mrs.get(&frame.rkey).and_then(|r| {
                    let off = frame.offset as usize;
                    let end = off.checked_add(frame.len as usize)?;
                    let data = r.get(off..end)?;
                    let hdr = RdmaFrame {
                        opcode: RdmaOpcode::ReadResponse,
                        rkey: frame.rkey,
                        offset: frame.offset,
                        len: frame.len,
                        context: frame.context,
                    };
                    Some(hdr.encode_with(data))
                }) else {
                    return self.rdma_protection_error(t, conn, outputs);
                };
                self.stats.rdma_reads_served += 1;
                // fetch the bytes from host memory
                let t = self.charge(
                    t,
                    Stage::GetData,
                    PacketClass::DataSend,
                    Cycles(params::NIC_STAGE_GET_DATA_CYCLES),
                );
                let _dma = self.model.dma_read(t, u64::from(frame.len));
                let token = self.qps.issue_token(TokenUse::Internal);
                // a nested engine call: the buffer being drained is not
                // appended to
                with_emit_buffer(|emits| match self.engine.tcp_send(t, conn, msg, token, emits) {
                    Ok(()) => {
                        self.process_emits_from(t, emits, TxOrigin::Deferred, &[], outputs);
                        t
                    }
                    Err(_) => self.rdma_protection_error(t, conn, outputs),
                })
            }
            RdmaOpcode::ReadResponse => {
                // the echoed context must belong to a read issued on the
                // very connection the response arrived on
                let valid = self
                    .pending_reads
                    .get(&frame.context)
                    .is_some_and(|&(owner, _)| self.qps.qp_of(conn) == Some(owner));
                if !valid {
                    return t; // stale, duplicate, or cross-connection response
                }
                let Some((qp, wr_id)) = self.pending_reads.remove(&frame.context) else {
                    return t;
                };
                // place the bytes in the requester's registered buffer
                let t = self.charge(
                    t,
                    Stage::PutData,
                    PacketClass::DataRecv,
                    Cycles(params::NIC_STAGE_PUT_DATA_CYCLES),
                );
                let dma = self.model.dma_write(t, payload.len() as u64);
                let t = self.charge(
                    t,
                    Stage::UpdateRx,
                    PacketClass::DataRecv,
                    Cycles(params::NIC_STAGE_UPDATE_RX_CYCLES),
                );
                let kind = CompletionKind::RdmaRead { data: payload.to_vec() };
                let entry = self.qps.send_entry(qp, wr_id, kind, CompletionStatus::Success);
                self.qps.complete(entry, t.max(dma));
                t
            }
        }
    }

    /// Protection error: count it and tear the connection down, as
    /// Infiniband access-violation semantics require.
    fn rdma_protection_error(
        &mut self,
        t: SimTime,
        conn: ConnId,
        outputs: &mut Vec<NicOutput>,
    ) -> SimTime {
        self.stats.rdma_protection_errors += 1;
        let down = self.qps.handle(Emit::TcpReset { conn });
        let t = self.apply(t, down, outputs);
        self.abort(t, conn, outputs)
    }

    /// Aborts `conn`, transmitting its RST as internal traffic.
    fn abort(&mut self, t: SimTime, conn: ConnId, outputs: &mut Vec<NicOutput>) -> SimTime {
        with_emit_buffer(|emits| {
            let mut t = t;
            let _ = self.engine.tcp_abort(t, conn, emits);
            for e in emits.drain(..) {
                if let Emit::Packet(p) = e {
                    t = self.emit_one(t, p, TxOrigin::Internal, outputs);
                }
            }
            t
        })
    }

    // ----- receive FSM ------------------------------------------------------

    /// A packet's last byte arrived from the fabric at `now`; what the
    /// firmware produces in response is appended to `out`.
    pub fn on_packet(&mut self, now: SimTime, bytes: &[u8], out: &mut Vec<NicOutput>) {
        if qpip_netstack::frag::is_fragment(bytes) {
            // per-fragment receive work; the transport parse happens once
            // the original packet is whole (end-to-end reassembly, §4.1)
            self.stats.rx_packets += 1;
            let t = self.charge(
                now,
                Stage::MediaRcv,
                PacketClass::DataRecv,
                Cycles(params::NIC_STAGE_MEDIA_RCV_CYCLES),
            );
            let t = self.charge(
                t,
                Stage::IpParse,
                PacketClass::DataRecv,
                Cycles(params::NIC_STAGE_IP_PARSE_CYCLES),
            );
            if let Some(full) = self.reassembler.push(bytes) {
                self.on_whole_packet(t, &full, false, out);
            }
            return;
        }
        self.stats.rx_packets += 1;
        self.on_whole_packet(now, bytes, true, out);
    }

    /// Protocol processing of a complete (possibly reassembled) packet.
    fn on_whole_packet(
        &mut self,
        now: SimTime,
        bytes: &[u8],
        charge_media: bool,
        out: &mut Vec<NicOutput>,
    ) {
        let class = classify_incoming(bytes);
        // reassembled packets (charge_media = false) already paid
        // media-rcv and IP parse per fragment
        let t = if charge_media {
            let t = self.charge(
                now,
                Stage::MediaRcv,
                class,
                Cycles(params::NIC_STAGE_MEDIA_RCV_CYCLES),
            );
            self.charge(t, Stage::IpParse, class, Cycles(params::NIC_STAGE_IP_PARSE_CYCLES))
        } else {
            now
        };
        // firmware checksum verification touches every byte (§4.2.1); the
        // hardware mode verifies during the receive DMA for free
        let t = if self.cfg.checksum == ChecksumMode::Firmware {
            let transport = bytes.len().saturating_sub(40) as u64;
            self.charge(
                t,
                Stage::FwChecksum,
                class,
                Cycles(transport * params::NIC_FW_CSUM_CYCLES_PER_BYTE),
            )
        } else {
            t
        };
        with_emit_buffer(|emits| {
            self.engine.on_packet(t, bytes, emits);
            let ops = self.engine.take_ops();
            // transport parse: base + RTT-estimator multiplies (Table 3:
            // ACK parsing costs double because of the software multiply,
            // §4.2.2)
            let (parse_stage, parse_base) = match class {
                PacketClass::UdpRecv => (Stage::UdpParse, params::NIC_STAGE_UDP_PARSE_CYCLES),
                _ => (Stage::TcpParse, params::NIC_STAGE_TCP_PARSE_CYCLES),
            };
            let parse = Cycles(parse_base + ops.muls * self.mul_cycles);
            let t = self.charge(t, parse_stage, class, parse);
            self.process_emits_from(t, emits, TxOrigin::Internal, bytes, out);
        });
    }

    // ----- timer path ---------------------------------------------------------

    /// Earliest protocol timer deadline (retransmit, delayed ACK,
    /// TIME-WAIT), polled by the scheduler loop.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.engine.next_deadline()
    }

    /// Fires due protocol timers (Figure 2: "Sched. T/O, Update WR"),
    /// appending what they produce to `out`.
    pub fn on_timer(&mut self, now: SimTime, out: &mut Vec<NicOutput>) {
        let t = self.charge(
            now,
            Stage::Schedule,
            PacketClass::Control,
            Cycles(params::NIC_STAGE_TIMER_SCAN_CYCLES),
        );
        with_emit_buffer(|emits| {
            self.engine.on_timer(t, emits);
            let ops = self.engine.take_ops();
            let t = self.charge_muls(t, ops.muls, PacketClass::Control);
            self.process_emits_from(t, emits, TxOrigin::Deferred, &[], out);
        });
    }

    // ----- internals ---------------------------------------------------------

    /// Runs one stage through the cost model, tracing it with its
    /// cycles when it held the processor.
    fn charge(&mut self, start: SimTime, stage: Stage, class: PacketClass, c: Cycles) -> SimTime {
        let end = self.model.charge(start, stage, class, c);
        if let Some(tr) = self.tracer.as_ref().filter(|_| end > start) {
            let ev = TraceEvent::FwFsm {
                stage: stage.trace_name(),
                class: class.trace_name(),
                cycles: u32::try_from(c.count()).unwrap_or(u32::MAX),
            };
            tr.emit_node(start, ev);
        }
        end
    }

    fn charge_muls(&mut self, start: SimTime, muls: u64, class: PacketClass) -> SimTime {
        if muls == 0 {
            return start;
        }
        self.charge(start, Stage::TcpParse, class, Cycles(muls * self.mul_cycles))
    }

    fn process_emits(&mut self, t: SimTime, emits: &mut Vec<Emit>, outputs: &mut Vec<NicOutput>) {
        self.process_emits_from(t, emits, TxOrigin::Internal, &[], outputs);
    }

    /// Drains `emits` in order, doing the firmware's work for each.
    /// Engine calls made along the way (window announcements, read
    /// responses, aborts) use buffers of their own, so their output is
    /// handled depth-first, before the next entry of `emits`. `rx` is
    /// the packet the engine was handling (empty for other calls):
    /// delivered payload is copied from it once, into the buffer the
    /// host takes it from.
    fn process_emits_from(
        &mut self,
        t: SimTime,
        emits: &mut Vec<Emit>,
        data_origin: TxOrigin,
        rx: &[u8],
        outputs: &mut Vec<NicOutput>,
    ) {
        let mut t = t;
        for emit in emits.drain(..) {
            t = match emit {
                Emit::Packet(pkt) => {
                    let origin = match pkt.kind {
                        PacketKind::TcpData | PacketKind::Udp => data_origin,
                        _ => TxOrigin::Internal,
                    };
                    self.emit_one(t, pkt, origin, outputs)
                }
                Emit::TcpDelivered { conn, at } if self.cfg.rdma_framing => {
                    self.deliver_framed(t, conn, &rx[at], outputs)
                }
                Emit::TcpDelivered { conn, at } => {
                    let outcome = self.qps.deliver_tcp(conn, &rx[at]);
                    self.apply(t, outcome, outputs)
                }
                emit => {
                    let outcome = self.qps.handle(emit);
                    self.apply(t, outcome, outputs)
                }
            };
        }
    }

    /// Does the firmware's work for one QP-table outcome: placement
    /// DMA, the ACK-receive update, window announcements, refusals and
    /// queue flushes. Returns when the processor is free again.
    fn apply(&mut self, t: SimTime, outcome: Outcome, outputs: &mut Vec<NicOutput>) -> SimTime {
        match outcome {
            Outcome::Nothing => t,
            Outcome::Backlogged => {
                self.stats.qp.tcp_backlogged += 1;
                t
            }
            Outcome::Dropped => {
                self.stats.qp.udp_no_wr_drops += 1;
                t
            }
            Outcome::Placed(entry) => self.place(t, entry),
            Outcome::Retired(entry) => {
                // Table 3, ACK-receive Update row: retire the WR, write
                // the CQ entry and roll the QP/TCB state forward (9 µs).
                let t = self.charge(
                    t,
                    Stage::UpdateRx,
                    PacketClass::AckRecv,
                    Cycles(params::NIC_STAGE_UPDATE_ACK_CYCLES),
                );
                self.qps.complete(entry, t);
                t
            }
            Outcome::Up { entry, conn, window } => {
                self.qps.complete(entry, t);
                // announce the real (posted-WR) window now that we are
                // connected
                let _ = self.engine.set_recv_space(conn, window);
                with_emit_buffer(|emits| {
                    let _ = self.engine.announce_window(t, conn, emits);
                    self.process_emits(t, emits, outputs);
                });
                t
            }
            Outcome::Refuse(conn) => self.abort(t, conn, outputs),
            Outcome::PeerClosed(entry) => {
                self.qps.complete(entry, t);
                t
            }
            Outcome::Down { qp, notice, flushed } => {
                for entry in notice.into_iter().chain(flushed) {
                    self.qps.complete(entry, t);
                }
                // pending reads of the dead QP fail too
                let stale_reads: Vec<u64> = self
                    .pending_reads
                    .iter()
                    .filter(|(_, (owner, _))| *owner == qp)
                    .map(|(&ctx, _)| ctx)
                    .collect();
                for ctx in stale_reads {
                    let Some((_, wr_id)) = self.pending_reads.remove(&ctx) else { continue };
                    let kind = CompletionKind::RdmaRead { data: Vec::new() };
                    let status = CompletionStatus::ConnectionError;
                    let entry = self.qps.send_entry(qp, wr_id, kind, status);
                    self.qps.complete(entry, t);
                }
                t
            }
        }
    }

    /// Charges the transmit-side stages for one outgoing packet and
    /// produces the Transmit output. Returns the time the processor is
    /// free again.
    fn emit_one(
        &mut self,
        t: SimTime,
        pkt: PacketOut,
        origin: TxOrigin,
        outputs: &mut Vec<NicOutput>,
    ) -> SimTime {
        let class = match pkt.kind {
            PacketKind::TcpData => PacketClass::DataSend,
            PacketKind::TcpAck => PacketClass::AckSend,
            PacketKind::TcpControl => PacketClass::Control,
            PacketKind::Udp => PacketClass::UdpSend,
        };
        let mut t = t;
        match origin {
            TxOrigin::PostedWr => {} // doorbell/schedule/get-wr already charged
            TxOrigin::Internal => {
                t = self.charge(
                    t,
                    Stage::DoorbellProcess,
                    class,
                    Cycles(params::NIC_STAGE_DOORBELL_CYCLES),
                );
                t = self.charge(
                    t,
                    Stage::Schedule,
                    class,
                    Cycles(params::NIC_STAGE_SCHEDULE_CYCLES),
                );
            }
            TxOrigin::Deferred => {
                t = self.charge(
                    t,
                    Stage::Schedule,
                    class,
                    Cycles(params::NIC_STAGE_SCHEDULE_CYCLES),
                );
            }
        }
        // payload DMA from the registered host buffer (data packets only)
        let payload_len = pkt.payload_len();
        let mut data_ready = t;
        if matches!(pkt.kind, PacketKind::TcpData | PacketKind::Udp) && payload_len > 0 {
            t = self.charge(t, Stage::GetData, class, Cycles(params::NIC_STAGE_GET_DATA_CYCLES));
            data_ready = self.model.dma_read(t, payload_len as u64);
        }
        // header construction
        t = match pkt.kind {
            PacketKind::Udp => self.charge(
                t,
                Stage::BuildUdpHdr,
                class,
                Cycles(params::NIC_STAGE_BUILD_UDP_CYCLES),
            ),
            _ => self.charge(
                t,
                Stage::BuildTcpHdr,
                class,
                Cycles(params::NIC_STAGE_BUILD_TCP_CYCLES),
            ),
        };
        t = self.charge(t, Stage::BuildIpHdr, class, Cycles(params::NIC_STAGE_BUILD_IP_CYCLES));
        // firmware checksum over the whole transport segment, computed
        // incrementally as the DMA engine streams the data in — ready
        // when both the arithmetic and the transfer finish
        if self.cfg.checksum == ChecksumMode::Firmware {
            let transport = (pkt.bytes.len() - 40) as u64;
            t = self.charge(
                t,
                Stage::FwChecksum,
                class,
                Cycles(transport * params::NIC_FW_CSUM_CYCLES_PER_BYTE),
            );
            data_ready = data_ready.max(t);
        }
        // the processor programs the media engine and moves on; the
        // autonomous transmit engine starts once the payload DMA lands
        let proc_done =
            self.charge(t, Stage::MediaXmt, class, Cycles(params::NIC_STAGE_MEDIA_XMT_CYCLES));
        let mut wire_at = proc_done.max(data_ready);
        if pkt.bytes.len() > self.cfg.mtu {
            // IPv6 end-to-end fragmentation (§4.1): the firmware splits
            // the oversized segment; each extra fragment costs one IP
            // header build and one media handoff
            self.next_frag_id = self.next_frag_id.wrapping_add(1);
            let frags =
                qpip_netstack::frag::fragment_packet(&pkt.bytes, self.cfg.mtu, self.next_frag_id);
            let mut proc_done = proc_done;
            for (i, f) in frags.into_iter().enumerate() {
                if i > 0 {
                    proc_done = self.charge(
                        proc_done,
                        Stage::BuildIpHdr,
                        class,
                        Cycles(params::NIC_STAGE_BUILD_IP_CYCLES),
                    );
                    proc_done = self.charge(
                        proc_done,
                        Stage::MediaXmt,
                        class,
                        Cycles(params::NIC_STAGE_MEDIA_XMT_CYCLES),
                    );
                    wire_at = wire_at.max(proc_done);
                }
                self.stats.tx_packets += 1;
                outputs.push(NicOutput {
                    at: wire_at,
                    dst: pkt.dst,
                    bytes: qpip_wire::Packet::from_vec(f),
                });
            }
            return self.charge(
                proc_done,
                Stage::UpdateTx,
                class,
                Cycles(params::NIC_STAGE_UPDATE_TX_CYCLES),
            );
        }
        self.stats.tx_packets += 1;
        outputs.push(NicOutput { at: wire_at, dst: pkt.dst, bytes: pkt.bytes });
        // post-send status update (processor-side, overlaps the wire)
        self.charge(proc_done, Stage::UpdateTx, class, Cycles(params::NIC_STAGE_UPDATE_TX_CYCLES))
    }

    /// GetWr + PutData(+DMA) + UpdateRx for one in-order message
    /// (Table 3's data-receive column).
    fn place(&mut self, t: SimTime, entry: CqEntry) -> SimTime {
        let CompletionKind::Recv { data, src } = &entry.kind else {
            unreachable!("placements are receive entries")
        };
        if matches!(entry.status, CompletionStatus::LocalLengthError { .. }) {
            self.stats.qp.length_errors += 1;
        }
        // only datagrams carry their sender
        let class = if src.is_some() { PacketClass::UdpRecv } else { PacketClass::DataRecv };
        let len = data.len() as u64;
        let t = self.charge(t, Stage::GetWr, class, Cycles(params::NIC_STAGE_GET_WR_CYCLES));
        let t = self.charge(t, Stage::PutData, class, Cycles(params::NIC_STAGE_PUT_DATA_CYCLES));
        let dma_done = self.model.dma_write(t, len);
        let t = self.charge(t, Stage::UpdateRx, class, Cycles(params::NIC_STAGE_UPDATE_RX_CYCLES));
        self.qps.complete(entry, t.max(dma_done));
        t
    }
}

/// Cheap pre-classification of an incoming packet for occupancy
/// bucketing (the engine does the real parse).
fn classify_incoming(bytes: &[u8]) -> PacketClass {
    if bytes.len() < 40 {
        return PacketClass::Control;
    }
    match bytes[6] {
        17 => PacketClass::UdpRecv,
        6 => {
            let ip_payload = usize::from(u16::from_be_bytes([bytes[4], bytes[5]]));
            let Some(transport) = bytes.get(40..40 + ip_payload) else {
                return PacketClass::Control;
            };
            if transport.len() < 20 {
                return PacketClass::Control;
            }
            let off = usize::from(transport[12] >> 4) * 4;
            let flags = transport[13];
            if flags & 0b0000_0111 != 0 {
                // SYN/FIN/RST
                PacketClass::Control
            } else if transport.len() > off {
                PacketClass::DataRecv
            } else {
                PacketClass::AckRecv
            }
        }
        _ => PacketClass::Control,
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use qpip_trace::{FlightRecorder, NODE_SCOPE};

    use super::*;
    use crate::occupancy::Occupancy;

    fn addr(n: u16) -> Ipv6Addr {
        Ipv6Addr::new(0xfc00, 0, 0, 0, 0, 0, 0, n)
    }

    /// Builds a NIC with one UDP QP bound to `port`.
    fn udp_nic(n: u16, port: u16) -> (QpipNic, QpId, CqId) {
        let mut nic = QpipNic::new(NicConfig::paper_default(), addr(n));
        let cq = nic.create_cq();
        let qp = nic.create_qp(ServiceType::UnreliableUdp, cq, cq).unwrap();
        nic.udp_bind(qp, port).unwrap();
        (nic, qp, cq)
    }

    /// `post_send` with its output collected into a fresh vector.
    fn send(nic: &mut QpipNic, now: SimTime, qp: QpId, wr: SendWr) -> Vec<NicOutput> {
        let mut out = Vec::new();
        nic.post_send(now, qp, wr, &mut out).unwrap();
        out
    }

    /// `on_packet` with its transmits discarded.
    fn receive(nic: &mut QpipNic, now: SimTime, bytes: &[u8]) {
        nic.on_packet(now, bytes, &mut Vec::new());
    }

    /// Drains `cq` of `nic`.
    fn completions(nic: &mut QpipNic, cq: CqId) -> Vec<Completion> {
        std::iter::from_fn(|| nic.cq_pop(cq).unwrap()).collect()
    }

    #[test]
    fn udp_send_produces_packet_and_immediate_completion() {
        let (mut a, qp, cq) = udp_nic(1, 7000);
        let out = send(
            &mut a,
            SimTime::ZERO,
            qp,
            SendWr { wr_id: 42, payload: vec![1, 2, 3], dst: Some(Endpoint::new(addr(2), 7001)) },
        );
        assert_eq!(out.len(), 1);
        let comps = completions(&mut a, cq);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].wr_id, 42);
        assert_eq!(comps[0].kind, CompletionKind::Send);
        // handoff happens after the Table-2 stage budget (~16 us for udp)
        let us = out[0].at.as_micros_f64();
        assert!((10.0..25.0).contains(&us), "{us}");
    }

    #[test]
    fn udp_roundtrip_between_two_nics_with_posted_wr() {
        let (mut a, qa, _) = udp_nic(1, 7000);
        let (mut b, qb, cqb) = udp_nic(2, 7001);
        b.post_recv(SimTime::ZERO, qb, RecvWr { wr_id: 9, capacity: 64 }, &mut Vec::new()).unwrap();
        let out = send(
            &mut a,
            SimTime::ZERO,
            qa,
            SendWr { wr_id: 1, payload: b"ping".to_vec(), dst: Some(Endpoint::new(addr(2), 7001)) },
        );
        receive(&mut b, out[0].at, &out[0].bytes);
        let comps = completions(&mut b, cqb);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].wr_id, 9);
        match &comps[0].kind {
            CompletionKind::Recv { data, src } => {
                assert_eq!(data, b"ping");
                assert_eq!(src.unwrap().port, 7000);
            }
            k => panic!("{k:?}"),
        }
    }

    #[test]
    fn udp_without_recv_wr_is_dropped() {
        let (mut a, qa, _) = udp_nic(1, 7000);
        let (mut b, _qb, cqb) = udp_nic(2, 7001);
        let out = send(
            &mut a,
            SimTime::ZERO,
            qa,
            SendWr { wr_id: 1, payload: b"lost".to_vec(), dst: Some(Endpoint::new(addr(2), 7001)) },
        );
        receive(&mut b, out[0].at, &out[0].bytes);
        assert!(completions(&mut b, cqb).is_empty());
        assert_eq!(b.stats().qp.udp_no_wr_drops, 1);
    }

    #[test]
    fn recv_larger_than_buffer_is_length_error() {
        let (mut a, qa, _) = udp_nic(1, 7000);
        let (mut b, qb, cqb) = udp_nic(2, 7001);
        b.post_recv(SimTime::ZERO, qb, RecvWr { wr_id: 9, capacity: 2 }, &mut Vec::new()).unwrap();
        let out = send(
            &mut a,
            SimTime::ZERO,
            qa,
            SendWr { wr_id: 1, payload: b"four".to_vec(), dst: Some(Endpoint::new(addr(2), 7001)) },
        );
        receive(&mut b, out[0].at, &out[0].bytes);
        let comps = completions(&mut b, cqb);
        assert_eq!(comps[0].status, CompletionStatus::LocalLengthError { len: 4, capacity: 2 });
        assert_eq!(b.stats().qp.length_errors, 1);
    }

    #[test]
    fn qp_creation_validates_cqs() {
        let mut nic = QpipNic::new(NicConfig::paper_default(), addr(1));
        assert_eq!(
            nic.create_qp(ServiceType::ReliableTcp, CqId(1), CqId(1)),
            Err(NicError::UnknownCq(CqId(1)))
        );
        let cq = nic.create_cq();
        assert!(nic.create_qp(ServiceType::ReliableTcp, cq, cq).is_ok());
    }

    #[test]
    fn udp_bind_rejects_tcp_qp_and_double_bind() {
        let mut nic = QpipNic::new(NicConfig::paper_default(), addr(1));
        let cq = nic.create_cq();
        let tcp_qp = nic.create_qp(ServiceType::ReliableTcp, cq, cq).unwrap();
        assert!(matches!(nic.udp_bind(tcp_qp, 5), Err(NicError::InvalidState(_))));
        let u1 = nic.create_qp(ServiceType::UnreliableUdp, cq, cq).unwrap();
        let u2 = nic.create_qp(ServiceType::UnreliableUdp, cq, cq).unwrap();
        nic.udp_bind(u1, 5).unwrap();
        assert!(matches!(nic.udp_bind(u2, 5), Err(NicError::Engine(_))));
    }

    #[test]
    fn firmware_checksum_charges_per_byte() {
        let mk = |mode| {
            let mut nic =
                QpipNic::new(NicConfig { checksum: mode, ..NicConfig::paper_default() }, addr(1));
            let cq = nic.create_cq();
            let qp = nic.create_qp(ServiceType::UnreliableUdp, cq, cq).unwrap();
            nic.udp_bind(qp, 7000).unwrap();
            let out = send(
                &mut nic,
                SimTime::ZERO,
                qp,
                SendWr {
                    wr_id: 1,
                    payload: vec![0; 8192],
                    dst: Some(Endpoint::new(addr(2), 7001)),
                },
            );
            out[0].at
        };
        let hw = mk(ChecksumMode::Hardware).as_micros_f64();
        let fw = mk(ChecksumMode::Firmware).as_micros_f64();
        // 8200 transport bytes × 5 cycles / 133 MHz ≈ 308 µs of checksum
        // arithmetic, partially hidden behind the ~103 µs payload DMA
        assert!(fw - hw > 180.0, "hw {hw} fw {fw}");
    }

    #[test]
    fn processor_serializes_back_to_back_sends() {
        let (mut a, qp, _) = udp_nic(1, 7000);
        let mk =
            |wr_id| SendWr { wr_id, payload: vec![0; 16], dst: Some(Endpoint::new(addr(2), 7001)) };
        let o1 = send(&mut a, SimTime::ZERO, qp, mk(1));
        let o2 = send(&mut a, SimTime::ZERO, qp, mk(2));
        assert!(o2[0].at > o1[0].at, "second send queues behind the first on the processor");
    }

    #[test]
    fn occupancy_records_table2_stages_for_data_send() {
        let (mut a, qp, _) = udp_nic(1, 7000);
        let rec = Arc::new(FlightRecorder::new(64));
        a.set_tracer(Tracer::new(Arc::clone(&rec), 0));
        send(
            &mut a,
            SimTime::ZERO,
            qp,
            SendWr { wr_id: 1, payload: vec![0; 100], dst: Some(Endpoint::new(addr(2), 7001)) },
        );
        assert_eq!(rec.overwritten(0, NODE_SCOPE), 0);
        let occ = Occupancy::from_trace(&rec.events(), 0);
        for stage in [
            Stage::DoorbellProcess,
            Stage::Schedule,
            Stage::GetWr,
            Stage::GetData,
            Stage::BuildUdpHdr,
            Stage::BuildIpHdr,
            Stage::MediaXmt,
            Stage::UpdateTx,
        ] {
            assert_eq!(occ.count(stage, PacketClass::UdpSend), 1, "missing {stage:?}");
        }
    }

    #[test]
    fn classify_distinguishes_kinds() {
        use qpip_netstack::codec::build_udp_packet;
        let u = build_udp_packet(Endpoint::new(addr(1), 1), Endpoint::new(addr(2), 2), b"x");
        assert_eq!(classify_incoming(&u), PacketClass::UdpRecv);
        assert_eq!(classify_incoming(&[0u8; 10]), PacketClass::Control);
    }
}
