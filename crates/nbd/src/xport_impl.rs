//! NBD over live sockets: the same block driver and wire protocol as
//! [`qpip_impl`](crate::qpip_impl), but the QP runs on a real
//! [`XportNode`] instead of a simulated world.
//!
//! The protocol layer ([`crate::proto`]) is reused byte-for-byte: a
//! block request is one header message ([`NbdRequest`], 28 bytes)
//! followed by MTU-sized data messages; replies are one header message
//! ([`NbdReply`]) followed by data messages for reads. Because the
//! engine maps one QP message onto one TCP segment
//! (message-per-segment, §4.1), message boundaries survive the wire and
//! neither side ever reframes a byte stream — the simplification §4.2.3
//! reports over the socket NBD.

use std::net::{Ipv6Addr, SocketAddr};

use qpip_netstack::types::Endpoint;
use qpip_nic::types::{CompletionKind, CqId, QpId, RecvWr, SendWr, ServiceType};
use qpip_wire::error::ParseWireError;
use qpip_xport::{XportConfig, XportError, XportNode};

use crate::disk::ServerDisk;
use crate::proto::{NbdOp, NbdReply, NbdRequest};

/// The NBD server port (Linux NBD's default).
pub const NBD_PORT: u16 = 10809;

/// Receive WRs each side keeps posted.
const RECV_DEPTH: u32 = 64;

/// Errors from the live NBD endpoints.
#[derive(Debug)]
pub enum NbdXportError {
    /// The transport failed.
    Xport(XportError),
    /// A peer message did not parse as NBD protocol.
    Proto(ParseWireError),
    /// The server reported a nonzero NBD error code.
    Remote(u32),
    /// The connection ended mid-operation.
    Disconnected,
}

impl std::fmt::Display for NbdXportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NbdXportError::Xport(e) => write!(f, "transport: {e}"),
            NbdXportError::Proto(e) => write!(f, "protocol: {e:?}"),
            NbdXportError::Remote(code) => write!(f, "server error {code}"),
            NbdXportError::Disconnected => write!(f, "peer disconnected"),
        }
    }
}

impl std::error::Error for NbdXportError {}

impl From<XportError> for NbdXportError {
    fn from(e: XportError) -> Self {
        NbdXportError::Xport(e)
    }
}

impl From<ParseWireError> for NbdXportError {
    fn from(e: ParseWireError) -> Self {
        NbdXportError::Proto(e)
    }
}

fn msgs_for(len: usize, data_msg: usize) -> usize {
    len.div_ceil(data_msg)
}

// ----- server --------------------------------------------------------------

/// What a serve loop did, for reporting and assertions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Write requests served.
    pub writes: u64,
    /// Read requests served.
    pub reads: u64,
    /// Total data bytes written to the disk.
    pub bytes_written: u64,
    /// Total data bytes read from the disk.
    pub bytes_read: u64,
}

/// The live NBD server: a listening QP in front of a [`ServerDisk`]
/// in content mode.
#[derive(Debug)]
pub struct XportNbdServer {
    node: XportNode,
    cq: CqId,
    send_cq: CqId,
    qp: QpId,
    data_msg: usize,
    disk: ServerDisk,
}

impl XportNbdServer {
    /// Binds a server node and starts listening on [`NBD_PORT`].
    ///
    /// # Errors
    ///
    /// Transport bind/listen failures.
    pub fn start(fabric: Ipv6Addr, cfg: XportConfig) -> Result<XportNbdServer, NbdXportError> {
        let mut node = XportNode::bind(fabric, cfg).map_err(XportError::Io)?;
        // largest data message: one engine segment
        let data_msg = node.max_tcp_message();
        let cq = node.create_cq();
        let send_cq = node.create_cq();
        let qp = node.create_qp(ServiceType::ReliableTcp, send_cq, cq)?;
        node.tcp_listen(qp, NBD_PORT)?;
        for i in 0..RECV_DEPTH {
            node.post_recv(qp, RecvWr { wr_id: u64::from(i), capacity: data_msg })?;
        }
        Ok(XportNbdServer { node, cq, send_cq, qp, data_msg, disk: ServerDisk::with_content() })
    }

    /// The OS socket address clients (or a proxy) reach this server at.
    ///
    /// # Errors
    ///
    /// Socket introspection failure.
    pub fn local_addr(&self) -> Result<SocketAddr, NbdXportError> {
        Ok(self.node.local_addr().map_err(XportError::Io)?)
    }

    /// Routes a fabric address (the client's) to a live socket.
    pub fn add_peer(&mut self, fabric: Ipv6Addr, at: SocketAddr) {
        self.node.add_peer(fabric, at);
    }

    /// The backing disk (content mode), for integrity checks.
    pub fn disk(&self) -> &ServerDisk {
        &self.disk
    }

    /// Serves one client session: accepts a connection, answers block
    /// requests until the client sends [`NbdOp::Disconnect`] (or the
    /// connection drops), then returns counters.
    ///
    /// # Errors
    ///
    /// Transport errors and protocol violations.
    pub fn serve(&mut self) -> Result<ServeSummary, NbdXportError> {
        let mut summary = ServeSummary::default();
        // a write in progress: the parsed header and the data collected
        let mut pending_write: Option<(NbdRequest, Vec<u8>)> = None;
        loop {
            let c = self.node.wait(self.cq)?;
            let data = match c.kind {
                CompletionKind::ConnectionEstablished => continue,
                CompletionKind::PeerDisconnected => break,
                CompletionKind::Recv { data, .. } => data,
                _ => continue,
            };
            self.node.post_recv(self.qp, RecvWr { wr_id: 0, capacity: self.data_msg })?;
            match pending_write.take() {
                Some((req, mut got)) => {
                    got.extend_from_slice(&data);
                    if got.len() < req.len as usize {
                        pending_write = Some((req, got));
                        continue;
                    }
                    let now = self.node.now();
                    self.disk.write_data(now, req.offset, &got);
                    summary.writes += 1;
                    summary.bytes_written += u64::from(req.len);
                    self.reply(NbdReply { error: 0, handle: req.handle }, &[])?;
                }
                None => {
                    let req = NbdRequest::parse(&data)?;
                    match req.op {
                        NbdOp::Write => pending_write = Some((req, Vec::new())),
                        NbdOp::Read => {
                            let now = self.node.now();
                            let bytes = self.disk.read_data(now, req.offset, req.len as usize);
                            summary.reads += 1;
                            summary.bytes_read += u64::from(req.len);
                            self.reply(NbdReply { error: 0, handle: req.handle }, &bytes)?;
                        }
                        NbdOp::Disconnect => break,
                    }
                }
            }
        }
        // retire our own send completions and close our half
        while self.node.poll(self.send_cq)?.is_some() {}
        let _ = self.node.tcp_close(self.qp);
        let until = std::time::Instant::now() + std::time::Duration::from_millis(300);
        while std::time::Instant::now() < until {
            self.node.pump(std::time::Duration::from_millis(10))?;
        }
        Ok(summary)
    }

    fn reply(&mut self, header: NbdReply, data: &[u8]) -> Result<(), NbdXportError> {
        self.node.post_send(
            self.qp,
            SendWr { wr_id: header.handle, payload: header.encode(), dst: None },
        )?;
        for chunk in data.chunks(self.data_msg) {
            self.node.post_send(
                self.qp,
                SendWr { wr_id: header.handle, payload: chunk.to_vec(), dst: None },
            )?;
        }
        // keep the send CQ drained (completions arrive as ACKs do)
        while self.node.poll(self.send_cq)?.is_some() {}
        Ok(())
    }
}

// ----- client --------------------------------------------------------------

/// The live NBD client: the block-driver side of the protocol on one
/// connected QP.
#[derive(Debug)]
pub struct XportNbdClient {
    node: XportNode,
    recv_cq: CqId,
    send_cq: CqId,
    qp: QpId,
    data_msg: usize,
    next_handle: u64,
}

impl XportNbdClient {
    /// Binds a client node, not yet connected — so its
    /// [`local_addr`](Self::local_addr) can be wired into peer tables
    /// or a proxy before [`connect`](Self::connect).
    ///
    /// # Errors
    ///
    /// Transport bind failures.
    pub fn bind(fabric: Ipv6Addr, cfg: XportConfig) -> Result<XportNbdClient, NbdXportError> {
        let mut node = XportNode::bind(fabric, cfg).map_err(XportError::Io)?;
        // largest data message: one engine segment
        let data_msg = node.max_tcp_message();
        let recv_cq = node.create_cq();
        let send_cq = node.create_cq();
        let qp = node.create_qp(ServiceType::ReliableTcp, send_cq, recv_cq)?;
        for i in 0..RECV_DEPTH {
            node.post_recv(qp, RecvWr { wr_id: u64::from(i), capacity: data_msg })?;
        }
        Ok(XportNbdClient { node, recv_cq, send_cq, qp, data_msg, next_handle: 1 })
    }

    /// Connects to the server whose fabric address is `server_fabric`,
    /// reachable at live address `server_at` (the server itself, or a
    /// proxy in front of it), and waits for the handshake.
    ///
    /// # Errors
    ///
    /// Transport failures, or a wait timeout if the handshake never
    /// completes.
    pub fn connect(
        &mut self,
        server_fabric: Ipv6Addr,
        server_at: SocketAddr,
    ) -> Result<(), NbdXportError> {
        self.node.add_peer(server_fabric, server_at);
        self.node.tcp_connect(self.qp, 40000, Endpoint::new(server_fabric, NBD_PORT))?;
        loop {
            let c = self.node.wait(self.recv_cq)?;
            match c.kind {
                CompletionKind::ConnectionEstablished => return Ok(()),
                CompletionKind::PeerDisconnected => return Err(NbdXportError::Disconnected),
                _ => continue,
            }
        }
    }

    /// The OS socket address the server (or a proxy) reaches this
    /// client at.
    ///
    /// # Errors
    ///
    /// Socket introspection failure.
    pub fn local_addr(&self) -> Result<SocketAddr, NbdXportError> {
        Ok(self.node.local_addr().map_err(XportError::Io)?)
    }

    /// Writes one block at `offset` and waits for the server's ack.
    ///
    /// # Errors
    ///
    /// Transport/protocol failures or a server-reported error.
    pub fn write_block(&mut self, offset: u64, data: &[u8]) -> Result<(), NbdXportError> {
        let handle = self.next_handle;
        self.next_handle += 1;
        let req = NbdRequest { op: NbdOp::Write, handle, offset, len: data.len() as u32 };
        self.send_msg(req.encode())?;
        for chunk in data.chunks(self.data_msg) {
            self.send_msg(chunk.to_vec())?;
        }
        let reply = NbdReply::parse(&self.recv_msg()?)?;
        if reply.handle != handle {
            return Err(NbdXportError::Proto(ParseWireError::BadOption));
        }
        if reply.error != 0 {
            return Err(NbdXportError::Remote(reply.error));
        }
        Ok(())
    }

    /// Reads `len` bytes at `offset`.
    ///
    /// # Errors
    ///
    /// Transport/protocol failures or a server-reported error.
    pub fn read_block(&mut self, offset: u64, len: usize) -> Result<Vec<u8>, NbdXportError> {
        let handle = self.next_handle;
        self.next_handle += 1;
        let req = NbdRequest { op: NbdOp::Read, handle, offset, len: len as u32 };
        self.send_msg(req.encode())?;
        let reply = NbdReply::parse(&self.recv_msg()?)?;
        if reply.handle != handle {
            return Err(NbdXportError::Proto(ParseWireError::BadOption));
        }
        if reply.error != 0 {
            return Err(NbdXportError::Remote(reply.error));
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..msgs_for(len, self.data_msg) {
            out.extend_from_slice(&self.recv_msg()?);
        }
        Ok(out)
    }

    /// Sends [`NbdOp::Disconnect`] and closes the connection.
    ///
    /// # Errors
    ///
    /// Transport failures while the teardown is sent.
    pub fn disconnect(mut self) -> Result<(), NbdXportError> {
        let req = NbdRequest { op: NbdOp::Disconnect, handle: self.next_handle, offset: 0, len: 0 };
        self.send_msg(req.encode())?;
        // the FIN sequences after the Disconnect message, so TCP
        // ordering guarantees the server sees the request first
        while self.node.poll(self.send_cq)?.is_some() {}
        self.node.tcp_close(self.qp)?;
        let until = std::time::Instant::now() + std::time::Duration::from_millis(300);
        while std::time::Instant::now() < until {
            self.node.pump(std::time::Duration::from_millis(10))?;
        }
        Ok(())
    }

    fn send_msg(&mut self, payload: Vec<u8>) -> Result<(), NbdXportError> {
        self.node.post_send(self.qp, SendWr { wr_id: 0, payload, dst: None })?;
        // retire finished sends so the CQ stays bounded
        while self.node.poll(self.send_cq)?.is_some() {}
        Ok(())
    }

    fn recv_msg(&mut self) -> Result<Vec<u8>, NbdXportError> {
        loop {
            let c = self.node.wait(self.recv_cq)?;
            match c.kind {
                CompletionKind::Recv { data, .. } => {
                    self.node.post_recv(self.qp, RecvWr { wr_id: 0, capacity: self.data_msg })?;
                    return Ok(data);
                }
                CompletionKind::PeerDisconnected => return Err(NbdXportError::Disconnected),
                _ => continue,
            }
        }
    }
}
