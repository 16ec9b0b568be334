//! The content-checked NBD session (§4.2.3): a block driver on end B
//! speaks the [`qpip_nbd::proto`] wire protocol to a server on end A
//! that keeps every written byte in a [`ServerDisk`] in content mode.
//! Written once against [`VerbsPair`], it runs on the DES and on live
//! sockets alike.
//!
//! A request is one header message ([`NbdRequest`]), and a write's data
//! follows it in messages of at most one TCP segment each. Every reply
//! is one header message ([`NbdReply`]), and a read's data follows it
//! the same way. The engine maps one QP message onto one segment
//! (§4.1), so message boundaries survive the wire and neither end
//! reframes a byte stream: the simplification §4.2.3 reports over the
//! socket NBD.
//!
//! The session runs in lockstep on one thread: each driver call posts
//! its request on end B, serves it on end A, then takes the reply on
//! end B. A reply naming the wrong handle or an error code panics, as a
//! verb error does.

use qpip::{Completion, CompletionKind, CompletionStatus, CqId, QpId, RecvWr, SendWr, ServiceType};
use qpip_nbd::disk::ServerDisk;
use qpip_nbd::proto::{NbdOp, NbdReply, NbdRequest, NBD_PORT};

use super::verbs::End::{self, A, B};
use super::verbs::{wait_for, VerbsPair};

/// Receive WRs each end keeps posted.
const RECV_DEPTH: u64 = 64;

/// An open NBD session: the server on end A, the block driver on end B.
#[derive(Debug)]
pub struct Session {
    qps: [QpId; 2],
    cqs: [CqId; 2],
    /// The largest message either end sends, and every receive WR's
    /// capacity.
    data_msg: usize,
    next_handle: u64,
    /// The server's disk, in content mode.
    pub disk: ServerDisk,
    /// Write requests the server has served.
    pub writes: u64,
    /// Read requests the server has served.
    pub reads: u64,
}

impl Session {
    /// Sets up one TCP QP per end with a receive ring posted on each,
    /// and connects the driver to the server's [`NBD_PORT`].
    pub fn open<P: VerbsPair>(p: &mut P) -> Session {
        let data_msg = p.max_tcp_message(A).min(p.max_tcp_message(B));
        let cqs = [p.create_cq(A), p.create_cq(B)];
        let tcp = ServiceType::ReliableTcp;
        let qps = [p.create_qp(A, tcp, cqs[0], cqs[0]), p.create_qp(B, tcp, cqs[1], cqs[1])];
        for (end, qp) in [(A, qps[0]), (B, qps[1])] {
            for i in 0..RECV_DEPTH {
                p.post_recv(end, qp, RecvWr { wr_id: i, capacity: data_msg });
            }
        }
        p.tcp_listen(A, qps[0], NBD_PORT);
        p.tcp_connect(B, qps[1], 40000, NBD_PORT);
        let up = |c: &Completion| c.kind == CompletionKind::ConnectionEstablished;
        wait_for(p, B, cqs[1], up);
        wait_for(p, A, cqs[0], up);
        Session {
            qps,
            cqs,
            data_msg,
            next_handle: 1,
            disk: ServerDisk::with_content(),
            writes: 0,
            reads: 0,
        }
    }

    /// Writes `data` at `offset` and waits for the server's reply.
    pub fn write_block<P: VerbsPair>(&mut self, p: &mut P, offset: u64, data: &[u8]) {
        self.request(p, NbdOp::Write, offset, data.len(), data);
    }

    /// Reads `len` bytes at `offset`.
    pub fn read_block<P: VerbsPair>(&mut self, p: &mut P, offset: u64, len: usize) -> Vec<u8> {
        self.request(p, NbdOp::Read, offset, len, &[]);
        self.recv_body(p, B, len)
    }

    /// Ends the session with [`NbdOp::Disconnect`], which has no reply,
    /// and runs both ends until neither has anything left to do.
    pub fn disconnect<P: VerbsPair>(&mut self, p: &mut P) {
        self.request(p, NbdOp::Disconnect, 0, 0, &[]);
        p.settle();
    }

    /// Sends one request and its data from end B, has end A serve it,
    /// and takes the reply header.
    fn request<P: VerbsPair>(
        &mut self,
        p: &mut P,
        op: NbdOp,
        offset: u64,
        len: usize,
        data: &[u8],
    ) {
        let handle = self.next_handle;
        self.next_handle += 1;
        let len = u32::try_from(len).expect("an NBD request carries under 4 GiB");
        let req = NbdRequest { op, handle, offset, len };
        self.send(p, B, req.encode(), data);
        self.serve(p);
        if op != NbdOp::Disconnect {
            let reply = NbdReply::parse(&self.recv(p, B)).expect("reply header");
            assert_eq!(reply, NbdReply { error: 0, handle }, "reply to request {handle}");
        }
    }

    /// End A takes the next request and its data, runs it against the
    /// disk, and replies.
    fn serve<P: VerbsPair>(&mut self, p: &mut P) {
        let req = NbdRequest::parse(&self.recv(p, A)).expect("request header");
        let len = req.len as usize;
        let data = match req.op {
            NbdOp::Write => {
                let body = self.recv_body(p, A, len);
                self.disk.write_data(p.now(A), req.offset, &body);
                self.writes += 1;
                Vec::new()
            }
            NbdOp::Read => {
                self.reads += 1;
                self.disk.read_data(p.now(A), req.offset, len)
            }
            NbdOp::Disconnect => return,
        };
        self.send(p, A, NbdReply { error: 0, handle: req.handle }.encode(), &data);
    }

    /// Posts a header message, then `data` in messages of at most
    /// `data_msg` bytes. Send completions are left on the CQ; the next
    /// receive on the end skips them.
    fn send<P: VerbsPair>(&self, p: &mut P, end: End, header: Vec<u8>, data: &[u8]) {
        let qp = self.qps[end.index()];
        p.post_send(end, qp, SendWr { wr_id: 0, payload: header, dst: None });
        for chunk in data.chunks(self.data_msg) {
            p.post_send(end, qp, SendWr { wr_id: 0, payload: chunk.to_vec(), dst: None });
        }
    }

    /// Collects data messages on `end` until `len` bytes have arrived.
    fn recv_body<P: VerbsPair>(&self, p: &mut P, end: End, len: usize) -> Vec<u8> {
        let mut body = Vec::with_capacity(len);
        while body.len() < len {
            body.extend(self.recv(p, end));
        }
        body
    }

    /// Waits for the next message delivered on `end` and reposts its
    /// receive WR.
    fn recv<P: VerbsPair>(&self, p: &mut P, end: End) -> Vec<u8> {
        let recv = |c: &Completion| matches!(c.kind, CompletionKind::Recv { .. });
        let c = wait_for(p, end, self.cqs[end.index()], recv);
        assert_eq!(c.status, CompletionStatus::Success, "receive on end {end:?}");
        p.post_recv(end, self.qps[end.index()], RecvWr { wr_id: 0, capacity: self.data_msg });
        let CompletionKind::Recv { data, .. } = c.kind else { unreachable!("matched a receive") };
        data
    }
}
