//! NBD over sockets (Figure 5): the conventional configuration — client
//! block driver above a kernel socket, user-level server, TCP/IP on the
//! host at both ends.

pub use qpip::baseline::Transport;

use qpip::baseline::SocketWorld;
use qpip::NodeIdx;
use qpip_host::SockId;
use qpip_netstack::types::Endpoint;
use qpip_sim::params;

use crate::disk::ServerDisk;
use crate::proto::{NbdOp, NbdReply, NbdRequest, NBD_PORT, REPLY_LEN, REQUEST_LEN};
use crate::result::{fs_cycles, NbdConfig, NbdResult, Phase, PhaseResult};

/// While a driver writes a message to its socket in ≤16 KB pieces, like
/// the kernel socket path does: the offset of its first unaccepted byte.
type Pending = Option<usize>;

/// Offers the next piece of `msg` to the socket. Returns whether the
/// socket accepted it; `pending` empties once the last piece is in.
fn write_piece(
    w: &mut SocketWorld,
    node: NodeIdx,
    sock: SockId,
    msg: &[u8],
    pending: &mut Pending,
) -> bool {
    let Some(off) = pending.as_mut() else { return false };
    let n = (msg.len() - *off).min(16 * 1024);
    if !w.try_send(node, sock, &msg[*off..*off + n]).expect("send") {
        return false;
    }
    *off += n;
    if *off == msg.len() {
        *pending = None;
    }
    true
}

struct Bench {
    w: SocketWorld,
    client: NodeIdx,
    server: NodeIdx,
    cs: SockId,
    ss: SockId,
    disk: ServerDisk,
}

impl Bench {
    fn new(transport: Transport) -> Bench {
        let (mut w, cfg) = SocketWorld::testbed(transport);
        let client = w.add_node(cfg.clone());
        let server = w.add_node(cfg);
        let ls = w.tcp_socket(server);
        w.listen(server, ls, NBD_PORT).unwrap();
        let cs = w.tcp_socket(client);
        let remote = Endpoint::new(w.addr(server), NBD_PORT);
        w.connect_blocking(client, cs, 40000, remote).unwrap();
        let ss = w.accept_blocking(server, ls);
        Bench { w, client, server, cs, ss, disk: ServerDisk::new() }
    }

    /// Sequential write phase over the socket pair.
    fn run_write(&mut self, cfg: NbdConfig) -> PhaseResult {
        let mut phase = Phase::start(&self.w, self.client, cfg);
        // server-side in-progress request state
        let mut srv_need = REQUEST_LEN; // bytes still needed for this step
        let mut srv_have: Vec<u8> = Vec::new();
        let mut srv_reading_data = false;
        let mut srv_data_left = 0usize;
        // client partial-send state; one request buffer serves every
        // block, its header rewritten in place
        let mut msg = vec![0x5au8; REQUEST_LEN + cfg.block];
        let mut pending: Pending = None;
        while phase.running() {
            let mut progress = false;
            // client issues requests up to the queue depth
            if let Some(req) = phase.next(NbdOp::Write).filter(|_| pending.is_none()) {
                self.w.charge_app(self.client, fs_cycles(cfg.block));
                msg[..REQUEST_LEN].copy_from_slice(&req.encode());
                pending = Some(0);
                phase.sent += 1;
            }
            progress |= write_piece(&mut self.w, self.client, self.cs, &msg, &mut pending);
            // server consumes the stream
            let avail = self.w.readable(self.server, self.ss);
            if avail > 0 {
                let want = if srv_reading_data { srv_data_left } else { srv_need - srv_have.len() };
                let data = self.w.recv_available(self.server, self.ss, want);
                if !data.is_empty() {
                    progress = true;
                    if srv_reading_data {
                        srv_data_left -= data.len();
                        if srv_data_left == 0 {
                            // block complete: commit and reply
                            let req = NbdRequest::parse(&srv_have).expect("header");
                            self.w.charge_app(self.server, params::NBD_SERVER_PER_REQUEST_CYCLES);
                            let now = self.w.app_time(self.server);
                            self.disk.write(now, req.len as usize);
                            let reply = NbdReply { error: 0, handle: req.handle }.encode();
                            // replies are small; block until accepted
                            while !self.w.try_send(self.server, self.ss, &reply).unwrap() {
                                assert!(self.w.step(), "nbd write deadlock (reply)");
                            }
                            srv_have.clear();
                            srv_reading_data = false;
                            srv_need = REQUEST_LEN;
                        }
                    } else {
                        srv_have.extend(data);
                        if srv_have.len() == REQUEST_LEN {
                            let req = NbdRequest::parse(&srv_have).expect("header");
                            srv_reading_data = true;
                            srv_data_left = req.len as usize;
                        }
                    }
                }
            }
            // client reaps replies
            while self.w.readable(self.client, self.cs) >= REPLY_LEN {
                let data = self.w.recv_available(self.client, self.cs, REPLY_LEN);
                let _ = NbdReply::parse(&data).expect("reply");
                phase.done += 1;
                progress = true;
            }
            if !progress {
                assert!(self.w.step(), "nbd write deadlocked at {}/{}", phase.done, phase.nblocks);
            }
        }
        phase.finish(&self.w, self.w.app_time(self.client).max(self.disk.sync_done()))
    }

    /// Sequential read phase over the socket pair.
    fn run_read(&mut self, cfg: NbdConfig) -> PhaseResult {
        let mut phase = Phase::start(&self.w, self.client, cfg);
        let mut srv_have: Vec<u8> = Vec::new();
        let mut cli_block_left = 0usize; // data bytes outstanding for current reply
        let mut cli_seen_reply = false;
        // one reply buffer serves every block, its header rewritten in place
        let mut reply: Vec<u8> = Vec::new();
        let mut srv_pending: Pending = None;
        while phase.running() {
            let mut progress = false;
            // a refused request is charged again when it is offered again (ROADMAP item 8)
            if let Some(req) = phase.next(NbdOp::Read) {
                self.w.charge_app(self.client, params::NBD_FS_PER_REQUEST_CYCLES);
                if self.w.try_send(self.client, self.cs, &req.encode()).unwrap() {
                    phase.sent += 1;
                    progress = true;
                }
            }
            // server: parse requests, stream replies
            if srv_pending.is_none() && self.w.readable(self.server, self.ss) > 0 {
                let want = REQUEST_LEN - srv_have.len();
                let data = self.w.recv_available(self.server, self.ss, want);
                srv_have.extend(data);
                if srv_have.len() == REQUEST_LEN {
                    let req = NbdRequest::parse(&srv_have).expect("header");
                    srv_have.clear();
                    let now = self.w.app_time(self.server);
                    self.disk.read(now, req.len as usize);
                    self.w.charge_app(self.server, params::NBD_SERVER_PER_REQUEST_CYCLES);
                    reply.resize(REPLY_LEN + req.len as usize, 0xc3);
                    let hdr = NbdReply { error: 0, handle: req.handle }.encode();
                    reply[..REPLY_LEN].copy_from_slice(&hdr);
                    srv_pending = Some(0);
                    progress = true;
                }
            }
            progress |= write_piece(&mut self.w, self.server, self.ss, &reply, &mut srv_pending);
            // client: drain reply header + block data
            let avail = self.w.readable(self.client, self.cs);
            if avail > 0 {
                if !cli_seen_reply {
                    if avail >= REPLY_LEN {
                        let data = self.w.recv_available(self.client, self.cs, REPLY_LEN);
                        let _ = NbdReply::parse(&data).expect("reply");
                        cli_seen_reply = true;
                        cli_block_left = cfg.block;
                        progress = true;
                    }
                } else {
                    let data = self.w.recv_available(self.client, self.cs, cli_block_left);
                    if !data.is_empty() {
                        cli_block_left -= data.len();
                        progress = true;
                        if cli_block_left == 0 {
                            cli_seen_reply = false;
                            // a send-receive read charges the per-request cycles twice (ROADMAP item 8)
                            self.w.charge_app(self.client, fs_cycles(cfg.block));
                            phase.done += 1;
                        }
                    }
                }
            }
            if !progress {
                assert!(self.w.step(), "nbd read deadlocked at {}/{}", phase.done, phase.nblocks);
            }
        }
        phase.finish(&self.w, self.w.app_time(self.client))
    }
}

/// Runs the Figure 7 benchmark over a socket transport.
pub fn run(transport: Transport, cfg: NbdConfig) -> NbdResult {
    let mut b = Bench::new(transport);
    let write = b.run_write(cfg);
    let read = b.run_read(cfg);
    NbdResult { write, read }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> NbdConfig {
        NbdConfig { total_bytes: 4 * 1024 * 1024, block: 64 * 1024, queue_depth: 4 }
    }

    #[test]
    fn socket_nbd_over_gige_completes() {
        let r = run(Transport::GigE, small());
        assert!(r.write.mbytes_per_sec > 3.0, "{r:?}");
        assert!(r.read.mbytes_per_sec > 3.0, "{r:?}");
    }

    /// The phase loops read the sockets' state and never consume a
    /// wakeup; the socket world keeps one per kind and socket, so a run
    /// holds a few buffered events, not one per segment and window
    /// opening.
    #[test]
    fn phase_loops_do_not_hoard_wakeups() {
        let mut b = Bench::new(Transport::GigE);
        for phase in [Bench::run_write, Bench::run_read] {
            phase(&mut b, small());
            let held = b.w.events(b.client).len() + b.w.events(b.server).len();
            assert!(held <= 16, "{held} wakeups still buffered");
        }
    }

    #[test]
    fn socket_nbd_burns_more_client_cpu_than_fs_alone() {
        let r = run(Transport::GigE, small());
        // host TCP/IP sits on top of the filesystem work (§4.2.3)
        assert!(r.read.client_cpu > r.read.fs_fraction, "{r:?}");
    }
}
