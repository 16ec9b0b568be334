//! The differential script: a TCP handshake followed by lockstep
//! messages, each delivered and acknowledged before the next is posted,
//! so wall-clock scheduling on live sockets cannot reorder protocol
//! events relative to the deterministic simulation. Run on both
//! substrates, the completions it pops must match entry for entry.
//! Each message is one-way, or answered before either end waits for
//! its send completion, so the ACK policy shows on the wire: a delayed
//! ACK rides on the answer, an immediate one goes out ahead of it.

use std::collections::BTreeMap;

use qpip::{Completion, CompletionKind, CompletionStatus, CqId, QpId, RecvWr, SendWr, ServiceType};

use super::verbs::{End, VerbsPair};

/// One popped completion without its timestamp: the payload rides in
/// the kind.
pub type Popped = (QpId, u64, CompletionKind, CompletionStatus);

/// Every completion a run popped, per (end, CQ), in pop order.
pub type CqStreams = BTreeMap<(End, CqId), Vec<Popped>>;

/// Port end A serves on.
const PORT: u16 = 5001;
/// Capacity of every posted receive WR.
const RECV_CAP: usize = 4096;

/// How each script message is exchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exchange {
    /// The receiver takes the message, then the sender waits for its
    /// send completion.
    OneWay,
    /// The receiver answers with as many bytes before either end waits
    /// for its send completion: request-response traffic.
    Answered,
}

/// Payload of script message `i`.
fn payload(i: usize, len: usize) -> Vec<u8> {
    (0..len).map(|b| (i.wrapping_mul(37).wrapping_add(b)) as u8).collect()
}

/// A receive completion's kind for a TCP message carrying `data`.
fn recv(data: Vec<u8>) -> CompletionKind {
    CompletionKind::Recv { data, src: None }
}

/// Runs `script` — `(sender, length)` per message, each exchanged as
/// `exchange` says — between end A, which listens, and end B, which
/// connects. Each end posts one receive WR per script message up front.
/// Returns every completion popped on the way; there is no close, so
/// the run ends in steady state once the pair settles.
pub fn run<P: VerbsPair>(p: &mut P, script: &[(End, usize)], exchange: Exchange) -> CqStreams {
    let mut qps = Vec::new();
    let mut cqs = Vec::new();
    for end in [End::A, End::B] {
        let cq = p.create_cq(end);
        let qp = p.create_qp(end, ServiceType::ReliableTcp, cq, cq);
        for i in 0..script.len() {
            p.post_recv(end, qp, RecvWr { wr_id: i as u64, capacity: RECV_CAP });
        }
        match end {
            End::A => p.tcp_listen(end, qp, PORT),
            End::B => p.tcp_connect(end, qp, 4000, PORT),
        }
        qps.push(qp);
        cqs.push(cq);
    }
    let mut streams = CqStreams::new();
    let mut wait = |p: &mut P, end: End, want: fn(&CompletionKind) -> bool| loop {
        let cq = cqs[end.index()];
        let c: Completion = p.wait(end, cq);
        streams.entry((end, cq)).or_default().push((
            c.qp,
            c.wr_id,
            c.kind.clone(),
            c.status.clone(),
        ));
        if want(&c.kind) {
            return c;
        }
    };
    let up = |k: &CompletionKind| *k == CompletionKind::ConnectionEstablished;
    let is_recv = |k: &CompletionKind| matches!(k, CompletionKind::Recv { .. });
    let is_send = |k: &CompletionKind| *k == CompletionKind::Send;
    wait(p, End::B, up);
    wait(p, End::A, up);
    for (i, &(from, len)) in script.iter().enumerate() {
        let to = from.other();
        let wr = SendWr { wr_id: i as u64, payload: payload(i, len), dst: None };
        p.post_send(from, qps[from.index()], wr);
        let got = wait(p, to, is_recv);
        assert_eq!(got.kind, recv(payload(i, len)), "message {i} corrupted");
        if exchange == Exchange::OneWay {
            wait(p, from, is_send);
            continue;
        }
        let answer = payload(script.len() + i, len);
        let wr = SendWr { wr_id: i as u64, payload: answer.clone(), dst: None };
        p.post_send(to, qps[to.index()], wr);
        // the answer acknowledges the message: its receive and the
        // message's send completion land in either order
        let kinds = [wait(p, from, |_| true).kind, wait(p, from, |_| true).kind];
        let want = [CompletionKind::Send, recv(answer)];
        assert!(want.iter().all(|k| kinds.contains(k)), "answer {i} corrupted: {kinds:?}");
        wait(p, to, is_send);
    }
    p.settle();
    streams
}
