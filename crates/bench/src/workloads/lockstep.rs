//! The differential script: a TCP handshake followed by lockstep
//! messages, each delivered and acknowledged before the next is posted,
//! so wall-clock scheduling on live sockets cannot reorder protocol
//! events relative to the deterministic simulation. Run on both
//! substrates, the completions it pops must match entry for entry.

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

/// Payload of script message `i`.
fn payload(i: usize, len: usize) -> Vec<u8> {
    (0..len).map(|b| (i.wrapping_mul(37).wrapping_add(b)) as u8).collect()
}

/// Runs `script` — `(sender, length)` per message — between end A,
/// which listens, and end B, which connects. Each end posts one receive
/// WR per script message up front. Returns every completion popped on
/// the way; there is no close, so the run ends in steady state once the
/// pair settles.
pub fn run<P: VerbsPair>(p: &mut P, script: &[(End, usize)]) -> CqStreams {
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
    wait(p, End::B, up);
    wait(p, End::A, up);
    for (i, &(from, len)) in script.iter().enumerate() {
        let wr = SendWr { wr_id: i as u64, payload: payload(i, len), dst: None };
        p.post_send(from, qps[from.index()], wr);
        let got = wait(p, from.other(), |k| matches!(k, CompletionKind::Recv { .. }));
        let CompletionKind::Recv { data, .. } = got.kind else { unreachable!() };
        assert_eq!(data, payload(i, len), "message {i} corrupted");
        wait(p, from, |k| *k == CompletionKind::Send);
    }
    p.settle();
    streams
}
