//! Two QPIP NICs wired back to back over a 1 µs wire and driven by
//! hand: the harness the firmware integration tests share.

// each test target uses a subset
#![allow(dead_code)]

use std::collections::VecDeque;
use std::net::Ipv6Addr;

use qpip_netstack::types::Endpoint;
use qpip_nic::{
    Completion, CompletionKind, CqId, NicConfig, NicOutput, QpId, QpipNic, RecvWr, SendWr,
    ServiceType,
};
use qpip_sim::time::{SimDuration, SimTime};

/// The fabric address of NIC `n`.
pub fn addr(n: u16) -> Ipv6Addr {
    Ipv6Addr::new(0xfc00, 0, 0, 0, 0, 0, 0, n)
}

/// One TCP QP on each NIC, each on a CQ of its own; `a` is the client.
pub struct Pair {
    pub a: QpipNic,
    pub b: QpipNic,
    pub qa: QpId,
    pub qb: QpId,
    cqs: [CqId; 2],
    pub now: SimTime,
    /// Packets in flight: whether `a` sent it, arrival, bytes.
    wire: VecDeque<(bool, SimTime, qpip_wire::Packet)>,
    /// The size of every packet put on the wire, dropped ones included.
    pub wire_sizes: Vec<usize>,
    /// Positions in `wire_sizes` of the packets the wire drops.
    pub drop_indices: Vec<usize>,
    /// Every entry popped from each NIC's CQ so far, in order.
    pub comps_a: Vec<Completion>,
    pub comps_b: Vec<Completion>,
}

impl Pair {
    pub fn new(cfg: NicConfig) -> Pair {
        let mut a = QpipNic::new(cfg.clone(), addr(1));
        let mut b = QpipNic::new(cfg, addr(2));
        let cqs = [a.create_cq(), b.create_cq()];
        let qa = a.create_qp(ServiceType::ReliableTcp, cqs[0], cqs[0]).unwrap();
        let qb = b.create_qp(ServiceType::ReliableTcp, cqs[1], cqs[1]).unwrap();
        Pair {
            a,
            b,
            qa,
            qb,
            cqs,
            now: SimTime::ZERO,
            wire: VecDeque::new(),
            wire_sizes: Vec::new(),
            drop_indices: Vec::new(),
            comps_a: Vec::new(),
            comps_b: Vec::new(),
        }
    }

    /// Runs `call` on `a` (or `b`) at the current instant, puts the
    /// packets it produced on the wire and collects that NIC's new
    /// completions.
    fn on<R>(
        &mut self,
        on_a: bool,
        call: impl FnOnce(&mut QpipNic, SimTime, &mut Vec<NicOutput>) -> R,
    ) -> R {
        let (nic, cq, comps) = if on_a {
            (&mut self.a, self.cqs[0], &mut self.comps_a)
        } else {
            (&mut self.b, self.cqs[1], &mut self.comps_b)
        };
        let mut outs = Vec::new();
        let r = call(nic, self.now, &mut outs);
        comps.extend(std::iter::from_fn(|| nic.cq_pop(cq).unwrap()));
        for NicOutput { at, bytes, .. } in outs {
            let dropped = self.drop_indices.contains(&self.wire_sizes.len());
            self.wire_sizes.push(bytes.len());
            if !dropped {
                self.wire.push_back((on_a, at + SimDuration::from_micros(1), bytes));
            }
        }
        r
    }

    /// Posts a send WR on the QP of `a` (or `b`), then runs the wire dry.
    pub fn send(&mut self, from_a: bool, wr: SendWr) {
        let qp = if from_a { self.qa } else { self.qb };
        self.on(from_a, |nic, now, out| nic.post_send(now, qp, wr, out)).unwrap();
        self.run();
    }

    /// Posts a receive WR on the QP of `a` (or `b`), then runs the wire
    /// dry.
    pub fn post_recv(&mut self, on_a: bool, wr: RecvWr) {
        let qp = if on_a { self.qa } else { self.qb };
        self.on(on_a, |nic, now, out| nic.post_recv(now, qp, wr, out)).unwrap();
        self.run();
    }

    /// `b` listens on port 5000 and `a` connects to it; runs the wire
    /// dry.
    pub fn connect(&mut self) {
        self.b.tcp_listen(5000, self.qb).unwrap();
        let (qa, remote) = (self.qa, Endpoint::new(addr(2), 5000));
        self.on(true, |nic, now, out| nic.tcp_connect(now, qa, 4000, remote, out)).unwrap();
        self.run();
    }

    /// Delivers the packets on the wire in order until none is left.
    pub fn run(&mut self) {
        let mut spins = 0;
        while let Some((from_a, at, bytes)) = self.wire.pop_front() {
            spins += 1;
            assert!(spins < 10_000, "wire did not quiesce");
            self.now = self.now.max(at);
            self.on(!from_a, |nic, now, out| nic.on_packet(now, &bytes, out));
        }
    }

    /// Fires both NICs' timers at the earliest deadline, then runs the
    /// wire dry. `false` if no timer is armed.
    pub fn fire_timers(&mut self) -> bool {
        let next = [self.a.next_deadline(), self.b.next_deadline()].into_iter().flatten().min();
        let Some(d) = next else { return false };
        self.now = self.now.max(d);
        self.on(true, |nic, now, out| nic.on_timer(now, out));
        self.on(false, |nic, now, out| nic.on_timer(now, out));
        self.run();
        true
    }

    /// The messages delivered to `b`, in order.
    pub fn received(&self) -> Vec<&Vec<u8>> {
        self.comps_b
            .iter()
            .filter_map(|c| match &c.kind {
                CompletionKind::Recv { data, .. } => Some(data),
                _ => None,
            })
            .collect()
    }
}
