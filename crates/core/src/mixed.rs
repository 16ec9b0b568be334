//! A mixed fabric: QPIP nodes and conventional socket hosts side by
//! side on one network.
//!
//! §3: "Using inter-network protocols … provides a straightforward
//! means to bridge the SAN to external networks … Communication can
//! occur between QPIP applications or QPIP and traditional (socket)
//! systems. QP to QP is the high performance mode … In the latter mode,
//! the remote end sees a conventional IP socket, but the QP end is
//! aware of the remote limitations and may have to re-assemble incoming
//! data into a complete unit."
//!
//! [`MixedWorld`] realizes exactly that: the same wire, one node with
//! the stack in its NIC behind queue pairs, the other with the stack on
//! its host behind sockets — both with their full cost models. It is
//! the shared world loop over [`MixedNode`]: its QPIP nodes take
//! [`crate::QpipWorld`]'s verbs path and its socket hosts take
//! [`crate::baseline::SocketWorld`]'s blocking socket calls.

use std::net::Ipv6Addr;

use qpip_host::cpu::{CpuLedger, WorkClass};
use qpip_host::stack::StackConfig;
use qpip_nic::NicConfig;
use qpip_sim::time::SimTime;

use crate::baseline::{AsHost, HostNode};
use crate::des::{Net, Node, World};
use crate::world::{AsQpip, NodeIdx, QpipNode};

/// A node of a mixed world: either kind.
#[allow(clippy::large_enum_variant)] // a handful of nodes, stored inline like the pure worlds'
pub enum MixedNode {
    /// Stack in the NIC, queue-pair interface.
    Qpip(QpipNode),
    /// Stack on the host CPU, socket interface.
    Host(HostNode),
}

/// Runs `$e` on whichever node kind `$node` holds, bound to `$n`.
macro_rules! either {
    ($node:expr, $n:ident => $e:expr) => {
        match $node {
            MixedNode::Qpip($n) => $e,
            MixedNode::Host($n) => $e,
        }
    };
}

impl Node for MixedNode {
    fn on_packet(&mut self, net: &mut Net, now: SimTime, bytes: &[u8]) {
        either!(self, n => n.on_packet(net, now, bytes))
    }

    fn on_timer(&mut self, net: &mut Net, now: SimTime) {
        either!(self, n => n.on_timer(net, now))
    }

    fn next_deadline(&self) -> Option<SimTime> {
        either!(self, n => n.next_deadline())
    }

    fn take_invariant_violation(&mut self) -> Option<qpip_netstack::invariant::InvariantViolation> {
        either!(self, n => n.take_invariant_violation())
    }

    fn addr(&self) -> Ipv6Addr {
        either!(self, n => n.addr())
    }

    fn engine_stats(&self) -> qpip_netstack::engine::EngineStats {
        either!(self, n => n.engine_stats())
    }

    fn cpu(&self) -> &CpuLedger {
        either!(self, n => n.cpu())
    }

    fn app_time(&self) -> SimTime {
        either!(self, n => n.app_time())
    }

    fn charge(&mut self, class: WorkClass, cycles: u64) {
        either!(self, n => n.charge(class, cycles))
    }
}

impl AsQpip for MixedNode {
    fn qpip(&self) -> Option<&QpipNode> {
        match self {
            MixedNode::Qpip(n) => Some(n),
            MixedNode::Host(_) => None,
        }
    }

    fn qpip_mut(&mut self) -> Option<&mut QpipNode> {
        match self {
            MixedNode::Qpip(n) => Some(n),
            MixedNode::Host(_) => None,
        }
    }
}

impl AsHost for MixedNode {
    fn host(&self) -> Option<&HostNode> {
        match self {
            MixedNode::Host(n) => Some(n),
            MixedNode::Qpip(_) => None,
        }
    }

    fn host_mut(&mut self) -> Option<&mut HostNode> {
        match self {
            MixedNode::Host(n) => Some(n),
            MixedNode::Qpip(_) => None,
        }
    }
}

/// A network mixing QPIP and socket nodes.
pub type MixedWorld = World<MixedNode>;

impl MixedWorld {
    /// Adds a QPIP node (stack in the NIC, queue-pair interface).
    pub fn add_qpip_node(&mut self, cfg: NicConfig) -> NodeIdx {
        let addr = Ipv6Addr::new(0xfc00, 0, 0, 0, 0, 0, 0xaaaa, (self.nodes.len() + 1) as u16);
        self.attach(addr, 0, |w, port| MixedNode::Qpip(QpipNode::new(w, cfg, addr, port)))
    }

    /// Adds a conventional socket host (stack on the host CPU).
    pub fn add_host_node(&mut self, cfg: StackConfig) -> NodeIdx {
        let addr = Ipv6Addr::new(0xfc00, 0, 0, 0, 0, 0, 0xbbbb, (self.nodes.len() + 1) as u16);
        self.attach(addr, 0, |_, port| MixedNode::Host(HostNode::new(cfg, addr, port)))
    }
}
