//! The one discrete-event world loop every testbed runs on.
//!
//! [`World`] owns the simulator, the fabric and one node per fabric
//! port, and drives its nodes through the small [`Node`] trait: deliver
//! a packet, fire the timer, report the next deadline, take the latched
//! TCB invariant violation. The three public worlds are this loop over
//! different node kinds:
//!
//! * [`crate::world::QpipWorld`] runs [`crate::world::QpipNode`]s, the
//!   stack in the NIC behind the verbs API;
//! * [`crate::baseline::SocketWorld`] runs [`crate::baseline::HostNode`]s,
//!   the stack on the host behind blocking sockets;
//! * [`crate::mixed::MixedWorld`] runs either kind on one wire.
//!
//! The verbs calls are written once, for every world whose nodes
//! implement [`crate::world::AsQpip`], and the socket calls once, for
//! every world whose nodes implement [`crate::baseline::AsHost`].

use std::net::Ipv6Addr;
use std::sync::Arc;

use qpip_fabric::{Fabric, FabricConfig, TransmitOutcome};
use qpip_host::cpu::{CpuLedger, WorkClass};
use qpip_host::stack::HostOutput;
use qpip_netstack::engine::EngineStats;
use qpip_netstack::invariant::InvariantViolation;
use qpip_nic::NicOutput;
use qpip_sim::kernel::{EventId, Simulator};
use qpip_sim::time::SimTime;
use qpip_trace::FlightRecorder;
use qpip_wire::ipv6::{Ecn, Ipv6Header};

/// Index of a node (host + NIC pair) in the world.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeIdx(pub usize);

#[derive(Debug)]
pub(crate) enum Event {
    Packet { node: usize, bytes: qpip_wire::Packet },
    Timer { node: usize },
}

/// A node kind the world loop can drive.
pub trait Node {
    /// Delivers a packet that arrived at `now`; whatever the node
    /// transmits in response goes out through `net`.
    fn on_packet(&mut self, net: &mut Net, now: SimTime, bytes: &[u8]);
    /// Fires the node's protocol timers that are due at `now`.
    fn on_timer(&mut self, net: &mut Net, now: SimTime);
    /// The earliest instant the node's timers need firing.
    fn next_deadline(&self) -> Option<SimTime>;
    /// Takes a TCB invariant violation latched by the engine's
    /// per-event debug hook.
    fn take_invariant_violation(&mut self) -> Option<InvariantViolation>;
    /// The node's IPv6 address.
    fn addr(&self) -> Ipv6Addr;
    /// Counters of the node's protocol engine, wherever it runs.
    fn engine_stats(&self) -> EngineStats;
    /// The host CPU ledger.
    fn cpu(&self) -> &CpuLedger;
    /// When the node's application thread is next free.
    fn app_time(&self) -> SimTime;
    /// Charges `cycles` of `class` work to the application thread.
    fn charge(&mut self, class: WorkClass, cycles: u64);
}

/// The clock and the wire: what a node's transmissions go into.
pub struct Net {
    pub(crate) sim: Simulator<Event>,
    pub(crate) fabric: Fabric,
    /// Output buffers lent to one node call at a time: the node's NIC
    /// or stack appends to one, and the node drains it before the call
    /// returns. One set serves the whole world, so no node keeps
    /// buffers of its own and no event allocates them.
    pub(crate) nic_out: Vec<NicOutput>,
    pub(crate) host_out: Vec<HostOutput>,
}

impl Net {
    /// Whether every lent buffer is back and empty.
    fn lent_buffers_empty(&self) -> bool {
        self.nic_out.is_empty() && self.host_out.is_empty()
    }

    /// Puts a packet on the wire from fabric port `from` at `at` and
    /// schedules its arrival, unless the fabric drops it.
    pub(crate) fn transmit(
        &mut self,
        from: qpip_fabric::NodeId,
        at: SimTime,
        dst: Ipv6Addr,
        mut bytes: qpip_wire::Packet,
    ) {
        if let TransmitOutcome::Delivered { to, at: arrive, marked } =
            self.fabric.transmit(at, from, dst, bytes.len())
        {
            // RED/ECN: the switch marks ECN-capable packets instead of
            // dropping (§5.2)
            if marked && Ipv6Header::ecn_of_packet(&bytes) == Ecn::Capable {
                Ipv6Header::set_ecn_in_packet(&mut bytes, Ecn::CongestionExperienced);
            }
            // deliveries cannot be scheduled into the past; fabric port
            // i is node i
            let arrive = arrive.max(self.sim.now());
            self.sim.schedule_at(arrive, Event::Packet { node: to.0 as usize, bytes });
        }
    }
}

/// A simulated network of nodes of kind `N` on one fabric.
pub struct World<N> {
    pub(crate) net: Net,
    pub(crate) nodes: Vec<N>,
    /// Each node's armed timer event, indexed like `nodes`.
    timers: Vec<Option<(SimTime, EventId)>>,
    /// Shared flight recorder, when tracing is on.
    pub(crate) recorder: Option<Arc<FlightRecorder>>,
}

impl<N> core::fmt::Debug for World<N> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct(core::any::type_name::<Self>())
            .field("nodes", &self.nodes.len())
            .field("now", &self.net.sim.now())
            .finish()
    }
}

impl<N: Node> World<N> {
    /// Creates a world over the given fabric. A world mixing node kinds
    /// needs a fabric MTU that suits both (e.g. 9000 for Myrinet
    /// carrying both).
    pub fn new(fabric: FabricConfig) -> Self {
        World::with_fabric(Fabric::new(fabric))
    }

    pub(crate) fn with_fabric(fabric: Fabric) -> Self {
        World {
            net: Net { sim: Simulator::new(), fabric, nic_out: Vec::new(), host_out: Vec::new() },
            nodes: Vec::new(),
            timers: Vec::new(),
            recorder: None,
        }
    }

    /// Attaches the node `make` builds from its fabric port.
    pub(crate) fn attach(
        &mut self,
        addr: Ipv6Addr,
        switch: usize,
        make: impl FnOnce(&Self, qpip_fabric::NodeId) -> N,
    ) -> NodeIdx {
        let port = self.net.fabric.attach_at(addr, switch);
        debug_assert_eq!(port.0 as usize, self.nodes.len(), "fabric port i is node i");
        let node = make(self, port);
        self.nodes.push(node);
        self.timers.push(None);
        NodeIdx(self.nodes.len() - 1)
    }

    /// The IPv6 address of a node.
    pub fn addr(&self, node: NodeIdx) -> Ipv6Addr {
        self.nodes[node.0].addr()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.net.sim.now()
    }

    /// A node's application-thread clock.
    pub fn app_time(&self, node: NodeIdx) -> SimTime {
        self.nodes[node.0].app_time()
    }

    /// Host CPU ledger of a node (utilization, cycle breakdown).
    pub fn cpu(&self, node: NodeIdx) -> &CpuLedger {
        self.nodes[node.0].cpu()
    }

    /// Charges application-level cycles on a node (benchmark loop
    /// bodies, filesystem work in NBD).
    pub fn charge_app(&mut self, node: NodeIdx, cycles: u64) {
        self.nodes[node.0].charge(WorkClass::App, cycles);
    }

    /// Traffic and drop counters of a node's protocol engine, wherever
    /// it runs (NIC firmware or host kernel).
    pub fn engine_stats(&self, node: NodeIdx) -> EngineStats {
        self.nodes[node.0].engine_stats()
    }

    /// Fabric statistics.
    pub fn fabric(&self) -> &Fabric {
        &self.net.fabric
    }

    /// Installs a fault plan on the fabric (tests).
    pub fn set_fault_plan(&mut self, plan: qpip_fabric::FaultPlan) {
        self.net.fabric.set_fault_plan(plan);
    }

    /// The installed flight recorder, if tracing is on.
    pub fn recorder(&self) -> Option<&Arc<FlightRecorder>> {
        self.recorder.as_ref()
    }

    /// Total discrete events the world's simulator has delivered.
    pub fn events_processed(&self) -> u64 {
        self.net.sim.events_processed()
    }

    /// Wall-clock drain rate of the event loop (events per real
    /// second since the first delivery) — the benches' scaling metric.
    pub fn events_per_sec(&self) -> f64 {
        self.net.sim.events_per_sec()
    }

    // ----- event loop ----------------------------------------------------------

    /// Processes one simulation event; `false` when idle.
    pub fn step(&mut self) -> bool {
        debug_assert!(self.net.lent_buffers_empty(), "lent buffers not drained before a step");
        let Some((t, ev)) = self.net.sim.next() else {
            return false;
        };
        let node = match ev {
            Event::Packet { node, bytes } => {
                self.nodes[node].on_packet(&mut self.net, t, &bytes);
                node
            }
            Event::Timer { node } => {
                self.timers[node] = None;
                self.nodes[node].on_timer(&mut self.net, t);
                node
            }
        };
        self.refresh_timer(node);
        self.enforce_oracle(node);
        debug_assert!(self.net.lent_buffers_empty(), "a node left output in a lent buffer");
        true
    }

    /// Runs the event loop until nothing is pending.
    pub fn run_until_idle(&mut self) {
        while self.step() {}
    }

    /// Processes every event due no later than `t`.
    pub(crate) fn pump_until_time(&mut self, t: SimTime) {
        while let Some(next) = self.net.sim.peek_time() {
            if next > t {
                break;
            }
            self.step();
        }
    }

    /// Re-arms a node's timer event after its state changed.
    pub(crate) fn refresh_timer(&mut self, node: usize) {
        let deadline = self.nodes[node].next_deadline();
        match (deadline, self.timers[node]) {
            (Some(d), Some((t, _))) if t <= d => {} // existing timer fires first
            (Some(d), existing) => {
                if let Some((_, id)) = existing {
                    self.net.sim.cancel(id);
                }
                let at = d.max(self.net.sim.now());
                let id = self.net.sim.schedule_at(at, Event::Timer { node });
                self.timers[node] = Some((at, id));
            }
            (None, Some((_, id))) => {
                self.net.sim.cancel(id);
                self.timers[node] = None;
            }
            (None, None) => {}
        }
    }

    /// Debug-build oracle gate: after every event, surface any TCB
    /// invariant violation the engine's per-event hook latched, naming
    /// the invariant and dumping the connection's recent history.
    ///
    /// # Panics
    ///
    /// Panics with [`World::oracle_report`] on a latched violation.
    fn enforce_oracle(&mut self, node: usize) {
        let latched =
            if cfg!(debug_assertions) { self.nodes[node].take_invariant_violation() } else { None };
        if let Some(v) = latched {
            panic!("{}", self.oracle_report(node, &v));
        }
    }

    /// Renders an invariant violation with the failing invariant's name
    /// and the connection's last flight-recorder events (when a
    /// recorder is installed).
    pub(crate) fn oracle_report(&self, node: usize, v: &InvariantViolation) -> String {
        use core::fmt::Write as _;
        let mut s =
            format!("TCB invariant `{}` violated on node {node}: {}\n", v.invariant, v.detail);
        match (&self.recorder, v.conn) {
            (Some(rec), Some(conn)) => {
                let tail = rec.last_events(node as u32, conn.0, 8);
                let _ = writeln!(s, "  last {} flight-recorder events for {conn}:", tail.len());
                for line in qpip_trace::export::dump(&tail).lines() {
                    let _ = writeln!(s, "    {line}");
                }
            }
            _ => s.push_str("  (install a flight recorder for per-connection event history)"),
        }
        s
    }
}
