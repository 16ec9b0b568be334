//! Per-stage NIC-processor occupancy, folded from a flight-recorder
//! trace.
//!
//! Reproduces the measurement the paper made with the LANai 9 cycle
//! counter (§4.2.2, Tables 2 & 3): every firmware stage that holds the
//! NIC processor is traced as a [`TraceEvent::FwFsm`] carrying its
//! cycles, and [`Occupancy::from_trace`] buckets those charges by stage
//! and by what kind of packet was being handled.

use qpip_sim::params;
use qpip_sim::time::Cycles;
use qpip_trace::{Rec, TraceEvent};

/// A firmware processing stage (the rows of Tables 2 and 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Stage {
    /// Doorbell FIFO service.
    DoorbellProcess,
    /// Endpoint scheduler pass.
    Schedule,
    /// Work-request fetch (DMA from host memory).
    GetWr,
    /// Data fetch (DMA setup + start).
    GetData,
    /// TCP header construction.
    BuildTcpHdr,
    /// UDP header construction.
    BuildUdpHdr,
    /// IPv6 header construction.
    BuildIpHdr,
    /// Firmware checksum loop (absent in hardware mode).
    FwChecksum,
    /// Handoff to the media transmit engine.
    MediaXmt,
    /// Post-send WR/QP status update.
    UpdateTx,
    /// Media receive engine service.
    MediaRcv,
    /// IPv6 header parse.
    IpParse,
    /// TCP header parse (incl. RTT-estimator math on ACKs).
    TcpParse,
    /// UDP header parse.
    UdpParse,
    /// Data placement (DMA to the posted host buffer).
    PutData,
    /// Receive-side WR/CQ update.
    UpdateRx,
}

impl Stage {
    /// The paper's row label.
    pub fn label(self) -> &'static str {
        match self {
            Stage::DoorbellProcess => "Doorbell Process",
            Stage::Schedule => "Schedule",
            Stage::GetWr => "Get WR",
            Stage::GetData => "Get Data",
            Stage::BuildTcpHdr => "Build TCP Hdr",
            Stage::BuildUdpHdr => "Build UDP Hdr",
            Stage::BuildIpHdr => "Build IP Hdr",
            Stage::FwChecksum => "FW Checksum",
            Stage::MediaXmt => "Send",
            Stage::UpdateTx => "Update",
            Stage::MediaRcv => "Media Rcv",
            Stage::IpParse => "IP Parse",
            Stage::TcpParse => "TCP Parse",
            Stage::UdpParse => "UDP Parse",
            Stage::PutData => "Put Data",
            Stage::UpdateRx => "Update",
        }
    }

    /// Stable snake-case name for traces.
    pub fn trace_name(self) -> &'static str {
        match self {
            Stage::DoorbellProcess => "doorbell",
            Stage::Schedule => "schedule",
            Stage::GetWr => "get_wr",
            Stage::GetData => "get_data",
            Stage::BuildTcpHdr => "build_tcp_hdr",
            Stage::BuildUdpHdr => "build_udp_hdr",
            Stage::BuildIpHdr => "build_ip_hdr",
            Stage::FwChecksum => "fw_checksum",
            Stage::MediaXmt => "media_xmt",
            Stage::UpdateTx => "wr_status_tx",
            Stage::MediaRcv => "media_rcv",
            Stage::IpParse => "ip_parse",
            Stage::TcpParse => "tcp_parse",
            Stage::UdpParse => "udp_parse",
            Stage::PutData => "put_data",
            Stage::UpdateRx => "wr_status_rx",
        }
    }
}

/// What the NIC was handling when a stage ran (the columns of Tables 2
/// and 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PacketClass {
    /// Transmit path carrying payload.
    DataSend,
    /// Transmit path for a pure acknowledgment.
    AckSend,
    /// Receive path carrying payload.
    DataRecv,
    /// Receive path for a pure acknowledgment.
    AckRecv,
    /// UDP transmit.
    UdpSend,
    /// UDP receive.
    UdpRecv,
    /// Connection management traffic.
    Control,
}

impl PacketClass {
    /// Stable snake-case name for traces.
    pub fn trace_name(self) -> &'static str {
        match self {
            PacketClass::DataSend => "data_send",
            PacketClass::AckSend => "ack_send",
            PacketClass::DataRecv => "data_recv",
            PacketClass::AckRecv => "ack_recv",
            PacketClass::UdpSend => "udp_send",
            PacketClass::UdpRecv => "udp_recv",
            PacketClass::Control => "control",
        }
    }
}

/// Number of [`Stage`] variants (rows of the occupancy table).
const STAGES: usize = Stage::UpdateRx as usize + 1;
/// Number of [`PacketClass`] variants (columns of the occupancy table).
const CLASSES: usize = PacketClass::Control as usize + 1;

/// Every stage in declaration order, for walking the table.
const ALL_STAGES: [Stage; STAGES] = [
    Stage::DoorbellProcess,
    Stage::Schedule,
    Stage::GetWr,
    Stage::GetData,
    Stage::BuildTcpHdr,
    Stage::BuildUdpHdr,
    Stage::BuildIpHdr,
    Stage::FwChecksum,
    Stage::MediaXmt,
    Stage::UpdateTx,
    Stage::MediaRcv,
    Stage::IpParse,
    Stage::TcpParse,
    Stage::UdpParse,
    Stage::PutData,
    Stage::UpdateRx,
];

/// Every packet class in declaration order.
const ALL_CLASSES: [PacketClass; CLASSES] = [
    PacketClass::DataSend,
    PacketClass::AckSend,
    PacketClass::DataRecv,
    PacketClass::AckRecv,
    PacketClass::UdpSend,
    PacketClass::UdpRecv,
    PacketClass::Control,
];

/// One (stage, class) cell: how often it ran and its summed occupancy.
#[derive(Debug, Clone, Copy, Default)]
struct Cell {
    count: usize,
    sum_us: f64,
}

impl Cell {
    fn mean_us(self) -> f64 {
        self.sum_us / self.count as f64
    }
}

/// Accumulated per-(stage, class) occupancy.
///
/// Like the paper's tables, each cell keeps only what a mean needs: an
/// execution count and the summed occupancy in microseconds, in a fixed
/// array indexed by stage and class.
#[derive(Debug, Default)]
pub struct Occupancy {
    cells: [[Cell; CLASSES]; STAGES],
}

impl Occupancy {
    /// Folds `node`'s [`TraceEvent::FwFsm`] charges in `events`, in the
    /// order given (recording order, for [`FlightRecorder::events`]).
    /// Each charge's cycles are priced on the NIC clock, as the `Lanai`
    /// cost model prices them. Other nodes' events, other event kinds
    /// and stage or class names this crate does not define are skipped.
    ///
    /// [`FlightRecorder::events`]: qpip_trace::FlightRecorder::events
    pub fn from_trace(events: &[Rec], node: u32) -> Occupancy {
        let clock = params::nic_clock();
        let mut o = Occupancy::default();
        for r in events.iter().filter(|r| r.node == node) {
            let TraceEvent::FwFsm { stage, class, cycles } = r.ev else { continue };
            let stage = ALL_STAGES.iter().find(|s| s.trace_name() == stage);
            let class = ALL_CLASSES.iter().find(|c| c.trace_name() == class);
            let (Some(&stage), Some(&class)) = (stage, class) else { continue };
            let cell = &mut o.cells[stage as usize][class as usize];
            cell.count += 1;
            cell.sum_us += clock.cycles_to_duration(Cycles(u64::from(cycles))).as_micros_f64();
        }
        o
    }

    fn cell(&self, stage: Stage, class: PacketClass) -> Cell {
        self.cells[stage as usize][class as usize]
    }

    /// Mean occupancy of a cell in microseconds, if it ever ran.
    pub fn mean_us(&self, stage: Stage, class: PacketClass) -> Option<f64> {
        let cell = self.cell(stage, class);
        (cell.count > 0).then(|| cell.mean_us())
    }

    /// Number of executions of a cell.
    pub fn count(&self, stage: Stage, class: PacketClass) -> usize {
        self.cell(stage, class).count
    }

    /// All populated cells with their mean and count, in (stage, class)
    /// order.
    pub fn cells(&self) -> Vec<((Stage, PacketClass), f64, usize)> {
        let keyed = ALL_STAGES.iter().zip(&self.cells).flat_map(|(&stage, row)| {
            ALL_CLASSES.iter().zip(row).map(move |(&class, &cell)| ((stage, class), cell))
        });
        keyed
            .filter(|(_, cell)| cell.count > 0)
            .map(|(k, cell)| (k, cell.mean_us(), cell.count))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use qpip_sim::time::SimTime;
    use qpip_trace::NODE_SCOPE;

    use super::*;

    /// A node-scoped stage charge, as the firmware traces it.
    fn fw(node: u32, stage: Stage, class: PacketClass, cycles: u32) -> Rec {
        let ev = TraceEvent::FwFsm { stage: stage.trace_name(), class: class.trace_name(), cycles };
        Rec { index: 0, t: SimTime::ZERO, node, conn: NODE_SCOPE, ev }
    }

    fn us(cycles: u32) -> f64 {
        params::nic_clock().cycles_to_duration(Cycles(u64::from(cycles))).as_micros_f64()
    }

    #[test]
    fn records_and_averages() {
        let events = [
            fw(0, Stage::GetWr, PacketClass::DataSend, 665),
            fw(0, Stage::GetWr, PacketClass::DataSend, 798),
        ];
        let o = Occupancy::from_trace(&events, 0);
        assert_eq!(o.mean_us(Stage::GetWr, PacketClass::DataSend), Some(5.5));
        assert_eq!(o.count(Stage::GetWr, PacketClass::DataSend), 2);
        assert_eq!(o.mean_us(Stage::GetWr, PacketClass::AckSend), None);
    }

    #[test]
    fn means_are_an_in_order_fold_bit_for_bit() {
        // irregular cycle counts whose µs values are inexact in binary,
        // so the mean depends on the order the sum is folded in
        let cycles = [1_000u32, 1, 17_733, 731, 132_999, 6, 499, 8_113, 3, 266_000];
        let mut events = Vec::new();
        let mut fold = 0.0f64;
        for (i, &c) in cycles.iter().enumerate() {
            events.push(fw(1, Stage::TcpParse, PacketClass::AckRecv, c));
            fold += us(c);
            // interleaved: another node's charge and a connection event
            events.push(fw(2, Stage::TcpParse, PacketClass::AckRecv, 7 + c));
            let ev = TraceEvent::DupAck { ack: i as u32, count: 1 };
            events.push(Rec { index: 0, t: SimTime::ZERO, node: 1, conn: 3, ev });
        }
        let mean = fold / cycles.len() as f64;
        let o = Occupancy::from_trace(&events, 1);
        assert!(o.mean_us(Stage::TcpParse, PacketClass::AckRecv) == Some(mean));
        assert_eq!(o.count(Stage::TcpParse, PacketClass::AckRecv), cycles.len());
        assert!(o.cells() == vec![((Stage::TcpParse, PacketClass::AckRecv), mean, cycles.len())]);
        // a neighbouring cell that never ran
        assert_eq!(o.mean_us(Stage::TcpParse, PacketClass::DataRecv), None);
        assert_eq!(o.count(Stage::TcpParse, PacketClass::DataRecv), 0);
        // a node with no charges folds to an empty table
        assert!(Occupancy::from_trace(&events, 5).cells().is_empty());
    }

    #[test]
    fn cells_come_out_in_stage_class_order() {
        let mut events = Vec::new();
        // two cells in three, recorded back to front
        for (i, &stage) in ALL_STAGES.iter().enumerate().rev() {
            for &class in ALL_CLASSES.iter().rev() {
                if !(i + class as usize).is_multiple_of(3) {
                    events.push(fw(0, stage, class, 1 + i as u32));
                }
            }
        }
        let o = Occupancy::from_trace(&events, 0);
        let cells = o.cells();
        assert!(cells.windows(2).all(|w| w[0].0 < w[1].0), "cells not in (stage, class) order");
        assert!(cells.iter().all(|&(_, _, n)| n > 0));
        let populated = ALL_STAGES
            .iter()
            .flat_map(|&s| ALL_CLASSES.iter().map(move |&c| (s, c)))
            .filter(|&(s, c)| o.count(s, c) > 0)
            .count();
        assert_eq!(cells.len(), populated);
        assert_eq!(populated, events.len());
        assert!(populated > 0 && populated < STAGES * CLASSES);
    }

    #[test]
    fn unknown_trace_names_are_skipped() {
        let ev = TraceEvent::FwFsm { stage: "doorbell", class: "bogus", cycles: 9 };
        let events = [Rec { index: 0, t: SimTime::ZERO, node: 0, conn: NODE_SCOPE, ev }];
        assert!(Occupancy::from_trace(&events, 0).cells().is_empty());
    }

    #[test]
    fn table_axes_list_every_variant_at_its_index() {
        for (i, &stage) in ALL_STAGES.iter().enumerate() {
            assert_eq!(stage as usize, i);
        }
        for (i, &class) in ALL_CLASSES.iter().enumerate() {
            assert_eq!(class as usize, i);
        }
        // trace names are distinct, so each maps back to its variant
        for (i, a) in ALL_STAGES.iter().enumerate() {
            assert!(ALL_STAGES[..i].iter().all(|b| b.trace_name() != a.trace_name()));
        }
        for (i, a) in ALL_CLASSES.iter().enumerate() {
            assert!(ALL_CLASSES[..i].iter().all(|b| b.trace_name() != a.trace_name()));
        }
    }

    #[test]
    fn labels_match_paper_rows() {
        assert_eq!(Stage::GetWr.label(), "Get WR");
        assert_eq!(Stage::MediaXmt.label(), "Send");
        assert_eq!(Stage::UpdateRx.label(), "Update");
    }
}
