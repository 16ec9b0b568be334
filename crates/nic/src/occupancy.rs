//! Per-stage NIC-processor occupancy instrumentation.
//!
//! Reproduces the measurement the paper made with the LANai 9 cycle
//! counter (§4.2.2, Tables 2 & 3): every firmware stage records how long
//! the NIC processor was occupied, bucketed by what kind of packet was
//! being handled.

use qpip_sim::time::SimDuration;

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
    total_busy: SimDuration,
}

impl Occupancy {
    /// Creates an empty table.
    pub fn new() -> Self {
        Occupancy::default()
    }

    /// Records one stage execution.
    pub fn record(&mut self, stage: Stage, class: PacketClass, d: SimDuration) {
        let cell = &mut self.cells[stage as usize][class as usize];
        cell.count += 1;
        cell.sum_us += d.as_micros_f64();
        self.total_busy += d;
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

    /// Total processor busy time recorded.
    pub fn total_busy(&self) -> SimDuration {
        self.total_busy
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

    /// Clears all recorded samples.
    pub fn reset(&mut self) {
        *self = Occupancy::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_averages() {
        let mut o = Occupancy::new();
        o.record(Stage::GetWr, PacketClass::DataSend, SimDuration::from_micros(5));
        o.record(Stage::GetWr, PacketClass::DataSend, SimDuration::from_micros(6));
        assert_eq!(o.mean_us(Stage::GetWr, PacketClass::DataSend), Some(5.5));
        assert_eq!(o.count(Stage::GetWr, PacketClass::DataSend), 2);
        assert_eq!(o.mean_us(Stage::GetWr, PacketClass::AckSend), None);
        assert_eq!(o.total_busy(), SimDuration::from_micros(11));
    }

    #[test]
    fn means_are_an_in_order_fold_bit_for_bit() {
        // irregular durations whose µs values are inexact in binary, so
        // the mean depends on the order the sum is folded in
        let nanos = [7_519u64, 1, 133_333, 5_500, 999_999, 42, 3_758, 61_003, 17, 2_000_001];
        let mut o = Occupancy::new();
        let mut fold = 0.0f64;
        let mut busy = SimDuration::ZERO;
        for &n in &nanos {
            let d = SimDuration::from_nanos(n);
            o.record(Stage::TcpParse, PacketClass::AckRecv, d);
            fold += d.as_micros_f64();
            busy += d;
        }
        let mean = fold / nanos.len() as f64;
        assert!(o.mean_us(Stage::TcpParse, PacketClass::AckRecv) == Some(mean));
        assert_eq!(o.count(Stage::TcpParse, PacketClass::AckRecv), nanos.len());
        assert_eq!(o.total_busy(), busy);
        assert!(o.cells() == vec![((Stage::TcpParse, PacketClass::AckRecv), mean, nanos.len())]);
        // a neighbouring cell that never ran
        assert_eq!(o.mean_us(Stage::TcpParse, PacketClass::DataRecv), None);
        assert_eq!(o.count(Stage::TcpParse, PacketClass::DataRecv), 0);
    }

    #[test]
    fn cells_sorted_and_reset() {
        let mut o = Occupancy::new();
        // two cells in three, recorded back to front
        for (i, &stage) in ALL_STAGES.iter().enumerate().rev() {
            for &class in ALL_CLASSES.iter().rev() {
                if !(i + class as usize).is_multiple_of(3) {
                    o.record(stage, class, SimDuration::from_nanos(1 + i as u64));
                }
            }
        }
        let cells = o.cells();
        assert!(cells.windows(2).all(|w| w[0].0 < w[1].0), "cells not in (stage, class) order");
        assert!(cells.iter().all(|&(_, _, n)| n > 0));
        let populated = ALL_STAGES
            .iter()
            .flat_map(|&s| ALL_CLASSES.iter().map(move |&c| (s, c)))
            .filter(|&(s, c)| o.count(s, c) > 0)
            .count();
        assert_eq!(cells.len(), populated);
        assert!(populated > 0 && populated < STAGES * CLASSES);

        o.reset();
        assert!(o.cells().is_empty());
        assert_eq!(o.total_busy(), SimDuration::ZERO);
        for &stage in &ALL_STAGES {
            for &class in &ALL_CLASSES {
                assert_eq!(o.count(stage, class), 0);
                assert_eq!(o.mean_us(stage, class), None);
            }
        }
    }

    #[test]
    fn table_axes_list_every_variant_at_its_index() {
        for (i, &stage) in ALL_STAGES.iter().enumerate() {
            assert_eq!(stage as usize, i);
        }
        for (i, &class) in ALL_CLASSES.iter().enumerate() {
            assert_eq!(class as usize, i);
        }
    }

    #[test]
    fn labels_match_paper_rows() {
        assert_eq!(Stage::GetWr.label(), "Get WR");
        assert_eq!(Stage::MediaXmt.label(), "Send");
        assert_eq!(Stage::UpdateRx.label(), "Update");
    }
}
