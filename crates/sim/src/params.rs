//! Calibration constants for the whole QPIP reproduction.
//!
//! Every number here is either taken directly from the paper (§4.1–§4.2:
//! hardware inventory, Tables 1–3) or from era-appropriate published
//! measurements of the same component class (PCI burst rates, Linux 2.4
//! per-packet costs in the Kay & Pasquale decomposition the paper cites).
//! All downstream crates pull their costs from this module so that a
//! single model produces *all* figures — nothing is tuned per-figure.

use crate::time::{Clock, SimDuration};

// ---------------------------------------------------------------------
// Host platform: Dell PowerEdge 6350 (§4.2)
// ---------------------------------------------------------------------

/// Host CPU clock: 550 MHz Pentium III (§4.2).
pub const HOST_CLOCK_MHZ: u64 = 550;

/// Number of host processors (4 × P-III, §4.2).
pub const HOST_NUM_CPUS: usize = 4;

/// The host CPU clock as a [`Clock`].
pub fn host_clock() -> Clock {
    Clock::from_mhz(HOST_CLOCK_MHZ)
}

/// I/O bus: 64-bit / 33 MHz PCI (§4.2) ⇒ 266 MB/s burst bandwidth,
/// shared by all devices and both NIC DMA engines.
pub const PCI_BYTES_PER_SEC: u64 = 266_000_000;

/// Sustained DMA *read* bandwidth (device reading host memory, the
/// transmit-side data fetch). The PowerEdge 6350's Intel 450NX chipset
/// was notorious for poor PCI read performance — sustained device reads
/// in the 70–90 MB/s range despite the 266 MB/s burst rate — and this,
/// not the link, is what bounds QPIP's native-MTU throughput (§4.2.1's
/// 75.6 MB/s).
pub const PCI_DMA_READ_BYTES_PER_SEC: u64 = 80_000_000;

/// Sustained DMA *write* bandwidth (device writing host memory, the
/// receive-side data placement); chipset writes post and combine, so
/// they run much closer to burst.
pub const PCI_DMA_WRITE_BYTES_PER_SEC: u64 = 170_000_000;

/// Latency to start a PCI DMA transaction (arbitration + address phase),
/// charged once per transfer in addition to serialization time.
pub const PCI_DMA_SETUP_NS: u64 = 700;

/// A single uncached programmed-I/O write across PCI (doorbell ring),
/// in *host* cycles. ~0.4 µs on this class of machine.
pub const HOST_PIO_WRITE_CYCLES: u64 = 220;

/// Host memory-copy cost per byte, in host cycles (≈ 440 MB/s effective
/// copy bandwidth on a 550 MHz P-III — era STREAM-class number).
pub const HOST_COPY_CYCLES_PER_BYTE_X100: u64 = 125; // 1.25 cycles/byte

/// Host software internet-checksum cost per byte, in host cycles × 100.
pub const HOST_CSUM_CYCLES_PER_BYTE_X100: u64 = 80; // 0.80 cycles/byte

// ---------------------------------------------------------------------
// Host OS cost model (Linux 2.4 class). Calibrated so the send+receive
// path for a 1-byte TCP message sums to Table 1's 16 445 cycles
// (= 29.9 µs at 550 MHz), measured the way the paper measured it:
// through the loopback interface, excluding any device driver cost.
// ---------------------------------------------------------------------

/// System-call entry + exit.
pub const HOST_SYSCALL_CYCLES: u64 = 900;

/// Socket layer per call: fd lookup, locking, sockbuf bookkeeping.
pub const HOST_SOCKET_LAYER_CYCLES: u64 = 1_400;

/// Fixed cost of `copy_from_user` (plus per-byte above).
pub const HOST_COPY_FROM_USER_BASE_CYCLES: u64 = 400;

/// Fixed cost of `copy_to_user` (plus per-byte above).
pub const HOST_COPY_TO_USER_BASE_CYCLES: u64 = 500;

/// TCP output processing (segment construction, TCB update).
pub const HOST_TCP_OUTPUT_CYCLES: u64 = 2_600;

/// IP output processing (route, header).
pub const HOST_IP_OUTPUT_CYCLES: u64 = 700;

/// Softirq / protocol dispatch on the receive path.
pub const HOST_SOFTIRQ_CYCLES: u64 = 1_400;

/// IP input processing.
pub const HOST_IP_INPUT_CYCLES: u64 = 700;

/// TCP input processing (header prediction fast path).
pub const HOST_TCP_INPUT_CYCLES: u64 = 2_600;

/// Waking the blocked receiver (scheduler activation).
pub const HOST_WAKEUP_CYCLES: u64 = 2_000;

/// Dequeueing data from the socket receive buffer.
pub const HOST_SOCK_DEQUEUE_CYCLES: u64 = 945;

/// Hardware interrupt service (entry, handler, exit). Charged per
/// interrupt on real-NIC paths; the loopback path (Table 1) has none.
pub const HOST_INTERRUPT_CYCLES: u64 = 3_300;

/// UDP output processing (no TCB, no congestion state).
pub const HOST_UDP_OUTPUT_CYCLES: u64 = 1_300;

/// UDP input processing.
pub const HOST_UDP_INPUT_CYCLES: u64 = 1_200;

/// Per-packet device-driver cost on real-NIC paths (descriptor ring
/// maintenance, buffer management) — excluded from Table 1 by design.
pub const HOST_DRIVER_TX_CYCLES: u64 = 1_200;
/// Per-packet receive-side driver cost.
pub const HOST_DRIVER_RX_CYCLES: u64 = 1_500;

/// Sum of the host-stack cycle costs on the transmit path for a 1-byte
/// message (no driver, per Table 1 methodology).
pub const fn host_tx_path_cycles_1b() -> u64 {
    HOST_SYSCALL_CYCLES
        + HOST_SOCKET_LAYER_CYCLES
        + HOST_COPY_FROM_USER_BASE_CYCLES
        + HOST_TCP_OUTPUT_CYCLES
        + HOST_IP_OUTPUT_CYCLES
}

/// Sum of the host-stack cycle costs on the receive path for a 1-byte
/// message (no driver, per Table 1 methodology).
pub const fn host_rx_path_cycles_1b() -> u64 {
    HOST_SOFTIRQ_CYCLES
        + HOST_IP_INPUT_CYCLES
        + HOST_TCP_INPUT_CYCLES
        + HOST_WAKEUP_CYCLES
        + HOST_SOCK_DEQUEUE_CYCLES
        + HOST_SYSCALL_CYCLES
        + HOST_SOCKET_LAYER_CYCLES
        + HOST_COPY_TO_USER_BASE_CYCLES
}

// ---------------------------------------------------------------------
// QPIP verbs host-side cost model. Calibrated so post_send + post_recv
// + poll for a 1-byte message sums to Table 1's 1 386 cycles (2.5 µs).
// ---------------------------------------------------------------------

/// Building a work request and appending it to the in-memory queue.
pub const QPIP_BUILD_WR_CYCLES: u64 = 280;

/// Ringing the doorbell: one uncached PIO write ([`HOST_PIO_WRITE_CYCLES`])
/// plus queue-state update.
pub const QPIP_DOORBELL_CYCLES: u64 = HOST_PIO_WRITE_CYCLES + 80;

/// One completion-queue poll that finds an entry (cache-resident read +
/// entry decode).
pub const QPIP_POLL_HIT_CYCLES: u64 = 226;

/// One completion-queue poll that finds nothing (spin iteration in the
/// processor cache — the cache-coherent polling the paper highlights).
pub const QPIP_POLL_MISS_CYCLES: u64 = 40;

/// Host cycles for a complete post_send (build + doorbell).
pub const fn qpip_post_cycles() -> u64 {
    QPIP_BUILD_WR_CYCLES + QPIP_DOORBELL_CYCLES
}

// ---------------------------------------------------------------------
// NIC: Myrinet LANai 9 (§4.1)
// ---------------------------------------------------------------------

/// NIC processor clock: 133 MHz RISC (§4.1).
pub const NIC_CLOCK_MHZ: u64 = 133;

/// The NIC clock as a [`Clock`].
pub fn nic_clock() -> Clock {
    Clock::from_mhz(NIC_CLOCK_MHZ)
}

/// On-board SRAM: 2 MB (§4.1).
pub const NIC_SRAM_BYTES: usize = 2 * 1024 * 1024;

/// Software multiply on the LANai (no hardware multiply, §4.2.2):
/// shift-and-add loop, ~155 cycles per 32-bit multiply.
pub const NIC_SOFT_MUL_CYCLES: u64 = 155;

/// Hardware multiply cost used by the `--hw-multiply` ablation.
pub const NIC_HW_MUL_CYCLES: u64 = 5;

/// The firmware's delayed-ACK timeout. Its BSD-derived TCP acknowledges
/// every second segment, or this long after an unacknowledged one: a
/// SAN-scale timeout, so in request-response traffic the ACK rides on
/// the answer. This is what Tables 2/3's stage sums imply for the
/// 1500-byte-MTU throughput of Figure 4.
pub const NIC_DELAYED_ACK: SimDuration = SimDuration::from_micros(300);

/// Firmware (software) internet checksum on the NIC, cycles per byte.
/// 5 cycles/byte at 133 MHz over a 16 KB segment ≈ 616 µs, which is what
/// limits the firmware-checksum configuration to ≈ 26 MB/s (§4.2.1).
pub const NIC_FW_CSUM_CYCLES_PER_BYTE: u64 = 5;

// Per-stage firmware base costs, in NIC cycles. Chosen once so that the
// single-segment TCP stage costs land on Tables 2 & 3 (µs × 133); the
// same constants then produce Figures 3 and 4.

/// Doorbell FSM: pop FIFO, update QP state table (Table 2/3: 1 µs).
pub const NIC_STAGE_DOORBELL_CYCLES: u64 = 133;
/// Scheduler: scan/select next active endpoint (Table 2: 2 µs).
pub const NIC_STAGE_SCHEDULE_CYCLES: u64 = 266;
/// Fetch a work request from host memory by DMA (Table 2/3: 5.5 µs,
/// dominated by PCI round-trip latency).
pub const NIC_STAGE_GET_WR_CYCLES: u64 = 731;
/// Start/complete the data DMA for a small message (Table 2/3: 4.5 µs
/// fixed part; bulk data serialization is charged to the PCI pipe).
pub const NIC_STAGE_GET_DATA_CYCLES: u64 = 598;
/// Build a TCP header incl. options (Table 2: 5 µs).
pub const NIC_STAGE_BUILD_TCP_CYCLES: u64 = 665;
/// Build a UDP header (smaller: no options, no sequence state).
pub const NIC_STAGE_BUILD_UDP_CYCLES: u64 = 399;
/// Build an IPv6 header (Table 2: 1 µs).
pub const NIC_STAGE_BUILD_IP_CYCLES: u64 = 133;
/// Hand the packet to the network transmit engine (Table 2: 1 µs).
pub const NIC_STAGE_MEDIA_XMT_CYCLES: u64 = 133;
/// Post-send status update to WR/QP (Table 2: 1.5 µs).
pub const NIC_STAGE_UPDATE_TX_CYCLES: u64 = 200;
/// Receive-side media engine service (Table 3: 1 µs).
pub const NIC_STAGE_MEDIA_RCV_CYCLES: u64 = 133;
/// Parse an IPv6 header (Table 3: 1.5 µs).
pub const NIC_STAGE_IP_PARSE_CYCLES: u64 = 200;
/// Parse a TCP header, fast path, excluding RTT-estimator math
/// (Table 3: 7 µs for data; ACKs add the multiplies below).
pub const NIC_STAGE_TCP_PARSE_CYCLES: u64 = 931;
/// Parse a UDP header.
pub const NIC_STAGE_UDP_PARSE_CYCLES: u64 = 399;
/// Number of 32-bit multiplies in the RTT estimator / RTO update run on
/// each ACK (§4.2.2: "a series of multiply operations"). 6 × 155 ≈ 930
/// cycles ≈ 7 µs, lifting ACK TCP parse to Table 3's 14 µs.
pub const NIC_RTT_UPDATE_MULS: u64 = 6;
/// Deliver data to the host buffer: DMA start fixed part (Table 3: 4.5 µs).
pub const NIC_STAGE_PUT_DATA_CYCLES: u64 = 598;
/// Receive-side WR/CQ update for data (Table 3: 1.5 µs).
pub const NIC_STAGE_UPDATE_RX_CYCLES: u64 = 200;
/// Receive-side update for an ACK: retire the send WR, write the CQ
/// entry, roll the TCB forward (Table 3: 9 µs).
pub const NIC_STAGE_UPDATE_ACK_CYCLES: u64 = 1_197;
/// Timer check / retransmit scan folded into the scheduler pass.
pub const NIC_STAGE_TIMER_SCAN_CYCLES: u64 = 90;

// ---------------------------------------------------------------------
// Fabrics
// ---------------------------------------------------------------------

/// Myrinet link rate: 2.0 Gb/s full duplex (§4.1) = 250 MB/s per
/// direction.
pub const MYRINET_BYTES_PER_SEC: u64 = 250_000_000;
/// Myrinet crossbar cut-through latency per switch hop.
pub const MYRINET_SWITCH_LATENCY_NS: u64 = 300;
/// Cable propagation per hop.
pub const MYRINET_CABLE_LATENCY_NS: u64 = 100;
/// Myrinet link-level header bytes (route bytes + type + CRC).
pub const MYRINET_LINK_OVERHEAD_BYTES: usize = 16;

/// Gigabit Ethernet link rate = 125 MB/s.
pub const GIGE_BYTES_PER_SEC: u64 = 125_000_000;
/// Store-and-forward switch adds its own forwarding latency per hop…
pub const GIGE_SWITCH_LATENCY_NS: u64 = 2_000;
/// …plus full re-serialization of the frame (modeled by the fabric).
pub const GIGE_CABLE_LATENCY_NS: u64 = 100;
/// Ethernet framing overhead: preamble(8) + header(14) + FCS(4) + IFG(12).
pub const GIGE_FRAME_OVERHEAD_BYTES: usize = 38;
/// Ethernet MTU (§4.2.1).
pub const GIGE_MTU: usize = 1_500;

/// Jumbo MTU used for the IP-over-Myrinet (GM) baseline (§4.2.1).
pub const GM_MTU: usize = 9_000;
/// Native QPIP MTU (§4.2.1: "16KB in the case of QPIP").
pub const QPIP_NATIVE_MTU: usize = 16 * 1024;

/// Per-packet firmware cost inside the GM NIC on the IP-over-Myrinet
/// baseline path: GM's general-purpose send queue handling, event
/// posting and registered-buffer bookkeeping per IP frame.
pub const GM_NIC_TX_CYCLES: u64 = 900;
/// GM receive-side firmware cost per packet.
pub const GM_NIC_RX_CYCLES: u64 = 1_100;

/// Interrupt coalescing on the GigE adapter: interrupts are charged once
/// per this many back-to-back receive packets in a bulk stream (the
/// Pro/1000's absolute-delay moderation; ping-pong traffic still takes
/// one interrupt per packet because the timer expires first).
pub const GIGE_INTR_COALESCE_PKTS: u64 = 4;

// ---------------------------------------------------------------------
// Benchmarks (§4.2)
// ---------------------------------------------------------------------

/// ttcp transfer size: 10 MB (§4.2.1).
pub const TTCP_TRANSFER_BYTES: u64 = 10 * 1024 * 1024;
/// ttcp write size: 16 KB chunks (§4.2.1).
pub const TTCP_CHUNK_BYTES: usize = 16 * 1024;
/// NBD benchmark: 409 MB sequential read and write (§4.2.3).
pub const NBD_TRANSFER_BYTES: u64 = 409 * 1024 * 1024;

// ---------------------------------------------------------------------
// NBD storage model (§4.2.3)
// ---------------------------------------------------------------------

/// Client-side filesystem + block-layer cost per byte (× 100): ext2
/// page-cache copy, buffer management and block submission. Sized so
/// filesystem processing accounts for the ≥ 26 % CPU floor the paper
/// reports during the NBD runs.
pub const NBD_FS_CYCLES_PER_BYTE_X100: u64 = 400;

/// Client-side fixed cost per block request (ext2 metadata, block-layer
/// queueing, request construction).
pub const NBD_FS_PER_REQUEST_CYCLES: u64 = 8_000;

/// Server-side per-request handling (file offset lookup, page-cache
/// insertion/lookup).
pub const NBD_SERVER_PER_REQUEST_CYCLES: u64 = 6_000;

/// Server writeback rate to the backing store. Writes land in the
/// server's page cache and flush concurrently; the benchmark's final
/// `sync` waits for the tail (the 409 MB file fits the server's 1 GB
/// RAM, so reads after the write phase come from the cache).
pub const NBD_DISK_BYTES_PER_SEC: u64 = 100_000_000;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Cycles;

    #[test]
    fn host_path_cycles_sum_to_table1() {
        // Table 1: host-based IP send+receive = 16 445 cycles = 29.9 µs.
        assert_eq!(host_tx_path_cycles_1b() + host_rx_path_cycles_1b(), 16_445);
        let d = host_clock()
            .cycles_to_duration(Cycles(host_tx_path_cycles_1b() + host_rx_path_cycles_1b()));
        assert!((d.as_micros_f64() - 29.9).abs() < 0.01);
    }

    #[test]
    fn qpip_verbs_cycles_sum_to_table1() {
        // Table 1: QPIP = 1 386 cycles = 2.5 µs. The measured path is
        // post_send + post_recv + the completing poll.
        let total = qpip_post_cycles() * 2 + QPIP_POLL_HIT_CYCLES;
        assert_eq!(total, 1_386);
        let d = host_clock().cycles_to_duration(Cycles(total));
        assert!((d.as_micros_f64() - 2.52).abs() < 0.01);
    }

    #[test]
    fn nic_stage_costs_match_table2_tx_data() {
        // Table 2, data send column, in µs at 133 MHz.
        let us = |c: u64| c as f64 / NIC_CLOCK_MHZ as f64;
        assert!((us(NIC_STAGE_DOORBELL_CYCLES) - 1.0).abs() < 0.01);
        assert!((us(NIC_STAGE_SCHEDULE_CYCLES) - 2.0).abs() < 0.01);
        assert!((us(NIC_STAGE_GET_WR_CYCLES) - 5.5).abs() < 0.01);
        assert!((us(NIC_STAGE_GET_DATA_CYCLES) - 4.5).abs() < 0.01);
        assert!((us(NIC_STAGE_BUILD_TCP_CYCLES) - 5.0).abs() < 0.01);
        assert!((us(NIC_STAGE_BUILD_IP_CYCLES) - 1.0).abs() < 0.01);
        assert!((us(NIC_STAGE_MEDIA_XMT_CYCLES) - 1.0).abs() < 0.01);
        assert!((us(NIC_STAGE_UPDATE_TX_CYCLES) - 1.5).abs() < 0.01);
    }

    #[test]
    fn nic_stage_costs_match_table3_rx() {
        let us = |c: u64| c as f64 / NIC_CLOCK_MHZ as f64;
        assert!((us(NIC_STAGE_MEDIA_RCV_CYCLES) - 1.0).abs() < 0.01);
        assert!((us(NIC_STAGE_IP_PARSE_CYCLES) - 1.5).abs() < 0.01);
        assert!((us(NIC_STAGE_TCP_PARSE_CYCLES) - 7.0).abs() < 0.01);
        // ACK parse = base + RTT-estimator soft multiplies ≈ 14 µs.
        let ack = NIC_STAGE_TCP_PARSE_CYCLES + NIC_RTT_UPDATE_MULS * NIC_SOFT_MUL_CYCLES;
        assert!((us(ack) - 14.0).abs() < 0.05, "{}", us(ack));
        assert!((us(NIC_STAGE_PUT_DATA_CYCLES) - 4.5).abs() < 0.01);
        assert!((us(NIC_STAGE_UPDATE_RX_CYCLES) - 1.5).abs() < 0.01);
        assert!((us(NIC_STAGE_UPDATE_ACK_CYCLES) - 9.0).abs() < 0.01);
    }

    #[test]
    fn firmware_checksum_limits_throughput_near_paper() {
        // 16 KB at 5 cycles/byte on 133 MHz ≈ 616 µs per segment ⇒ the
        // firmware-checksum configuration lands in the mid-20s MB/s
        // (§4.2.1 reports 26.4 MB/s).
        let seg = 16_384u64;
        let csum_s = (seg * NIC_FW_CSUM_CYCLES_PER_BYTE) as f64 / (NIC_CLOCK_MHZ as f64 * 1e6);
        let mbps = seg as f64 / csum_s / 1e6;
        assert!((20.0..30.0).contains(&mbps), "{mbps}");
    }

    #[test]
    fn pci_is_266_mbytes_per_sec() {
        // 64-bit × 33 MHz
        assert_eq!(PCI_BYTES_PER_SEC, 8 * 33_250_000 * 1000 / 1000);
    }
}
