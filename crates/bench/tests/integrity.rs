//! End-to-end NBD data integrity: patterned blocks written through the
//! one NBD session ([`Session`]) into the server's content-bearing disk,
//! read back and compared byte for byte, on the DES and on live
//! loopback sockets, direct and through the impairment proxy. Every
//! test also checks the server's counts: each request served once and
//! every byte accounted for.

use std::time::Duration;

use qpip::world::QpipWorld;
use qpip::NicConfig;
use qpip_bench::workloads::nbd::Session;
use qpip_bench::workloads::verbs::{DesPair, LivePair, VerbsPair};
use qpip_fabric::FabricConfig;
use qpip_xport::ImpairConfig;

fn pattern(block: u64, len: usize) -> Vec<u8> {
    (0..len).map(|i| ((block as usize).wrapping_mul(131) ^ i.wrapping_mul(7)) as u8).collect()
}

/// Two DES nodes on Myrinet/GM with 9000-byte segments.
fn des() -> DesPair {
    let nic = NicConfig { mtu: 9000, ..NicConfig::paper_default() };
    DesPair::new(QpipWorld::new(FabricConfig::myrinet_gm()), nic)
}

/// Writes blocks `0..order.len()` of `len` bytes each, reads them back
/// in `order`, disconnects, and checks the bytes and the server's
/// counts.
fn round_trip<P: VerbsPair>(p: &mut P, len: usize, order: &[u64]) {
    let mut s = Session::open(p);
    let blocks = order.len() as u64;
    for b in 0..blocks {
        s.write_block(p, b * len as u64, &pattern(b, len));
    }
    for &b in order {
        let got = s.read_block(p, b * len as u64, len);
        assert!(got == pattern(b, len), "block {b} corrupted in transit");
    }
    s.disconnect(p);
    let bytes = blocks * len as u64;
    assert_eq!((s.writes, s.reads), (blocks, blocks));
    assert_eq!((s.disk.bytes_written(), s.disk.bytes_read()), (bytes, bytes));
}

#[test]
fn written_blocks_read_back_identically() {
    round_trip(&mut des(), 32 * 1024, &[3, 0, 5, 1, 4, 2]);
}

#[test]
fn rewrite_overwrites_previous_content() {
    let mut p = des();
    let mut s = Session::open(&mut p);
    let len = 8 * 1024;
    s.write_block(&mut p, 0, &pattern(0, len));
    // overwrite block 0 with the block-7 pattern through the protocol
    s.write_block(&mut p, 0, &pattern(7, len));
    assert!(s.read_block(&mut p, 0, len) == pattern(7, len));
    assert_eq!((s.writes, s.reads), (2, 1));
    assert_eq!((s.disk.bytes_written(), s.disk.bytes_read()), (2 * len as u64, len as u64));
}

#[test]
fn unwritten_blocks_read_as_zeros() {
    let mut p = des();
    let mut s = Session::open(&mut p);
    assert!(s.read_block(&mut p, 9 * 4096, 4096) == vec![0u8; 4096]);
    assert_eq!((s.writes, s.reads), (0, 1));
    assert_eq!((s.disk.bytes_written(), s.disk.bytes_read()), (0, 4096));
}

#[test]
fn nbd_round_trips_over_clean_loopback() {
    round_trip(&mut LivePair::direct(), 64 * 1024, &[0, 1, 2, 3, 4, 5, 6, 7]);
}

#[test]
fn nbd_blocks_survive_an_impaired_wire() {
    let mut p = LivePair::impaired(ImpairConfig {
        seed: 7,
        drop_per_mille: 10, // 1 % loss
        reorder_per_mille: 20,
        hold_at_most: Duration::from_millis(10),
    });
    round_trip(&mut p, 64 * 1024, &[0, 1, 2, 3, 4, 5, 6, 7]);
}
