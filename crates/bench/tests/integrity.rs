//! End-to-end NBD data integrity: patterned blocks written through the
//! one NBD session ([`Session`]) into the server's content-bearing disk,
//! read back and compared byte for byte, on the DES and on live
//! loopback sockets, direct and under a seeded fault plan. Every test
//! also checks the server's counts: each request served once and every
//! byte accounted for.

use qpip::world::QpipWorld;
use qpip::NicConfig;
use qpip_bench::workloads::nbd::Session;
use qpip_bench::workloads::verbs::End::{A, B};
use qpip_bench::workloads::verbs::{DesPair, LivePair, VerbsPair};
use qpip_fabric::{FabricConfig, FaultPlan};

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

/// Under this seed each end drops one of its first four datagrams,
/// holds one of its first 13 and drops at least three of its first
/// 100, and each end sends over 100: whatever the timing, the session
/// loses and reorders datagrams, and the engines' retransmissions
/// repair them.
#[test]
fn nbd_blocks_survive_an_impaired_wire() {
    let plan = FaultPlan::Impair { drop_permille: 30, hold_permille: 30, seed: 45 };
    let mut p = LivePair::impaired(plan);
    round_trip(&mut p, 64 * 1024, &[0, 1, 2, 3, 4, 5, 6, 7]);
    let [a, b] = p.nodes.each_ref().map(|n| n.stats());
    let (dropped, held) =
        (a.injected_drops + b.injected_drops, a.injected_holds + b.injected_holds);
    assert!(a.datagrams_tx > 100 && b.datagrams_tx > 100, "{a:?}\n{b:?}");
    assert!(dropped > 0 && held > 0, "dropped {dropped}, held {held}");
    let retransmissions = p.retransmissions(A) + p.retransmissions(B);
    assert!(retransmissions > 0, "loss recovery never ran: dropped {dropped}");
}
