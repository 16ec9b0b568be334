//! Jumbo segments over a small wire MTU: the firmware's IPv6
//! end-to-end fragmentation path (§4.1), including loss of individual
//! fragments.

use qpip_nic::{CompletionKind, NicConfig, RecvWr, SendWr};

mod common;
use common::Pair;

/// A pair on a `wire_mtu` wire carrying jumbo segments as fragments,
/// connected, with eight receive WRs posted on `b`.
fn established(wire_mtu: usize) -> Pair {
    let mut p = Pair::new(NicConfig::fragmented(wire_mtu));
    for i in 0..8 {
        p.post_recv(false, RecvWr { wr_id: i, capacity: 16 * 1024 });
    }
    p.connect();
    assert!(p.comps_a.iter().any(|c| c.kind == CompletionKind::ConnectionEstablished));
    p
}

#[test]
fn jumbo_message_crosses_small_mtu_wire_in_fragments() {
    let mut p = established(1500);
    let payload: Vec<u8> = (0..12_000).map(|i| (i % 253) as u8).collect();
    p.send(true, SendWr { wr_id: 1, payload: payload.clone(), dst: None });
    let got = p.received();
    assert_eq!(got.len(), 1, "one message, one completion");
    assert_eq!(got[0], &payload, "reassembled exactly");
    // the wire only ever saw MTU-sized packets
    assert!(p.wire_sizes.iter().all(|&s| s <= 1500), "{:?}", p.wire_sizes);
    // and the 12 KB segment needed several near-MTU fragments
    // (40 IP + 8 fragment header + 1448 payload = 1496 bytes each)
    assert!(p.wire_sizes.iter().filter(|&&s| s >= 1400).count() >= 7);
}

#[test]
fn fragment_loss_is_recovered_by_tcp_retransmission() {
    let mut p = established(1500);
    // drop one mid-segment fragment of the upcoming send
    p.drop_indices = vec![p.wire_sizes.len() + 3];
    let payload = vec![0xabu8; 12_000];
    p.send(true, SendWr { wr_id: 9, payload: payload.clone(), dst: None });
    assert!(p.received().is_empty(), "incomplete segment: nothing delivered");
    // the RTO retransmits the whole segment with a fresh fragment id
    // ("performance could suffer if subsequent IP fragments are lost")
    let mut rounds = 0;
    while p.received().is_empty() && rounds < 5 {
        rounds += 1;
        assert!(p.fire_timers(), "timers pending");
    }
    assert_eq!(p.received().len(), 1);
    assert_eq!(p.received()[0], &payload);
    assert!(p.a.retransmissions() >= 1);
}

#[test]
fn small_messages_on_fragmented_config_go_unfragmented() {
    let mut p = established(1500);
    let before = p.wire_sizes.len();
    p.send(true, SendWr { wr_id: 2, payload: vec![1; 400], dst: None });
    assert_eq!(p.received().len(), 1);
    // the data segment itself fit the MTU: exactly one data packet plus
    // its ACK-path traffic, no fragments
    assert!(p.wire_sizes[before..].iter().all(|&s| s <= 1500));
}

#[test]
fn many_jumbo_messages_stream_reliably() {
    let mut p = established(1500);
    let mut expected = Vec::new();
    for i in 0..6u64 {
        let payload = vec![i as u8; 10_000];
        expected.push(payload.clone());
        p.send(true, SendWr { wr_id: i, payload, dst: None });
        p.fire_timers();
    }
    let got = p.received();
    assert_eq!(got.len(), 6);
    for (g, e) in got.iter().zip(&expected) {
        assert_eq!(g, &e);
    }
}
