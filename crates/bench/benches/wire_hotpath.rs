//! Internet-checksum micro-benchmark with an in-file baseline.
//!
//! Measures the wide-word checksum against the 2-byte scalar walk it
//! replaced. The scalar walk stays in this file as a correctness
//! oracle too: every size is checked for an identical result before it
//! is timed. `scripts/check.sh` floors the `checksum/1500` and
//! `checksum/9000` speedups.
//!
//! The codec and the DES kernel are guarded without a clock: the
//! codec's allocation count in `tests/steady_state_allocs.rs`, the
//! kernel's heap depth under per-ACK rescheduling in
//! `qpip_sim::kernel`'s `per_ack_rescheduling_does_not_grow_the_heap`.

use qpip_bench::microbench::{compare, Comparison};
use qpip_wire::checksum::checksum;

/// The 2-byte scalar checksum the wide-word one replaced.
fn scalar_checksum(data: &[u8]) -> u16 {
    let mut sum = 0u32;
    let mut words = data.chunks_exact(2);
    for w in &mut words {
        sum += u32::from(u16::from_be_bytes([w[0], w[1]]));
    }
    if let [b] = words.remainder() {
        sum += u32::from(u16::from_be_bytes([*b, 0]));
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

fn print_cmp(c: &Comparison) {
    println!(
        "{:<44} {:>10.1} -> {:>10.1} ns/op   {:>5.2}x",
        c.name,
        c.baseline_ns,
        c.current_ns,
        c.speedup()
    );
}

fn main() {
    for size in [64usize, 1500, 9000, 16 * 1024] {
        let data = vec![0xa5u8; size];
        assert_eq!(checksum(&data), scalar_checksum(&data));
        print_cmp(&compare(
            &format!("checksum/{size}"),
            || scalar_checksum(std::hint::black_box(&data)),
            || checksum(std::hint::black_box(&data)),
        ));
    }
}
