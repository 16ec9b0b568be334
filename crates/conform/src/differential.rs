//! Normalization for differential trace comparison.
//!
//! The DES world and the live-socket transport run the *same* protocol
//! engine; driven with the same lockstep workload they must produce the
//! same per-connection protocol history. This module reduces a
//! flight-recorder stream to that comparable core — TCP state
//! transitions and wire segments — stripped of everything that
//! legitimately differs between simulated and wall-clock execution:
//! timestamps, timer arms/fires, RTT samples, congestion-window moves
//! and socket-level events. Pure ACKs that do not advance the
//! cumulative acknowledgment point go too: a window re-advertisement
//! lands wherever the substrate's scheduling puts it relative to
//! application sends. Every data segment, every retransmission, every
//! flag-bearing segment and every ack-advancing ACK survives, with the
//! window it advertises: both substrates run one firmware, so the
//! posted-WR window on each surviving segment must match.
//!
//! The actual differential runs live in this crate's test suite
//! (`tests/differential.rs`): they drive a two-node `QpipWorld` and a
//! two-node `XportNode` loopback pair through one workload and assert
//! the normalized streams are byte-identical.

use qpip_trace::{Rec, TraceEvent, NODE_SCOPE};

/// Reduces `events` to the normalized protocol history of every
/// connection scoped to `node`, one stream per connection in order of
/// first appearance. Each line is a stable textual rendering of one
/// state transition or wire segment.
pub fn normalize(events: &[Rec], node: u32) -> Vec<Vec<String>> {
    const ACK: u8 = 0x10;
    /// Wrapping sequence-space "strictly greater" (RFC 793 arithmetic).
    fn seq_gt(a: u32, b: u32) -> bool {
        a != b && a.wrapping_sub(b) < 1 << 31
    }

    struct Stream {
        conn: u32,
        lines: Vec<String>,
        /// Highest cumulative ack transmitted / received so far.
        max_tx_ack: Option<u32>,
        max_rx_ack: Option<u32>,
    }

    let mut streams: Vec<Stream> = Vec::new();
    for r in events {
        if r.node != node || r.conn == NODE_SCOPE {
            continue;
        }
        let s = match streams.iter_mut().position(|s| s.conn == r.conn) {
            Some(i) => &mut streams[i],
            None => {
                streams.push(Stream {
                    conn: r.conn,
                    lines: Vec::new(),
                    max_tx_ack: None,
                    max_rx_ack: None,
                });
                streams.last_mut().expect("just pushed")
            }
        };
        let line = match r.ev {
            TraceEvent::TcpState { from, to } => format!("state {from}->{to}"),
            TraceEvent::SegTx { seq, ack, len, wnd, flags, retransmit } => {
                if flags == ACK && len == 0 && !s.max_tx_ack.is_none_or(|m| seq_gt(ack, m)) {
                    continue; // window re-advertisement
                }
                if flags & ACK != 0 && s.max_tx_ack.is_none_or(|m| seq_gt(ack, m)) {
                    s.max_tx_ack = Some(ack);
                }
                format!(
                    "tx seq={seq} ack={ack} len={len} wnd={wnd} flags={flags:#04x} rtx={retransmit}"
                )
            }
            TraceEvent::SegRx { seq, ack, len, wnd, flags } => {
                if flags == ACK && len == 0 && !s.max_rx_ack.is_none_or(|m| seq_gt(ack, m)) {
                    continue; // peer window re-advertisement
                }
                if flags & ACK != 0 && s.max_rx_ack.is_none_or(|m| seq_gt(ack, m)) {
                    s.max_rx_ack = Some(ack);
                }
                format!("rx seq={seq} ack={ack} len={len} wnd={wnd} flags={flags:#04x}")
            }
            _ => continue,
        };
        s.lines.push(line);
    }
    streams.into_iter().map(|s| s.lines).collect()
}

/// Renders a normalized stream diff for failure messages: the first
/// divergent line with a few lines of context from each side.
pub fn first_divergence(a: &[String], b: &[String]) -> Option<String> {
    let n = a.len().max(b.len());
    for i in 0..n {
        let (la, lb) = (a.get(i), b.get(i));
        if la != lb {
            let ctx = |s: &[String]| {
                let lo = i.saturating_sub(2);
                s[lo..s.len().min(i + 3)].join("\n    ")
            };
            return Some(format!(
                "streams diverge at line {i}:\n  des:\n    {}\n  live:\n    {}",
                ctx(a),
                ctx(b)
            ));
        }
    }
    None
}
