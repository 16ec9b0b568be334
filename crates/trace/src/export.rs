//! Trace exports: JSONL (machine), one-line-per-event dump (human),
//! and a tcptrace-style per-connection summary.
//!
//! The JSONL schema is one flat object per line with a fixed key
//! order, so identical event sequences export to identical bytes —
//! the determinism the same-seed trace tests assert. The parser here
//! reads that schema back (hand-rolled; the workspace has no serde),
//! which is what the `qpip-trace` CLI runs on captured files.

use std::collections::HashMap;

use qpip_sim::time::{SimDuration, SimTime};

use crate::{flags, Rec, TraceEvent, NODE_SCOPE};

/// Renders events as JSONL, one flat object per line, in the order
/// given.
pub fn to_jsonl(events: &[Rec]) -> String {
    let mut out = String::new();
    for r in events {
        out.push_str(&format!("{{\"t_ps\": {}, \"node\": {}", r.t.as_picos(), r.node));
        if r.conn != NODE_SCOPE {
            out.push_str(&format!(", \"conn\": {}", r.conn));
        }
        match r.ev {
            TraceEvent::TcpState { from, to } => {
                out.push_str(&format!(
                    ", \"ev\": \"tcp_state\", \"from\": \"{from}\", \"to\": \"{to}\""
                ));
            }
            TraceEvent::SegTx { seq, ack, len, wnd, flags, retransmit } => {
                out.push_str(&format!(
                    ", \"ev\": \"seg_tx\", \"seq\": {seq}, \"ack\": {ack}, \"len\": {len}, \
                     \"wnd\": {wnd}, \"flags\": {flags}, \"retx\": {}",
                    u8::from(retransmit)
                ));
            }
            TraceEvent::SegRx { seq, ack, len, wnd, flags } => {
                out.push_str(&format!(
                    ", \"ev\": \"seg_rx\", \"seq\": {seq}, \"ack\": {ack}, \"len\": {len}, \
                     \"wnd\": {wnd}, \"flags\": {flags}"
                ));
            }
            TraceEvent::Retransmit { seq, fast } => {
                out.push_str(&format!(
                    ", \"ev\": \"retransmit\", \"seq\": {seq}, \"fast\": {}",
                    u8::from(fast)
                ));
            }
            TraceEvent::DupAck { ack, count } => {
                out.push_str(&format!(", \"ev\": \"dup_ack\", \"ack\": {ack}, \"count\": {count}"));
            }
            TraceEvent::TimerArm { deadline } => {
                out.push_str(&format!(
                    ", \"ev\": \"timer_arm\", \"deadline_ps\": {}",
                    deadline.as_picos()
                ));
            }
            TraceEvent::TimerCancel => out.push_str(", \"ev\": \"timer_cancel\""),
            TraceEvent::TimerFire => out.push_str(", \"ev\": \"timer_fire\""),
            TraceEvent::CwndChange { cwnd, ssthresh, reason } => {
                out.push_str(&format!(
                    ", \"ev\": \"cwnd\", \"cwnd\": {cwnd}, \"ssthresh\": {ssthresh}, \
                     \"reason\": \"{reason}\""
                ));
            }
            TraceEvent::RttSample { rtt_us, srtt_us, rto_us } => {
                out.push_str(&format!(
                    ", \"ev\": \"rtt\", \"rtt_us\": {rtt_us}, \"srtt_us\": {srtt_us}, \
                     \"rto_us\": {rto_us}"
                ));
            }
            TraceEvent::ZeroWindow => out.push_str(", \"ev\": \"zero_window\""),
            TraceEvent::WindowRefresh { wnd } => {
                out.push_str(&format!(", \"ev\": \"window_refresh\", \"wnd\": {wnd}"));
            }
            TraceEvent::FwFsm { stage, class, cycles } => {
                out.push_str(&format!(
                    ", \"ev\": \"fw_fsm\", \"stage\": \"{stage}\", \"class\": \"{class}\", \
                     \"cycles\": {cycles}"
                ));
            }
            TraceEvent::FabricDrop { reason, len } => {
                out.push_str(&format!(
                    ", \"ev\": \"fabric_drop\", \"reason\": \"{reason}\", \"len\": {len}"
                ));
            }
            TraceEvent::Sock { op, bytes } => {
                out.push_str(&format!(", \"ev\": \"sock\", \"op\": \"{op}\", \"bytes\": {bytes}"));
            }
        }
        out.push_str("}\n");
    }
    out
}

#[derive(Debug, Clone, PartialEq)]
enum Value {
    Num(u64),
    Str(String),
}

/// Parses one flat JSON object (`{"k": 1, "k2": "v"}`) into pairs.
/// Returns `None` on malformed input — the CLI skips such lines.
fn parse_flat_object(line: &str) -> Option<Vec<(String, Value)>> {
    let line = line.trim();
    let body = line.strip_prefix('{')?.strip_suffix('}')?;
    let mut pairs = Vec::new();
    let mut rest = body.trim();
    while !rest.is_empty() {
        rest = rest.strip_prefix('"')?;
        let kend = rest.find('"')?;
        let key = rest[..kend].to_string();
        rest = rest[kend + 1..].trim_start().strip_prefix(':')?.trim_start();
        if let Some(s) = rest.strip_prefix('"') {
            let vend = s.find('"')?;
            pairs.push((key, Value::Str(s[..vend].to_string())));
            rest = s[vend + 1..].trim_start();
        } else {
            let vend = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
            if vend == 0 {
                return None;
            }
            pairs.push((key, Value::Num(rest[..vend].parse().ok()?)));
            rest = rest[vend..].trim_start();
        }
        rest = match rest.strip_prefix(',') {
            Some(r) => r.trim_start(),
            None if rest.is_empty() => rest,
            None => return None,
        };
    }
    Some(pairs)
}

/// Interns a parsed string so events can carry `&'static str` like the
/// live tracer does. The CLI is short-lived; the leak is bounded by
/// the vocabulary of the file.
fn intern(cache: &mut HashMap<String, &'static str>, s: &str) -> &'static str {
    if let Some(&v) = cache.get(s) {
        return v;
    }
    let v: &'static str = Box::leak(s.to_string().into_boxed_str());
    cache.insert(s.to_string(), v);
    v
}

/// Parses a JSONL export back into records. Lines that are blank or
/// malformed are skipped; `index` is the line's position among parsed
/// records.
pub fn parse_jsonl(text: &str) -> Vec<Rec> {
    let mut cache: HashMap<String, &'static str> = HashMap::new();
    let mut out = Vec::new();
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        let Some(pairs) = parse_flat_object(line) else { continue };
        let num = |k: &str| {
            pairs.iter().find(|(n, _)| n == k).and_then(|(_, v)| match v {
                Value::Num(n) => Some(*n),
                Value::Str(_) => None,
            })
        };
        let mut text_field = |k: &str| {
            pairs.iter().find(|(n, _)| n == k).and_then(|(_, v)| match v {
                Value::Str(s) => Some(intern(&mut cache, s)),
                Value::Num(_) => None,
            })
        };
        let Some(ev_name) = pairs.iter().find(|(n, _)| n == "ev").and_then(|(_, v)| match v {
            Value::Str(s) => Some(s.clone()),
            Value::Num(_) => None,
        }) else {
            continue;
        };
        let ev = match ev_name.as_str() {
            "tcp_state" => match (text_field("from"), text_field("to")) {
                (Some(from), Some(to)) => TraceEvent::TcpState { from, to },
                _ => continue,
            },
            "seg_tx" => TraceEvent::SegTx {
                seq: num("seq").unwrap_or(0) as u32,
                ack: num("ack").unwrap_or(0) as u32,
                len: num("len").unwrap_or(0) as u32,
                wnd: num("wnd").unwrap_or(0) as u32,
                flags: num("flags").unwrap_or(0) as u8,
                retransmit: num("retx").unwrap_or(0) != 0,
            },
            "seg_rx" => TraceEvent::SegRx {
                seq: num("seq").unwrap_or(0) as u32,
                ack: num("ack").unwrap_or(0) as u32,
                len: num("len").unwrap_or(0) as u32,
                wnd: num("wnd").unwrap_or(0) as u32,
                flags: num("flags").unwrap_or(0) as u8,
            },
            "retransmit" => TraceEvent::Retransmit {
                seq: num("seq").unwrap_or(0) as u32,
                fast: num("fast").unwrap_or(0) != 0,
            },
            "dup_ack" => TraceEvent::DupAck {
                ack: num("ack").unwrap_or(0) as u32,
                count: num("count").unwrap_or(0) as u32,
            },
            "timer_arm" => TraceEvent::TimerArm {
                deadline: SimTime::from_picos(num("deadline_ps").unwrap_or(0)),
            },
            "timer_cancel" => TraceEvent::TimerCancel,
            "timer_fire" => TraceEvent::TimerFire,
            "cwnd" => TraceEvent::CwndChange {
                cwnd: num("cwnd").unwrap_or(0) as u32,
                ssthresh: num("ssthresh").unwrap_or(0) as u32,
                reason: text_field("reason").unwrap_or("?"),
            },
            "rtt" => TraceEvent::RttSample {
                rtt_us: num("rtt_us").unwrap_or(0),
                srtt_us: num("srtt_us").unwrap_or(0),
                rto_us: num("rto_us").unwrap_or(0),
            },
            "zero_window" => TraceEvent::ZeroWindow,
            "window_refresh" => TraceEvent::WindowRefresh { wnd: num("wnd").unwrap_or(0) as u32 },
            "fw_fsm" => match (text_field("stage"), text_field("class")) {
                (Some(stage), Some(class)) => {
                    TraceEvent::FwFsm { stage, class, cycles: num("cycles").unwrap_or(0) as u32 }
                }
                _ => continue,
            },
            "fabric_drop" => TraceEvent::FabricDrop {
                reason: text_field("reason").unwrap_or("?"),
                len: num("len").unwrap_or(0) as u32,
            },
            "sock" => TraceEvent::Sock {
                op: text_field("op").unwrap_or("?"),
                bytes: num("bytes").unwrap_or(0) as u32,
            },
            _ => continue,
        };
        out.push(Rec {
            index: out.len() as u64,
            t: SimTime::from_picos(num("t_ps").unwrap_or(0)),
            node: num("node").unwrap_or(0) as u32,
            conn: num("conn").map_or(NODE_SCOPE, |c| c as u32),
            ev,
        });
    }
    out
}

/// tcpdump-style flag rendering: "S" SYN, "F" FIN, "R" RST, "P" PSH,
/// "." ACK.
pub fn flags_str(f: u8) -> String {
    let mut s = String::new();
    if f & flags::SYN != 0 {
        s.push('S');
    }
    if f & flags::FIN != 0 {
        s.push('F');
    }
    if f & flags::RST != 0 {
        s.push('R');
    }
    if f & flags::PSH != 0 {
        s.push('P');
    }
    if f & flags::ACK != 0 {
        s.push('.');
    }
    if s.is_empty() {
        s.push('-');
    }
    s
}

fn us(t: SimTime) -> f64 {
    t.as_picos() as f64 / 1e6
}

/// Renders events as a human-readable dump, one line per event.
pub fn dump(events: &[Rec]) -> String {
    let mut out = String::new();
    for r in events {
        let scope =
            if r.conn == NODE_SCOPE { "   -".to_string() } else { format!("c{:<3}", r.conn) };
        let detail = match r.ev {
            TraceEvent::TcpState { from, to } => format!("state {from} -> {to}"),
            TraceEvent::SegTx { seq, ack, len, wnd, flags, retransmit } => format!(
                "> seq {seq} ack {ack} len {len} wnd {wnd} flags {}{}",
                flags_str(flags),
                if retransmit { " retx" } else { "" }
            ),
            TraceEvent::SegRx { seq, ack, len, wnd, flags } => {
                format!("< seq {seq} ack {ack} len {len} wnd {wnd} flags {}", flags_str(flags))
            }
            TraceEvent::Retransmit { seq, fast } => {
                format!("retransmit seq {seq} ({})", if fast { "fast" } else { "rto" })
            }
            TraceEvent::DupAck { ack, count } => format!("dup-ack ack {ack} count {count}"),
            TraceEvent::TimerArm { deadline } => format!("timer arm @ {:.3} us", us(deadline)),
            TraceEvent::TimerCancel => "timer cancel".to_string(),
            TraceEvent::TimerFire => "timer fire".to_string(),
            TraceEvent::CwndChange { cwnd, ssthresh, reason } => {
                format!("cwnd {cwnd} ssthresh {ssthresh} ({reason})")
            }
            TraceEvent::RttSample { rtt_us, srtt_us, rto_us } => {
                format!("rtt sample {rtt_us} us srtt {srtt_us} us rto {rto_us} us")
            }
            TraceEvent::ZeroWindow => "zero-window".to_string(),
            TraceEvent::WindowRefresh { wnd } => format!("window-refresh wnd {wnd}"),
            TraceEvent::FwFsm { stage, class, cycles } => {
                format!("fw {stage}/{class} {cycles} cycles")
            }
            TraceEvent::FabricDrop { reason, len } => format!("fabric drop {reason} len {len}"),
            TraceEvent::Sock { op, bytes } => format!("sock {op} {bytes} B"),
        };
        out.push_str(&format!("{:>14.3} n{} {scope} {detail}\n", us(r.t), r.node));
    }
    out
}

/// tcptrace-style per-connection rollup of a trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ConnSummary {
    /// Node scope.
    pub node: u32,
    /// Connection scope.
    pub conn: u32,
    /// Events in the trace for this connection.
    pub events: u64,
    /// Segments transmitted (including retransmissions).
    pub segs_tx: u64,
    /// Segments received.
    pub segs_rx: u64,
    /// Payload bytes transmitted (including retransmissions).
    pub bytes_tx: u64,
    /// Payload bytes received.
    pub bytes_rx: u64,
    /// Retransmissions triggered by RTO expiry.
    pub rto_retransmits: u64,
    /// Retransmissions triggered by duplicate ACKs.
    pub fast_retransmits: u64,
    /// Duplicate ACKs received.
    pub dupacks_rx: u64,
    /// Zero-window transitions observed.
    pub zero_window_events: u64,
    /// RTT samples folded into the estimator.
    pub rtt_samples: u64,
    /// Minimum sampled RTT, microseconds (0 when no samples).
    pub rtt_min_us: u64,
    /// Mean sampled RTT, microseconds (0 when no samples).
    pub rtt_mean_us: f64,
    /// 99th-percentile sampled RTT, microseconds (0 when no samples).
    pub rtt_p99_us: u64,
    /// Time spent in each TCP state, in transition order.
    pub time_in_state: Vec<(&'static str, SimDuration)>,
}

/// Rolls a trace up into per-connection summaries, one per
/// `(node, conn)` scope in deterministic order. Node-scoped events are
/// excluded. Counts reflect the events *present* — rings that
/// overwrote their history undercount, which is why the acceptance
/// tests size the recorder to fit the run.
pub fn summarize(events: &[Rec]) -> Vec<ConnSummary> {
    use std::collections::BTreeMap;
    struct Acc {
        s: ConnSummary,
        rtts: Vec<u64>,
        cur_state: Option<&'static str>,
        state_since: SimTime,
        first_t: SimTime,
        last_t: SimTime,
    }
    let mut accs: BTreeMap<(u32, u32), Acc> = BTreeMap::new();
    for r in events {
        if r.conn == NODE_SCOPE {
            continue;
        }
        let acc = accs.entry((r.node, r.conn)).or_insert_with(|| Acc {
            s: ConnSummary { node: r.node, conn: r.conn, ..ConnSummary::default() },
            rtts: Vec::new(),
            cur_state: None,
            state_since: r.t,
            first_t: r.t,
            last_t: r.t,
        });
        acc.s.events += 1;
        acc.last_t = r.t;
        match r.ev {
            TraceEvent::SegTx { len, .. } => {
                acc.s.segs_tx += 1;
                acc.s.bytes_tx += u64::from(len);
            }
            TraceEvent::SegRx { len, .. } => {
                acc.s.segs_rx += 1;
                acc.s.bytes_rx += u64::from(len);
            }
            TraceEvent::Retransmit { fast, .. } => {
                if fast {
                    acc.s.fast_retransmits += 1;
                } else {
                    acc.s.rto_retransmits += 1;
                }
            }
            TraceEvent::DupAck { .. } => acc.s.dupacks_rx += 1,
            TraceEvent::ZeroWindow => acc.s.zero_window_events += 1,
            TraceEvent::RttSample { rtt_us, .. } => acc.rtts.push(rtt_us),
            TraceEvent::TcpState { from, to } => {
                let since = if acc.cur_state.is_some() { acc.state_since } else { acc.first_t };
                let held = acc.cur_state.unwrap_or(from);
                push_state(&mut acc.s.time_in_state, held, r.t.duration_since(since));
                acc.cur_state = Some(to);
                acc.state_since = r.t;
            }
            _ => {}
        }
    }
    accs.into_values()
        .map(|mut acc| {
            if let Some(state) = acc.cur_state {
                push_state(
                    &mut acc.s.time_in_state,
                    state,
                    acc.last_t.duration_since(acc.state_since),
                );
            }
            acc.rtts.sort_unstable();
            if !acc.rtts.is_empty() {
                let n = acc.rtts.len();
                acc.s.rtt_samples = n as u64;
                acc.s.rtt_min_us = acc.rtts[0];
                acc.s.rtt_mean_us = acc.rtts.iter().sum::<u64>() as f64 / n as f64;
                acc.s.rtt_p99_us = acc.rtts[(n * 99).div_ceil(100) - 1];
            }
            acc.s
        })
        .collect()
}

fn push_state(states: &mut Vec<(&'static str, SimDuration)>, state: &'static str, d: SimDuration) {
    match states.iter_mut().find(|(s, _)| *s == state) {
        Some((_, total)) => *total += d,
        None => states.push((state, d)),
    }
}

/// Renders per-connection summaries as human-readable text.
pub fn render_summary(summaries: &[ConnSummary]) -> String {
    if summaries.is_empty() {
        return "no connection-scoped events in trace\n".to_string();
    }
    let mut out = String::new();
    for s in summaries {
        out.push_str(&format!(
            "node {} conn {}: {} events, {} segs tx ({} B) / {} segs rx ({} B)\n",
            s.node, s.conn, s.events, s.segs_tx, s.bytes_tx, s.segs_rx, s.bytes_rx
        ));
        out.push_str(&format!(
            "  retransmits: {} ({} rto, {} fast), dupacks {}, zero-window {}\n",
            s.rto_retransmits + s.fast_retransmits,
            s.rto_retransmits,
            s.fast_retransmits,
            s.dupacks_rx,
            s.zero_window_events
        ));
        if s.rtt_samples > 0 {
            out.push_str(&format!(
                "  rtt: {} samples, min {} us, mean {:.1} us, p99 {} us\n",
                s.rtt_samples, s.rtt_min_us, s.rtt_mean_us, s.rtt_p99_us
            ));
        }
        if !s.time_in_state.is_empty() {
            let parts: Vec<String> = s
                .time_in_state
                .iter()
                .map(|(name, d)| format!("{name} {:.3} ms", d.as_secs_f64() * 1e3))
                .collect();
            out.push_str(&format!("  time-in-state: {}\n", parts.join(", ")));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<Rec> {
        vec![
            Rec {
                index: 0,
                t: SimTime::from_micros(1),
                node: 0,
                conn: 1,
                ev: TraceEvent::TcpState { from: "closed", to: "syn_sent" },
            },
            Rec {
                index: 1,
                t: SimTime::from_micros(2),
                node: 0,
                conn: 1,
                ev: TraceEvent::SegTx {
                    seq: 100,
                    ack: 0,
                    len: 0,
                    wnd: 65535,
                    flags: flags::SYN,
                    retransmit: false,
                },
            },
            Rec {
                index: 2,
                t: SimTime::from_micros(120),
                node: 0,
                conn: 1,
                ev: TraceEvent::TcpState { from: "syn_sent", to: "established" },
            },
            Rec {
                index: 3,
                t: SimTime::from_micros(130),
                node: 0,
                conn: 1,
                ev: TraceEvent::RttSample { rtt_us: 118, srtt_us: 118, rto_us: 354 },
            },
            Rec {
                index: 4,
                t: SimTime::from_micros(500),
                node: 0,
                conn: 1,
                ev: TraceEvent::Retransmit { seq: 100, fast: false },
            },
            Rec {
                index: 5,
                t: SimTime::from_micros(600),
                node: 0,
                conn: NODE_SCOPE,
                ev: TraceEvent::FabricDrop { reason: "injected", len: 1500 },
            },
        ]
    }

    #[test]
    fn jsonl_roundtrips() {
        let mut evs = sample_events();
        evs.push(Rec {
            index: 6,
            t: SimTime::from_micros(700),
            node: 1,
            conn: NODE_SCOPE,
            ev: TraceEvent::FwFsm { stage: "tcp_parse", class: "ack_recv", cycles: 1_862 },
        });
        let text = to_jsonl(&evs);
        let back = parse_jsonl(&text);
        assert_eq!(evs.len(), back.len());
        for (a, b) in evs.iter().zip(&back) {
            assert_eq!(a.t, b.t);
            assert_eq!(a.node, b.node);
            assert_eq!(a.conn, b.conn);
            assert_eq!(a.ev, b.ev);
        }
        assert!(text.contains("\"cycles\": 1862"), "{text}");
        // identical input, identical bytes
        assert_eq!(text, to_jsonl(&evs));
    }

    #[test]
    fn parser_skips_malformed_lines() {
        let text =
            "not json\n{\"t_ps\": 5}\n\n{\"t_ps\": 1, \"node\": 0, \"ev\": \"timer_fire\"}\n";
        let recs = parse_jsonl(text);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].ev, TraceEvent::TimerFire);
        assert_eq!(recs[0].conn, NODE_SCOPE);
    }

    #[test]
    fn summary_counts_and_states() {
        let s = summarize(&sample_events());
        assert_eq!(s.len(), 1, "node-scoped drop must not create a connection");
        let c = &s[0];
        assert_eq!((c.node, c.conn), (0, 1));
        assert_eq!(c.segs_tx, 1);
        assert_eq!(c.rto_retransmits, 1);
        assert_eq!(c.fast_retransmits, 0);
        assert_eq!(c.rtt_samples, 1);
        assert_eq!(c.rtt_min_us, 118);
        assert_eq!(c.rtt_p99_us, 118);
        // closed for zero time (transition is the first event), then
        // 1 µs..120 µs in syn_sent, then established until the last
        // conn-scoped event at 500 µs
        assert_eq!(
            c.time_in_state,
            [
                ("closed", SimDuration::ZERO),
                ("syn_sent", SimDuration::from_micros(119)),
                ("established", SimDuration::from_micros(380)),
            ]
        );
    }

    #[test]
    fn dump_renders_one_line_per_event() {
        let text = dump(&sample_events());
        assert_eq!(text.lines().count(), 6);
        assert!(text.contains("state closed -> syn_sent"));
        assert!(text.contains("flags S"));
        assert!(text.contains("retransmit seq 100 (rto)"));
        assert!(text.contains("fabric drop injected len 1500"));
    }

    #[test]
    fn flags_render_tcpdump_style() {
        assert_eq!(flags_str(flags::SYN), "S");
        assert_eq!(flags_str(flags::SYN | flags::ACK), "S.");
        assert_eq!(flags_str(flags::PSH | flags::ACK), "P.");
        assert_eq!(flags_str(0), "-");
    }

    #[test]
    fn render_summary_is_nonempty_and_mentions_retransmits() {
        let text = render_summary(&summarize(&sample_events()));
        assert!(text.contains("retransmits: 1 (1 rto, 0 fast)"));
        assert!(render_summary(&[]).contains("no connection-scoped events"));
    }
}
