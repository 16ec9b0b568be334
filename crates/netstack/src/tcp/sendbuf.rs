//! The TCP send buffer: retains unacknowledged data for retransmission
//! and maps acknowledgments back to completed send units.
//!
//! Two segmentation policies are supported (§4.1): the QPIP firmware
//! maps one QP message onto exactly one TCP segment ("a segment is a
//! message"), while the host baseline streams bytes at the MSS.
//!
//! The buffer hands the output path only where a segment lies (its
//! sequence number and length), never a copy of its bytes: the engine
//! reads them with [`SendBuffer::read`] straight into the packet it
//! encodes, so a payload byte is copied once between the send unit and
//! the wire, retransmissions included.

use std::collections::VecDeque;

use qpip_wire::tcp::SeqNum;

use crate::types::{SegmentationPolicy, SendToken};

/// One send unit: a QP message or a socket write.
#[derive(Debug, Clone)]
struct Chunk {
    /// Sequence number of the first byte.
    start: SeqNum,
    /// The data (never empty).
    bytes: Vec<u8>,
    /// Completion token, reported when the last byte is acknowledged.
    token: SendToken,
}

impl Chunk {
    fn end(&self) -> SeqNum {
        self.start + self.bytes.len() as u32
    }
}

/// Where a segment's worth of buffered data lies. The bytes stay in the
/// buffer until the segment is encoded ([`SendBuffer::read`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentData {
    /// Sequence number of the first byte.
    pub seq: SeqNum,
    /// Payload length in bytes (never 0).
    pub len: u32,
    /// Whether this reaches the current end of buffered data (sets PSH).
    pub psh: bool,
}

/// The send buffer for one connection: the send units pushed and not
/// yet fully acknowledged, in sequence order. Segments are described by
/// where they lie ([`SegmentData`]); their bytes stay here and are read
/// into the packet when it is encoded, so a retransmission re-reads the
/// same unit rather than a kept copy.
#[derive(Debug, Clone)]
pub struct SendBuffer {
    chunks: VecDeque<Chunk>,
    policy: SegmentationPolicy,
    /// First unacknowledged byte.
    una: SeqNum,
    /// Next byte to transmit for the first time.
    nxt: SeqNum,
    /// Highest sequence number ever transmitted. Unlike `nxt` this never
    /// rewinds on go-back-N, so it is the SND.MAX bound for judging
    /// whether an incoming ACK covers data we actually sent.
    max_sent: SeqNum,
}

impl SendBuffer {
    /// Creates an empty buffer whose first byte will carry `initial_seq`.
    pub fn new(policy: SegmentationPolicy, initial_seq: SeqNum) -> Self {
        SendBuffer {
            chunks: VecDeque::new(),
            policy,
            una: initial_seq,
            nxt: initial_seq,
            max_sent: initial_seq,
        }
    }

    /// Highest sequence number ever handed to the output path (SND.MAX).
    pub fn max_sent(&self) -> SeqNum {
        self.max_sent
    }

    /// First unacknowledged sequence number.
    pub fn una(&self) -> SeqNum {
        self.una
    }

    /// Next never-sent sequence number.
    pub fn nxt(&self) -> SeqNum {
        self.nxt
    }

    /// Sequence number one past the last buffered byte.
    pub fn end(&self) -> SeqNum {
        self.chunks.back().map_or(self.una, Chunk::end)
    }

    /// Bytes sent but not yet acknowledged.
    pub fn bytes_in_flight(&self) -> u64 {
        u64::from(self.nxt - self.una)
    }

    /// Bytes buffered but never sent.
    pub fn bytes_unsent(&self) -> u64 {
        u64::from(self.end() - self.nxt)
    }

    /// Total buffered (unacked + unsent) bytes.
    pub fn bytes_buffered(&self) -> u64 {
        u64::from(self.end() - self.una)
    }

    /// Appends one send unit.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is empty — zero-length sends are handled above
    /// this layer (they complete immediately without touching TCP).
    pub fn push(&mut self, bytes: Vec<u8>, token: SendToken) {
        assert!(!bytes.is_empty(), "zero-length send unit");
        let start = self.end();
        self.chunks.push_back(Chunk { start, bytes, token });
    }

    /// Produces the next new segment to transmit, limited by the peer's
    /// usable window (`window_budget` bytes beyond `nxt`) and, in stream
    /// mode, by `max_payload`. Advances `nxt`. Returns `None` when
    /// nothing can be sent.
    pub fn next_segment(&mut self, max_payload: usize, window_budget: u64) -> Option<SegmentData> {
        let unsent = self.bytes_unsent();
        if unsent == 0 {
            return None;
        }
        let seq = self.nxt;
        let len = match self.policy {
            SegmentationPolicy::MessagePerSegment => {
                // the whole chunk or nothing: message boundaries survive
                let chunk = &self.chunks[self.chunk_index(seq)?];
                debug_assert_eq!(chunk.start, seq, "message mode sends whole chunks");
                let len = chunk.bytes.len();
                if (len as u64) > window_budget || len > max_payload {
                    return None;
                }
                len as u32
            }
            SegmentationPolicy::Stream => {
                let take = unsent.min(window_budget).min(max_payload as u64) as u32;
                if take == 0 {
                    return None;
                }
                take
            }
        };
        self.nxt = seq + len;
        if self.max_sent.lt(self.nxt) {
            self.max_sent = self.nxt;
        }
        let psh = self.nxt == self.end();
        Some(SegmentData { seq, len, psh })
    }

    /// Produces the segment at the front of the unacknowledged region
    /// (for fast retransmit / RTO) without moving `nxt`.
    pub fn retransmit_front(&mut self, max_payload: usize) -> Option<SegmentData> {
        if self.bytes_in_flight() == 0 {
            return None;
        }
        let seq = self.una;
        let len = match self.policy {
            SegmentationPolicy::MessagePerSegment => {
                let chunk = &self.chunks[self.chunk_index(seq)?];
                debug_assert_eq!(chunk.start, seq);
                chunk.bytes.len() as u32
            }
            SegmentationPolicy::Stream => self.bytes_in_flight().min(max_payload as u64) as u32,
        };
        let psh = seq + len == self.end();
        Some(SegmentData { seq, len, psh })
    }

    /// Processes a cumulative acknowledgment, passing `done` the token
    /// of each send unit whose final byte is now acknowledged, in order.
    ///
    /// ACKs outside `(una, end]` are ignored (the caller classifies
    /// duplicates and out-of-window ACKs before getting here).
    pub fn on_ack(&mut self, ack: SeqNum, mut done: impl FnMut(SendToken)) {
        if !(self.una.lt(ack) && ack.le(self.end())) {
            return;
        }
        // In message mode our segments are whole messages, so a
        // well-behaved peer only ever acks on message boundaries. A
        // forged ACK landing mid-message must not drag `una`/`nxt` off a
        // chunk boundary (retransmission resends whole messages); round
        // it down to the last boundary it covers.
        let ack = match self.policy {
            SegmentationPolicy::Stream => ack,
            SegmentationPolicy::MessagePerSegment => {
                let mut boundary = self.una;
                for c in &self.chunks {
                    if c.end().le(ack) {
                        boundary = c.end();
                    } else {
                        break;
                    }
                }
                boundary
            }
        };
        if !self.una.lt(ack) {
            return;
        }
        self.una = ack;
        if self.nxt.lt(ack) {
            self.nxt = ack;
        }
        while let Some(front) = self.chunks.front() {
            if front.end().le(ack) {
                done(front.token);
                self.chunks.pop_front();
            } else {
                break;
            }
        }
    }

    /// Collapses the transmit point back to the unacknowledged front
    /// (go-back-N after a retransmission timeout).
    pub fn rewind_to_una(&mut self) {
        self.nxt = self.una;
    }

    /// Moves the transmit point back up to SND.MAX, undoing a rewind:
    /// after a timeout found spurious the data sent before it is still
    /// in flight, so it is not sent again (RFC 4015 §3.2 step 4).
    pub fn resume_at_max(&mut self) {
        if self.nxt.lt(self.max_sent) {
            self.nxt = self.max_sent;
        }
    }

    /// Passes `f` the buffered bytes `seq .. seq + len`, in order, as
    /// one slice per send unit they span: the payload of a segment that
    /// [`next_segment`](Self::next_segment) or
    /// [`retransmit_front`](Self::retransmit_front) described, for the
    /// encoder to copy into the packet.
    ///
    /// # Panics
    ///
    /// If the range is not buffered (already acknowledged, or past the
    /// end).
    pub fn read(&self, seq: SeqNum, len: u32, mut f: impl FnMut(&[u8])) {
        let mut i = self.chunk_index(seq).expect("segment payload is buffered");
        let mut off = (seq - self.chunks[i].start) as usize;
        let mut left = len as usize;
        while left > 0 {
            let bytes = &self.chunks[i].bytes;
            let take = (bytes.len() - off).min(left);
            f(&bytes[off..off + take]);
            left -= take;
            i += 1;
            off = 0;
        }
    }

    /// Index of the send unit holding `seq`: a binary search on the
    /// units' start offsets from the front one (sequence space wraps,
    /// offsets within the buffer do not).
    fn chunk_index(&self, seq: SeqNum) -> Option<usize> {
        let base = self.chunks.front()?.start;
        let off = seq - base;
        if off >= self.end() - base {
            return None;
        }
        // the front unit starts at offset 0 <= off, so this is >= 1
        Some(self.chunks.partition_point(|c| c.start - base <= off) - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: u32) -> SeqNum {
        SeqNum(n)
    }

    fn msg_buf() -> SendBuffer {
        SendBuffer::new(SegmentationPolicy::MessagePerSegment, seq(1000))
    }

    fn stream_buf() -> SendBuffer {
        SendBuffer::new(SegmentationPolicy::Stream, seq(1000))
    }

    /// The bytes of a segment the buffer described.
    fn bytes(b: &SendBuffer, s: &SegmentData) -> Vec<u8> {
        let mut out = Vec::new();
        b.read(s.seq, s.len, |part| out.extend_from_slice(part));
        out
    }

    /// The tokens `on_ack` completes, in order.
    fn acked(b: &mut SendBuffer, ack: SeqNum) -> Vec<SendToken> {
        let mut done = Vec::new();
        b.on_ack(ack, |t| done.push(t));
        done
    }

    #[test]
    fn message_mode_sends_whole_messages() {
        let mut b = msg_buf();
        b.push(vec![1; 100], SendToken(1));
        b.push(vec![2; 50], SendToken(2));
        let s1 = b.next_segment(16_384, u64::MAX).unwrap();
        assert_eq!((s1.seq, s1.len, s1.psh), (seq(1000), 100, false));
        assert_eq!(bytes(&b, &s1), vec![1; 100]);
        let s2 = b.next_segment(16_384, u64::MAX).unwrap();
        assert_eq!((s2.seq, s2.len, s2.psh), (seq(1100), 50, true));
        assert_eq!(bytes(&b, &s2), vec![2; 50]);
        assert!(b.next_segment(16_384, u64::MAX).is_none());
        assert_eq!(b.bytes_in_flight(), 150);
    }

    #[test]
    fn message_mode_blocks_until_window_fits_whole_message() {
        let mut b = msg_buf();
        b.push(vec![0; 100], SendToken(1));
        assert!(b.next_segment(16_384, 99).is_none(), "no partial messages");
        assert!(b.next_segment(16_384, 100).is_some());
    }

    #[test]
    fn stream_mode_segments_at_mss_and_crosses_chunks() {
        let mut b = stream_buf();
        b.push(vec![1; 100], SendToken(1));
        b.push(vec![2; 100], SendToken(2));
        let s1 = b.next_segment(150, u64::MAX).unwrap();
        assert_eq!(s1.len, 150);
        let s1_bytes = bytes(&b, &s1);
        assert_eq!(&s1_bytes[..100], &[1u8; 100][..]);
        assert_eq!(&s1_bytes[100..], &[2u8; 50][..]);
        let s2 = b.next_segment(150, u64::MAX).unwrap();
        assert_eq!(s2.len, 50);
        assert_eq!(bytes(&b, &s2), vec![2; 50]);
        assert!(s2.psh);
    }

    #[test]
    fn stream_mode_respects_window_budget() {
        let mut b = stream_buf();
        b.push(vec![0; 1000], SendToken(1));
        let s = b.next_segment(1460, 300).unwrap();
        assert_eq!(s.len, 300);
        assert!(b.next_segment(1460, 0).is_none());
    }

    #[test]
    fn ack_completes_tokens_in_order() {
        let mut b = msg_buf();
        b.push(vec![0; 100], SendToken(7));
        b.push(vec![0; 100], SendToken(8));
        b.next_segment(16_384, u64::MAX);
        b.next_segment(16_384, u64::MAX);
        assert_eq!(acked(&mut b, seq(1100)), vec![SendToken(7)]);
        assert_eq!(acked(&mut b, seq(1200)), vec![SendToken(8)]);
        assert_eq!(b.bytes_buffered(), 0);
        assert_eq!(b.bytes_in_flight(), 0);
    }

    #[test]
    fn partial_ack_completes_nothing_mid_chunk() {
        let mut b = stream_buf();
        b.push(vec![0; 100], SendToken(9));
        b.next_segment(60, u64::MAX);
        b.next_segment(60, u64::MAX);
        assert!(acked(&mut b, seq(1060)).is_empty());
        assert_eq!(acked(&mut b, seq(1100)), vec![SendToken(9)]);
    }

    #[test]
    fn stale_and_out_of_range_acks_ignored() {
        let mut b = msg_buf();
        b.push(vec![0; 10], SendToken(1));
        b.next_segment(100, u64::MAX);
        assert!(acked(&mut b, seq(1000)).is_empty(), "duplicate of una");
        assert!(acked(&mut b, seq(999)).is_empty(), "old ack");
        assert!(acked(&mut b, seq(2000)).is_empty(), "beyond end");
        assert_eq!(b.una(), seq(1000));
    }

    #[test]
    fn retransmit_front_repeats_unacked_data() {
        let mut b = msg_buf();
        b.push(vec![3; 40], SendToken(1));
        let sent = b.next_segment(100, u64::MAX).unwrap();
        let rexmit = b.retransmit_front(100).unwrap();
        assert_eq!(sent, rexmit);
        assert_eq!(bytes(&b, &rexmit), vec![3; 40]);
        assert_eq!(b.bytes_in_flight(), 40, "nxt unchanged by retransmit");
    }

    #[test]
    fn retransmit_front_when_nothing_outstanding_is_none() {
        let mut b = msg_buf();
        assert!(b.retransmit_front(100).is_none());
        b.push(vec![1; 10], SendToken(1));
        assert!(b.retransmit_front(100).is_none(), "unsent data is not in flight");
    }

    #[test]
    fn rewind_resends_from_una() {
        let mut b = stream_buf();
        b.push(vec![5; 200], SendToken(1));
        b.next_segment(100, u64::MAX);
        b.next_segment(100, u64::MAX);
        assert_eq!(b.bytes_unsent(), 0);
        b.rewind_to_una();
        assert_eq!(b.bytes_unsent(), 200);
        let s = b.next_segment(100, u64::MAX).unwrap();
        assert_eq!(s.seq, seq(1000));
    }

    #[test]
    fn ack_beyond_nxt_after_rewind_advances_nxt() {
        let mut b = stream_buf();
        b.push(vec![5; 200], SendToken(1));
        b.next_segment(200, u64::MAX);
        b.rewind_to_una();
        // the old in-flight copy gets acked even though nxt was rewound
        let done = acked(&mut b, seq(1200));
        assert_eq!(done, vec![SendToken(1)]);
        assert_eq!(b.nxt(), seq(1200));
        assert_eq!(b.bytes_unsent(), 0);
    }

    #[test]
    fn sequence_numbers_wrap_transparently() {
        let start = SeqNum(u32::MAX - 50);
        let mut b = SendBuffer::new(SegmentationPolicy::Stream, start);
        b.push(vec![0; 100], SendToken(1));
        let s = b.next_segment(100, u64::MAX).unwrap();
        assert_eq!(s.seq, start);
        assert_eq!(b.nxt(), start + 100);
        let done = acked(&mut b, start + 100);
        assert_eq!(done, vec![SendToken(1)]);
    }

    #[test]
    #[should_panic(expected = "zero-length")]
    fn empty_push_panics() {
        msg_buf().push(Vec::new(), SendToken(0));
    }

    #[test]
    fn max_sent_survives_rewind() {
        let mut b = stream_buf();
        b.push(vec![5; 200], SendToken(1));
        b.next_segment(200, u64::MAX);
        assert_eq!(b.max_sent(), seq(1200));
        b.rewind_to_una();
        assert_eq!(b.nxt(), seq(1000));
        assert_eq!(b.max_sent(), seq(1200), "SND.MAX never rewinds");
    }

    #[test]
    fn resume_at_max_skips_what_is_still_in_flight() {
        let mut b = msg_buf();
        for t in 1..=3 {
            b.push(vec![t as u8; 100], SendToken(t));
        }
        b.next_segment(16_384, u64::MAX);
        b.next_segment(16_384, u64::MAX);
        b.rewind_to_una();
        b.next_segment(16_384, u64::MAX); // the retransmission
        assert_eq!(acked(&mut b, seq(1100)), vec![SendToken(1)]);
        b.resume_at_max();
        assert_eq!(b.nxt(), seq(1200));
        assert_eq!(b.bytes_in_flight(), 100, "the second message is still out");
        let s = b.next_segment(16_384, u64::MAX).unwrap();
        assert_eq!(s.seq, seq(1200), "the next segment is new data");
    }

    #[test]
    fn message_mode_partial_ack_rounds_down_to_message_boundary() {
        let mut b = msg_buf();
        b.push(vec![0; 100], SendToken(1));
        b.push(vec![0; 100], SendToken(2));
        b.next_segment(16_384, u64::MAX);
        b.next_segment(16_384, u64::MAX);
        // a forged ack into the middle of the second message only
        // acknowledges the first (whole) one
        assert_eq!(acked(&mut b, seq(1150)), vec![SendToken(1)]);
        assert_eq!(b.una(), seq(1100));
        assert_eq!(b.nxt(), seq(1200));
        // a mid-first-message ack acknowledges nothing at all
        let mut c = msg_buf();
        c.push(vec![0; 100], SendToken(3));
        c.next_segment(16_384, u64::MAX);
        assert!(acked(&mut c, seq(1050)).is_empty());
        assert_eq!(c.una(), seq(1000));
        assert_eq!(c.nxt(), seq(1100));
    }

    #[test]
    fn read_finds_any_unit_among_many_and_crosses_into_the_next() {
        let mut b = stream_buf();
        for t in 0..64u8 {
            b.push(vec![t; 10], SendToken(u64::from(t)));
        }
        let mut got = Vec::new();
        b.read(seq(1000 + 375), 20, |part| got.push(part.to_vec()));
        assert_eq!(got, vec![vec![37; 5], vec![38; 10], vec![39; 5]]);
        // after the front units are acknowledged the search starts there
        assert_eq!(acked(&mut b, seq(1000)).len(), 0);
        b.next_segment(400, u64::MAX);
        assert_eq!(acked(&mut b, seq(1000 + 395)).len(), 39);
        let mut got = Vec::new();
        b.read(seq(1000 + 395), 6, |part| got.extend_from_slice(part));
        assert_eq!(got, vec![39, 39, 39, 39, 39, 40]);
        assert_eq!(b.chunk_index(seq(999)), None, "before the buffer");
        assert_eq!(b.chunk_index(seq(1000 + 640)), None, "past the end");
    }

    #[test]
    fn read_spans_the_sequence_wrap() {
        let start = SeqNum(u32::MAX - 4);
        let mut b = SendBuffer::new(SegmentationPolicy::MessagePerSegment, start);
        b.push(vec![1; 8], SendToken(1));
        b.push(vec![2; 8], SendToken(2));
        let s1 = b.next_segment(100, u64::MAX).unwrap();
        let s2 = b.next_segment(100, u64::MAX).unwrap();
        assert_eq!(s2.seq, SeqNum(3));
        assert_eq!((bytes(&b, &s1), bytes(&b, &s2)), (vec![1; 8], vec![2; 8]));
    }
}
