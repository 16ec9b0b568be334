//! The owned packet buffer passed between layers and across the fabric.
//!
//! A [`Packet`] keeps *headroom* — spare bytes in front of the live
//! region — so that each protocol layer can prepend its header in place
//! instead of allocating a fresh vector and copying everything below it.
//! This is the classic zero-copy transmit layout (mbuf leading space /
//! skb headroom): the payload is written once, and IPv6/TCP/UDP headers
//! grow leftwards into the reserved space.

use core::fmt;
use core::ops::{Deref, DerefMut};

/// Default transmit headroom: link framing (8) + IPv6 (40) + maximum
/// TCP header (60), rounded up to a power of two.
pub const HEADROOM: usize = 128;

/// An owned, contiguous packet: link header + IPv6 header + transport
/// header + payload, exactly as it would appear on the wire, with
/// optional headroom in front for in-place header prepending.
///
/// Dereferences to `[u8]`, so `&pkt[..]`, `pkt.len()` and index
/// expressions all see only the live bytes (the headroom is invisible).
///
/// # Examples
///
/// ```
/// use qpip_wire::packet::Packet;
///
/// let mut p = Packet::with_headroom(b"payload", 8);
/// p.prepend_space(2).copy_from_slice(&[0xAA, 0xBB]);
/// assert_eq!(&p[..2], &[0xAA, 0xBB]);
/// assert_eq!(p.len(), 9);
/// assert_eq!(p.headroom(), 6);
/// ```
#[derive(Clone, Default)]
pub struct Packet {
    buf: Vec<u8>,
    /// Offset of the first live byte; everything before it is headroom.
    head: usize,
}

impl Packet {
    /// Creates an empty packet buffer with no headroom.
    pub fn new() -> Self {
        Packet::default()
    }

    /// Creates a packet holding `payload` with `headroom` spare bytes in
    /// front, allocated in one shot.
    pub fn with_headroom(payload: &[u8], headroom: usize) -> Self {
        let mut buf = Vec::with_capacity(headroom + payload.len());
        buf.resize(headroom, 0);
        buf.extend_from_slice(payload);
        Packet { buf, head: headroom }
    }

    /// Creates an empty packet with `headroom` spare bytes in front and
    /// room for `tail` bytes of payload without reallocating.
    pub fn reserve_headroom(headroom: usize, tail: usize) -> Self {
        let mut buf = Vec::with_capacity(headroom + tail);
        buf.resize(headroom, 0);
        Packet { buf, head: headroom }
    }

    /// Wraps an existing byte vector (no headroom).
    pub fn from_vec(bytes: Vec<u8>) -> Self {
        Packet { buf: bytes, head: 0 }
    }

    /// Spare bytes available in front of the live region.
    pub fn headroom(&self) -> usize {
        self.head
    }

    /// Total length on the wire, in bytes.
    pub fn len(&self) -> usize {
        self.buf.len() - self.head
    }

    /// `true` if the packet has no live bytes.
    pub fn is_empty(&self) -> bool {
        self.buf.len() == self.head
    }

    /// Opens `n` bytes of space at the front of the live region and
    /// returns it for the caller to fill (a header encode target).
    ///
    /// When headroom suffices this is O(1) — the live region simply
    /// grows leftwards. Otherwise the buffer is reallocated once with
    /// fresh [`HEADROOM`].
    pub fn prepend_space(&mut self, n: usize) -> &mut [u8] {
        if n <= self.head {
            self.head -= n;
        } else {
            // Slow path: rebuild with standard headroom in front.
            let mut buf = Vec::with_capacity(HEADROOM + n + self.len());
            buf.resize(HEADROOM + n, 0);
            buf.extend_from_slice(&self.buf[self.head..]);
            self.buf = buf;
            self.head = HEADROOM;
        }
        let head = self.head;
        &mut self.buf[head..head + n]
    }

    /// Appends bytes after the live region.
    pub fn extend_from_slice(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// The live bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf[self.head..]
    }

    /// Mutable access to the live bytes (checksum patching).
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        &mut self.buf[self.head..]
    }

    /// Extracts the live bytes as a vector, discarding the headroom.
    pub fn into_vec(mut self) -> Vec<u8> {
        if self.head != 0 {
            self.buf.drain(..self.head);
        }
        self.buf
    }
}

impl From<Vec<u8>> for Packet {
    fn from(bytes: Vec<u8>) -> Self {
        Packet::from_vec(bytes)
    }
}

impl AsRef<[u8]> for Packet {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Deref for Packet {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl DerefMut for Packet {
    fn deref_mut(&mut self) -> &mut [u8] {
        self.as_mut_slice()
    }
}

/// Equality is over the live bytes only; headroom is invisible.
impl PartialEq for Packet {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Packet {}

impl fmt::Debug for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let bytes = self.as_slice();
        write!(f, "Packet({} bytes", bytes.len())?;
        if !bytes.is_empty() {
            write!(f, ", {:02x?}…", &bytes[..bytes.len().min(8)])?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let mut p = Packet::from_vec(vec![9, 8, 7]);
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
        p.as_mut_slice()[0] = 1;
        assert_eq!(p.as_slice(), &[1, 8, 7]);
        assert_eq!(p.clone().into_vec(), vec![1, 8, 7]);
        assert_eq!(p.as_ref(), &[1, 8, 7]);
    }

    #[test]
    fn debug_is_bounded_and_nonempty() {
        let p = Packet::from_vec((0..100).collect());
        let s = format!("{p:?}");
        assert!(s.starts_with("Packet(100 bytes"));
        assert!(s.len() < 120);
        assert_eq!(format!("{:?}", Packet::new()), "Packet(0 bytes)");
    }

    #[test]
    fn prepend_within_headroom_is_in_place() {
        let mut p = Packet::with_headroom(&[4, 5, 6], 8);
        assert_eq!(p.headroom(), 8);
        assert_eq!(p.len(), 3);
        p.prepend_space(3).copy_from_slice(&[1, 2, 3]);
        assert_eq!(p.headroom(), 5);
        assert_eq!(p.as_slice(), &[1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn prepend_beyond_headroom_reallocates_with_fresh_headroom() {
        let mut p = Packet::with_headroom(&[9], 2);
        let hdr: Vec<u8> = (0..10).collect();
        p.prepend_space(hdr.len()).copy_from_slice(&hdr);
        assert_eq!(p.headroom(), HEADROOM);
        assert_eq!(&p[..10], &hdr[..]);
        assert_eq!(p[10], 9);
        assert_eq!(p.len(), 11);
    }

    #[test]
    fn into_vec_drops_headroom() {
        let mut p = Packet::reserve_headroom(16, 4);
        p.extend_from_slice(&[1, 2, 3, 4]);
        p.prepend_space(1)[0] = 0;
        assert_eq!(p.into_vec(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn equality_ignores_headroom() {
        let a = Packet::with_headroom(&[1, 2], 32);
        let b = Packet::from_vec(vec![1, 2]);
        assert_eq!(a, b);
    }

    #[test]
    fn deref_exposes_live_bytes_only() {
        let mut p = Packet::with_headroom(&[1, 2, 3], 8);
        assert_eq!(p.len(), 3);
        assert_eq!(&p[1..], &[2, 3]);
        p[0] = 7;
        assert_eq!(p.as_slice(), &[7, 2, 3]);
    }
}
