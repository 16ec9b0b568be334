//! RDMA framing for QPIP — the paper's second transaction class.
//!
//! §2.1 describes two classes of QP message transactions: send-receive
//! (which the prototype implements) and **remote DMA**, where "data can
//! be directly written to or read from a remote address space without
//! involving the target process". The prototype stopped at send-receive;
//! this module forward-ports the RDMA class onto QPIP the way the iWARP
//! lineage (of which QPIP is a precursor) later standardized it: a small
//! direct-data-placement shim above TCP.
//!
//! Framing is only present on QPs whose NIC enables
//! [`crate::NicConfig::rdma_framing`]; plain QPIP connections keep the
//! paper's zero-overhead encapsulation and wire compatibility.

use qpip_wire::error::ParseWireError;

/// Encoded frame header size.
pub const RDMA_FRAME_LEN: usize = 28;

/// Message class carried in a framed TCP segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RdmaOpcode {
    /// Ordinary send-receive payload (consumes a receive WR).
    Send,
    /// RDMA Write: place the payload at `offset` in the remote region.
    Write,
    /// RDMA Read request: ask for `len` bytes at `offset`.
    ReadRequest,
    /// RDMA Read response: the requested bytes.
    ReadResponse,
}

impl RdmaOpcode {
    fn code(self) -> u8 {
        match self {
            RdmaOpcode::Send => 0,
            RdmaOpcode::Write => 1,
            RdmaOpcode::ReadRequest => 2,
            RdmaOpcode::ReadResponse => 3,
        }
    }

    fn from_code(c: u8) -> Option<Self> {
        match c {
            0 => Some(RdmaOpcode::Send),
            1 => Some(RdmaOpcode::Write),
            2 => Some(RdmaOpcode::ReadRequest),
            3 => Some(RdmaOpcode::ReadResponse),
            _ => None,
        }
    }
}

/// The 28-byte frame prepended to every message on an RDMA-enabled QP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RdmaFrame {
    /// Message class.
    pub opcode: RdmaOpcode,
    /// Remote-region key (Write/Read*); 0 for Send.
    pub rkey: u32,
    /// Byte offset within the remote region (Write/Read*).
    pub offset: u64,
    /// Payload length (Write/ReadResponse) or requested length
    /// (ReadRequest).
    pub len: u32,
    /// Requester context echoed in read responses (the WR token).
    pub context: u64,
}

impl RdmaFrame {
    /// A plain send frame wrapping `len` payload bytes.
    pub fn send(len: u32) -> Self {
        RdmaFrame { opcode: RdmaOpcode::Send, rkey: 0, offset: 0, len, context: 0 }
    }

    /// Encodes to the 28-byte wire form.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_with(&[])
    }

    /// Encodes the frame followed by `payload`, in one allocation.
    pub fn encode_with(&self, payload: &[u8]) -> Vec<u8> {
        let mut b = Vec::with_capacity(RDMA_FRAME_LEN + payload.len());
        b.push(self.opcode.code());
        b.extend_from_slice(&[0u8; 3]);
        b.extend_from_slice(&self.rkey.to_be_bytes());
        b.extend_from_slice(&self.offset.to_be_bytes());
        b.extend_from_slice(&self.len.to_be_bytes());
        b.extend_from_slice(&self.context.to_be_bytes());
        b.extend_from_slice(payload);
        b
    }

    /// Decodes a frame from the front of a message, returning it and
    /// the payload that follows.
    ///
    /// # Errors
    ///
    /// [`ParseWireError::Truncated`] for short messages,
    /// [`ParseWireError::BadOption`] for unknown opcodes,
    /// [`ParseWireError::BadLength`] when the declared payload length
    /// disagrees with the message.
    pub fn parse(msg: &[u8]) -> Result<(RdmaFrame, &[u8]), ParseWireError> {
        if msg.len() < RDMA_FRAME_LEN {
            return Err(ParseWireError::Truncated { needed: RDMA_FRAME_LEN, have: msg.len() });
        }
        let opcode = RdmaOpcode::from_code(msg[0]).ok_or(ParseWireError::BadOption)?;
        let frame = RdmaFrame {
            opcode,
            rkey: u32::from_be_bytes(msg[4..8].try_into().expect("sized")),
            offset: u64::from_be_bytes(msg[8..16].try_into().expect("sized")),
            len: u32::from_be_bytes(msg[16..20].try_into().expect("sized")),
            context: u64::from_be_bytes(msg[20..28].try_into().expect("sized")),
        };
        let payload = &msg[RDMA_FRAME_LEN..];
        let expected = match opcode {
            RdmaOpcode::ReadRequest => 0,
            _ => frame.len as usize,
        };
        if payload.len() != expected {
            return Err(ParseWireError::BadLength);
        }
        Ok((frame, payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_frame_roundtrip() {
        let f = RdmaFrame::send(5);
        let mut msg = f.encode();
        msg.extend_from_slice(b"hello");
        let (back, payload) = RdmaFrame::parse(&msg).unwrap();
        assert_eq!(back, f);
        assert_eq!(payload, b"hello");
    }

    #[test]
    fn write_frame_roundtrip() {
        let f = RdmaFrame { opcode: RdmaOpcode::Write, rkey: 7, offset: 4096, len: 3, context: 99 };
        let mut msg = f.encode();
        msg.extend_from_slice(&[1, 2, 3]);
        let (back, payload) = RdmaFrame::parse(&msg).unwrap();
        assert_eq!(back, f);
        assert_eq!(payload, &[1, 2, 3]);
    }

    #[test]
    fn read_request_carries_no_payload() {
        let f = RdmaFrame {
            opcode: RdmaOpcode::ReadRequest,
            rkey: 1,
            offset: 0,
            len: 8192,
            context: 5,
        };
        let msg = f.encode();
        let (back, payload) = RdmaFrame::parse(&msg).unwrap();
        assert_eq!(back.len, 8192);
        assert!(payload.is_empty());
        // a read request with trailing bytes is malformed
        let mut bad = f.encode();
        bad.push(0);
        assert_eq!(RdmaFrame::parse(&bad), Err(ParseWireError::BadLength));
    }

    #[test]
    fn rejects_unknown_opcode_and_truncation() {
        let mut msg = RdmaFrame::send(0).encode();
        msg[0] = 9;
        assert_eq!(RdmaFrame::parse(&msg), Err(ParseWireError::BadOption));
        assert!(matches!(RdmaFrame::parse(&[0; 27]), Err(ParseWireError::Truncated { .. })));
    }

    #[test]
    fn length_mismatch_rejected() {
        let f = RdmaFrame::send(10);
        let mut msg = f.encode();
        msg.extend_from_slice(b"short");
        assert_eq!(RdmaFrame::parse(&msg), Err(ParseWireError::BadLength));
    }

    #[test]
    fn all_opcodes_roundtrip() {
        for op in
            [RdmaOpcode::Send, RdmaOpcode::Write, RdmaOpcode::ReadRequest, RdmaOpcode::ReadResponse]
        {
            assert_eq!(RdmaOpcode::from_code(op.code()), Some(op));
        }
    }
}
