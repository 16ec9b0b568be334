//! The Network Block Device wire protocol (request/reply framing).
//!
//! Modeled on the Linux NBD protocol the paper modified (§4.2.3): a
//! fixed-size request header naming the operation, a 64-bit handle, an
//! offset and a length; replies echo the handle with an error code, and
//! read replies carry the data.

use qpip_wire::error::ParseWireError;

/// The NBD server port (Linux NBD's default).
pub const NBD_PORT: u16 = 10809;
/// Request magic.
pub const NBD_REQUEST_MAGIC: u32 = 0x2560_9513;
/// Reply magic.
pub const NBD_REPLY_MAGIC: u32 = 0x6744_6698;
/// Encoded request size in bytes.
pub const REQUEST_LEN: usize = 28;
/// Encoded reply header size in bytes.
pub const REPLY_LEN: usize = 16;

/// Block operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NbdOp {
    /// Read `len` bytes at `offset`.
    Read,
    /// Write `len` bytes at `offset` (data follows the header).
    Write,
    /// Tear down the session.
    Disconnect,
}

impl NbdOp {
    fn code(self) -> u32 {
        match self {
            NbdOp::Read => 0,
            NbdOp::Write => 1,
            NbdOp::Disconnect => 2,
        }
    }

    fn from_code(c: u32) -> Option<NbdOp> {
        match c {
            0 => Some(NbdOp::Read),
            1 => Some(NbdOp::Write),
            2 => Some(NbdOp::Disconnect),
            _ => None,
        }
    }
}

/// A block request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NbdRequest {
    /// Operation.
    pub op: NbdOp,
    /// Caller handle echoed in the reply.
    pub handle: u64,
    /// Byte offset on the device.
    pub offset: u64,
    /// Length in bytes.
    pub len: u32,
}

impl NbdRequest {
    /// Encodes to the 28-byte wire form.
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(REQUEST_LEN);
        b.extend_from_slice(&NBD_REQUEST_MAGIC.to_be_bytes());
        b.extend_from_slice(&self.op.code().to_be_bytes());
        b.extend_from_slice(&self.handle.to_be_bytes());
        b.extend_from_slice(&self.offset.to_be_bytes());
        b.extend_from_slice(&self.len.to_be_bytes());
        b
    }

    /// Decodes from the front of `data`.
    ///
    /// # Errors
    ///
    /// [`ParseWireError::Truncated`] / [`ParseWireError::BadVersion`]
    /// (wrong magic) / [`ParseWireError::BadOption`] (unknown op).
    pub fn parse(data: &[u8]) -> Result<NbdRequest, ParseWireError> {
        if data.len() < REQUEST_LEN {
            return Err(ParseWireError::Truncated { needed: REQUEST_LEN, have: data.len() });
        }
        let magic = u32::from_be_bytes([data[0], data[1], data[2], data[3]]);
        if magic != NBD_REQUEST_MAGIC {
            return Err(ParseWireError::BadVersion { found: data[0] });
        }
        let op = NbdOp::from_code(u32::from_be_bytes([data[4], data[5], data[6], data[7]]))
            .ok_or(ParseWireError::BadOption)?;
        Ok(NbdRequest {
            op,
            handle: u64::from_be_bytes(data[8..16].try_into().expect("sized")),
            offset: u64::from_be_bytes(data[16..24].try_into().expect("sized")),
            len: u32::from_be_bytes(data[24..28].try_into().expect("sized")),
        })
    }
}

/// A reply header (read data follows on the stream/message).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NbdReply {
    /// 0 on success.
    pub error: u32,
    /// The request's handle.
    pub handle: u64,
}

impl NbdReply {
    /// Encodes to the 16-byte wire form.
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(REPLY_LEN);
        b.extend_from_slice(&NBD_REPLY_MAGIC.to_be_bytes());
        b.extend_from_slice(&self.error.to_be_bytes());
        b.extend_from_slice(&self.handle.to_be_bytes());
        b
    }

    /// Decodes from the front of `data`.
    ///
    /// # Errors
    ///
    /// As for [`NbdRequest::parse`].
    pub fn parse(data: &[u8]) -> Result<NbdReply, ParseWireError> {
        if data.len() < REPLY_LEN {
            return Err(ParseWireError::Truncated { needed: REPLY_LEN, have: data.len() });
        }
        let magic = u32::from_be_bytes([data[0], data[1], data[2], data[3]]);
        if magic != NBD_REPLY_MAGIC {
            return Err(ParseWireError::BadVersion { found: data[0] });
        }
        Ok(NbdReply {
            error: u32::from_be_bytes([data[4], data[5], data[6], data[7]]),
            handle: u64::from_be_bytes(data[8..16].try_into().expect("sized")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let r = NbdRequest { op: NbdOp::Write, handle: 42, offset: 1 << 33, len: 65536 };
        let b = r.encode();
        assert_eq!(b.len(), REQUEST_LEN);
        assert_eq!(NbdRequest::parse(&b).unwrap(), r);
    }

    #[test]
    fn reply_roundtrip() {
        let r = NbdReply { error: 0, handle: 7 };
        let b = r.encode();
        assert_eq!(b.len(), REPLY_LEN);
        assert_eq!(NbdReply::parse(&b).unwrap(), r);
    }

    #[test]
    fn rejects_wrong_magic_and_truncation() {
        let mut b = NbdRequest { op: NbdOp::Read, handle: 0, offset: 0, len: 1 }.encode();
        b[0] ^= 0xff;
        assert!(NbdRequest::parse(&b).is_err());
        assert!(NbdRequest::parse(&[0; 10]).is_err());
        assert!(NbdReply::parse(&[0; 10]).is_err());
    }

    #[test]
    fn rejects_unknown_op() {
        let mut b = NbdRequest { op: NbdOp::Read, handle: 0, offset: 0, len: 1 }.encode();
        b[7] = 99;
        assert_eq!(NbdRequest::parse(&b), Err(ParseWireError::BadOption));
    }

    #[test]
    fn all_ops_roundtrip() {
        for op in [NbdOp::Read, NbdOp::Write, NbdOp::Disconnect] {
            let r = NbdRequest { op, handle: 1, offset: 2, len: 3 };
            assert_eq!(NbdRequest::parse(&r.encode()).unwrap().op, op);
        }
    }
}
