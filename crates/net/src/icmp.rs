//! ICMP echo (ping) encoding.

use crate::checksum;

/// ICMP message subset used by the latency experiments, over its
/// payload bytes `P`: an owned `Vec<u8>` when built for sending, a
/// `&[u8]` into the wire buffer when parsed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IcmpMessage<P = Vec<u8>> {
    /// Echo request (type 8).
    EchoRequest {
        /// Identifier (ping process id).
        ident: u16,
        /// Sequence number.
        seq: u16,
        /// Payload (timestamp etc.).
        payload: P,
    },
    /// Echo reply (type 0).
    EchoReply {
        /// Identifier echoed from the request.
        ident: u16,
        /// Sequence echoed from the request.
        seq: u16,
        /// Payload echoed from the request.
        payload: P,
    },
}

impl<'a> IcmpMessage<&'a [u8]> {
    /// Parses and verifies; the payload borrows from `bytes` (a buffer,
    /// a slice of one, or an outer view's `payload`).
    pub fn decode<B: AsRef<[u8]> + ?Sized>(bytes: &'a B) -> Option<Self> {
        let bytes = bytes.as_ref();
        if bytes.len() < 8 || !checksum::verify(bytes) {
            return None;
        }
        let ident = u16::from_be_bytes([bytes[4], bytes[5]]);
        let seq = u16::from_be_bytes([bytes[6], bytes[7]]);
        let payload = &bytes[8..];
        match (bytes[0], bytes[1]) {
            (8, 0) => Some(IcmpMessage::EchoRequest {
                ident,
                seq,
                payload,
            }),
            (0, 0) => Some(IcmpMessage::EchoReply {
                ident,
                seq,
                payload,
            }),
            _ => None,
        }
    }
}

impl<P: AsRef<[u8]>> IcmpMessage<P> {
    /// The reply matching this request.
    ///
    /// Returns `None` for non-request messages.
    pub fn reply(&self) -> Option<IcmpMessage<P>>
    where
        P: Clone,
    {
        match self {
            IcmpMessage::EchoRequest {
                ident,
                seq,
                payload,
            } => Some(IcmpMessage::EchoReply {
                ident: *ident,
                seq: *seq,
                payload: payload.clone(),
            }),
            IcmpMessage::EchoReply { .. } => None,
        }
    }

    /// Serializes with checksum.
    pub fn encode(&self) -> Vec<u8> {
        let (ty, ident, seq, payload) = match self {
            IcmpMessage::EchoRequest {
                ident,
                seq,
                payload,
            } => (8u8, *ident, *seq, payload.as_ref()),
            IcmpMessage::EchoReply {
                ident,
                seq,
                payload,
            } => (0u8, *ident, *seq, payload.as_ref()),
        };
        let mut out = Vec::with_capacity(8 + payload.len());
        out.push(ty);
        out.push(0); // code
        out.extend_from_slice(&[0, 0]); // checksum placeholder
        out.extend_from_slice(&ident.to_be_bytes());
        out.extend_from_slice(&seq.to_be_bytes());
        out.extend_from_slice(payload);
        let c = checksum::checksum(&out);
        out[2..4].copy_from_slice(&c.to_be_bytes());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn echo_roundtrip() {
        let req = IcmpMessage::EchoRequest {
            ident: 0x1234,
            seq: 7,
            payload: &[0xab; 56][..],
        };
        let bytes = req.encode();
        assert_eq!(IcmpMessage::decode(&bytes), Some(req.clone()));
        let rep = req.reply().unwrap();
        assert_eq!(IcmpMessage::decode(&rep.encode()), Some(rep.clone()));
        assert!(rep.reply().is_none());
    }

    #[test]
    fn corruption_detected() {
        let req = IcmpMessage::EchoRequest {
            ident: 1,
            seq: 1,
            payload: vec![1, 2, 3],
        };
        let mut bytes = req.encode();
        bytes[9] ^= 0x80;
        assert_eq!(IcmpMessage::decode(&bytes), None);
    }

    #[test]
    fn short_rejected() {
        assert_eq!(IcmpMessage::decode(&[8, 0, 0]), None);
    }
}
