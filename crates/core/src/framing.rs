//! Length-prefixed message framing over a VLink.
//!
//! VLink is a byte stream, so every message-oriented personality (the ORB's
//! GIOP messages, the HLA line protocol, SOAP envelopes) puts a length
//! header in front of each message and reassembles messages on the
//! receiving side. [`MessageReassembler`] is that receiving side, built
//! once: it queues the chunks the VLink driver delivered in a
//! [`SegBuf`] by refcount and hands back each complete message as a
//! [`Bytes`] that shares the driver's storage. A message that straddles
//! chunks is gathered with exactly one copy.

use bytes::Bytes;
use simnet::SimWorld;
use transport::SegBuf;

use crate::vlink::VLink;

/// How the length of a message is written in front of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LengthPrefix {
    /// A 4-byte big-endian byte count (GIOP and the HLA line protocol).
    U32Be,
    /// Eight ASCII hex digits (the SOAP envelope framing).
    Hex8,
}

impl LengthPrefix {
    /// Size of the header in bytes.
    const fn header_len(self) -> usize {
        match self {
            LengthPrefix::U32Be => 4,
            LengthPrefix::Hex8 => 8,
        }
    }

    /// Builds the wire form of one message: the header followed by
    /// `payload`, in one allocation and one copy of the payload.
    ///
    /// Panics if the payload is longer than the header can express
    /// (`u32::MAX` bytes for both formats).
    pub fn frame(self, payload: &[u8]) -> Bytes {
        let len = u32::try_from(payload.len()).expect("message longer than its length header");
        let mut out = Vec::with_capacity(self.header_len() + payload.len());
        match self {
            LengthPrefix::U32Be => out.extend_from_slice(&len.to_be_bytes()),
            LengthPrefix::Hex8 => out.extend_from_slice(format!("{len:08x}").as_bytes()),
        }
        out.extend_from_slice(payload);
        Bytes::from(out)
    }

    /// Parses a header of exactly `header_len` bytes; `None` when it is
    /// malformed.
    fn parse(self, header: &[u8]) -> Option<usize> {
        match self {
            LengthPrefix::U32Be => Some(u32::from_be_bytes(header.try_into().ok()?) as usize),
            LengthPrefix::Hex8 => usize::from_str_radix(std::str::from_utf8(header).ok()?, 16).ok(),
        }
    }
}

/// Reassembles length-prefixed messages from a byte stream.
///
/// Memory is bounded by the bytes the stream has delivered: a header
/// announcing a large message allocates nothing until the whole message
/// is buffered.
#[derive(Debug)]
pub struct MessageReassembler {
    prefix: LengthPrefix,
    buf: SegBuf,
}

impl MessageReassembler {
    /// An empty reassembler for messages framed with `prefix`.
    pub fn new(prefix: LengthPrefix) -> MessageReassembler {
        MessageReassembler {
            prefix,
            buf: SegBuf::new(),
        }
    }

    /// Queues one received chunk (a refcount bump, never a copy).
    pub fn push(&mut self, chunk: Bytes) {
        self.buf.push_bytes(chunk);
    }

    /// Drains everything `vlink` has buffered, chunk by chunk.
    pub fn read_from(&mut self, world: &mut SimWorld, vlink: &VLink) {
        loop {
            let chunk = vlink.read_now_bytes(world, usize::MAX);
            if chunk.is_empty() {
                return;
            }
            self.push(chunk);
        }
    }

    /// Removes and returns the next complete message (without its
    /// header), or `None` until one has fully arrived.
    ///
    /// A header that does not parse means the stream has lost its
    /// framing: everything buffered is discarded and `None` returned.
    pub fn next_message(&mut self) -> Option<Bytes> {
        let mut header = [0u8; 8];
        let header = &mut header[..self.prefix.header_len()];
        if self.buf.copy_peek(header) < header.len() {
            return None;
        }
        let Some(len) = self.prefix.parse(header) else {
            self.buf.clear();
            return None;
        };
        if self.buf.len() - header.len() < len {
            return None;
        }
        self.buf.consume(header.len());
        Some(self.buf.read_bytes(len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pushes `wire` in chunks of `chunk` bytes, collecting every message
    /// as soon as it completes.
    fn reassemble(prefix: LengthPrefix, wire: &Bytes, chunk: usize) -> Vec<Bytes> {
        let mut rx = MessageReassembler::new(prefix);
        let mut out = Vec::new();
        for start in (0..wire.len()).step_by(chunk) {
            rx.push(wire.slice(start..(start + chunk).min(wire.len())));
            while let Some(msg) = rx.next_message() {
                out.push(msg);
            }
        }
        assert_eq!(rx.buf.len(), 0, "no bytes left behind");
        out
    }

    #[test]
    fn frames_survive_every_chunking() {
        let big: Vec<u8> = (0..(1 << 20) + 7).map(|i| (i * 7 + 3) as u8).collect();
        let payloads: Vec<&[u8]> = vec![b"", b"x", b"abc", &big];
        for prefix in [LengthPrefix::U32Be, LengthPrefix::Hex8] {
            let mut wire = Vec::new();
            for p in &payloads {
                wire.extend_from_slice(&prefix.frame(p));
            }
            let wire = Bytes::from(wire);
            for chunk in (1..=7).chain([wire.len()]) {
                let got = reassemble(prefix, &wire, chunk);
                assert_eq!(
                    got.len(),
                    payloads.len(),
                    "{prefix:?} in {chunk}-byte chunks"
                );
                for (g, p) in got.iter().zip(&payloads) {
                    assert!(g[..] == p[..], "{prefix:?} in {chunk}-byte chunks");
                }
            }
        }
    }

    #[test]
    fn headers_match_the_wire_formats() {
        assert_eq!(LengthPrefix::U32Be.frame(b"hi"), [0, 0, 0, 2, b'h', b'i']);
        assert_eq!(LengthPrefix::Hex8.frame(&[0; 26])[..8], *b"0000001a");
    }

    #[test]
    fn whole_message_in_one_chunk_is_not_copied() {
        let wire = LengthPrefix::U32Be.frame(b"payload");
        let mut rx = MessageReassembler::new(LengthPrefix::U32Be);
        rx.push(wire.clone());
        let msg = rx.next_message().unwrap();
        assert_eq!(msg, b"payload");
        assert_eq!(
            msg.as_ptr(),
            wire[4..].as_ptr(),
            "shares the chunk's storage"
        );
    }

    #[test]
    fn malformed_hex_header_discards_the_buffer() {
        let mut rx = MessageReassembler::new(LengthPrefix::Hex8);
        rx.push(Bytes::from_static(b"zzzzzzzzjunk"));
        assert_eq!(rx.next_message(), None);
        rx.push(LengthPrefix::Hex8.frame(b"ok"));
        assert_eq!(rx.next_message().unwrap(), b"ok");
    }
}
