//! Incremental stream framing.
//!
//! A read gets whatever bytes the socket had — a quarter of a header,
//! three and a half pipelined frames — and the reader must resume where
//! it left off. [`FrameDecoder`] owns that state: push each chunk as it
//! arrives, pop complete frames as [`Bytes`].
//!
//! The server reads requests and the TCP client reads responses through
//! it. The magic is checked as soon as a full header is buffered, and a
//! body length past [`crate::codec::MAX_FRAME_LEN`] is rejected *before*
//! any body bytes are awaited, so a hostile peer can never make either
//! side buffer gigabytes.

use crate::codec::{self, CodecError, HEADER_LEN, MAGIC_REQUEST, MAGIC_RESPONSE, MAX_FRAME_LEN};
use bytes::Bytes;

/// Re-entrant frame extractor for a byte stream delivered in arbitrary
/// chunks.
///
/// ```
/// use mbal_proto::frame::FrameDecoder;
/// use mbal_proto::codec::encode_request;
/// use mbal_proto::Request;
///
/// let frame = encode_request(&Request::Stats { reset: false }, 7).unwrap();
/// let mut dec = FrameDecoder::new();
/// for b in &frame {
///     dec.push(std::slice::from_ref(b)); // byte-at-a-time arrival
/// }
/// let got = dec.next_frame().unwrap().expect("one complete frame");
/// assert_eq!(&got[..], &frame[..]);
/// assert!(dec.is_clean());
/// ```
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Bytes at the front of `buf` already popped as frames; they are
    /// dropped at the next [`FrameDecoder::push`], so a read holding
    /// many frames moves its remainder once, not once per frame.
    consumed: usize,
    /// Set once a header fails validation; the stream past that point
    /// is garbage and every later pop reports the same error.
    poisoned: Option<CodecError>,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends bytes read from the stream.
    pub fn push(&mut self, chunk: &[u8]) {
        self.buf.drain(..self.consumed);
        self.consumed = 0;
        self.buf.extend_from_slice(chunk);
    }

    /// Pops the next complete frame, `Ok(None)` if more bytes are
    /// needed, or an error if the buffered header is malformed (bad
    /// magic, or a body length past the frame cap). Errors are sticky:
    /// a byte stream cannot be resynchronised past a bad header, so the
    /// connection should be dropped.
    pub fn next_frame(&mut self) -> Result<Option<Bytes>, CodecError> {
        if let Some(e) = &self.poisoned {
            return Err(e.clone());
        }
        let rest = &self.buf[self.consumed..];
        if rest.len() < HEADER_LEN {
            return Ok(None);
        }
        if rest[0] != MAGIC_REQUEST && rest[0] != MAGIC_RESPONSE {
            let magic = rest[0];
            return Err(self.poison(CodecError::BadMagic(magic)));
        }
        let total = codec::frame_len(rest).expect("header is buffered");
        if total > MAX_FRAME_LEN {
            return Err(self.poison(CodecError::FrameTooLarge(total)));
        }
        if rest.len() < total {
            return Ok(None);
        }
        let frame = Bytes::copy_from_slice(&rest[..total]);
        self.consumed += total;
        Ok(Some(frame))
    }

    /// Bytes buffered but not yet popped as a frame.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.consumed
    }

    /// True when the stream sits at a frame boundary — an EOF here is a
    /// clean close, anywhere else a truncated frame.
    pub fn is_clean(&self) -> bool {
        self.buffered() == 0 && self.poisoned.is_none()
    }

    fn poison(&mut self, e: CodecError) -> CodecError {
        self.poisoned = Some(e.clone());
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{encode_request, encode_response, Opcode};
    use crate::{Request, Response};
    use mbal_core::types::CacheletId;

    fn sample_frames() -> Vec<Vec<u8>> {
        vec![
            encode_request(
                &Request::Set {
                    cachelet: CacheletId(1),
                    key: b"k".to_vec(),
                    value: vec![7u8; 300].into(),
                    expiry_ms: 9,
                },
                1,
            )
            .unwrap(),
            encode_request(&Request::Stats { reset: true }, 2).unwrap(),
            encode_response(
                &Response::Value {
                    value: b"payload".to_vec().into(),
                    replicas: vec![],
                },
                Opcode::Get,
                3,
            )
            .unwrap(),
        ]
    }

    #[test]
    fn reassembles_pipelined_frames_from_odd_chunks() {
        let stream: Vec<u8> = sample_frames().concat();
        for chunk in [1usize, 3, 24, 25, stream.len()] {
            let mut dec = FrameDecoder::new();
            let mut got = Vec::new();
            for piece in stream.chunks(chunk) {
                dec.push(piece);
                while let Some(f) = dec.next_frame().expect("valid stream") {
                    got.push(f.to_vec());
                }
            }
            assert_eq!(got, sample_frames(), "chunk size {chunk}");
            assert!(dec.is_clean());
        }
    }

    #[test]
    fn bad_magic_is_sticky() {
        let mut dec = FrameDecoder::new();
        dec.push(&[0x55; HEADER_LEN]);
        assert_eq!(dec.next_frame(), Err(CodecError::BadMagic(0x55)));
        dec.push(&sample_frames()[0]);
        assert_eq!(
            dec.next_frame(),
            Err(CodecError::BadMagic(0x55)),
            "no resync past a bad header"
        );
        assert!(!dec.is_clean());
    }

    #[test]
    fn oversized_header_is_rejected_before_the_body_arrives() {
        let mut header = [0u8; HEADER_LEN];
        header[0] = MAGIC_REQUEST;
        header[8..12].copy_from_slice(&(MAX_FRAME_LEN as u32).to_be_bytes());
        let mut dec = FrameDecoder::new();
        dec.push(&header);
        assert_eq!(
            dec.next_frame(),
            Err(CodecError::FrameTooLarge(HEADER_LEN + MAX_FRAME_LEN))
        );
    }

    #[test]
    fn partial_header_waits_for_more() {
        let mut dec = FrameDecoder::new();
        dec.push(&sample_frames()[0][..HEADER_LEN - 1]);
        assert_eq!(dec.next_frame(), Ok(None));
        assert!(!dec.is_clean(), "EOF mid-header is a truncated frame");
    }
}
