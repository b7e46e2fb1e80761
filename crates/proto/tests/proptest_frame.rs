//! The [`FrameDecoder`] that the server and the TCP client both read
//! through must agree with a reference blocking reader on every byte
//! stream and every split of that stream: same frames out, equivalent
//! verdicts on hostile headers, truncation, and garbage. The reference
//! is the oracle; it is not used outside this test.

use mbal_core::types::CacheletId;
use mbal_proto::codec::{
    encode_request, CodecError, HEADER_LEN, MAGIC_REQUEST, MAGIC_RESPONSE, MAX_FRAME_LEN,
};
use mbal_proto::{FrameDecoder, Request};
use proptest::prelude::*;
use std::io::{Cursor, ErrorKind, Read};

/// Reference implementation: a blocking reader that reads a header,
/// checks it, then reads the body, from an in-memory cursor instead of
/// a socket.
fn read_frame_blocking(stream: &mut Cursor<&[u8]>) -> std::io::Result<Option<Vec<u8>>> {
    let mut header = [0u8; HEADER_LEN];
    match stream.read_exact(&mut header) {
        Ok(()) => {}
        Err(e) if e.kind() == ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    if header[0] != MAGIC_REQUEST && header[0] != MAGIC_RESPONSE {
        return Err(std::io::Error::new(
            ErrorKind::InvalidData,
            format!("bad magic {:#x}", header[0]),
        ));
    }
    let total = match mbal_proto::codec::frame_len(&header) {
        Some(t) if t <= MAX_FRAME_LEN => t,
        Some(t) => {
            return Err(std::io::Error::new(
                ErrorKind::InvalidData,
                format!("frame of {t} bytes exceeds the {MAX_FRAME_LEN} byte cap"),
            ))
        }
        None => {
            return Err(std::io::Error::new(
                ErrorKind::InvalidData,
                "short frame header",
            ))
        }
    };
    let mut frame = vec![0u8; total];
    frame[..HEADER_LEN].copy_from_slice(&header);
    stream.read_exact(&mut frame[HEADER_LEN..])?;
    Ok(Some(frame))
}

fn run_blocking(stream: &[u8]) -> (Vec<Vec<u8>>, Option<ErrorKind>) {
    let mut cur = Cursor::new(stream);
    let mut frames = Vec::new();
    loop {
        match read_frame_blocking(&mut cur) {
            Ok(Some(f)) => frames.push(f),
            Ok(None) => return (frames, None),
            Err(e) => return (frames, Some(e.kind())),
        }
    }
}

fn run_decoder(stream: &[u8], chunk: usize) -> (Vec<Vec<u8>>, Option<CodecError>, bool) {
    let mut dec = FrameDecoder::new();
    let mut frames = Vec::new();
    for piece in stream.chunks(chunk.max(1)) {
        dec.push(piece);
        loop {
            match dec.next_frame() {
                Ok(Some(f)) => frames.push(f.to_vec()),
                Ok(None) => break,
                Err(e) => return (frames, Some(e), dec.is_clean()),
            }
        }
    }
    let clean = dec.is_clean();
    (frames, None, clean)
}

/// A stream segment: a well-formed frame, raw garbage, or a crafted
/// header with chosen magic and body length (the hostile cases).
fn segment_strategy() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        3 => (prop::collection::vec(any::<u8>(), 1..16), prop::collection::vec(any::<u8>(), 0..128))
            .prop_map(|(k, v)| encode_request(
                &Request::Set {
                    cachelet: CacheletId(1),
                    key: k,
                    value: v.into(),
                    expiry_ms: 0,
                },
                9,
            )
            .expect("encode")),
        1 => prop::collection::vec(any::<u8>(), 1..64),
        1 => (
            prop_oneof![Just(MAGIC_REQUEST), Just(MAGIC_RESPONSE), any::<u8>()],
            any::<u32>(),
        )
            .prop_map(|(magic, body_len)| {
                let mut h = vec![0u8; HEADER_LEN];
                h[0] = magic;
                h[8..12].copy_from_slice(&body_len.to_be_bytes());
                h
            }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Any stream, any chunking — from byte-at-a-time up through the
    /// whole stream at once — yields exactly the frames the blocking
    /// reader extracts, with equivalent error verdicts.
    #[test]
    fn decoder_matches_blocking_reader(
        segments in prop::collection::vec(segment_strategy(), 0..6),
        chunk in 1usize..512,
        cut in any::<usize>(),
    ) {
        let mut stream: Vec<u8> = segments.concat();
        // Also exercise truncation: lop off a suffix half the time.
        if !stream.is_empty() && cut.is_multiple_of(2) {
            stream.truncate(cut % stream.len());
        }

        let (want, berr) = run_blocking(&stream);
        let (got, derr, clean) = run_decoder(&stream, chunk);
        prop_assert_eq!(&got, &want, "frames must match at chunk {}", chunk);

        match berr {
            // Header validation failure: the decoder must refuse the
            // same header (it cannot see InvalidData reasons, but the
            // variant must correspond).
            Some(ErrorKind::InvalidData) => prop_assert!(
                matches!(derr, Some(CodecError::BadMagic(_)) | Some(CodecError::FrameTooLarge(_))),
                "blocking rejected the header, decoder said {:?}", derr
            ),
            // EOF mid-body: the decoder just waits for more; the
            // stream ends dirty.
            Some(ErrorKind::UnexpectedEof) => {
                prop_assert_eq!(&derr, &None);
                prop_assert!(!clean, "mid-frame EOF must not look clean");
            }
            Some(k) => prop_assert!(false, "unexpected blocking error {k:?}"),
            // Clean stop: the decoder errors on nothing, and is clean
            // exactly when the blocking reader consumed every byte at
            // a frame boundary.
            None => {
                prop_assert_eq!(&derr, &None);
                let consumed: usize = want.iter().map(Vec::len).sum();
                prop_assert_eq!(clean, consumed == stream.len());
            }
        }
    }

    /// Frames recovered through the decoder decode to the same request
    /// the blocking path would see.
    #[test]
    fn decoded_frames_parse_identically(
        key in prop::collection::vec(any::<u8>(), 1..32),
        value in prop::collection::vec(any::<u8>(), 0..256),
        chunk in 1usize..64,
    ) {
        let req = Request::Set {
            cachelet: CacheletId(2),
            key,
            value: value.into(),
            expiry_ms: 5,
        };
        let frame = encode_request(&req, 11).expect("encode");
        let (got, err, clean) = run_decoder(&frame, chunk);
        prop_assert_eq!(err, None);
        prop_assert!(clean);
        prop_assert_eq!(got.len(), 1);
        let (decoded, opaque) = mbal_proto::codec::decode_request(&got[0]).expect("decode");
        prop_assert_eq!(decoded, req);
        prop_assert_eq!(opaque, 11);
    }
}
