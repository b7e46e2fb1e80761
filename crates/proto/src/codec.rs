//! Binary wire codec.
//!
//! Frames follow the Memcached binary protocol envelope: a 24-byte header
//! followed by `total_body_len` body bytes. The vbucket field carries the
//! cachelet id on requests and the status code on responses. The 8-byte
//! CAS field is reused for expiry/lease/version payloads, which keeps all
//! standard ops inside the stock envelope; MBal's extension opcodes place
//! structured lists in the body.
//!
//! Each frame is encoded once, into the caller's buffer: the encoders
//! write a header whose length fields are patched when the body is done.
//! Requests go through [`encode_request_into`]; responses through one
//! writer, either into a flat buffer ([`encode_response`]) or as
//! fragments that keep value payloads shared with the engine
//! ([`encode_response_frags_into`]).

use crate::message::{Request, Response, Status};
use bytes::{Buf, BufMut, Bytes};
use mbal_core::types::{CacheletId, ServerId, TenantId, Value, WorkerAddr, WorkerId};
use std::collections::VecDeque;

/// Request magic byte.
pub const MAGIC_REQUEST: u8 = 0x80;
/// Response magic byte.
pub const MAGIC_RESPONSE: u8 = 0x81;
/// Header size in bytes.
pub const HEADER_LEN: usize = 24;
/// Upper bound on a single frame accepted off the wire. Body lengths are
/// attacker-controlled u32s; without a cap a malicious header could make
/// the framing layer allocate 4 GiB before reading a single body byte.
pub const MAX_FRAME_LEN: usize = 64 << 20;
/// Extras length carried by a request acting for a non-default tenant:
/// a big-endian `u16` tenant id in the (otherwise unused) extras field.
/// Default-tenant frames carry no extras, so pre-tenant peers and frames
/// interoperate unchanged.
pub const TENANT_EXTRAS_LEN: u8 = 2;
/// Bytes an encoder reserves when it starts a frame: the header and a
/// short key or short metadata, so a small frame takes one allocation.
const FRAME_RESERVE: usize = 64;

/// Wire opcodes. Standard Memcached values where they exist; MBal
/// extensions start at 0x40.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Opcode {
    /// Single-key lookup.
    Get = 0x00,
    /// Insert/replace.
    Set = 0x01,
    /// Delete.
    Delete = 0x04,
    /// Statistics fetch.
    Stats = 0x10,
    /// Batched lookup.
    MultiGet = 0x40,
    /// Replica read at a shadow worker.
    ReplicaRead = 0x41,
    /// Replica install/refresh.
    ReplicaInstall = 0x42,
    /// Replica write propagation.
    ReplicaUpdate = 0x43,
    /// Replica drop.
    ReplicaInvalidate = 0x44,
    /// Bucket-granular migration data.
    MigrateEntries = 0x45,
    /// Migration completion marker.
    MigrateCommit = 0x46,
    /// Client ↔ coordinator heartbeat.
    Heartbeat = 0x47,
    /// Batched-RPC envelope: the body carries a count plus that many
    /// complete request sub-frames, each with its own opaque. Responses
    /// are *not* wrapped — the responder pipelines one response frame
    /// per sub-request (echoing its opaque) so a connection drop
    /// mid-batch still yields per-operation outcomes.
    Batch = 0x48,
    /// Migration rollback marker: the destination discards partial
    /// state for the cachelet and forwards clients to the home worker.
    MigrateAbort = 0x49,
    /// Membership: admit a server (coordinator-served).
    Join = 0x4A,
    /// Membership: drain a server ahead of removal (coordinator-served).
    Drain = 0x4B,
    /// Fetch the cached cluster membership view from a server.
    ClusterStatus = 0x4C,
    /// Conditional insert.
    Add = 0x02,
    /// Conditional overwrite.
    Replace = 0x03,
    /// Counter increment/decrement (signed delta in CAS).
    Incr = 0x05,
    /// Append/prepend (vbucket high bit unused; direction in CAS).
    Concat = 0x0E,
    /// TTL refresh.
    Touch = 0x1C,
}

impl Opcode {
    fn from_u8(v: u8) -> Option<Opcode> {
        Some(match v {
            0x00 => Opcode::Get,
            0x01 => Opcode::Set,
            0x02 => Opcode::Add,
            0x03 => Opcode::Replace,
            0x04 => Opcode::Delete,
            0x05 => Opcode::Incr,
            0x0E => Opcode::Concat,
            0x1C => Opcode::Touch,
            0x10 => Opcode::Stats,
            0x40 => Opcode::MultiGet,
            0x41 => Opcode::ReplicaRead,
            0x42 => Opcode::ReplicaInstall,
            0x43 => Opcode::ReplicaUpdate,
            0x44 => Opcode::ReplicaInvalidate,
            0x45 => Opcode::MigrateEntries,
            0x46 => Opcode::MigrateCommit,
            0x47 => Opcode::Heartbeat,
            0x48 => Opcode::Batch,
            0x49 => Opcode::MigrateAbort,
            0x4A => Opcode::Join,
            0x4B => Opcode::Drain,
            0x4C => Opcode::ClusterStatus,
            _ => return None,
        })
    }
}

/// Codec failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The frame is shorter than its header demands.
    Truncated,
    /// Unknown magic byte.
    BadMagic(u8),
    /// Unknown opcode.
    BadOpcode(u8),
    /// Unknown status code.
    BadStatus(u16),
    /// A cachelet id exceeded the 16-bit vbucket field.
    CacheletOverflow(u32),
    /// A frame header advertised a body past [`MAX_FRAME_LEN`].
    FrameTooLarge(usize),
    /// Structured body failed to parse.
    Malformed(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "truncated frame"),
            CodecError::BadMagic(m) => write!(f, "bad magic {m:#x}"),
            CodecError::BadOpcode(o) => write!(f, "bad opcode {o:#x}"),
            CodecError::BadStatus(s) => write!(f, "bad status {s}"),
            CodecError::CacheletOverflow(c) => {
                write!(f, "cachelet id {c} exceeds the 16-bit vbucket field")
            }
            CodecError::FrameTooLarge(n) => {
                write!(f, "frame of {n} bytes exceeds the {MAX_FRAME_LEN} byte cap")
            }
            CodecError::Malformed(m) => write!(f, "malformed body: {m}"),
        }
    }
}

impl std::error::Error for CodecError {}

fn vbucket(c: CacheletId) -> Result<u16, CodecError> {
    u16::try_from(c.0).map_err(|_| CodecError::CacheletOverflow(c.0))
}

struct Header {
    magic: u8,
    opcode: u8,
    key_len: u16,
    extras_len: u8,
    vbucket_or_status: u16,
    body_len: u32,
    opaque: u32,
    cas: u64,
}

fn put_header(buf: &mut Vec<u8>, h: &Header) {
    buf.put_u8(h.magic);
    buf.put_u8(h.opcode);
    buf.put_u16(h.key_len);
    buf.put_u8(h.extras_len);
    buf.put_u8(0); // data type
    buf.put_u16(h.vbucket_or_status);
    buf.put_u32(h.body_len);
    buf.put_u32(h.opaque);
    buf.put_u64(h.cas);
}

fn parse_header(frame: &[u8]) -> Result<Header, CodecError> {
    if frame.len() < HEADER_LEN {
        return Err(CodecError::Truncated);
    }
    let mut b = frame;
    let magic = b.get_u8();
    let opcode = b.get_u8();
    let key_len = b.get_u16();
    let extras_len = b.get_u8();
    let _data_type = b.get_u8();
    let vbucket_or_status = b.get_u16();
    let body_len = b.get_u32();
    let opaque = b.get_u32();
    let cas = b.get_u64();
    if frame.len() < HEADER_LEN + body_len as usize {
        return Err(CodecError::Truncated);
    }
    Ok(Header {
        magic,
        opcode,
        key_len,
        extras_len,
        vbucket_or_status,
        body_len,
        opaque,
        cas,
    })
}

/// Total frame length implied by a 24-byte header prefix, for stream
/// framing. Returns `None` if fewer than [`HEADER_LEN`] bytes are given.
pub fn frame_len(prefix: &[u8]) -> Option<usize> {
    if prefix.len() < HEADER_LEN {
        return None;
    }
    let body = u32::from_be_bytes(prefix[8..12].try_into().expect("4 bytes")) as usize;
    Some(HEADER_LEN + body)
}

/// Encodes a request into a complete wire frame. `opaque` is echoed in the
/// matching response for correlation.
///
/// A [`Request::ForTenant`] wrapper is not an opcode of its own: the
/// inner request is encoded normally and the tenant id rides the
/// header's extras field ([`TENANT_EXTRAS_LEN`] bytes before the key).
pub fn encode_request(req: &Request, opaque: u32) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::new();
    encode_request_into(req, opaque, &mut out)?;
    Ok(out)
}

/// [`encode_request`] appending the frame to `out`, so a caller can
/// build a whole write (a batch, a pipelined burst) in one buffer. On
/// error `out` is left as it was.
pub fn encode_request_into(
    req: &Request,
    opaque: u32,
    out: &mut Vec<u8>,
) -> Result<(), CodecError> {
    let start = out.len();
    let written = write_request(req, opaque, out);
    if written.is_err() {
        out.truncate(start);
    }
    written
}

/// Appends a request frame: a header whose length fields are patched at
/// the end, the tenant extras, then the key and value or the structured
/// body.
fn write_request(req: &Request, opaque: u32, out: &mut Vec<u8>) -> Result<(), CodecError> {
    let start = out.len();
    out.reserve(FRAME_RESERVE);
    let (tenant, req) = match req {
        Request::ForTenant { tenant, req } => {
            if matches!(req.as_ref(), Request::ForTenant { .. }) {
                return Err(CodecError::Malformed("nested tenant wrapper"));
            }
            (tenant.0, req.as_ref())
        }
        other => (0u16, other),
    };
    let extras_len = if tenant != 0 { TENANT_EXTRAS_LEN } else { 0 };
    put_header(
        out,
        &Header {
            magic: MAGIC_REQUEST,
            opcode: opcode_of(req) as u8,
            key_len: 0,
            extras_len,
            vbucket_or_status: 0,
            body_len: 0,
            opaque,
            cas: 0,
        },
    );
    if tenant != 0 {
        out.put_u16(tenant);
    }
    // Each arm writes its body and yields the vbucket, the key length
    // (0 for structured bodies) and the cas payload.
    let (vb, key_len, cas) = match req {
        Request::Get { cachelet, key } | Request::Delete { cachelet, key } => {
            (vbucket(*cachelet)?, put_key_value(out, key, &[]), 0)
        }
        Request::Set {
            cachelet,
            key,
            value,
            expiry_ms,
        }
        | Request::Add {
            cachelet,
            key,
            value,
            expiry_ms,
        }
        | Request::Replace {
            cachelet,
            key,
            value,
            expiry_ms,
        } => (
            vbucket(*cachelet)?,
            put_key_value(out, key, value),
            *expiry_ms,
        ),
        Request::Concat {
            cachelet,
            key,
            value,
            front,
        } => (
            vbucket(*cachelet)?,
            put_key_value(out, key, value),
            u64::from(*front),
        ),
        Request::Incr {
            cachelet,
            key,
            delta,
        } => (
            vbucket(*cachelet)?,
            put_key_value(out, key, &[]),
            *delta as u64,
        ),
        Request::Touch {
            cachelet,
            key,
            expiry_ms,
        } => (
            vbucket(*cachelet)?,
            put_key_value(out, key, &[]),
            *expiry_ms,
        ),
        Request::ReplicaRead { key } | Request::ReplicaInvalidate { key } => {
            (0, put_key_value(out, key, &[]), 0)
        }
        Request::ReplicaInstall {
            key,
            value,
            lease_expiry_ms,
        } => (0, put_key_value(out, key, value), *lease_expiry_ms),
        Request::ReplicaUpdate { key, value } => (0, put_key_value(out, key, value), 0),
        // The reset flag rides in the cas field, like Concat's front flag.
        Request::Stats { reset } => (0, 0, u64::from(*reset)),
        Request::Heartbeat { version } => (0, 0, *version),
        Request::MultiGet { keys } => {
            out.put_u32(keys.len() as u32);
            for (c, k) in keys {
                out.put_u16(vbucket(*c)?);
                out.put_u16(k.len() as u16);
                out.put_slice(k);
            }
            (0, 0, 0)
        }
        Request::MigrateEntries { cachelet, entries } => {
            out.put_u32(entries.len() as u32);
            for (k, v, exp) in entries {
                out.put_u16(k.len() as u16);
                out.put_u32(v.len() as u32);
                out.put_u64(*exp);
                out.put_slice(k);
                out.put_slice(v);
            }
            (vbucket(*cachelet)?, 0, 0)
        }
        Request::MigrateCommit { cachelet } => (vbucket(*cachelet)?, 0, 0),
        Request::MigrateAbort { cachelet, home } => {
            put_worker(out, *home);
            (vbucket(*cachelet)?, 0, 0)
        }
        Request::Join {
            server,
            workers,
            incarnation,
        } => {
            // Server id and worker count ride in the body; the
            // incarnation rides in the cas field like other u64 payloads.
            out.put_u16(server.0);
            out.put_u16(*workers);
            (0, 0, *incarnation)
        }
        Request::Drain { server } => {
            out.put_u16(server.0);
            (0, 0, 0)
        }
        Request::ClusterStatus => (0, 0, 0),
        Request::ForTenant { .. } => unreachable!("tenant wrapper unwrapped above"),
    };
    let frame = &mut out[start..];
    frame[2..4].copy_from_slice(&key_len.to_be_bytes());
    frame[6..8].copy_from_slice(&vb.to_be_bytes());
    patch_body_len(frame);
    frame[16..24].copy_from_slice(&cas.to_be_bytes());
    Ok(())
}

/// Appends a key and its value; returns the key length for the header.
fn put_key_value(out: &mut Vec<u8>, key: &[u8], value: &[u8]) -> u16 {
    out.reserve(key.len() + value.len());
    out.put_slice(key);
    out.put_slice(value);
    key.len() as u16
}

/// Sets a frame's body length to everything after its header.
fn patch_body_len(frame: &mut [u8]) {
    let body_len = (frame.len() - HEADER_LEN) as u32;
    frame[8..12].copy_from_slice(&body_len.to_be_bytes());
}

/// Decodes a request frame, returning the request and its opaque.
pub fn decode_request(frame: &[u8]) -> Result<(Request, u32), CodecError> {
    let h = parse_header(frame)?;
    if h.magic != MAGIC_REQUEST {
        return Err(CodecError::BadMagic(h.magic));
    }
    let op = Opcode::from_u8(h.opcode).ok_or(CodecError::BadOpcode(h.opcode))?;
    let body = &frame[HEADER_LEN..HEADER_LEN + h.body_len as usize];
    let key_end = h.extras_len as usize + h.key_len as usize;
    if key_end > body.len() {
        return Err(CodecError::Malformed("key extends past body"));
    }
    let key = body[h.extras_len as usize..key_end].to_vec();
    let value = Value::copy_from_slice(&body[key_end..]);
    // Structured bodies (counted lists) start after the extras too.
    let sbody = &body[h.extras_len as usize..];
    // A non-default tenant rides the extras field; absent extras mean
    // the default tenant, so pre-tenant frames decode unchanged.
    let tenant = if h.extras_len as usize >= TENANT_EXTRAS_LEN as usize {
        u16::from_be_bytes([body[0], body[1]])
    } else {
        0
    };
    let cachelet = CacheletId(h.vbucket_or_status as u32);
    let req = match op {
        Opcode::Get => Request::Get { cachelet, key },
        Opcode::Set => Request::Set {
            cachelet,
            key,
            value,
            expiry_ms: h.cas,
        },
        Opcode::Delete => Request::Delete { cachelet, key },
        Opcode::Add => Request::Add {
            cachelet,
            key,
            value,
            expiry_ms: h.cas,
        },
        Opcode::Replace => Request::Replace {
            cachelet,
            key,
            value,
            expiry_ms: h.cas,
        },
        Opcode::Concat => Request::Concat {
            cachelet,
            key,
            value,
            front: h.cas == 1,
        },
        Opcode::Incr => Request::Incr {
            cachelet,
            key,
            delta: h.cas as i64,
        },
        Opcode::Touch => Request::Touch {
            cachelet,
            key,
            expiry_ms: h.cas,
        },
        Opcode::ReplicaRead => Request::ReplicaRead { key },
        Opcode::ReplicaInstall => Request::ReplicaInstall {
            key,
            value,
            lease_expiry_ms: h.cas,
        },
        Opcode::ReplicaUpdate => Request::ReplicaUpdate { key, value },
        Opcode::ReplicaInvalidate => Request::ReplicaInvalidate { key },
        Opcode::Stats => Request::Stats { reset: h.cas == 1 },
        Opcode::Heartbeat => Request::Heartbeat { version: h.cas },
        Opcode::MigrateCommit => Request::MigrateCommit { cachelet },
        Opcode::MigrateAbort => {
            let mut b = sbody;
            let home = get_worker(&mut b)?;
            Request::MigrateAbort { cachelet, home }
        }
        Opcode::Batch => {
            return Err(CodecError::Malformed(
                "batch envelopes must go through decode_batch_request",
            ))
        }
        Opcode::Join => {
            let mut b = sbody;
            if b.remaining() < 4 {
                return Err(CodecError::Malformed("join body"));
            }
            Request::Join {
                server: ServerId(b.get_u16()),
                workers: b.get_u16(),
                incarnation: h.cas,
            }
        }
        Opcode::Drain => {
            let mut b = sbody;
            if b.remaining() < 2 {
                return Err(CodecError::Malformed("drain body"));
            }
            Request::Drain {
                server: ServerId(b.get_u16()),
            }
        }
        Opcode::ClusterStatus => Request::ClusterStatus,
        Opcode::MultiGet => {
            let mut b = sbody;
            if b.remaining() < 4 {
                return Err(CodecError::Malformed("multiget count"));
            }
            let n = b.get_u32() as usize;
            let mut keys = Vec::with_capacity(n.min(4_096));
            for _ in 0..n {
                if b.remaining() < 4 {
                    return Err(CodecError::Malformed("multiget key header"));
                }
                let c = CacheletId(b.get_u16() as u32);
                let klen = b.get_u16() as usize;
                if b.remaining() < klen {
                    return Err(CodecError::Malformed("multiget key bytes"));
                }
                keys.push((c, b[..klen].to_vec()));
                b.advance(klen);
            }
            Request::MultiGet { keys }
        }
        Opcode::MigrateEntries => {
            let mut b = sbody;
            if b.remaining() < 4 {
                return Err(CodecError::Malformed("migrate count"));
            }
            let n = b.get_u32() as usize;
            let mut entries = Vec::with_capacity(n.min(4_096));
            for _ in 0..n {
                if b.remaining() < 14 {
                    return Err(CodecError::Malformed("migrate entry header"));
                }
                let klen = b.get_u16() as usize;
                let vlen = b.get_u32() as usize;
                let exp = b.get_u64();
                if b.remaining() < klen + vlen {
                    return Err(CodecError::Malformed("migrate entry bytes"));
                }
                let k = b[..klen].to_vec();
                b.advance(klen);
                let v = b.copy_to_bytes(vlen);
                entries.push((k, v, exp));
            }
            Request::MigrateEntries { cachelet, entries }
        }
    };
    let req = if tenant != 0 {
        Request::ForTenant {
            tenant: TenantId(tenant),
            req: Box::new(req),
        }
    } else {
        req
    };
    Ok((req, h.opaque))
}

/// Encodes a pipelined batch of requests into one [`Opcode::Batch`]
/// envelope frame: a `u32` count followed by that many complete request
/// sub-frames. Each sub-frame's opaque is its index in `reqs`; responders
/// answer with one ordinary response frame per sub-request, echoing that
/// opaque, so callers can correlate per-operation outcomes even when the
/// connection dies mid-batch.
pub fn encode_batch_request(reqs: &[Request]) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::new();
    put_header(
        &mut out,
        &Header {
            magic: MAGIC_REQUEST,
            opcode: Opcode::Batch as u8,
            key_len: 0,
            extras_len: 0,
            vbucket_or_status: 0,
            body_len: 0,
            opaque: 0,
            cas: 0,
        },
    );
    out.put_u32(reqs.len() as u32);
    for (i, req) in reqs.iter().enumerate() {
        encode_request_into(req, i as u32, &mut out)?;
    }
    patch_body_len(&mut out);
    Ok(out)
}

/// Decodes an [`Opcode::Batch`] envelope into its sub-requests and their
/// opaques (batch indices when produced by [`encode_batch_request`]).
pub fn decode_batch_request(frame: &[u8]) -> Result<Vec<(Request, u32)>, CodecError> {
    let h = parse_header(frame)?;
    if h.magic != MAGIC_REQUEST {
        return Err(CodecError::BadMagic(h.magic));
    }
    if h.opcode != Opcode::Batch as u8 {
        return Err(CodecError::BadOpcode(h.opcode));
    }
    let mut body = &frame[HEADER_LEN..HEADER_LEN + h.body_len as usize];
    if body.remaining() < 4 {
        return Err(CodecError::Malformed("batch count"));
    }
    let n = body.get_u32() as usize;
    let mut reqs = Vec::with_capacity(n.min(4_096));
    for _ in 0..n {
        let sub_len = frame_len(body).ok_or(CodecError::Malformed("batch sub-header"))?;
        if body.len() < sub_len {
            return Err(CodecError::Malformed("batch sub-frame bytes"));
        }
        reqs.push(decode_request(&body[..sub_len])?);
        body.advance(sub_len);
    }
    if body.has_remaining() {
        return Err(CodecError::Malformed("trailing bytes after batch"));
    }
    Ok(reqs)
}

/// Cheap opcode-byte check for a batch envelope; callers still run the
/// full [`decode_batch_request`] decoder afterwards.
pub fn is_batch(frame: &[u8]) -> bool {
    frame.len() >= 2 && frame[0] == MAGIC_REQUEST && frame[1] == Opcode::Batch as u8
}

fn put_worker(buf: &mut Vec<u8>, w: WorkerAddr) {
    buf.put_u16(w.server.0);
    buf.put_u16(w.worker.0);
}

fn get_worker(b: &mut &[u8]) -> Result<WorkerAddr, CodecError> {
    if b.remaining() < 4 {
        return Err(CodecError::Malformed("worker addr"));
    }
    Ok(WorkerAddr {
        server: ServerId(b.get_u16()),
        worker: WorkerId(b.get_u16()),
    })
}

/// One fragment of an encoded response, ready for a vectored write.
#[derive(Debug)]
pub enum Frag {
    /// Header and metadata bytes, written once by the encoder.
    Owned(Vec<u8>),
    /// A value payload: a refcounted view of the engine's buffer.
    Shared(Bytes),
}

impl std::ops::Deref for Frag {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match self {
            Frag::Owned(v) => v,
            Frag::Shared(b) => b,
        }
    }
}

/// Where [`write_response`] puts a frame: a flat buffer copies value
/// payloads in, a fragment queue keeps them shared.
trait ResponseSink {
    /// Starts a frame and returns the mark [`ResponseSink::finish`]
    /// patches it by.
    fn begin(&mut self) -> usize;
    /// The owned buffer header and metadata bytes are appended to.
    fn owned(&mut self) -> &mut Vec<u8>;
    /// Appends a value payload.
    fn value(&mut self, v: &Bytes);
    /// Sets the body length of the frame begun at `mark`.
    fn finish(&mut self, mark: usize);
}

impl ResponseSink for Vec<u8> {
    fn begin(&mut self) -> usize {
        self.reserve(FRAME_RESERVE);
        self.len()
    }

    fn owned(&mut self) -> &mut Vec<u8> {
        self
    }

    fn value(&mut self, v: &Bytes) {
        self.extend_from_slice(v);
    }

    fn finish(&mut self, mark: usize) {
        patch_body_len(&mut self[mark..]);
    }
}

impl ResponseSink for VecDeque<Frag> {
    /// The header starts a fresh owned fragment.
    fn begin(&mut self) -> usize {
        self.push_back(Frag::Owned(Vec::with_capacity(FRAME_RESERVE)));
        self.len() - 1
    }

    fn owned(&mut self) -> &mut Vec<u8> {
        if !matches!(self.back(), Some(Frag::Owned(_))) {
            self.push_back(Frag::Owned(Vec::new()));
        }
        match self.back_mut() {
            Some(Frag::Owned(v)) => v,
            _ => unreachable!("the last fragment is owned"),
        }
    }

    /// A refcount bump, never a copy.
    fn value(&mut self, v: &Bytes) {
        if !v.is_empty() {
            self.push_back(Frag::Shared(v.clone()));
        }
    }

    fn finish(&mut self, mark: usize) {
        let len: usize = self.range(mark..).map(|f| f.len()).sum();
        if let Some(Frag::Owned(head)) = self.get_mut(mark) {
            head[8..12].copy_from_slice(&((len - HEADER_LEN) as u32).to_be_bytes());
        }
    }
}

/// Appends one response frame to `sink`: the header with its body
/// length patched at the end, then the body.
fn write_response(
    resp: &Response,
    opcode: Opcode,
    opaque: u32,
    sink: &mut impl ResponseSink,
) -> Result<(), CodecError> {
    // The one fallible step comes first, so a failed encode writes nothing.
    let cas = match resp {
        Response::Moved { cachelet, .. } => {
            vbucket(*cachelet)?;
            0
        }
        Response::Counter { value } => *value,
        Response::MembershipAck { epoch } => *epoch,
        Response::HeartbeatAck { version, .. } => *version,
        _ => 0,
    };
    let mark = sink.begin();
    put_header(
        sink.owned(),
        &Header {
            magic: MAGIC_RESPONSE,
            opcode: opcode as u8,
            key_len: 0,
            extras_len: 0,
            vbucket_or_status: resp.status() as u16,
            body_len: 0,
            opaque,
            cas,
        },
    );
    match resp {
        Response::Value { value, replicas } => {
            let meta = sink.owned();
            meta.put_u16(replicas.len() as u16);
            for &r in replicas {
                put_worker(meta, r);
            }
            sink.value(value);
        }
        Response::Values { values } => {
            sink.owned().put_u32(values.len() as u32);
            for v in values {
                match v {
                    Some(bytes) => {
                        let meta = sink.owned();
                        meta.put_u8(1);
                        meta.put_u32(bytes.len() as u32);
                        sink.value(bytes);
                    }
                    None => sink.owned().put_u8(0),
                }
            }
        }
        Response::NotFound
        | Response::Stored
        | Response::Deleted
        | Response::Touched
        | Response::MigrateAck
        | Response::Counter { .. }
        | Response::MembershipAck { .. } => {}
        Response::Moved {
            cachelet,
            new_owner,
        } => {
            let meta = sink.owned();
            meta.put_u16(cachelet.0 as u16);
            put_worker(meta, *new_owner);
        }
        Response::StatsBlob { payload } => sink.owned().put_slice(payload),
        Response::HeartbeatAck {
            deltas,
            full_refetch,
            ..
        } => {
            let meta = sink.owned();
            meta.put_u8(u8::from(*full_refetch));
            meta.put_u32(deltas.len() as u32);
            for (ver, c, w) in deltas {
                meta.put_u64(*ver);
                meta.put_u32(c.0);
                put_worker(meta, *w);
            }
        }
        Response::Fail { message, .. } => sink.owned().put_slice(message.as_bytes()),
    }
    sink.finish(mark);
    Ok(())
}

/// Encodes a response as write-ready fragments: an owned fragment that
/// starts with the header, and each value payload as a shared [`Bytes`]
/// view of the engine's buffer. Concatenated, the fragments are
/// byte-identical to the frame [`encode_response`] builds.
pub fn encode_response_frags(
    resp: &Response,
    opcode: Opcode,
    opaque: u32,
) -> Result<Vec<Bytes>, CodecError> {
    let mut frags = VecDeque::new();
    encode_response_frags_into(resp, opcode, opaque, &mut frags)?;
    let frags = frags.into_iter().map(|f| match f {
        Frag::Owned(v) => Bytes::from(v),
        Frag::Shared(b) => b,
    });
    Ok(frags.collect())
}

/// [`encode_response_frags`] appending to a connection's outbound
/// queue: the value bytes are never copied, and the owned bytes are
/// written once, so event-loop writers hand the queue straight to
/// vectored writes. On error `out` is left as it was.
pub fn encode_response_frags_into(
    resp: &Response,
    opcode: Opcode,
    opaque: u32,
    out: &mut VecDeque<Frag>,
) -> Result<(), CodecError> {
    write_response(resp, opcode, opaque, out)
}

/// Encodes a response into a complete wire frame. `opcode` is the opcode
/// of the request being answered; `opaque` is echoed back.
pub fn encode_response(
    resp: &Response,
    opcode: Opcode,
    opaque: u32,
) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::new();
    write_response(resp, opcode, opaque, &mut out)?;
    Ok(out)
}

/// Decodes a response frame, returning the response, the opcode it
/// answers, and the echoed opaque.
pub fn decode_response(frame: &[u8]) -> Result<(Response, Opcode, u32), CodecError> {
    let h = parse_header(frame)?;
    if h.magic != MAGIC_RESPONSE {
        return Err(CodecError::BadMagic(h.magic));
    }
    let op = Opcode::from_u8(h.opcode).ok_or(CodecError::BadOpcode(h.opcode))?;
    let status =
        Status::from_u16(h.vbucket_or_status).ok_or(CodecError::BadStatus(h.vbucket_or_status))?;
    let mut body = &frame[HEADER_LEN..HEADER_LEN + h.body_len as usize];
    let resp = match (status, op) {
        (Status::NotFound, _) => Response::NotFound,
        (Status::NotOwner, _) => {
            if body.remaining() < 2 {
                return Err(CodecError::Malformed("moved cachelet"));
            }
            let cachelet = CacheletId(body.get_u16() as u32);
            let new_owner = get_worker(&mut body)?;
            Response::Moved {
                cachelet,
                new_owner,
            }
        }
        (Status::Ok, Opcode::Get) | (Status::Ok, Opcode::ReplicaRead) => {
            if body.remaining() < 2 {
                return Err(CodecError::Malformed("replica count"));
            }
            let n = body.get_u16() as usize;
            let mut replicas = Vec::with_capacity(n);
            for _ in 0..n {
                replicas.push(get_worker(&mut body)?);
            }
            Response::Value {
                value: Value::copy_from_slice(body),
                replicas,
            }
        }
        (Status::Ok, Opcode::MultiGet) => {
            if body.remaining() < 4 {
                return Err(CodecError::Malformed("values count"));
            }
            let n = body.get_u32() as usize;
            let mut values = Vec::with_capacity(n.min(4_096));
            for _ in 0..n {
                if body.remaining() < 1 {
                    return Err(CodecError::Malformed("value presence"));
                }
                if body.get_u8() == 1 {
                    if body.remaining() < 4 {
                        return Err(CodecError::Malformed("value len"));
                    }
                    let len = body.get_u32() as usize;
                    if body.remaining() < len {
                        return Err(CodecError::Malformed("value bytes"));
                    }
                    values.push(Some(body.copy_to_bytes(len)));
                } else {
                    values.push(None);
                }
            }
            Response::Values { values }
        }
        (Status::Ok, Opcode::Set)
        | (Status::Ok, Opcode::Add)
        | (Status::Ok, Opcode::Replace)
        | (Status::Ok, Opcode::Concat)
        | (Status::Ok, Opcode::ReplicaInstall)
        | (Status::Ok, Opcode::ReplicaUpdate) => Response::Stored,
        (Status::Ok, Opcode::Incr) => Response::Counter { value: h.cas },
        (Status::Ok, Opcode::Touch) => Response::Touched,
        (Status::Ok, Opcode::Delete) | (Status::Ok, Opcode::ReplicaInvalidate) => Response::Deleted,
        (Status::Ok, Opcode::MigrateEntries)
        | (Status::Ok, Opcode::MigrateCommit)
        | (Status::Ok, Opcode::MigrateAbort) => Response::MigrateAck,
        (Status::Ok, Opcode::Stats) | (Status::Ok, Opcode::ClusterStatus) => Response::StatsBlob {
            payload: body.to_vec(),
        },
        (Status::Ok, Opcode::Join) | (Status::Ok, Opcode::Drain) => {
            Response::MembershipAck { epoch: h.cas }
        }
        (Status::Ok, Opcode::Heartbeat) => {
            if body.remaining() < 5 {
                return Err(CodecError::Malformed("heartbeat header"));
            }
            let full_refetch = body.get_u8() == 1;
            let n = body.get_u32() as usize;
            let mut deltas = Vec::with_capacity(n.min(4_096));
            for _ in 0..n {
                if body.remaining() < 12 {
                    return Err(CodecError::Malformed("delta header"));
                }
                let ver = body.get_u64();
                let c = CacheletId(body.get_u32());
                let w = get_worker(&mut body)?;
                deltas.push((ver, c, w));
            }
            Response::HeartbeatAck {
                version: h.cas,
                deltas,
                full_refetch,
            }
        }
        (Status::Ok, Opcode::Batch) => {
            return Err(CodecError::Malformed(
                "batch envelopes are answered per sub-request, never as a unit",
            ))
        }
        (s, _) => Response::Fail {
            status: s,
            message: String::from_utf8_lossy(body).into_owned(),
        },
    };
    Ok((resp, op, h.opaque))
}

/// The opcode a request encodes to (used by responders to echo it).
pub fn opcode_of(req: &Request) -> Opcode {
    match req {
        Request::Get { .. } => Opcode::Get,
        Request::Set { .. } => Opcode::Set,
        Request::Delete { .. } => Opcode::Delete,
        Request::Add { .. } => Opcode::Add,
        Request::Replace { .. } => Opcode::Replace,
        Request::Concat { .. } => Opcode::Concat,
        Request::Incr { .. } => Opcode::Incr,
        Request::Touch { .. } => Opcode::Touch,
        Request::MultiGet { .. } => Opcode::MultiGet,
        Request::ReplicaRead { .. } => Opcode::ReplicaRead,
        Request::ReplicaInstall { .. } => Opcode::ReplicaInstall,
        Request::ReplicaUpdate { .. } => Opcode::ReplicaUpdate,
        Request::ReplicaInvalidate { .. } => Opcode::ReplicaInvalidate,
        Request::MigrateEntries { .. } => Opcode::MigrateEntries,
        Request::MigrateCommit { .. } => Opcode::MigrateCommit,
        Request::MigrateAbort { .. } => Opcode::MigrateAbort,
        Request::Stats { .. } => Opcode::Stats,
        Request::Heartbeat { .. } => Opcode::Heartbeat,
        Request::Join { .. } => Opcode::Join,
        Request::Drain { .. } => Opcode::Drain,
        Request::ClusterStatus => Opcode::ClusterStatus,
        Request::ForTenant { req, .. } => opcode_of(req),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(req: Request) {
        let frame = encode_request(&req, 0xABCD).expect("encode");
        assert_eq!(frame_len(&frame), Some(frame.len()));
        let (decoded, opaque) = decode_request(&frame).expect("decode");
        assert_eq!(decoded, req);
        assert_eq!(opaque, 0xABCD);
    }

    fn roundtrip_resp(resp: Response, op: Opcode) {
        let frame = encode_response(&resp, op, 7).expect("encode");
        let (decoded, dop, opaque) = decode_response(&frame).expect("decode");
        assert_eq!(decoded, resp);
        assert_eq!(dop, op);
        assert_eq!(opaque, 7);
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_req(Request::Get {
            cachelet: CacheletId(42),
            key: b"user:1001".to_vec(),
        });
        roundtrip_req(Request::Set {
            cachelet: CacheletId(9),
            key: b"k".to_vec(),
            value: vec![0xAB; 300].into(),
            expiry_ms: 123_456_789,
        });
        roundtrip_req(Request::Delete {
            cachelet: CacheletId(0),
            key: b"gone".to_vec(),
        });
        roundtrip_req(Request::MultiGet {
            keys: (0..100u32)
                .map(|i| (CacheletId(i % 16), format!("k{i}").into_bytes()))
                .collect(),
        });
        roundtrip_req(Request::ReplicaRead {
            key: b"hot".to_vec(),
        });
        roundtrip_req(Request::ReplicaInstall {
            key: b"hot".to_vec(),
            value: b"v".to_vec().into(),
            lease_expiry_ms: 99,
        });
        roundtrip_req(Request::ReplicaUpdate {
            key: b"hot".to_vec(),
            value: b"v2".to_vec().into(),
        });
        roundtrip_req(Request::ReplicaInvalidate {
            key: b"hot".to_vec(),
        });
        roundtrip_req(Request::MigrateEntries {
            cachelet: CacheletId(5),
            entries: vec![
                (b"a".to_vec(), b"1".to_vec().into(), 0),
                (b"b".to_vec(), vec![9; 1000].into(), 555),
            ],
        });
        roundtrip_req(Request::MigrateCommit {
            cachelet: CacheletId(5),
        });
        roundtrip_req(Request::MigrateAbort {
            cachelet: CacheletId(5),
            home: WorkerAddr::new(7, 1),
        });
        roundtrip_req(Request::Stats { reset: false });
        roundtrip_req(Request::Stats { reset: true });
        roundtrip_req(Request::Heartbeat { version: 77 });
        roundtrip_req(Request::Join {
            server: ServerId(3),
            workers: 4,
            incarnation: 2,
        });
        roundtrip_req(Request::Drain {
            server: ServerId(1),
        });
        roundtrip_req(Request::ClusterStatus);
        roundtrip_req(Request::Add {
            cachelet: CacheletId(2),
            key: b"k".to_vec(),
            value: b"v".to_vec().into(),
            expiry_ms: 42,
        });
        roundtrip_req(Request::Replace {
            cachelet: CacheletId(2),
            key: b"k".to_vec(),
            value: b"v".to_vec().into(),
            expiry_ms: 0,
        });
        roundtrip_req(Request::Concat {
            cachelet: CacheletId(3),
            key: b"k".to_vec(),
            value: b"-tail".to_vec().into(),
            front: false,
        });
        roundtrip_req(Request::Concat {
            cachelet: CacheletId(3),
            key: b"k".to_vec(),
            value: b"head-".to_vec().into(),
            front: true,
        });
        roundtrip_req(Request::Incr {
            cachelet: CacheletId(4),
            key: b"n".to_vec(),
            delta: -17,
        });
        roundtrip_req(Request::Touch {
            cachelet: CacheletId(5),
            key: b"k".to_vec(),
            expiry_ms: 123_456,
        });
    }

    #[test]
    fn response_roundtrips() {
        roundtrip_resp(
            Response::Value {
                value: b"payload".to_vec().into(),
                replicas: vec![WorkerAddr::new(1, 2), WorkerAddr::new(3, 4)],
            },
            Opcode::Get,
        );
        roundtrip_resp(
            Response::Values {
                values: vec![Some(b"x".to_vec().into()), None, Some(Value::new())],
            },
            Opcode::MultiGet,
        );
        roundtrip_resp(Response::NotFound, Opcode::Get);
        roundtrip_resp(Response::Stored, Opcode::Set);
        roundtrip_resp(Response::Deleted, Opcode::Delete);
        roundtrip_resp(Response::MigrateAck, Opcode::MigrateEntries);
        roundtrip_resp(Response::MigrateAck, Opcode::MigrateAbort);
        roundtrip_resp(
            Response::Moved {
                cachelet: CacheletId(3),
                new_owner: WorkerAddr::new(2, 1),
            },
            Opcode::Get,
        );
        roundtrip_resp(
            Response::StatsBlob {
                payload: br#"{"ops":12}"#.to_vec(),
            },
            Opcode::Stats,
        );
        roundtrip_resp(
            Response::HeartbeatAck {
                version: 10,
                deltas: vec![(9, CacheletId(1), WorkerAddr::new(0, 3))],
                full_refetch: false,
            },
            Opcode::Heartbeat,
        );
        roundtrip_resp(Response::MembershipAck { epoch: 12 }, Opcode::Join);
        roundtrip_resp(Response::MembershipAck { epoch: 13 }, Opcode::Drain);
        roundtrip_resp(
            Response::StatsBlob {
                payload: br#"{"epoch":2}"#.to_vec(),
            },
            Opcode::ClusterStatus,
        );
        roundtrip_resp(
            Response::Fail {
                status: Status::Draining,
                message: "server is draining; writes refused".into(),
            },
            Opcode::Set,
        );
        roundtrip_resp(
            Response::Fail {
                status: Status::OutOfMemory,
                message: "cache full".into(),
            },
            Opcode::Set,
        );
        roundtrip_resp(Response::Counter { value: u64::MAX }, Opcode::Incr);
        roundtrip_resp(Response::Touched, Opcode::Touch);
        roundtrip_resp(Response::Stored, Opcode::Add);
        roundtrip_resp(
            Response::Fail {
                status: Status::Exists,
                message: "key exists".into(),
            },
            Opcode::Add,
        );
        roundtrip_resp(
            Response::Fail {
                status: Status::NotNumeric,
                message: "not a counter".into(),
            },
            Opcode::Incr,
        );
    }

    #[test]
    fn cachelet_overflow_is_rejected() {
        let e = encode_request(
            &Request::Get {
                cachelet: CacheletId(70_000),
                key: b"k".to_vec(),
            },
            0,
        );
        assert_eq!(e, Err(CodecError::CacheletOverflow(70_000)));
    }

    #[test]
    fn truncated_and_garbage_frames_error() {
        assert_eq!(decode_request(&[0u8; 10]), Err(CodecError::Truncated));
        let mut frame = encode_request(
            &Request::Get {
                cachelet: CacheletId(1),
                key: b"key".to_vec(),
            },
            0,
        )
        .expect("encode");
        frame.truncate(frame.len() - 1);
        assert_eq!(decode_request(&frame), Err(CodecError::Truncated));
        let mut bad = frame.clone();
        bad[0] = 0x55;
        // Restore full length for the magic check.
        bad.push(b'y');
        assert_eq!(decode_request(&bad), Err(CodecError::BadMagic(0x55)));
    }

    #[test]
    fn malformed_multiget_body_is_rejected() {
        let good = encode_request(
            &Request::MultiGet {
                keys: vec![(CacheletId(0), b"k".to_vec())],
            },
            0,
        )
        .expect("encode");
        // Claim 5 keys but provide one.
        let mut bad = good.clone();
        bad[HEADER_LEN + 3] = 5;
        assert!(matches!(
            decode_request(&bad),
            Err(CodecError::Malformed(_))
        ));
    }

    #[test]
    fn batch_roundtrips() {
        let reqs = vec![
            Request::Get {
                cachelet: CacheletId(1),
                key: b"a".to_vec(),
            },
            Request::Set {
                cachelet: CacheletId(2),
                key: b"b".to_vec(),
                value: b"payload".to_vec().into(),
                expiry_ms: 9,
            },
            Request::Incr {
                cachelet: CacheletId(3),
                key: b"n".to_vec(),
                delta: -4,
            },
            Request::Stats { reset: false },
        ];
        let frame = encode_batch_request(&reqs).expect("encode");
        assert_eq!(frame_len(&frame), Some(frame.len()));
        assert!(is_batch(&frame));
        let decoded = decode_batch_request(&frame).expect("decode");
        assert_eq!(decoded.len(), reqs.len());
        for (i, (req, opaque)) in decoded.into_iter().enumerate() {
            assert_eq!(req, reqs[i]);
            assert_eq!(opaque, i as u32);
        }
    }

    #[test]
    fn empty_batch_roundtrips() {
        let frame = encode_batch_request(&[]).expect("encode");
        assert_eq!(decode_batch_request(&frame).expect("decode"), vec![]);
    }

    #[test]
    fn batch_frames_are_rejected_by_the_single_decoders() {
        let frame = encode_batch_request(&[Request::Stats { reset: false }]).expect("encode");
        assert!(matches!(
            decode_request(&frame),
            Err(CodecError::Malformed(_))
        ));
        let mut resp = frame.clone();
        resp[0] = MAGIC_RESPONSE;
        // Status field (vbucket) is 0 == Ok for a batch-shaped response.
        assert!(matches!(
            decode_response(&resp),
            Err(CodecError::Malformed(_))
        ));
    }

    #[test]
    fn malformed_batch_bodies_error() {
        let good = encode_batch_request(&[Request::Stats { reset: false }]).expect("encode");
        // Claim three sub-frames but carry one.
        let mut short = good.clone();
        short[HEADER_LEN + 3] = 3;
        assert!(matches!(
            decode_batch_request(&short),
            Err(CodecError::Malformed(_))
        ));
        // Trailing garbage after the advertised sub-frames.
        let mut trailing = good.clone();
        trailing.extend_from_slice(&[0xEE; 3]);
        let body_len = u32::from_be_bytes(trailing[8..12].try_into().unwrap()) + 3;
        trailing[8..12].copy_from_slice(&body_len.to_be_bytes());
        assert!(matches!(
            decode_batch_request(&trailing),
            Err(CodecError::Malformed(_))
        ));
        // Wrong opcode for the batch decoder.
        let single = encode_request(&Request::Stats { reset: false }, 0).expect("encode");
        assert!(matches!(
            decode_batch_request(&single),
            Err(CodecError::BadOpcode(_))
        ));
    }

    #[test]
    fn opcode_of_covers_all_requests() {
        assert_eq!(opcode_of(&Request::Stats { reset: true }), Opcode::Stats);
        assert_eq!(
            opcode_of(&Request::Heartbeat { version: 0 }),
            Opcode::Heartbeat
        );
        let wrapped = Request::Get {
            cachelet: CacheletId(1),
            key: b"k".to_vec(),
        }
        .for_tenant(TenantId(4));
        assert_eq!(opcode_of(&wrapped), Opcode::Get, "wrapper is transparent");
    }

    #[test]
    fn tenant_requests_roundtrip_via_extras() {
        // Simple, value-carrying, and structured-body requests all keep
        // their tenant through the wire.
        for inner in [
            Request::Get {
                cachelet: CacheletId(42),
                key: b"user:1001".to_vec(),
            },
            Request::Set {
                cachelet: CacheletId(9),
                key: b"k".to_vec(),
                value: vec![0xAB; 300].into(),
                expiry_ms: 123_456_789,
            },
            Request::Incr {
                cachelet: CacheletId(4),
                key: b"n".to_vec(),
                delta: -17,
            },
            Request::MultiGet {
                keys: (0..50u32)
                    .map(|i| (CacheletId(i % 16), format!("k{i}").into_bytes()))
                    .collect(),
            },
            Request::MigrateEntries {
                cachelet: CacheletId(5),
                entries: vec![
                    (b"a".to_vec(), b"1".to_vec().into(), 0),
                    (b"b".to_vec(), vec![9; 1000].into(), 555),
                ],
            },
        ] {
            roundtrip_req(inner.for_tenant(TenantId(7)));
        }
        // The maximum tenant id survives too.
        roundtrip_req(
            Request::Delete {
                cachelet: CacheletId(0),
                key: b"gone".to_vec(),
            }
            .for_tenant(TenantId(u16::MAX)),
        );
    }

    #[test]
    fn tenant_frames_differ_only_in_extras() {
        let get = Request::Get {
            cachelet: CacheletId(3),
            key: b"key".to_vec(),
        };
        let plain = encode_request(&get, 1).expect("encode");
        let tagged = encode_request(&get.clone().for_tenant(TenantId(0x0102)), 1).expect("encode");
        assert_eq!(plain[4], 0, "default tenant carries no extras");
        assert_eq!(tagged[4], TENANT_EXTRAS_LEN);
        assert_eq!(tagged.len(), plain.len() + TENANT_EXTRAS_LEN as usize);
        assert_eq!(
            &tagged[HEADER_LEN..HEADER_LEN + 2],
            &[0x01, 0x02],
            "big-endian tenant id right after the header"
        );
        assert_eq!(frame_len(&tagged), Some(tagged.len()));
        // Stripping the extras by hand recovers a frame the decoder
        // reads as the default tenant — old peers see plain requests.
        let (decoded, _) = decode_request(&plain).expect("decode");
        assert_eq!(decoded, get);
    }

    #[test]
    fn nested_tenant_wrappers_are_rejected_by_the_encoder() {
        let inner = Request::Get {
            cachelet: CacheletId(1),
            key: b"k".to_vec(),
        };
        // `for_tenant` cannot build a nested wrapper, so assemble one
        // manually.
        let nested = Request::ForTenant {
            tenant: TenantId(1),
            req: Box::new(Request::ForTenant {
                tenant: TenantId(2),
                req: Box::new(inner),
            }),
        };
        assert!(matches!(
            encode_request(&nested, 0),
            Err(CodecError::Malformed(_))
        ));
    }

    #[test]
    fn batches_carry_mixed_tenants() {
        let reqs = vec![
            Request::Get {
                cachelet: CacheletId(1),
                key: b"a".to_vec(),
            },
            Request::Set {
                cachelet: CacheletId(2),
                key: b"b".to_vec(),
                value: b"payload".to_vec().into(),
                expiry_ms: 9,
            }
            .for_tenant(TenantId(5)),
            Request::Get {
                cachelet: CacheletId(3),
                key: b"c".to_vec(),
            }
            .for_tenant(TenantId(6)),
        ];
        let frame = encode_batch_request(&reqs).expect("encode");
        let decoded = decode_batch_request(&frame).expect("decode");
        assert_eq!(decoded.len(), reqs.len());
        for (i, (req, opaque)) in decoded.into_iter().enumerate() {
            assert_eq!(req, reqs[i]);
            assert_eq!(opaque, i as u32);
        }
    }
}
