//! Exact wire bytes for one frame of each encoder shape: a tenant-tagged
//! simple request, the structured-body requests, a batch envelope and
//! the responses that carry values or lists. The round-trip proptests
//! would pass over any self-consistent format; these pin the format
//! itself (Memcached binary, cachelet id in the vbucket field), so a
//! change to an encoder cannot move a byte unnoticed.

use mbal_core::types::{CacheletId, ServerId, TenantId, WorkerAddr};
use mbal_proto::codec::{encode_batch_request, encode_response_frags, Opcode};
use mbal_proto::{encode_request, encode_response, Request, Response};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The frames a request encoder must reproduce, with their bytes as
/// lowercase hex.
fn requests() -> Vec<(&'static str, Vec<u8>, &'static str)> {
    let set = Request::Set {
        cachelet: CacheletId(0x0102),
        key: b"key".to_vec(),
        value: b"val".to_vec().into(),
        expiry_ms: 0x0a0b,
    }
    .for_tenant(TenantId(0x0304));
    let multiget = Request::MultiGet {
        keys: vec![
            (CacheletId(1), b"a".to_vec()),
            (CacheletId(2), b"bc".to_vec()),
        ],
    };
    let migrate = Request::MigrateEntries {
        cachelet: CacheletId(5),
        entries: vec![
            (b"k".to_vec(), b"v1".to_vec().into(), 9),
            (b"kk".to_vec(), b"".to_vec().into(), 0),
        ],
    };
    let abort = Request::MigrateAbort {
        cachelet: CacheletId(6),
        home: WorkerAddr::new(7, 1),
    };
    let join = Request::Join {
        server: ServerId(3),
        workers: 4,
        incarnation: 2,
    };
    let batch = [
        Request::Get {
            cachelet: CacheletId(1),
            key: b"g".to_vec(),
        },
        Request::Delete {
            cachelet: CacheletId(2),
            key: b"d".to_vec(),
        }
        .for_tenant(TenantId(5)),
    ];
    vec![
        (
            "tenant set",
            encode_request(&set, 0x11223344).expect("encode"),
            concat!(
                "800100030200010200000008112233440000000000000a0b",
                "03046b657976616c"
            ),
        ),
        (
            "multiget",
            encode_request(&multiget, 7).expect("encode"),
            concat!(
                "80400000000000000000000f000000070000000000000000",
                "000000020001000161000200026263"
            ),
        ),
        (
            "migrate entries",
            encode_request(&migrate, 8).expect("encode"),
            concat!(
                "804500000000000500000025000000080000000000000000",
                "00000002",
                "0001000000020000000000000009",
                "6b7631",
                "0002000000000000000000000000",
                "6b6b"
            ),
        ),
        (
            "migrate abort",
            encode_request(&abort, 9).expect("encode"),
            concat!(
                "804900000000000600000004000000090000000000000000",
                "00070001"
            ),
        ),
        (
            "join",
            encode_request(&join, 10).expect("encode"),
            concat!(
                "804a000000000000000000040000000a0000000000000002",
                "00030004"
            ),
        ),
        (
            "batch",
            encode_batch_request(&batch).expect("encode"),
            concat!(
                "804800000000000000000038000000000000000000000000",
                "00000002",
                "800000010000000100000001000000000000000000000000",
                "67",
                "800400010200000200000003000000010000000000000000",
                "000564"
            ),
        ),
    ]
}

/// The responses a response writer must reproduce, with the opcode they
/// answer and their bytes as lowercase hex.
fn responses() -> Vec<(&'static str, Response, Opcode, &'static str)> {
    vec![
        (
            "value with replicas",
            Response::Value {
                value: b"payload".to_vec().into(),
                replicas: vec![WorkerAddr::new(1, 2), WorkerAddr::new(3, 4)],
            },
            Opcode::Get,
            concat!(
                "810000000000000000000011000000550000000000000000",
                "000200010002000300047061796c6f6164"
            ),
        ),
        (
            "values with a miss",
            Response::Values {
                values: vec![
                    Some(b"x".to_vec().into()),
                    None,
                    Some(b"yz".to_vec().into()),
                ],
            },
            Opcode::MultiGet,
            concat!(
                "814000000000000000000012000000550000000000000000",
                "00000003010000000178000100000002797a"
            ),
        ),
        (
            "heartbeat ack",
            Response::HeartbeatAck {
                version: 10,
                deltas: vec![(9, CacheletId(1), WorkerAddr::new(0, 3))],
                full_refetch: true,
            },
            Opcode::Heartbeat,
            concat!(
                "81470000000000000000001500000055000000000000000a",
                "010000000100000000000000090000000100000003"
            ),
        ),
    ]
}

#[test]
fn request_frames_match_the_pinned_bytes() {
    for (name, frame, want) in requests() {
        assert_eq!(hex(&frame), want, "{name}");
    }
}

#[test]
fn response_frames_match_the_pinned_bytes() {
    for (name, resp, op, want) in responses() {
        let frame = encode_response(&resp, op, 0x55).expect("encode");
        assert_eq!(hex(&frame), want, "{name}");
    }
}

#[test]
fn response_fragments_concatenate_to_the_flat_frame() {
    for (name, resp, op, _) in responses() {
        let flat = encode_response(&resp, op, 0x55).expect("encode");
        let frags = encode_response_frags(&resp, op, 0x55).expect("encode");
        let joined: Vec<u8> = frags.iter().flat_map(|f| f.iter().copied()).collect();
        assert_eq!(joined, flat, "{name}");
    }
}
