//! Randomized codec properties, in the repository's seeded-workload style
//! (the offline build cannot use the `proptest` crate, so the same
//! properties run over 64 seeded pseudo-random cases and every failure
//! message carries the seed for deterministic replay):
//!
//! 1. encode → decode is the identity for any request/response batch;
//! 2. decoding any strict prefix of a valid frame fails (no silent
//!    truncation);
//! 3. decoding a valid frame with trailing bytes fails.

use kvserve::codec::{decode_batch, decode_response_batch, encode_batch, encode_response_batch};
use kvserve::{CodecError, Request, Response};
use rand::prelude::*;

const CASES: u64 = 64;

fn random_key(rng: &mut StdRng) -> u64 {
    // Mix small (1-byte varint) and arbitrary keys to cover both encoder
    // paths; clamp below the reserved EMPTY_KEY sentinel, which the codec
    // rejects in key positions.
    if rng.gen_range(0..2u32) == 0 {
        rng.gen_range(0..128u64)
    } else {
        rng.gen::<u64>().min(u64::MAX - 1)
    }
}

fn random_requests(rng: &mut StdRng) -> Vec<Request> {
    let len = rng.gen_range(0..40usize);
    (0..len)
        .map(|_| match rng.gen_range(0..6u32) {
            0 => Request::Get {
                key: random_key(rng),
            },
            1 => Request::Put {
                key: random_key(rng),
                value: rng.gen(),
            },
            2 => Request::Delete {
                key: random_key(rng),
            },
            3 => Request::Scan {
                lo: random_key(rng),
                len: rng.gen_range(0..1_000),
            },
            4 => Request::MGet {
                keys: (0..rng.gen_range(0..20usize))
                    .map(|_| random_key(rng))
                    .collect(),
            },
            _ => Request::MPut {
                pairs: (0..rng.gen_range(0..20usize))
                    .map(|_| (random_key(rng), rng.gen()))
                    .collect(),
            },
        })
        .collect()
}

fn random_responses(rng: &mut StdRng) -> Vec<Response> {
    let len = rng.gen_range(0..40usize);
    (0..len)
        .map(|_| match rng.gen_range(0..3u32) {
            0 => Response::Value(rng.gen_range(0..2u32).eq(&1).then(|| rng.gen())),
            1 => Response::Values(
                (0..rng.gen_range(0..20usize))
                    .map(|_| rng.gen_range(0..2u32).eq(&1).then(|| rng.gen()))
                    .collect(),
            ),
            _ => Response::Entries(
                (0..rng.gen_range(0..20usize))
                    .map(|_| (random_key(rng), rng.gen()))
                    .collect(),
            ),
        })
        .collect()
}

#[test]
fn request_batches_round_trip() {
    let mut wire = Vec::new();
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xC0DEC ^ seed);
        let requests = random_requests(&mut rng);
        encode_batch(&requests, &mut wire);
        let decoded = decode_batch(&wire).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(decoded, requests, "seed {seed}");
    }
}

#[test]
fn response_batches_round_trip() {
    let mut wire = Vec::new();
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5E5F ^ seed);
        let responses = random_responses(&mut rng);
        encode_response_batch(&responses, &mut wire);
        let decoded = decode_response_batch(&wire).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(decoded, responses, "seed {seed}");
    }
}

#[test]
fn truncated_frames_never_decode() {
    let mut wire = Vec::new();
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x7A11 ^ seed);
        let requests = random_requests(&mut rng);
        if requests.is_empty() {
            continue; // the empty batch's frame has no strict prefix but "".
        }
        encode_batch(&requests, &mut wire);
        // Check a sample of cut points (all of them for short frames).
        let step = (wire.len() / 16).max(1);
        for cut in (0..wire.len()).step_by(step) {
            assert!(
                decode_batch(&wire[..cut]).is_err(),
                "seed {seed}: prefix of {cut}/{} bytes decoded",
                wire.len()
            );
        }
    }
}

#[test]
fn trailing_bytes_never_decode() {
    let mut wire = Vec::new();
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x7341 ^ seed);
        let requests = random_requests(&mut rng);
        encode_batch(&requests, &mut wire);
        wire.push(rng.gen_range(0..=255u32) as u8);
        match decode_batch(&wire) {
            // One trailing byte can also extend a trailing varint or read
            // as a truncated extra request, so accept any error — what is
            // forbidden is a successful decode.
            Err(CodecError::TrailingBytes(1)) | Err(_) => {}
            Ok(decoded) => panic!("seed {seed}: decoded with trailing garbage: {decoded:?}"),
        }
    }
}

/// One frame containing all six request kinds — the densest shape the wire
/// sees — used by the exhaustive error-path tests below.
fn every_kind_frame() -> (Vec<Request>, Vec<u8>) {
    let requests = vec![
        Request::Get { key: 7 },
        Request::Put {
            key: 300,
            value: u64::MAX,
        },
        Request::Delete { key: 0 },
        Request::Scan {
            lo: 1 << 40,
            len: 100,
        },
        Request::MGet {
            keys: vec![1, 128, 1 << 50],
        },
        Request::MPut {
            pairs: vec![(5, 50), (1 << 33, 60)],
        },
    ];
    let mut wire = Vec::new();
    encode_batch(&requests, &mut wire);
    (requests, wire)
}

/// Truncation at *every* byte offset of a multi-request frame must fail —
/// not just the sampled cut points of the randomized test above.  Every cut
/// lands either inside a varint, after a tag, inside a batch, or before the
/// declared count is satisfied; all of them are `Truncated` (the only error
/// a pure prefix can produce, since every prefix of valid data is valid
/// until the input runs out).
#[test]
fn every_byte_offset_of_a_multi_request_frame_truncates() {
    let (requests, wire) = every_kind_frame();
    assert!(requests.len() >= 6);
    for cut in 0..wire.len() {
        assert_eq!(
            decode_batch(&wire[..cut]),
            Err(CodecError::Truncated),
            "cut at {cut}/{} bytes",
            wire.len()
        );
    }
    // The untruncated frame still round-trips.
    assert_eq!(decode_batch(&wire).unwrap(), requests);
}

/// Oversized length prefixes must be rejected up front in every position
/// that carries one: the batch count, a multi-get key count, a multi-put
/// pair count, and a scan window length.
#[test]
fn oversized_length_prefixes_are_rejected_everywhere() {
    use kvserve::codec::{write_varint, MAX_DECODED_LEN};
    let hostile = MAX_DECODED_LEN + 1;

    // Batch count.
    let mut frame = Vec::new();
    write_varint(&mut frame, hostile);
    assert_eq!(decode_batch(&frame), Err(CodecError::TooLong(hostile)));

    // MGet key count (tag 0x05).
    let mut frame = Vec::new();
    write_varint(&mut frame, 1);
    frame.push(0x05);
    write_varint(&mut frame, hostile);
    assert_eq!(decode_batch(&frame), Err(CodecError::TooLong(hostile)));

    // MPut pair count (tag 0x06).
    let mut frame = Vec::new();
    write_varint(&mut frame, 1);
    frame.push(0x06);
    write_varint(&mut frame, hostile);
    assert_eq!(decode_batch(&frame), Err(CodecError::TooLong(hostile)));

    // Scan window length (tag 0x04): bounds the work a shard does *and* the
    // size of the Entries response, so it shares the cap.
    let mut frame = Vec::new();
    write_varint(&mut frame, 1);
    frame.push(0x04);
    write_varint(&mut frame, 3); // lo
    write_varint(&mut frame, hostile);
    assert_eq!(decode_batch(&frame), Err(CodecError::TooLong(hostile)));

    // Response-side Values / Entries counts.
    for tag in [0x82u8, 0x83] {
        let mut frame = Vec::new();
        write_varint(&mut frame, 1);
        frame.push(tag);
        write_varint(&mut frame, hostile);
        assert_eq!(
            decode_response_batch(&frame),
            Err(CodecError::TooLong(hostile)),
            "response tag 0x{tag:02x}"
        );
    }

    // At the cap itself the prefix is accepted (and then truncates, since
    // no elements follow) — the cap is inclusive.
    let mut frame = Vec::new();
    write_varint(&mut frame, 1);
    frame.push(0x05);
    write_varint(&mut frame, kvserve::codec::MAX_DECODED_LEN);
    assert_eq!(decode_batch(&frame), Err(CodecError::Truncated));
}

/// The reserved `EMPTY_KEY` sentinel must be rejected in *every* key
/// position a request can carry, not only `Get` (which the unit tests
/// cover): `Put`, `Delete`, a `Scan`'s window start, and inside `MGet` /
/// `MPut` batches — including after valid leading keys.
#[test]
fn reserved_key_is_rejected_in_every_key_position() {
    use kvserve::codec::write_varint;
    let sentinel = u64::MAX;

    let frame_with = |build: &dyn Fn(&mut Vec<u8>)| {
        let mut frame = Vec::new();
        write_varint(&mut frame, 1);
        build(&mut frame);
        frame
    };

    let cases: Vec<(&str, Vec<u8>)> = vec![
        (
            "Put",
            frame_with(&|f| {
                f.push(0x02);
                write_varint(f, sentinel);
                write_varint(f, 1);
            }),
        ),
        (
            "Delete",
            frame_with(&|f| {
                f.push(0x03);
                write_varint(f, sentinel);
            }),
        ),
        (
            "Scan lo",
            frame_with(&|f| {
                f.push(0x04);
                write_varint(f, sentinel);
                write_varint(f, 10);
            }),
        ),
        (
            "MGet key after valid keys",
            frame_with(&|f| {
                f.push(0x05);
                write_varint(f, 3);
                write_varint(f, 1);
                write_varint(f, 2);
                write_varint(f, sentinel);
            }),
        ),
        (
            "MPut pair key",
            frame_with(&|f| {
                f.push(0x06);
                write_varint(f, 2);
                write_varint(f, 1);
                write_varint(f, 10);
                write_varint(f, sentinel);
                write_varint(f, 20);
            }),
        ),
    ];
    for (position, frame) in cases {
        assert_eq!(
            decode_batch(&frame),
            Err(CodecError::ReservedKey),
            "{position}"
        );
    }

    // Values are *not* key positions: u64::MAX round-trips as a Put value
    // and inside responses.
    let ok = vec![Request::Put {
        key: 3,
        value: u64::MAX,
    }];
    let mut wire = Vec::new();
    encode_batch(&ok, &mut wire);
    assert_eq!(decode_batch(&wire).unwrap(), ok);
}
