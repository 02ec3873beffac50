//! Corruption fuzzing of the daemon's wire decoder (`served::wire`,
//! DESIGN.md §15) — the counterpart of `tests/binser_fuzz.rs` for the
//! other decoder of untrusted bytes.
//!
//! The contract under test: **no payload handed to `Request::decode` or
//! `Response::decode` may panic or size an allocation from a count the
//! payload cannot back.** Every mutation below must land in one of two
//! buckets — a typed [`WireError`], or a decoded message that re-encodes
//! and decodes again to the same bytes.
//!
//! Mutations, over an encoded sample of every `Request` and `Response`
//! variant: seeded bit flips, truncation to every prefix, inflation of
//! every count and length word, and one appended byte.
//!
//! Iteration counts rise under `--features proptest-tests`, matching
//! `tests/properties.rs`.

use lowband::core::densemm::DenseEngine;
use lowband::core::{Algorithm, Rung};
use lowband::served::wire::{MAX_FRAME, PROTOCOL_VERSION};
use lowband::served::{ExecuteRequest, Request, Response, WireError, WireSemiring};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[cfg(feature = "proptest-tests")]
const FLIPS_PER_MESSAGE: usize = 4096;
#[cfg(not(feature = "proptest-tests"))]
const FLIPS_PER_MESSAGE: usize = 512;

/// One execute request per algorithm/engine encoding, with supports of
/// different sizes (empty included).
fn executes() -> Vec<Request> {
    let algorithms = [
        Algorithm::Trivial,
        Algorithm::BoundedTriangles,
        Algorithm::TwoPhase {
            d: 3,
            engine: DenseEngine::Cube3d,
        },
        Algorithm::TwoPhase {
            d: 5,
            engine: DenseEngine::FastField { omega: 2.372 },
        },
        Algorithm::TwoPhase {
            d: 2,
            engine: DenseEngine::StrassenExec,
        },
        Algorithm::DenseCube,
        Algorithm::StrassenField,
    ];
    algorithms
        .into_iter()
        .enumerate()
        .map(|(i, algorithm)| {
            Request::Execute(Box::new(ExecuteRequest {
                n: 8,
                ahat: (0..i as u32).map(|k| (k, (k + 1) % 8)).collect(),
                bhat: vec![(1, 2), (7, 0)],
                xhat: vec![(0, 2)],
                algorithm,
                compress: i % 2 == 0,
                semiring: WireSemiring::ALL[i % WireSemiring::ALL.len()],
                seed: 0xFEED + i as u64,
                fault_seed: 0xDEAD,
                drop_rate: 0.125,
                corrupt_rate: 0.0,
                crash_rate: 0.5,
            }))
        })
        .collect()
}

fn requests() -> Vec<Request> {
    let mut all = executes();
    all.extend([Request::Stats, Request::Shutdown]);
    all
}

fn responses() -> Vec<Response> {
    vec![
        Response::Ok {
            digest: 0x1234_5678_9ABC_DEF0,
            rung: Rung::Linked,
            descents: 2,
            quarantined: true,
            nanos: 987_654,
        },
        Response::Ok {
            digest: 0,
            rung: Rung::Reference,
            descents: 0,
            quarantined: false,
            nanos: 0,
        },
        Response::Overloaded { backlog: 64 },
        Response::BreakerOpen { cooldown_left: 3 },
        Response::DeadlineExceeded,
        Response::BadRequest {
            detail: "zero worker threads".into(),
        },
        Response::Failed {
            detail: String::new(),
        },
        Response::Stats {
            json: "{\"requests\":1}".into(),
        },
        Response::ShutdownAck { json: "{}".into() },
        Response::ShuttingDown,
    ]
}

/// A decoder under test: `Request` and `Response` share every check.
trait Message: std::fmt::Debug + Sized {
    fn encode(&self) -> Vec<u8>;
    fn decode(bytes: &[u8]) -> Result<Self, WireError>;
    /// `(byte offset, bytes per counted item)` of every `u32` count or
    /// length word in this message's encoding.
    fn count_words(&self) -> Vec<(usize, usize)>;
}

impl Message for Request {
    fn encode(&self) -> Vec<u8> {
        Request::encode(self)
    }
    fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        Request::decode(bytes)
    }
    fn count_words(&self) -> Vec<(usize, usize)> {
        let Request::Execute(req) = self else {
            return Vec::new();
        };
        // Version, opcode and `n`, then three `nnz, nnz × (i, j)` blocks.
        let mut at = 6;
        [&req.ahat, &req.bhat, &req.xhat]
            .into_iter()
            .map(|support| {
                let word = (at, 8);
                at += 4 + 8 * support.len();
                word
            })
            .collect()
    }
}

impl Message for Response {
    fn encode(&self) -> Vec<u8> {
        Response::encode(self)
    }
    fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        Response::decode(bytes)
    }
    fn count_words(&self) -> Vec<(usize, usize)> {
        match self {
            // Version and status, then the string's byte length.
            Response::BadRequest { .. }
            | Response::Failed { .. }
            | Response::Stats { .. }
            | Response::ShutdownAck { .. } => vec![(2, 1)],
            _ => Vec::new(),
        }
    }
}

/// A mutated payload either fails typed or decodes to a message whose
/// encoding is a fixed point of decode-then-encode. (A flag byte other
/// than 0 or 1 decodes as `true` and re-encodes as 1, so the first
/// re-encoding may differ from the mutated bytes; the second may not.)
fn must_decode_cleanly<M: Message>(bytes: &[u8]) {
    if let Ok(message) = M::decode(bytes) {
        let canonical = message.encode();
        let again = M::decode(&canonical)
            .unwrap_or_else(|e| panic!("{message:?} re-encodes to undecodable bytes: {e}"));
        assert_eq!(again.encode(), canonical, "{message:?} is not stable");
    }
}

fn flip_bits<M: Message>(messages: &[M], seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for message in messages {
        let bytes = message.encode();
        for _case in 0..FLIPS_PER_MESSAGE {
            let mut mutated = bytes.clone();
            // One to three flipped bits per case.
            for _ in 0..rng.gen_range(1..4usize) {
                let pos = rng.gen_range(0..mutated.len());
                mutated[pos] ^= 1 << rng.gen_range(0..8u32);
            }
            must_decode_cleanly::<M>(&mutated);
        }
    }
}

/// The pristine encoding round-trips; every strict prefix of it fails.
fn every_prefix_fails<M: Message>(messages: &[M]) {
    for message in messages {
        let bytes = message.encode();
        let decoded =
            M::decode(&bytes).unwrap_or_else(|e| panic!("{message:?}: pristine decode: {e}"));
        assert_eq!(decoded.encode(), bytes, "{message:?} does not round-trip");
        for len in 0..bytes.len() {
            assert!(
                M::decode(&bytes[..len]).is_err(),
                "{message:?}: prefix of {len} bytes decoded"
            );
        }
    }
}

fn appended_byte_fails<M: Message>(messages: &[M]) {
    for message in messages {
        for extra in [0u8, 1, 0xFF] {
            let mut bytes = message.encode();
            bytes.push(extra);
            assert_eq!(
                M::decode(&bytes).map(|_| ()),
                Err(WireError::Malformed("trailing bytes")),
                "{message:?} + {extra:#x}"
            );
        }
    }
}

/// Every count or length word, raised past what the rest of the payload
/// can hold, must fail typed — never read on or reserve for it.
fn inflated_counts_fail<M: Message>(messages: &[M]) {
    let mut inflated_any = false;
    for message in messages {
        let bytes = message.encode();
        for (at, unit) in message.count_words() {
            let remaining = bytes.len() - at - 4;
            for inflated in [
                remaining / unit + 1,
                MAX_FRAME / 8,
                MAX_FRAME / 8 + 1,
                MAX_FRAME + 1,
                u32::MAX as usize,
            ] {
                let mut mutated = bytes.clone();
                mutated[at..at + 4].copy_from_slice(&(inflated as u32).to_le_bytes());
                assert!(
                    matches!(
                        M::decode(&mutated),
                        Err(WireError::Malformed(_) | WireError::Oversized { .. })
                    ),
                    "{message:?}: count at byte {at} inflated to {inflated} decoded"
                );
                inflated_any = true;
            }
        }
    }
    assert!(inflated_any, "the sample carries count words");
}

#[test]
fn seeded_bit_flips_never_panic() {
    flip_bits(&requests(), 0x5EED_F11F);
    flip_bits(&responses(), 0x5EED_F12F);
}

#[test]
fn pristine_roundtrips_and_every_prefix_is_rejected() {
    every_prefix_fails(&requests());
    every_prefix_fails(&responses());
}

#[test]
fn one_appended_byte_is_rejected() {
    appended_byte_fails(&requests());
    appended_byte_fails(&responses());
}

#[test]
fn inflated_counts_are_rejected() {
    inflated_counts_fail(&requests());
    inflated_counts_fail(&responses());
}

/// The shortest hostile execute payload: a header whose first support
/// declares the largest count the size guard admits, with no entry
/// bytes behind it. It must fail on the count, before any entry is read
/// or reserved.
#[test]
fn support_count_beyond_the_payload_fails_before_reading_entries() {
    let mut payload = vec![PROTOCOL_VERSION, 1];
    payload.extend_from_slice(&8u32.to_le_bytes());
    payload.extend_from_slice(&((MAX_FRAME / 8) as u32).to_le_bytes());
    assert_eq!(payload.len(), 10);
    assert_eq!(
        Request::decode(&payload),
        Err(WireError::Malformed("support entries"))
    );
}
