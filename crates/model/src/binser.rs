//! `binser` — the versioned binary persistence format for compiled plans.
//!
//! This is the one persisted form of a compiled plan: `lowband-serve`'s
//! tiered plan store and the CLI's `compile`/`exec` both speak it. It
//! stores the *linked* artifact, so a reload costs a linear byte scan
//! instead of interning and sorting — the difference between a cold
//! compile and a disk hit. Since version 4 the
//! linked schedule is the only program a plan file stores: [`delink`]
//! rebuilds the key-addressed source schedule from it on load, in link
//! order, through [`ScheduleBuilder`].
//!
//! ## Envelope
//!
//! ```text
//! offset 0   magic    8 bytes   b"LBPLAN\r\n"
//! offset 8   version  1 byte    BINSER_VERSION (then 7 zero pad bytes)
//! offset 16  section* …
//! tail       end record: tag b"ENDF" ‖ u32 0 ‖ u64 manifest checksum
//! ```
//!
//! Each section is `tag(4) ‖ reserved u32 = 0 ‖ payload_len u64 LE ‖
//! payload ‖ zero pad to 8 ‖ u64 section checksum`. Every integer is
//! little-endian and every section header, payload and checksum starts
//! at an 8-byte-aligned offset. Decoders read every integer with
//! `from_le_bytes`, so they work on a buffer of any alignment.
//!
//! A section checksum folds the padded payload words, seeded with the
//! payload length, in four independent [`mix64`] lanes: word `i` chains
//! into lane `i mod 4` (`h ← mix64(h ⊕ w)`), and the lane digests are
//! folded in order at the end. The end record's checksum folds the same
//! way over the *manifest* — the 16-byte file header, then each section's
//! 16-byte header and 8-byte checksum in file order — seeded with the end
//! record's offset. So every payload byte is hashed exactly once (by its
//! section), while the headers, the section order and the file length are
//! covered by the end record. Each fold is position-sensitive: any
//! single-byte change, truncation or reordering changes a digest.
//!
//! ## Safety contract
//!
//! Decoding returns a typed [`BinSerError`] carrying the byte offset of
//! the problem — it never panics and never allocates proportionally to a
//! corrupted length field (declared counts are checked against the bytes
//! actually present before any buffer is reserved). Decoded
//! [`LinkedSchedule`]s get a full structural check before they are
//! returned: each node's key run must be strictly ascending (the slot
//! numbering [`LinkedSchedule::slot_of`] searches, which also rules out a
//! key interned twice — one comparison per key, no map is built), nodes,
//! slots, step ranges and block tables must be in bounds, no compute
//! step may be empty, and each step record's source-step word must equal
//! its position (a linked step's index is its position; the word keeps
//! the record at 32 bytes). Each key run and the transfer and op tables
//! are taken as one bounds-checked slice and decoded at a fixed 16- or
//! 20-byte stride. [`delink`] then rebuilds the source [`Schedule`]
//! through [`ScheduleBuilder`], re-proving the bandwidth constraint, and
//! refuses a `BlockMulAdd` whose cells are not one namespace's
//! `Key::tmp(ns, 0..dim²)`. A de-linked schedule agrees with its linked
//! form by construction, so no lint runs at load.

use std::ops::Range;

use lowband_faults::mix64;

use crate::link::{BlockSlots, LinkedStep};
use crate::schedule::{LocalOp, Merge};
use crate::{
    Key, LinkedOp, LinkedSchedule, LinkedTransfer, ModelError, NodeId, Schedule, ScheduleBuilder,
    Transfer,
};

/// First 8 bytes of every binser file. The `\r\n` tail catches
/// newline-translating transports the way PNG's magic does.
pub const BINSER_MAGIC: [u8; 8] = *b"LBPLAN\r\n";

/// The format version this build writes and the only one it reads.
/// Version 2 changed the checksum fold to four lanes and narrowed the end
/// record to the headers and section checksums; version 3 requires each
/// node's linked key run to be strictly ascending (slot ids follow key
/// order); version 4 drops the source-schedule section from plan files,
/// which hold only the linked schedule (and refuse empty compute steps).
/// Older files are refused as [`BinSerError::UnsupportedVersion`].
pub const BINSER_VERSION: u8 = 4;

/// Tag of the end record closing every file.
pub const TAG_END: [u8; 4] = *b"ENDF";

const SECTION_SEED: u64 = 0x5EC7_C0DE_B10B_0001;

/// Errors raised while decoding a binser file. Every variant that can
/// point at bytes carries the absolute file offset of the problem.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum BinSerError {
    /// The input ends before `needed` bytes at `offset` are available.
    Truncated {
        /// Offset of the read that failed.
        offset: usize,
        /// Bytes the read needed.
        needed: usize,
        /// Bytes actually remaining.
        have: usize,
    },
    /// The first 8 bytes are not [`BINSER_MAGIC`].
    BadMagic {
        /// The bytes found instead.
        found: [u8; 8],
    },
    /// The version byte names a format this build does not read.
    UnsupportedVersion {
        /// The version byte found.
        found: u8,
        /// The version this build supports.
        supported: u8,
    },
    /// A section (or whole-file) checksum did not match.
    ChecksumMismatch {
        /// Tag of the failing section ([`TAG_END`] for the file digest).
        section: [u8; 4],
        /// Offset of the section's first header byte.
        offset: usize,
    },
    /// A declared length or count exceeds the bytes actually present —
    /// rejected before any allocation is sized from it.
    LengthOverflow {
        /// Offset of the length field.
        offset: usize,
        /// The declared value.
        declared: u64,
        /// Bytes (or records) actually available.
        available: usize,
    },
    /// A field holds a value the format does not admit.
    Malformed {
        /// Offset of the offending field.
        offset: usize,
        /// What was wrong.
        what: String,
    },
    /// Bytes remain after the structure that should consume them ended.
    TrailingBytes {
        /// Offset of the first unconsumed byte.
        offset: usize,
    },
    /// A required section is absent.
    MissingSection {
        /// The absent tag.
        tag: [u8; 4],
    },
    /// A section tag appears twice.
    DuplicateSection {
        /// The repeated tag.
        tag: [u8; 4],
        /// Offset of the second occurrence.
        offset: usize,
    },
    /// The decoded schedule violated the model constraints when rebuilt
    /// through [`ScheduleBuilder`].
    Model(ModelError),
}

fn tag_str(tag: &[u8; 4]) -> String {
    tag.iter()
        .map(|&b| {
            if b.is_ascii_graphic() {
                (b as char).to_string()
            } else {
                format!("\\x{b:02x}")
            }
        })
        .collect()
}

impl std::fmt::Display for BinSerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BinSerError::Truncated {
                offset,
                needed,
                have,
            } => write!(
                f,
                "truncated at offset {offset}: needed {needed} byte(s), have {have}"
            ),
            BinSerError::BadMagic { found } => {
                write!(f, "bad magic {found:02x?} (not a lowband plan file)")
            }
            BinSerError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported format version {found} (this build reads v{supported})"
            ),
            BinSerError::ChecksumMismatch { section, offset } => write!(
                f,
                "checksum mismatch in section `{}` at offset {offset}",
                tag_str(section)
            ),
            BinSerError::LengthOverflow {
                offset,
                declared,
                available,
            } => write!(
                f,
                "length field at offset {offset} declares {declared} but only {available} available"
            ),
            BinSerError::Malformed { offset, what } => {
                write!(f, "malformed field at offset {offset}: {what}")
            }
            BinSerError::TrailingBytes { offset } => {
                write!(f, "trailing bytes at offset {offset}")
            }
            BinSerError::MissingSection { tag } => {
                write!(f, "missing required section `{}`", tag_str(tag))
            }
            BinSerError::DuplicateSection { tag, offset } => {
                write!(f, "duplicate section `{}` at offset {offset}", tag_str(tag))
            }
            BinSerError::Model(e) => write!(f, "decoded schedule violates the model: {e}"),
        }
    }
}

impl std::error::Error for BinSerError {}

impl From<ModelError> for BinSerError {
    fn from(e: ModelError) -> BinSerError {
        BinSerError::Model(e)
    }
}

/// Number of independent fold lanes in [`checksum_words`].
const LANES: usize = 4;

/// Lane-parallel chained mix64 over little-endian 8-byte words: word `i`
/// folds into lane `i mod 4` as `h ← mix64(h ⊕ w)`, each lane seeded
/// differently, and the four lane digests are then folded in order into
/// one. The lanes are independent dependency chains, so the fold runs at
/// the multiplier's throughput rather than its latency. `mix64` is a
/// bijection, so changing any single word changes its lane's digest and
/// hence the result. `bytes.len()` must be a multiple of 8 (writers pad;
/// readers check).
fn checksum_words(seed: u64, bytes: &[u8]) -> u64 {
    debug_assert_eq!(bytes.len() % 8, 0);
    let word = |chunk: &[u8]| u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
    let mut lanes: [u64; LANES] = std::array::from_fn(|i| mix64(seed ^ i as u64));
    let mut blocks = bytes.chunks_exact(8 * LANES);
    for block in &mut blocks {
        for (lane, chunk) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = mix64(*lane ^ word(chunk));
        }
    }
    for (lane, chunk) in lanes.iter_mut().zip(blocks.remainder().chunks_exact(8)) {
        *lane = mix64(*lane ^ word(chunk));
    }
    lanes.iter().fold(mix64(!seed), |h, &lane| mix64(h ^ lane))
}

fn section_checksum(payload_len: u64, padded: &[u8]) -> u64 {
    checksum_words(SECTION_SEED ^ payload_len, padded)
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Builds a binser file in memory: magic + version, then sections, then
/// the end record with the whole-file checksum.
pub struct FileWriter {
    buf: Vec<u8>,
    /// What the end record folds: the file header, then each section's
    /// header and checksum.
    manifest: Vec<u8>,
}

impl Default for FileWriter {
    fn default() -> FileWriter {
        FileWriter::new()
    }
}

impl FileWriter {
    /// A writer holding the 16-byte header (magic, version, padding).
    pub fn new() -> FileWriter {
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(&BINSER_MAGIC);
        buf.push(BINSER_VERSION);
        buf.extend_from_slice(&[0u8; 7]);
        let manifest = buf.clone();
        FileWriter { buf, manifest }
    }

    /// Append one section: header, payload (zero-padded to 8 bytes) and
    /// section checksum.
    pub fn section(&mut self, tag: [u8; 4], payload: &[u8]) {
        debug_assert_ne!(tag, TAG_END, "ENDF is written by finish()");
        let header = self.buf.len();
        self.buf.extend_from_slice(&tag);
        self.buf.extend_from_slice(&0u32.to_le_bytes());
        self.buf
            .extend_from_slice(&(payload.len() as u64).to_le_bytes());
        let start = self.buf.len();
        self.buf.extend_from_slice(payload);
        while !(self.buf.len() - start).is_multiple_of(8) {
            self.buf.push(0);
        }
        let sum = section_checksum(payload.len() as u64, &self.buf[start..]);
        self.buf.extend_from_slice(&sum.to_le_bytes());
        self.manifest.extend_from_slice(&self.buf[header..start]);
        self.manifest.extend_from_slice(&sum.to_le_bytes());
    }

    /// Close the file: append the end record carrying the checksum of the
    /// file header and every section's header and checksum, and return
    /// the bytes.
    pub fn finish(mut self) -> Vec<u8> {
        let sum = checksum_words(SECTION_SEED ^ self.buf.len() as u64, &self.manifest);
        self.buf.extend_from_slice(&TAG_END);
        self.buf.extend_from_slice(&0u32.to_le_bytes());
        self.buf.extend_from_slice(&sum.to_le_bytes());
        self.buf
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// One section located inside a binser file (for boundary-aware tooling
/// such as the corruption-fuzz battery).
#[derive(Clone, Debug)]
pub struct SectionSpan {
    /// The section tag ([`TAG_END`] for the end record).
    pub tag: [u8; 4],
    /// The whole record: header through checksum.
    pub record: Range<usize>,
    /// The unpadded payload bytes (empty for the end record).
    pub payload: Range<usize>,
}

/// A parsed binser envelope: magic, version and every section checksum
/// verified up front, payloads addressable by tag.
pub struct FileReader<'a> {
    bytes: &'a [u8],
    spans: Vec<SectionSpan>,
}

impl<'a> FileReader<'a> {
    /// Parse and verify the envelope. Section payloads are *not*
    /// interpreted here — only located and checksummed.
    pub fn new(bytes: &'a [u8]) -> Result<FileReader<'a>, BinSerError> {
        if bytes.len() < 16 {
            return Err(BinSerError::Truncated {
                offset: 0,
                needed: 16,
                have: bytes.len(),
            });
        }
        let mut magic = [0u8; 8];
        magic.copy_from_slice(&bytes[..8]);
        if magic != BINSER_MAGIC {
            return Err(BinSerError::BadMagic { found: magic });
        }
        if bytes[8] != BINSER_VERSION {
            return Err(BinSerError::UnsupportedVersion {
                found: bytes[8],
                supported: BINSER_VERSION,
            });
        }
        let mut spans: Vec<SectionSpan> = Vec::new();
        let mut manifest = bytes[..16].to_vec();
        let mut off = 16usize;
        loop {
            if bytes.len() - off < 16 {
                return Err(BinSerError::Truncated {
                    offset: off,
                    needed: 16,
                    have: bytes.len() - off,
                });
            }
            let mut tag = [0u8; 4];
            tag.copy_from_slice(&bytes[off..off + 4]);
            let reserved = u32::from_le_bytes(bytes[off + 4..off + 8].try_into().unwrap());
            if reserved != 0 {
                return Err(BinSerError::Malformed {
                    offset: off + 4,
                    what: format!("reserved header word is {reserved}, expected 0"),
                });
            }
            if tag == TAG_END {
                let declared = u64::from_le_bytes(bytes[off + 8..off + 16].try_into().unwrap());
                let actual = checksum_words(SECTION_SEED ^ off as u64, &manifest);
                if declared != actual {
                    return Err(BinSerError::ChecksumMismatch {
                        section: TAG_END,
                        offset: off,
                    });
                }
                if off + 16 != bytes.len() {
                    return Err(BinSerError::TrailingBytes { offset: off + 16 });
                }
                spans.push(SectionSpan {
                    tag,
                    record: off..off + 16,
                    payload: off + 16..off + 16,
                });
                return Ok(FileReader { bytes, spans });
            }
            let len = u64::from_le_bytes(bytes[off + 8..off + 16].try_into().unwrap());
            let payload_start = off + 16;
            let remaining = bytes.len() - payload_start;
            // The padded payload plus its 8-byte checksum must fit in what
            // is actually present — this is the no-OOM gate for inflated
            // length fields.
            if len > remaining as u64 {
                return Err(BinSerError::LengthOverflow {
                    offset: off + 8,
                    declared: len,
                    available: remaining,
                });
            }
            let len = len as usize;
            let padded_len = len.div_ceil(8) * 8;
            if padded_len + 8 > remaining {
                return Err(BinSerError::Truncated {
                    offset: payload_start,
                    needed: padded_len + 8,
                    have: remaining,
                });
            }
            let padded = &bytes[payload_start..payload_start + padded_len];
            if padded[len..].iter().any(|&b| b != 0) {
                return Err(BinSerError::Malformed {
                    offset: payload_start + len,
                    what: "non-zero padding".to_string(),
                });
            }
            let sum_bytes = &bytes[payload_start + padded_len..payload_start + padded_len + 8];
            let declared_sum = u64::from_le_bytes(sum_bytes.try_into().unwrap());
            if declared_sum != section_checksum(len as u64, padded) {
                return Err(BinSerError::ChecksumMismatch {
                    section: tag,
                    offset: off,
                });
            }
            if spans.iter().any(|s| s.tag == tag) {
                return Err(BinSerError::DuplicateSection { tag, offset: off });
            }
            manifest.extend_from_slice(&bytes[off..payload_start]);
            manifest.extend_from_slice(sum_bytes);
            spans.push(SectionSpan {
                tag,
                record: off..payload_start + padded_len + 8,
                payload: payload_start..payload_start + len,
            });
            off = payload_start + padded_len + 8;
        }
    }

    /// The payload of the section with this tag and its absolute offset,
    /// if present. Payloads always start at an 8-byte-aligned offset.
    pub fn section(&self, tag: [u8; 4]) -> Option<(&'a [u8], usize)> {
        self.spans
            .iter()
            .find(|s| s.tag == tag)
            .map(|s| (&self.bytes[s.payload.clone()], s.payload.start))
    }

    /// Like [`FileReader::section`] but an error when absent.
    pub fn require(&self, tag: [u8; 4]) -> Result<(&'a [u8], usize), BinSerError> {
        self.section(tag).ok_or(BinSerError::MissingSection { tag })
    }

    /// Every section in file order (the end record last) — the boundary
    /// map the corruption-fuzz battery truncates at.
    pub fn spans(&self) -> &[SectionSpan] {
        &self.spans
    }
}

// ---------------------------------------------------------------------------
// Payload cursor
// ---------------------------------------------------------------------------

/// Little-endian cursor over one section payload. `base` is the payload's
/// absolute file offset, so errors point into the file, not the section.
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    base: usize,
}

impl<'a> ByteReader<'a> {
    /// A cursor at the start of `bytes`, reporting offsets from `base`.
    pub fn new(bytes: &'a [u8], base: usize) -> ByteReader<'a> {
        ByteReader {
            bytes,
            pos: 0,
            base,
        }
    }

    /// Absolute offset of the next unread byte.
    pub fn offset(&self) -> usize {
        self.base + self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], BinSerError> {
        if self.remaining() < n {
            return Err(BinSerError::Truncated {
                offset: self.offset(),
                needed: n,
                have: self.remaining(),
            });
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Read one `u8`.
    pub fn u8(&mut self) -> Result<u8, BinSerError> {
        Ok(self.take(1)?[0])
    }

    /// Read one little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, BinSerError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read one little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, BinSerError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read one little-endian `u128`.
    pub fn u128(&mut self) -> Result<u128, BinSerError> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }

    /// Read a `u64` count of records at least `min_record` bytes each,
    /// refusing counts the remaining bytes cannot possibly hold — the
    /// guard that keeps an inflated count from sizing an allocation.
    pub fn count(&mut self, min_record: usize) -> Result<usize, BinSerError> {
        debug_assert!(min_record >= 1);
        let at = self.offset();
        let declared = self.u64()?;
        let available = self.remaining() / min_record;
        if declared > available as u64 {
            return Err(BinSerError::LengthOverflow {
                offset: at,
                declared,
                available,
            });
        }
        Ok(declared as usize)
    }

    /// Read a `u64` count of fixed-size `stride`-byte records and take
    /// them as one slice, returned with its absolute offset: the whole
    /// table is bounds-checked once, and its records can then be decoded
    /// with `chunks_exact(stride)`.
    pub fn table(&mut self, stride: usize) -> Result<(&'a [u8], usize), BinSerError> {
        let count = self.count(stride)?;
        let at = self.offset();
        Ok((self.take(count * stride)?, at))
    }

    /// Require the payload to be fully consumed.
    pub fn done(&self) -> Result<(), BinSerError> {
        if self.remaining() != 0 {
            return Err(BinSerError::TrailingBytes {
                offset: self.offset(),
            });
        }
        Ok(())
    }
}

fn malformed(offset: usize, what: impl Into<String>) -> BinSerError {
    BinSerError::Malformed {
        offset,
        what: what.into(),
    }
}

/// Little-endian `u32` word `i` of a fixed-stride record.
#[inline]
fn le_u32(record: &[u8], i: usize) -> u32 {
    let at = 4 * i;
    u32::from_le_bytes([record[at], record[at + 1], record[at + 2], record[at + 3]])
}

// ---------------------------------------------------------------------------
// LinkedSchedule payload codec
// ---------------------------------------------------------------------------

const LOP_MUL: u32 = 0;
const LOP_ADD_ASSIGN: u32 = 1;
const LOP_MUL_ADD: u32 = 2;
const LOP_SUB_ASSIGN: u32 = 3;
const LOP_BLOCK_MUL_ADD: u32 = 4;
const LOP_COPY: u32 = 5;
const LOP_ZERO: u32 = 6;
const LOP_FREE: u32 = 7;

/// Append the linked payload: header words, per-node key runs (each
/// strictly ascending, since slot ids follow key order), then the
/// step/transfer/op/block tables as dense fixed-stride runs (u128 key
/// runs at 16-byte stride; step records of `kind u32 ‖ 0u32 ‖ start u64 ‖
/// end u64 ‖ position u64`; transfer and op records at 20-byte stride of
/// `u32` words).
pub fn encode_linked(ls: &LinkedSchedule, out: &mut Vec<u8>) {
    out.extend_from_slice(&(ls.n as u64).to_le_bytes());
    out.extend_from_slice(&(ls.capacity as u64).to_le_bytes());
    out.extend_from_slice(&(ls.rounds as u64).to_le_bytes());
    out.extend_from_slice(&(ls.messages as u64).to_le_bytes());
    for keys in &ls.node_keys {
        out.extend_from_slice(&(keys.len() as u64).to_le_bytes());
        for k in keys {
            out.extend_from_slice(&k.to_raw().to_le_bytes());
        }
    }
    out.extend_from_slice(&(ls.steps.len() as u64).to_le_bytes());
    for (position, step) in ls.steps.iter().enumerate() {
        let (kind, range) = match step {
            LinkedStep::Comm { transfers } => (0u32, transfers),
            LinkedStep::Compute { ops } => (1u32, ops),
        };
        out.extend_from_slice(&kind.to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes());
        out.extend_from_slice(&(range.start as u64).to_le_bytes());
        out.extend_from_slice(&(range.end as u64).to_le_bytes());
        out.extend_from_slice(&(position as u64).to_le_bytes());
    }
    out.extend_from_slice(&(ls.transfers.len() as u64).to_le_bytes());
    for t in &ls.transfers {
        out.extend_from_slice(&t.src.to_le_bytes());
        out.extend_from_slice(&t.src_slot.to_le_bytes());
        out.extend_from_slice(&t.dst.to_le_bytes());
        out.extend_from_slice(&t.dst_slot.to_le_bytes());
        out.extend_from_slice(
            &match t.merge {
                Merge::Overwrite => 0u32,
                Merge::Add => 1u32,
            }
            .to_le_bytes(),
        );
    }
    out.extend_from_slice(&(ls.ops.len() as u64).to_le_bytes());
    for op in &ls.ops {
        let (tag, node, x, y, z) = match *op {
            LinkedOp::Mul {
                node,
                dst,
                lhs,
                rhs,
            } => (LOP_MUL, node, dst, lhs, rhs),
            LinkedOp::AddAssign { node, dst, src } => (LOP_ADD_ASSIGN, node, dst, src, 0),
            LinkedOp::MulAdd {
                node,
                dst,
                lhs,
                rhs,
            } => (LOP_MUL_ADD, node, dst, lhs, rhs),
            LinkedOp::SubAssign { node, dst, src } => (LOP_SUB_ASSIGN, node, dst, src, 0),
            LinkedOp::BlockMulAdd { node, block } => (LOP_BLOCK_MUL_ADD, node, block, 0, 0),
            LinkedOp::Copy { node, dst, src } => (LOP_COPY, node, dst, src, 0),
            LinkedOp::Zero { node, dst } => (LOP_ZERO, node, dst, 0, 0),
            LinkedOp::Free { node, slot } => (LOP_FREE, node, slot, 0, 0),
        };
        for w in [tag, node, x, y, z] {
            out.extend_from_slice(&w.to_le_bytes());
        }
    }
    out.extend_from_slice(&(ls.blocks.len() as u64).to_le_bytes());
    for b in &ls.blocks {
        out.extend_from_slice(&u64::from(b.dim).to_le_bytes());
        for run in [&b.a, &b.b, &b.c] {
            for &slot in run.iter() {
                out.extend_from_slice(&slot.to_le_bytes());
            }
        }
    }
}

/// Decode a linked payload and run the full structural bounds check (see
/// the module docs for what that does and does not prove). `base` is the
/// payload's absolute file offset.
pub fn decode_linked(payload: &[u8], base: usize) -> Result<LinkedSchedule, BinSerError> {
    let mut rd = ByteReader::new(payload, base);
    let n_at = rd.offset();
    let n = rd.u64()?;
    if n > u64::from(u32::MAX) {
        return Err(malformed(
            n_at,
            format!("n = {n} exceeds the u32 node space"),
        ));
    }
    let n = n as usize;
    if n as u64 > (rd.remaining() / 8) as u64 {
        return Err(BinSerError::LengthOverflow {
            offset: n_at,
            declared: n as u64,
            available: rd.remaining() / 8,
        });
    }
    let cap_at = rd.offset();
    let capacity = rd.u64()?;
    if capacity == 0 {
        return Err(malformed(cap_at, "capacity must be at least 1"));
    }
    if capacity > u64::from(u32::MAX) {
        return Err(malformed(
            cap_at,
            format!("capacity {capacity} out of range"),
        ));
    }
    let capacity = capacity as usize;
    let rounds = rd.u64()? as usize;
    let messages = rd.u64()? as usize;

    let mut node_keys: Vec<Vec<Key>> = Vec::with_capacity(n);
    for node in 0..n {
        let count_at = rd.offset();
        let (run, run_at) = rd.table(16)?;
        let count = run.len() / 16;
        if count > u32::MAX as usize {
            return Err(malformed(
                count_at,
                format!("node {node} declares {count} slots (u32 slot space)"),
            ));
        }
        // Slot ids follow key order, so the run must ascend strictly: one
        // comparison per key, which also refuses a key interned twice.
        let mut keys: Vec<Key> = Vec::with_capacity(count);
        for (slot, raw) in run.chunks_exact(16).enumerate() {
            let key = Key::from_raw(u128::from_le_bytes(raw.try_into().expect("16-byte record")));
            if let Some(&prev) = keys.last() {
                if key <= prev {
                    let what = if key == prev {
                        format!("node {node} interns key {key:?} twice")
                    } else {
                        format!(
                            "node {node} key run descends at slot {slot} ({key:?} after {prev:?})"
                        )
                    };
                    return Err(malformed(run_at + 16 * slot, what));
                }
            }
            keys.push(key);
        }
        node_keys.push(keys);
    }

    let step_count = rd.count(32)?;
    let mut raw_steps = Vec::with_capacity(step_count);
    for position in 0..step_count {
        let kind_at = rd.offset();
        let kind = rd.u32()?;
        let pad_at = rd.offset();
        let pad = rd.u32()?;
        if pad != 0 {
            return Err(malformed(pad_at, format!("step pad word is {pad}")));
        }
        let start = rd.u64()? as usize;
        let end_at = rd.offset();
        let end = rd.u64()? as usize;
        if start > end {
            return Err(malformed(end_at, format!("inverted range {start}..{end}")));
        }
        let src_at = rd.offset();
        let src_step = rd.u64()?;
        if src_step != position as u64 {
            // A step's index is its position; the word is stored so the
            // record keeps its 32-byte stride.
            return Err(malformed(
                src_at,
                format!("step {position} records source step {src_step}"),
            ));
        }
        if kind > 1 {
            return Err(malformed(kind_at, format!("bad step kind {kind}")));
        }
        if kind == 1 && start == end {
            // ScheduleBuilder drops empty compute blocks, so linking never
            // emits one and the de-link could not round-trip it.
            return Err(malformed(end_at, "empty compute step"));
        }
        raw_steps.push((kind, start..end, kind_at));
    }

    let (table, table_at) = rd.table(20)?;
    let mut transfers = Vec::with_capacity(table.len() / 20);
    for (i, rec) in table.chunks_exact(20).enumerate() {
        let merge = match le_u32(rec, 4) {
            0 => Merge::Overwrite,
            1 => Merge::Add,
            other => {
                return Err(malformed(
                    table_at + 20 * i + 16,
                    format!("bad merge tag {other}"),
                ))
            }
        };
        transfers.push(LinkedTransfer {
            src: le_u32(rec, 0),
            src_slot: le_u32(rec, 1),
            dst: le_u32(rec, 2),
            dst_slot: le_u32(rec, 3),
            merge,
        });
    }

    let (table, table_at) = rd.table(20)?;
    let mut ops = Vec::with_capacity(table.len() / 20);
    for (i, rec) in table.chunks_exact(20).enumerate() {
        let [tag, node, x, y, z] = std::array::from_fn(|w| le_u32(rec, w));
        let op = match tag {
            LOP_MUL => LinkedOp::Mul {
                node,
                dst: x,
                lhs: y,
                rhs: z,
            },
            LOP_ADD_ASSIGN => LinkedOp::AddAssign {
                node,
                dst: x,
                src: y,
            },
            LOP_MUL_ADD => LinkedOp::MulAdd {
                node,
                dst: x,
                lhs: y,
                rhs: z,
            },
            LOP_SUB_ASSIGN => LinkedOp::SubAssign {
                node,
                dst: x,
                src: y,
            },
            LOP_BLOCK_MUL_ADD => LinkedOp::BlockMulAdd { node, block: x },
            LOP_COPY => LinkedOp::Copy {
                node,
                dst: x,
                src: y,
            },
            LOP_ZERO => LinkedOp::Zero { node, dst: x },
            LOP_FREE => LinkedOp::Free { node, slot: x },
            other => {
                return Err(malformed(
                    table_at + 20 * i,
                    format!("bad linked-op tag {other}"),
                ))
            }
        };
        ops.push(op);
    }

    let block_count = rd.count(8)?;
    let mut blocks = Vec::with_capacity(block_count);
    for _ in 0..block_count {
        let dim_at = rd.offset();
        let dim = rd.u64()?;
        if dim > u64::from(u16::MAX) {
            return Err(malformed(dim_at, format!("block dim {dim} out of range")));
        }
        let dim = dim as u32;
        let cells = (dim as usize) * (dim as usize);
        if cells
            .checked_mul(3)
            .and_then(|c| c.checked_mul(4))
            .is_none_or(|bytes| bytes > rd.remaining())
        {
            return Err(BinSerError::LengthOverflow {
                offset: dim_at,
                declared: u64::from(dim),
                available: rd.remaining(),
            });
        }
        let mut runs = [Vec::new(), Vec::new(), Vec::new()];
        for run in &mut runs {
            let bytes = rd.take(4 * cells)?;
            run.extend(bytes.chunks_exact(4).map(|w| le_u32(w, 0)));
        }
        let [a, b, c] = runs;
        blocks.push(BlockSlots { dim, a, b, c });
    }
    rd.done()?;

    // Structural bounds check: every index decoded above must land inside
    // the arrays decoded alongside it, and the step tables must partition
    // the flat event arrays exactly. An artifact passing this check can be
    // *executed* without out-of-bounds access, and `delink` rebuilds its
    // source schedule from it.
    let slot_count = |node: u32| node_keys[node as usize].len() as u32;
    let check_node = |node: u32, what: &str| -> Result<(), BinSerError> {
        if (node as usize) < n {
            Ok(())
        } else {
            Err(malformed(base, format!("{what}: node {node} out of range")))
        }
    };
    let check_slot = |node: u32, slot: u32, what: &str| -> Result<(), BinSerError> {
        if slot < slot_count(node) {
            Ok(())
        } else {
            Err(malformed(
                base,
                format!("{what}: slot {slot} out of range on node {node}"),
            ))
        }
    };
    for t in &transfers {
        check_node(t.src, "transfer src")?;
        check_node(t.dst, "transfer dst")?;
        check_slot(t.src, t.src_slot, "transfer src")?;
        check_slot(t.dst, t.dst_slot, "transfer dst")?;
    }
    for op in &ops {
        let node = op.node();
        check_node(node, "op")?;
        match *op {
            LinkedOp::Mul { dst, lhs, rhs, .. } | LinkedOp::MulAdd { dst, lhs, rhs, .. } => {
                check_slot(node, dst, "op dst")?;
                check_slot(node, lhs, "op lhs")?;
                check_slot(node, rhs, "op rhs")?;
            }
            LinkedOp::AddAssign { dst, src, .. }
            | LinkedOp::SubAssign { dst, src, .. }
            | LinkedOp::Copy { dst, src, .. } => {
                check_slot(node, dst, "op dst")?;
                check_slot(node, src, "op src")?;
            }
            LinkedOp::Zero { dst, .. } => check_slot(node, dst, "op dst")?,
            LinkedOp::Free { slot, .. } => check_slot(node, slot, "op slot")?,
            LinkedOp::BlockMulAdd { block, .. } => {
                let b = blocks.get(block as usize).ok_or_else(|| {
                    malformed(base, format!("op references missing block {block}"))
                })?;
                let cells = (b.dim as usize) * (b.dim as usize);
                if b.a.len() != cells || b.b.len() != cells || b.c.len() != cells {
                    return Err(malformed(
                        base,
                        format!("block {block} slot runs disagree with dim {}", b.dim),
                    ));
                }
                for run in [&b.a, &b.b, &b.c] {
                    for &slot in run.iter() {
                        check_slot(node, slot, "block slot")?;
                    }
                }
            }
        }
    }
    let mut next_transfer = 0usize;
    let mut next_op = 0usize;
    let mut comm_steps = 0usize;
    let mut steps = Vec::with_capacity(raw_steps.len());
    for (kind, range, at) in raw_steps {
        let (cursor, total) = if kind == 0 {
            (&mut next_transfer, transfers.len())
        } else {
            (&mut next_op, ops.len())
        };
        if range.start != *cursor || range.end > total {
            return Err(malformed(
                malformed_at(at),
                format!(
                    "step range {}..{} does not continue the event arrays",
                    range.start, range.end
                ),
            ));
        }
        *cursor = range.end;
        if kind == 0 {
            comm_steps += 1;
            steps.push(LinkedStep::Comm { transfers: range });
        } else {
            steps.push(LinkedStep::Compute { ops: range });
        }
    }
    if next_transfer != transfers.len() || next_op != ops.len() {
        return Err(malformed(base, "step ranges do not cover the event arrays"));
    }
    if comm_steps != rounds {
        return Err(malformed(
            base,
            format!("header declares {rounds} round(s), steps hold {comm_steps}"),
        ));
    }
    if messages != transfers.len() {
        return Err(malformed(
            base,
            format!(
                "header declares {messages} message(s), transfer table holds {}",
                transfers.len()
            ),
        ));
    }

    Ok(LinkedSchedule {
        n,
        capacity,
        rounds,
        messages,
        node_keys,
        steps,
        transfers,
        ops,
        blocks,
    })
}

fn malformed_at(offset: usize) -> usize {
    offset
}

/// De-link: rebuild the key-addressed [`Schedule`] a linked schedule
/// runs, by looking each slot up in its node's key run. Steps, transfers
/// and ops keep the linked order, so the result is in link order, and
/// linking it reproduces `ls` byte for byte.
///
/// Rounds go through [`ScheduleBuilder`], which re-proves the bandwidth
/// constraint. A `BlockMulAdd` recovers its three namespaces from its
/// cells' keys and must be shaped `Key::tmp(ns, 0..dim²)` per block
/// (a dim-0 block names no cell and de-links with namespace 0). Any
/// violation is a typed error reported at `base` (the linked payload's
/// file offset; 0 for an in-memory schedule), never a panic. Slots are
/// assumed in bounds, which [`decode_linked`] and linking both establish.
pub fn delink(ls: &LinkedSchedule, base: usize) -> Result<Schedule, BinSerError> {
    let key = |node: u32, slot: u32| ls.node_keys[node as usize][slot as usize];
    let mut b = ScheduleBuilder::with_capacity(ls.n, ls.capacity);
    for step in &ls.steps {
        match step {
            LinkedStep::Comm { transfers } => {
                let linked = &ls.transfers[transfers.clone()];
                let mut round = Vec::with_capacity(linked.len());
                for t in linked {
                    round.push(Transfer {
                        src: NodeId(t.src),
                        src_key: key(t.src, t.src_slot),
                        dst: NodeId(t.dst),
                        dst_key: key(t.dst, t.dst_slot),
                        merge: t.merge,
                    });
                }
                b.round(round)?;
            }
            LinkedStep::Compute { ops } => {
                let linked = &ls.ops[ops.clone()];
                let mut block = Vec::with_capacity(linked.len());
                for op in linked {
                    block.push(delink_op(ls, op, base)?);
                }
                b.compute(block)?;
            }
        }
    }
    Ok(b.build())
}

/// One op of [`delink`].
fn delink_op(ls: &LinkedSchedule, op: &LinkedOp, base: usize) -> Result<LocalOp, BinSerError> {
    let keys = &ls.node_keys[op.node() as usize];
    let k = |slot: u32| keys[slot as usize];
    let node = NodeId(op.node());
    Ok(match *op {
        LinkedOp::Mul { dst, lhs, rhs, .. } => LocalOp::Mul {
            node,
            dst: k(dst),
            lhs: k(lhs),
            rhs: k(rhs),
        },
        LinkedOp::AddAssign { dst, src, .. } => LocalOp::AddAssign {
            node,
            dst: k(dst),
            src: k(src),
        },
        LinkedOp::MulAdd { dst, lhs, rhs, .. } => LocalOp::MulAdd {
            node,
            dst: k(dst),
            lhs: k(lhs),
            rhs: k(rhs),
        },
        LinkedOp::SubAssign { dst, src, .. } => LocalOp::SubAssign {
            node,
            dst: k(dst),
            src: k(src),
        },
        LinkedOp::BlockMulAdd { block, .. } => {
            let spec = &ls.blocks[block as usize];
            let ns = |run: &[u32], what: &str| -> Result<u64, BinSerError> {
                let ns = run.first().map_or(0, |&slot| k(slot).fst());
                for (idx, &slot) in run.iter().enumerate() {
                    if k(slot) != Key::tmp(ns, idx as u64) {
                        return Err(malformed(
                            base,
                            format!(
                                "block {block} {what} cell {idx} holds {:?}, not T({ns},{idx})",
                                k(slot)
                            ),
                        ));
                    }
                }
                Ok(ns)
            };
            LocalOp::BlockMulAdd {
                node,
                dim: spec.dim,
                a_ns: ns(&spec.a, "A")?,
                b_ns: ns(&spec.b, "B")?,
                c_ns: ns(&spec.c, "C")?,
            }
        }
        LinkedOp::Copy { dst, src, .. } => LocalOp::Copy {
            node,
            dst: k(dst),
            src: k(src),
        },
        LinkedOp::Zero { dst, .. } => LocalOp::Zero { node, dst: k(dst) },
        LinkedOp::Free { slot, .. } => LocalOp::Free { node, key: k(slot) },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::Nat;
    use crate::{link, LinkedMachine, Machine};

    fn sample_schedule() -> Schedule {
        let mut b = ScheduleBuilder::with_capacity(4, 2);
        b.compute(vec![LocalOp::Zero {
            node: NodeId(0),
            dst: Key::x(0, 0),
        }])
        .unwrap();
        b.round(vec![
            Transfer {
                src: NodeId(1),
                src_key: Key::a(1, 2),
                dst: NodeId(0),
                dst_key: Key::x(0, 0),
                merge: Merge::Add,
            },
            Transfer {
                src: NodeId(2),
                src_key: Key::b(2, 3),
                dst: NodeId(3),
                dst_key: Key::tmp(7, 8),
                merge: Merge::Overwrite,
            },
            Transfer {
                src: NodeId(1),
                src_key: Key::a(1, 3),
                dst: NodeId(2),
                dst_key: Key::tmp(1, 1),
                merge: Merge::Overwrite,
            },
        ])
        .unwrap();
        b.compute(vec![
            LocalOp::MulAdd {
                node: NodeId(3),
                dst: Key::x(3, 3),
                lhs: Key::tmp(7, 8),
                rhs: Key::tmp(7, 8),
            },
            LocalOp::Free {
                node: NodeId(2),
                key: Key::tmp(1, 1),
            },
        ])
        .unwrap();
        b.build()
    }

    fn linked_payload(s: &Schedule) -> Vec<u8> {
        let mut payload = Vec::new();
        encode_linked(&link(s), &mut payload);
        payload
    }

    fn roundtrip_file(s: &Schedule) -> Vec<u8> {
        let mut w = FileWriter::new();
        w.section(*b"LNKD", &linked_payload(s));
        w.finish()
    }

    /// Decode a linked payload and de-link it, as a plan load does.
    fn decode_and_delink(payload: &[u8], base: usize) -> Result<Schedule, BinSerError> {
        delink(&decode_linked(payload, base)?, base)
    }

    #[test]
    fn delink_roundtrips_the_link_ordered_schedule() {
        let s = sample_schedule();
        let back = decode_and_delink(&linked_payload(&s), 0).unwrap();
        assert_eq!(back, s.clone().into_link_order());
        assert_ne!(back, s, "the sample's rounds are not in link order");
        let mut again = Vec::new();
        encode_linked(&link(&back), &mut again);
        assert_eq!(
            again,
            linked_payload(&s),
            "relinking the de-link moved bytes"
        );
    }

    #[test]
    fn linked_payload_roundtrip_executes_identically() {
        let s = sample_schedule();
        let ls = link(&s);
        let mut payload = Vec::new();
        encode_linked(&ls, &mut payload);
        let back = decode_linked(&payload, 0).unwrap();
        assert_eq!(back.rounds(), ls.rounds());
        assert_eq!(back.messages(), ls.messages());
        assert_eq!(back.total_slots(), ls.total_slots());

        let loads = [
            (NodeId(1), Key::a(1, 2), Nat(5)),
            (NodeId(1), Key::a(1, 3), Nat(9)),
            (NodeId(2), Key::b(2, 3), Nat(6)),
        ];
        let mut reference: Machine<Nat> = Machine::new(4);
        let mut pristine: LinkedMachine<Nat> = LinkedMachine::new(&ls);
        let mut reloaded: LinkedMachine<Nat> = LinkedMachine::new(&back);
        for (node, key, v) in loads {
            reference.load(node, key, v);
            pristine.load(node, key, v);
            reloaded.load(node, key, v);
        }
        let s0 = reference.run(&s).unwrap();
        let s1 = pristine.run().unwrap();
        let s2 = reloaded.run().unwrap();
        assert_eq!(s0, s1);
        assert_eq!(s1, s2);
        for node in 0..4 {
            assert_eq!(
                pristine.snapshot(NodeId(node)),
                reloaded.snapshot(NodeId(node)),
                "node {node} diverges after binser roundtrip"
            );
        }
    }

    #[test]
    fn envelope_roundtrip_and_spans() {
        let s = sample_schedule();
        let bytes = roundtrip_file(&s);
        let r = FileReader::new(&bytes).unwrap();
        let (payload, base) = r.require(*b"LNKD").unwrap();
        assert_eq!(base % 8, 0, "payloads are 8-aligned");
        let back = decode_and_delink(payload, base).unwrap();
        assert_eq!(back, s.into_link_order());
        let spans = r.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].tag, TAG_END);
        assert_eq!(spans[1].record.end, bytes.len());
    }

    #[test]
    fn bad_magic_and_version_are_typed() {
        let s = sample_schedule();
        let mut bytes = roundtrip_file(&s);
        let mut wrong = bytes.clone();
        wrong[0] ^= 0xFF;
        assert!(matches!(
            FileReader::new(&wrong),
            Err(BinSerError::BadMagic { .. })
        ));
        bytes[8] = BINSER_VERSION + 1;
        assert!(matches!(
            FileReader::new(&bytes),
            Err(BinSerError::UnsupportedVersion { found, supported })
                if found == BINSER_VERSION + 1 && supported == BINSER_VERSION
        ));
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let s = sample_schedule();
        let bytes = roundtrip_file(&s);
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x01;
            let outcome = FileReader::new(&corrupt)
                .and_then(|r| r.require(*b"LNKD").map(|(p, b)| (p.to_vec(), b)))
                .and_then(|(p, b)| decode_and_delink(&p, b));
            assert!(outcome.is_err(), "flip at byte {i} went undetected");
        }
    }

    #[test]
    fn lane_fold_sees_every_word_and_its_position() {
        // Lengths around the 4-lane block size exercise the remainder.
        for words in 0..11usize {
            let bytes: Vec<u8> = (0..words as u64)
                .flat_map(|w| mix64(w).to_le_bytes())
                .collect();
            let base = checksum_words(7, &bytes);
            assert_ne!(base, checksum_words(8, &bytes), "seed ignored");
            for w in 0..words {
                let mut changed = bytes.clone();
                changed[8 * w] ^= 1;
                assert_ne!(base, checksum_words(7, &changed), "{words} words: word {w}");
                // Swapping two different words (same lane or not) moves
                // values between positions; the digest must notice.
                for v in w + 1..words {
                    let mut swapped = bytes.clone();
                    for i in 0..8 {
                        swapped.swap(8 * w + i, 8 * v + i);
                    }
                    assert_ne!(base, checksum_words(7, &swapped), "swap {w}↔{v}");
                }
            }
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let s = sample_schedule();
        let bytes = roundtrip_file(&s);
        for len in 0..bytes.len() {
            assert!(
                FileReader::new(&bytes[..len]).is_err(),
                "truncation to {len} bytes went undetected"
            );
        }
    }

    #[test]
    fn inflated_length_field_is_rejected_without_allocation() {
        let s = sample_schedule();
        let mut bytes = roundtrip_file(&s);
        // The LNKD payload_len lives at offset 24 (header 16 + tag 4 +
        // reserved 4). Inflate it to an absurd value: the reader must
        // refuse with LengthOverflow before sizing anything from it.
        bytes[24..32].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
        assert!(matches!(
            FileReader::new(&bytes),
            Err(BinSerError::LengthOverflow { .. })
        ));
    }

    #[test]
    fn inflated_record_count_is_rejected_without_allocation() {
        let s = sample_schedule();
        let mut payload = linked_payload(&s);
        // Node 0's key-run count (the word after the four header words):
        // inflate it.
        payload[32..40].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            decode_linked(&payload, 0),
            Err(BinSerError::LengthOverflow { .. })
        ));
    }

    #[test]
    fn duplicate_and_missing_sections_are_typed() {
        let s = sample_schedule();
        let payload = linked_payload(&s);
        let mut w = FileWriter::new();
        w.section(*b"LNKD", &payload);
        w.section(*b"LNKD", &payload);
        assert!(matches!(
            FileReader::new(&w.finish()),
            Err(BinSerError::DuplicateSection { .. })
        ));
        let mut w = FileWriter::new();
        w.section(*b"OTHR", &payload);
        let bytes = w.finish();
        let r = FileReader::new(&bytes).unwrap();
        assert!(matches!(
            r.require(*b"LNKD"),
            Err(BinSerError::MissingSection { .. })
        ));
    }

    /// Hand-build a linked payload: `n` nodes with the given key runs,
    /// then `steps` as `(kind, start, end)`, then the transfer table; no
    /// ops and no blocks.
    fn hand_linked(
        n: u64,
        capacity: u64,
        runs: &[&[Key]],
        steps: &[(u32, u64, u64)],
        transfers: &[[u32; 5]],
    ) -> Vec<u8> {
        let mut p = Vec::new();
        let rounds = steps.iter().filter(|s| s.0 == 0).count() as u64;
        for word in [n, capacity, rounds, transfers.len() as u64] {
            p.extend_from_slice(&word.to_le_bytes());
        }
        for run in runs {
            p.extend_from_slice(&(run.len() as u64).to_le_bytes());
            for k in run.iter() {
                p.extend_from_slice(&k.to_raw().to_le_bytes());
            }
        }
        p.extend_from_slice(&(steps.len() as u64).to_le_bytes());
        for (i, &(kind, start, end)) in steps.iter().enumerate() {
            p.extend_from_slice(&kind.to_le_bytes());
            p.extend_from_slice(&0u32.to_le_bytes());
            for word in [start, end, i as u64] {
                p.extend_from_slice(&word.to_le_bytes());
            }
        }
        p.extend_from_slice(&(transfers.len() as u64).to_le_bytes());
        for t in transfers {
            for w in t {
                p.extend_from_slice(&w.to_le_bytes());
            }
        }
        p.extend_from_slice(&0u64.to_le_bytes()); // ops
        p.extend_from_slice(&0u64.to_le_bytes()); // blocks
        p
    }

    #[test]
    fn empty_compute_section_is_rejected() {
        // One compute step over an empty op range: the builder would
        // silently drop it, so the decoder must refuse it instead of
        // round-tripping asymmetrically.
        let payload = hand_linked(1, 1, &[&[]], &[(1, 0, 0)], &[]);
        let e = decode_linked(&payload, 0).unwrap_err();
        assert!(matches!(e, BinSerError::Malformed { .. }), "{e}");
        assert!(e.to_string().contains("empty compute"));
    }

    #[test]
    fn linked_bounds_violations_are_typed_not_panics() {
        let s = sample_schedule();
        let ls = link(&s);
        let mut payload = Vec::new();
        encode_linked(&ls, &mut payload);
        // Walk every u32-aligned word, overwrite with a huge value, and
        // require a typed error or a decode that still runs in bounds.
        let pristine = decode_linked(&payload, 0).unwrap();
        for word in 0..payload.len() / 4 {
            let mut corrupt = payload.clone();
            corrupt[word * 4..word * 4 + 4].copy_from_slice(&0xFFFF_FF00u32.to_le_bytes());
            match decode_linked(&corrupt, 0) {
                Err(_) => {}
                Ok(back) => {
                    // Whatever survived must still be executable and
                    // in-bounds: run it to completion.
                    assert_eq!(back.n(), pristine.n());
                    let mut m: LinkedMachine<Nat> = LinkedMachine::new(&back);
                    let _ = m.run();
                }
            }
        }
    }

    #[test]
    fn decoded_schedule_revalidates_capacity() {
        // Two sends from node 0 in one round at capacity 1: the linked
        // decoder only bounds-checks, so the de-link's builder must
        // reject it.
        let k = Key::a(0, 0);
        let payload = hand_linked(
            3,
            1,
            &[&[k], &[k], &[k]],
            &[(0, 0, 2)],
            &[[0, 0, 1, 0, 0], [0, 0, 2, 0, 0]],
        );
        let linked = decode_linked(&payload, 0).expect("structurally sound");
        assert!(matches!(
            delink(&linked, 0),
            Err(BinSerError::Model(ModelError::SendConflict { .. }))
        ));
    }

    #[test]
    fn misshapen_block_is_a_typed_delink_error() {
        // A BlockMulAdd whose A cells are not T(ns, 0..dim²) cannot name
        // its namespace: the de-link must say so, not panic.
        let mut b = ScheduleBuilder::new(1);
        b.compute(vec![LocalOp::BlockMulAdd {
            node: NodeId(0),
            dim: 2,
            a_ns: 5,
            b_ns: 6,
            c_ns: 7,
        }])
        .unwrap();
        let s = b.build();
        let mut ls = link(&s);
        assert_eq!(delink(&ls, 0).unwrap(), s);
        let block = &mut ls.blocks[0];
        block.a.swap(0, 1);
        let e = delink(&ls, 40).unwrap_err();
        assert!(
            matches!(&e, BinSerError::Malformed { offset: 40, what } if what.contains("block 0 A")),
            "{e}"
        );
    }
}
