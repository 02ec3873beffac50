//! `disk` — the on-disk plan tier behind the in-memory
//! [`ScheduleCache`](crate::ScheduleCache).
//!
//! A compiled plan is a function of instance *structure* only, so it can
//! outlive the process that compiled it: the store keeps one
//! content-addressed file per [`StructureKey`] (`<32-hex-key>.plan` under
//! the store root) in the `model::binser` format. A warm store makes a
//! daemon restart cold-start-free and lets an ahead-of-time compile farm
//! hand plans to serving fleets.
//!
//! ## The admission gate
//!
//! Nothing read from disk is trusted. Every load runs, in order:
//!
//! 1. **Envelope + checksums** — magic, version byte (files of any other
//!    format version, older ones included, are refused), per-section
//!    four-lane mix64 digests over every payload byte, the end record's
//!    digest over the headers and section order, and structural bounds
//!    checks ([`lowband_model::binser`]); any failure is a typed
//!    [`BinSerError`], never a panic or an unbounded allocation.
//! 2. **Key equality** — the file embeds the [`StructureKey`] it was
//!    saved under; a renamed or mis-published file is rejected even when
//!    its contents are internally consistent.
//! 3. **`lint_linked`** — the full schedule/link fidelity lint from
//!    `lowband-check`, the same check a fresh compile must pass before
//!    insertion. The binser decoder proves the linked artifact is
//!    *executable* (all indices in bounds); only the lint proves it is
//!    *the schedule's* execution. Skipping it would let an adversary (or
//!    a bit-rotted sector) swap the linked body under an intact schedule.
//!    On a file the linker wrote, the lint pairs every event in link
//!    order without hashing, so it costs one linear pass.
//!
//! A file failing any step degrades to a cache miss — the caller
//! recompiles and overwrites, so a corrupt store heals itself and can
//! never execute a tampered plan. Upgrading to a build with a new format
//! version therefore costs one recompile per structure, not an outage.
//!
//! ## Publication
//!
//! [`PlanStore::save`] writes to a `.tmp` sibling and `rename`s it into
//! place, so concurrent readers (and a second process sharing the store)
//! observe either the old file, the new file, or absence — never a torn
//! write. Loads read the whole file into a plain byte buffer: the decoder
//! reads every integer with `from_le_bytes`, so nothing depends on the
//! buffer's alignment.

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::process;

use lowband_check::lint_linked;
use lowband_core::CompiledPlan;
use lowband_model::binser::{
    decode_linked, decode_schedule, encode_linked, encode_schedule, BinSerError, ByteReader,
    FileReader, FileWriter,
};

use crate::key::StructureKey;

const TAG_META: [u8; 4] = *b"META";
const TAG_SCHEDULE: [u8; 4] = *b"SCHD";
const TAG_LINKED: [u8; 4] = *b"LNKD";

/// Errors of the disk tier. Every variant means "treat as a miss" to the
/// cache above; they are surfaced so tests and operators can tell an
/// absent file from a rejected one.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure (permissions, disk full, …).
    Io(io::Error),
    /// The file failed envelope, checksum or structural validation.
    Format(BinSerError),
    /// The file's embedded key disagrees with the name it was loaded
    /// under — a renamed or mis-published artifact.
    KeyMismatch {
        /// Key the caller asked for.
        expected: u128,
        /// Key embedded in the file.
        found: u128,
    },
    /// The decoded artifact failed the `lint_linked` admission lint.
    Lint {
        /// Number of lint errors.
        errors: usize,
        /// The first lint error, rendered.
        first: String,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "plan store i/o error: {e}"),
            StoreError::Format(e) => write!(f, "plan file rejected: {e}"),
            StoreError::KeyMismatch { expected, found } => write!(
                f,
                "plan file key mismatch: expected {expected:032x}, file holds {found:032x}"
            ),
            StoreError::Lint { errors, first } => {
                write!(
                    f,
                    "plan file failed admission lint ({errors} error(s)): {first}"
                )
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

impl From<BinSerError> for StoreError {
    fn from(e: BinSerError) -> StoreError {
        StoreError::Format(e)
    }
}

/// Serialize a compiled plan (with the structure key it is stored under)
/// into a standalone binser file.
pub fn encode_plan(key: u128, plan: &CompiledPlan) -> Vec<u8> {
    let mut meta = Vec::with_capacity(32);
    meta.extend_from_slice(&key.to_le_bytes());
    meta.extend_from_slice(&plan.modeled_rounds.to_bits().to_le_bytes());
    meta.extend_from_slice(&(plan.triangles as u64).to_le_bytes());
    let mut schedule = Vec::new();
    encode_schedule(&plan.schedule, &mut schedule);
    let mut linked = Vec::new();
    encode_linked(&plan.linked, &mut linked);
    let mut w = FileWriter::new();
    w.section(TAG_META, &meta);
    w.section(TAG_SCHEDULE, &schedule);
    w.section(TAG_LINKED, &linked);
    w.finish()
}

/// Decode a plan file: envelope, checksums and structural validation
/// only. The embedded key is returned for the caller to check; semantic
/// fidelity (lint) is the admission gate's next step, not this one.
pub fn decode_plan(bytes: &[u8]) -> Result<(u128, CompiledPlan), BinSerError> {
    let r = FileReader::new(bytes)?;
    let (meta, meta_base) = r.require(TAG_META)?;
    let mut rd = ByteReader::new(meta, meta_base);
    let key = rd.u128()?;
    let rounds_at = rd.offset();
    let modeled_rounds = f64::from_bits(rd.u64()?);
    if !modeled_rounds.is_finite() {
        return Err(BinSerError::Malformed {
            offset: rounds_at,
            what: format!("modeled_rounds is not finite ({modeled_rounds})"),
        });
    }
    let triangles_at = rd.offset();
    let triangles = rd.u64()?;
    if triangles > usize::MAX as u64 {
        return Err(BinSerError::Malformed {
            offset: triangles_at,
            what: format!("triangle count {triangles} out of range"),
        });
    }
    rd.done()?;
    let (sp, sb) = r.require(TAG_SCHEDULE)?;
    let schedule = decode_schedule(sp, sb)?;
    let (lp, lb) = r.require(TAG_LINKED)?;
    let linked = decode_linked(lp, lb)?;
    Ok((
        key,
        CompiledPlan {
            schedule,
            linked,
            modeled_rounds,
            triangles: triangles as usize,
        },
    ))
}

/// The content-addressed on-disk plan tier.
pub struct PlanStore {
    root: PathBuf,
}

impl PlanStore {
    /// Open (creating if absent) a store rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<PlanStore> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(PlanStore { root })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The file a structure key is published under.
    pub fn path_for(&self, key: StructureKey) -> PathBuf {
        self.root.join(format!("{key}.plan"))
    }

    /// Whether a file is published for this key (no validation).
    pub fn contains(&self, key: StructureKey) -> bool {
        self.path_for(key).exists()
    }

    /// Serialize and atomically publish a plan under `key`, returning the
    /// file size in bytes. A concurrent reader sees the previous file or
    /// the complete new one, never a partial write.
    pub fn save(&self, key: StructureKey, plan: &CompiledPlan) -> Result<u64, StoreError> {
        let bytes = encode_plan(key.as_u128(), plan);
        let tmp = self.root.join(format!(".tmp.{}.{key}", process::id()));
        let mut f = fs::File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
        drop(f);
        if let Err(e) = fs::rename(&tmp, self.path_for(key)) {
            let _ = fs::remove_file(&tmp);
            return Err(StoreError::Io(e));
        }
        Ok(bytes.len() as u64)
    }

    /// Load the plan published under `key`, running the full admission
    /// gate (see the module docs). `Ok(None)` means no file is published;
    /// any `Err` means a file exists but was rejected — the caller must
    /// treat both as a miss and recompile.
    pub fn load(&self, key: StructureKey) -> Result<Option<CompiledPlan>, StoreError> {
        let bytes = match fs::read(self.path_for(key)) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(StoreError::Io(e)),
        };
        let (embedded, plan) = decode_plan(&bytes)?;
        // The plan owns its decoded tables; free the file before the lint
        // allocates.
        drop(bytes);
        if embedded != key.as_u128() {
            return Err(StoreError::KeyMismatch {
                expected: key.as_u128(),
                found: embedded,
            });
        }
        let lint = lint_linked(&plan.schedule, &plan.linked);
        let errors = lint.errors().count();
        if errors > 0 {
            return Err(StoreError::Lint {
                errors,
                first: lint
                    .errors()
                    .next()
                    .map(|e| e.to_string())
                    .unwrap_or_default(),
            });
        }
        Ok(Some(plan))
    }

    /// Remove the file published under `key`, if any. Used by tests and
    /// by operators retiring a structure; a missing file is not an error.
    pub fn evict(&self, key: StructureKey) -> Result<bool, StoreError> {
        match fs::remove_file(self.path_for(key)) {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(StoreError::Io(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowband_core::{compile_plan, Algorithm, Instance};
    use lowband_matrix::gen;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tmp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lowband-disk-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn plan_and_key(seed: u64) -> (StructureKey, CompiledPlan) {
        let mut rng = StdRng::seed_from_u64(seed);
        let inst = Instance::new(
            gen::uniform_sparse(24, 3, &mut rng),
            gen::uniform_sparse(24, 3, &mut rng),
            gen::uniform_sparse(24, 3, &mut rng),
        );
        let key = StructureKey::of(&inst, Algorithm::BoundedTriangles, false);
        let plan = compile_plan(&inst, Algorithm::BoundedTriangles, false).unwrap();
        (key, plan)
    }

    #[test]
    fn save_load_roundtrip_passes_the_gate() {
        let root = tmp_root("roundtrip");
        let store = PlanStore::open(&root).unwrap();
        let (key, plan) = plan_and_key(1);
        assert!(!store.contains(key));
        let bytes = store.save(key, &plan).unwrap();
        assert!(bytes > 0);
        assert!(store.contains(key));
        let back = store.load(key).unwrap().expect("published plan loads");
        assert_eq!(back.schedule, plan.schedule);
        assert_eq!(back.linked.rounds(), plan.linked.rounds());
        assert_eq!(back.linked.total_slots(), plan.linked.total_slots());
        assert_eq!(back.modeled_rounds, plan.modeled_rounds);
        assert_eq!(back.triangles, plan.triangles);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn absent_key_is_a_clean_miss() {
        let root = tmp_root("absent");
        let store = PlanStore::open(&root).unwrap();
        let (key, _) = plan_and_key(2);
        assert!(store.load(key).unwrap().is_none());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn renamed_file_is_rejected_by_key_equality() {
        let root = tmp_root("renamed");
        let store = PlanStore::open(&root).unwrap();
        let (k1, p1) = plan_and_key(3);
        let (k2, _) = plan_and_key(4);
        store.save(k1, &p1).unwrap();
        // Publish k1's (internally consistent) file under k2's name.
        fs::rename(store.path_for(k1), store.path_for(k2)).unwrap();
        assert!(matches!(
            store.load(k2),
            Err(StoreError::KeyMismatch { .. })
        ));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_file_is_rejected_not_executed() {
        let root = tmp_root("corrupt");
        let store = PlanStore::open(&root).unwrap();
        let (key, plan) = plan_and_key(5);
        store.save(key, &plan).unwrap();
        let path = store.path_for(key);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(store.load(key), Err(StoreError::Format(_))));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn evict_removes_the_file() {
        let root = tmp_root("evict");
        let store = PlanStore::open(&root).unwrap();
        let (key, plan) = plan_and_key(6);
        store.save(key, &plan).unwrap();
        assert!(store.evict(key).unwrap());
        assert!(!store.evict(key).unwrap(), "second evict is a no-op");
        assert!(store.load(key).unwrap().is_none());
        let _ = fs::remove_dir_all(&root);
    }
}
