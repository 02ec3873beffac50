//! The on-disk plan tier across process boundaries (DESIGN.md §16).
//!
//! `PlanStore` is content-addressed by `StructureKey`, which is a pure
//! function of (structure, algorithm, compression) — so two *processes*
//! that derive the same key must be able to share one store root: the
//! first populates, the second serves with zero cold compiles. The
//! populate leg really runs in a child process (this test binary re-execs
//! itself with `LOWBAND_PLANSTORE_CHILD_ROOT` set), not just a second
//! cache instance, so the test also covers path layout, atomic
//! write–rename publication and file-system visibility.

use lowband::core::{compile_plan, Algorithm, Instance};
use lowband::matrix::gen;
use lowband::model::binser::{BinSerError, BINSER_VERSION};
use lowband::serve::{PlanStore, ScheduleCache, StoreError, StructureKey};
use std::path::PathBuf;

/// The shared workload: both processes must derive the same
/// `StructureKey` from this.
fn shared_instance() -> (Instance, Algorithm, bool) {
    let s = gen::block_diagonal(24, 4);
    (
        Instance::new(s.clone(), s.clone(), s),
        Algorithm::BoundedTriangles,
        false,
    )
}

fn tmp_root(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("lowband-plan-store-{tag}-{}", std::process::id()))
}

/// Child leg of [`two_processes_share_one_store_root`]: when the env var
/// is set, populate the store it names through a disk-backed cache and
/// exit. When it is not set (a normal test run), this is a no-op.
#[test]
fn child_populates_store() {
    let Ok(root) = std::env::var("LOWBAND_PLANSTORE_CHILD_ROOT") else {
        return;
    };
    let (inst, algorithm, compress) = shared_instance();
    let mut cache = ScheduleCache::with_store(4, PlanStore::open(&root).expect("child open"));
    cache
        .get_or_compile(&inst, algorithm, compress)
        .expect("child compile");
    let stats = cache.stats();
    assert_eq!(
        (stats.compiles, stats.disk_writes),
        (1, 1),
        "child must compile once and publish: {stats:?}"
    );
}

#[test]
fn two_processes_share_one_store_root() {
    let root = tmp_root("share");
    let _ = std::fs::remove_dir_all(&root);

    // Leg 1: a separate process populates the store.
    let exe = std::env::current_exe().expect("test binary path");
    let status = std::process::Command::new(exe)
        .args(["child_populates_store", "--exact"])
        .env("LOWBAND_PLANSTORE_CHILD_ROOT", &root)
        .status()
        .expect("spawn populate process");
    assert!(status.success(), "populate process failed: {status}");

    // Leg 2: this process serves the same structure with zero compiles.
    let (inst, algorithm, compress) = shared_instance();
    let key = StructureKey::of(&inst, algorithm, compress);
    let store = PlanStore::open(&root).expect("open shared root");
    assert!(
        store.path_for(key).exists(),
        "child's publication is not visible at {}",
        store.path_for(key).display()
    );
    let mut cache = ScheduleCache::with_store(4, store);
    let plan = cache
        .get_or_compile(&inst, algorithm, compress)
        .expect("serve from disk");
    let stats = cache.stats();
    assert_eq!(
        (stats.compiles, stats.disk_hits),
        (0, 1),
        "second process must serve from the disk tier: {stats:?}"
    );
    // The served plan is the real thing, not a stub: it matches a fresh
    // compile of the same structure.
    let fresh = compile_plan(&inst, algorithm, compress).expect("reference compile");
    assert_eq!(plan.schedule, fresh.schedule);

    let _ = std::fs::remove_dir_all(&root);
}

/// A store written by another format version — a *newer* build's, or the
/// previous version's, left over from before an upgrade — must be
/// rejected cleanly: typed error at the store layer, miss + recompile at
/// the cache layer, never misread.
#[test]
fn stale_version_byte_is_rejected_cleanly() {
    let (inst, algorithm, compress) = shared_instance();
    let key = StructureKey::of(&inst, algorithm, compress);
    let plan = compile_plan(&inst, algorithm, compress).expect("compile");
    for (label, version) in [("vnext", BINSER_VERSION + 1), ("vprev", BINSER_VERSION - 1)] {
        let root = tmp_root(label);
        let _ = std::fs::remove_dir_all(&root);
        let store = PlanStore::open(&root).expect("open");
        store.save(key, &plan).expect("publish");

        // Rewrite the version byte, as if another build had written this
        // file.
        let path = store.path_for(key);
        let mut bytes = std::fs::read(&path).expect("read");
        assert_eq!(bytes[8], BINSER_VERSION);
        bytes[8] = version;
        std::fs::write(&path, &bytes).expect("tamper");

        match store.load(key) {
            Err(StoreError::Format(BinSerError::UnsupportedVersion { found, supported })) => {
                assert_eq!((found, supported), (version, BINSER_VERSION));
            }
            other => panic!("{label} file: expected UnsupportedVersion, got {other:?}"),
        }

        // The serving path degrades to reject + recompile and heals the
        // file back to the supported version.
        let mut cache = ScheduleCache::with_store(4, PlanStore::open(&root).expect("reopen"));
        let served = cache
            .get_or_compile(&inst, algorithm, compress)
            .unwrap_or_else(|e| panic!("request survives {label} file: {e}"));
        assert_eq!(served.schedule, plan.schedule);
        let stats = cache.stats();
        assert_eq!(
            (stats.disk_rejects, stats.compiles, stats.disk_writes),
            (1, 1, 1),
            "{label} file must degrade to reject + recompile + heal: {stats:?}"
        );
        assert_eq!(
            std::fs::read(&path).expect("healed file")[8],
            BINSER_VERSION,
            "recompile must republish at the supported version"
        );
        let _ = std::fs::remove_dir_all(&root);
    }
}

/// Publication is atomic: after `save` returns there are no temp files in
/// the root, and a concurrent reader polling the final path only ever
/// sees a complete, gate-passing file.
#[test]
fn publication_is_atomic_and_leaves_no_temp_files() {
    let (inst, algorithm, compress) = shared_instance();
    let key = StructureKey::of(&inst, algorithm, compress);
    let root = tmp_root("atomic");
    let _ = std::fs::remove_dir_all(&root);
    let store = PlanStore::open(&root).expect("open");
    let plan = compile_plan(&inst, algorithm, compress).expect("compile");

    let path = store.path_for(key);
    let reader = {
        let root = root.clone();
        let path = path.clone();
        std::thread::spawn(move || {
            // Poll until the published file appears; every observation of
            // it must pass the full gate.
            let reader_store = PlanStore::open(&root).expect("reader open");
            let _ = path;
            for _ in 0..10_000 {
                match reader_store.load(key) {
                    Ok(None) => std::thread::yield_now(),
                    Ok(Some(seen)) => return Some(seen),
                    Err(e) => panic!("reader saw a partial publication: {e}"),
                }
            }
            None
        })
    };
    store.save(key, &plan).expect("publish");
    if let Some(seen) = reader.join().expect("reader thread") {
        assert_eq!(seen.schedule, plan.schedule);
    }

    let leftovers: Vec<_> = std::fs::read_dir(&root)
        .expect("read root")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|name| !name.ends_with(".plan"))
        .collect();
    assert!(
        leftovers.is_empty(),
        "publication left temp files behind: {leftovers:?}"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// Compiling one structure twice gives the same plan file, byte for byte,
/// for every algorithm and dense engine, compressed or not: nothing from
/// compile through link follows hash-map iteration order, so "same
/// structure ⇒ same compiled artifact" holds for the bytes a store keeps.
#[test]
fn compiles_are_byte_identical() {
    use lowband::core::densemm::DenseEngine;
    use lowband::core::optimizer::OMEGA_PAPER;
    use lowband::serve::encode_plan;
    use rand::SeedableRng;

    // Dense 4-blocks plus scattered background: the two-phase algorithm
    // extracts clusters and leaves a residual for Lemma 3.1.
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xB17E);
    let n = 48;
    let block = gen::block_diagonal(n, 4);
    let inst = Instance::new(
        block.union(&gen::uniform_sparse(n, 2, &mut rng)),
        block.union(&gen::uniform_sparse(n, 2, &mut rng)),
        block.union(&gen::average_sparse(n, 2, &mut rng)),
    );
    let two_phase = |engine| Algorithm::TwoPhase { d: 6, engine };
    let mut differ = Vec::new();
    for algorithm in [
        Algorithm::Trivial,
        Algorithm::BoundedTriangles,
        Algorithm::DenseCube,
        two_phase(DenseEngine::Cube3d),
        two_phase(DenseEngine::FastField { omega: OMEGA_PAPER }),
        two_phase(DenseEngine::StrassenExec),
    ] {
        for compress in [false, true] {
            let first = compile_plan(&inst, algorithm, compress).expect("compiles");
            let second = compile_plan(&inst, algorithm, compress).expect("compiles");
            if first.linked.rounds() != second.linked.rounds() {
                differ.push(format!("{algorithm:?}, compress {compress}: rounds"));
            }
            if encode_plan(0, &first) != encode_plan(0, &second) {
                differ.push(format!("{algorithm:?}, compress {compress}: bytes"));
            }
        }
    }
    assert!(differ.is_empty(), "recompiles differ: {differ:#?}");
}
