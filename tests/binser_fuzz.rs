//! Corruption fuzzing of the `model::binser` plan format and the
//! `serve::disk` admission gate (DESIGN.md §16).
//!
//! The contract under test: **no byte sequence handed to the decoder may
//! panic, allocate unboundedly, or yield a plan that executes differently
//! from some pristine plan's source schedule.** Every mutation below must
//! land in one of two buckets — a typed [`BinSerError`] (or store-level
//! rejection), or a decode whose linked schedule lints clean against its
//! own de-link, which is why the store runs no lint at load.
//!
//! Mutations: seeded single-byte flips over a corpus of real compiled
//! plans, truncation at every section boundary (and every prefix of the
//! smallest file), magic/version mutations, length-field inflation, and
//! — behind freshly sealed checksums — count-field inflation, out-of-order
//! or repeated linked keys, rewritten step indices and seeded single-word
//! rewrites of the linked payload. A final pair of
//! tests drives the same corruption through `PlanStore`/`ScheduleCache`
//! and checks it degrades to a recompile, not an execution.
//!
//! Iteration counts rise under `--features proptest-tests`, matching
//! `tests/properties.rs`.

use lowband::check::lint_linked;
use lowband::core::{compile_plan, Algorithm, CompiledPlan, Instance};
use lowband::matrix::gen;
use lowband::model::binser::{
    self, BinSerError, FileReader, BINSER_MAGIC, BINSER_VERSION, TAG_END,
};
use lowband::model::NodeId;
use lowband::serve::{decode_plan, encode_plan, PlanStore, ScheduleCache, StructureKey};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Tag of a plan file's linked-schedule section.
const TAG_LINKED: [u8; 4] = *b"LNKD";

#[cfg(feature = "proptest-tests")]
const FLIPS_PER_FILE: usize = 4096;
#[cfg(not(feature = "proptest-tests"))]
const FLIPS_PER_FILE: usize = 512;

/// A corpus of real encoded plan files: algorithms × compression over a
/// small block-diagonal instance (every op kind, both step kinds).
fn corpus() -> Vec<(String, u128, CompiledPlan, Vec<u8>)> {
    let s = gen::block_diagonal(24, 4);
    let inst = Instance::new(s.clone(), s.clone(), s);
    let mut out = Vec::new();
    for (tag, algorithm) in [
        ("trivial", Algorithm::Trivial),
        ("bounded", Algorithm::BoundedTriangles),
    ] {
        for compress in [false, true] {
            let plan = compile_plan(&inst, algorithm, compress).expect("corpus compile");
            let key = StructureKey::of(&inst, algorithm, compress).as_u128();
            let bytes = encode_plan(key, &plan);
            out.push((format!("{tag}/compress={compress}"), key, plan, bytes));
        }
    }
    out
}

/// What a mutated file is allowed to do, mirroring the store's admission
/// gate: a typed [`BinSerError`] (checksum, structure or de-link layer),
/// or a decode that clears the gate — which by the gate's own proof is a
/// well-formed executable plan whose schedule is the de-link of its
/// linked form, so it must lint clean. A panic or unbounded allocation
/// fails the test by crashing it.
fn must_degrade_cleanly(bytes: &[u8]) {
    if let Ok((_key, plan)) = decode_plan(bytes) {
        let report = lint_linked(&plan.schedule, &plan.linked);
        assert!(
            report.is_clean(),
            "a decoded mutant fails the lint: {report}"
        );
    }
}

#[test]
fn pristine_corpus_roundtrips_bit_identically() {
    for (name, key, plan, bytes) in corpus() {
        let (found_key, decoded) = decode_plan(&bytes).expect("pristine file decodes");
        assert_eq!(found_key, key, "{name}: embedded key drifted");
        assert_eq!(decoded.schedule, plan.schedule, "{name}: schedule drifted");
        assert_eq!(
            lint_linked(&decoded.schedule, &decoded.linked)
                .errors()
                .count(),
            0,
            "{name}: pristine decode fails the admission lint"
        );
        assert_eq!(
            encode_plan(found_key, &decoded),
            bytes,
            "{name}: load(save(plan)) is not bit-identical"
        );
    }
}

#[test]
fn seeded_single_byte_flips_never_panic_or_diverge() {
    for (_name, _key, _plan, bytes) in corpus() {
        let mut rng = StdRng::seed_from_u64(0xB175_F11F);
        for _case in 0..FLIPS_PER_FILE {
            let pos = rng.gen_range(0..bytes.len());
            let mask = rng.gen_range(1..256u32) as u8;
            let mut mutated = bytes.clone();
            mutated[pos] ^= mask;
            must_degrade_cleanly(&mutated);
        }
    }
}

#[test]
fn every_prefix_of_the_smallest_file_is_rejected() {
    let (name, _key, _plan, bytes) = corpus()
        .into_iter()
        .min_by_key(|(_, _, _, b)| b.len())
        .expect("non-empty corpus");
    for len in 0..bytes.len() {
        assert!(
            decode_plan(&bytes[..len]).is_err(),
            "{name}: prefix of {len} bytes decoded"
        );
    }
}

#[test]
fn truncation_at_every_section_boundary_is_typed() {
    for (name, _key, _plan, bytes) in corpus() {
        let reader = FileReader::new(&bytes).expect("pristine envelope");
        let mut cuts = vec![0usize, bytes.len() - 1];
        for span in reader.spans() {
            cuts.extend([
                span.record.start,
                span.payload.start,
                span.payload.end,
                span.record.end,
            ]);
        }
        drop(reader);
        // The last record's end is the file itself — that one must decode.
        cuts.retain(|&c| c < bytes.len());
        for cut in cuts {
            assert!(
                decode_plan(&bytes[..cut]).is_err(),
                "{name}: truncation at boundary {cut} decoded"
            );
        }
    }
}

#[test]
fn magic_and_version_mutations_are_typed() {
    let (_name, _key, _plan, bytes) = &corpus()[0];
    for pos in 0..8 {
        let mut mutated = bytes.clone();
        mutated[pos] ^= 0x20;
        assert!(
            matches!(decode_plan(&mutated), Err(BinSerError::BadMagic { .. })),
            "magic flip at byte {pos} not typed as BadMagic"
        );
    }
    let mut stale = bytes.clone();
    stale[8] = BINSER_VERSION + 1;
    match decode_plan(&stale) {
        Err(BinSerError::UnsupportedVersion { found, supported }) => {
            assert_eq!((found, supported), (BINSER_VERSION + 1, BINSER_VERSION));
        }
        other => panic!("stale version byte: expected UnsupportedVersion, got {other:?}"),
    }
}

#[test]
fn length_field_inflation_is_rejected_without_allocation() {
    for (name, _key, _plan, bytes) in corpus() {
        let reader = FileReader::new(&bytes).expect("pristine envelope");
        let spans: Vec<_> = reader.spans().to_vec();
        drop(reader);
        for span in spans.iter().filter(|s| s.tag != TAG_END) {
            for inflated in [u64::MAX, u64::MAX / 2, bytes.len() as u64 + 8] {
                let mut mutated = bytes.clone();
                let at = span.record.start + 8;
                mutated[at..at + 8].copy_from_slice(&inflated.to_le_bytes());
                assert!(
                    decode_plan(&mutated).is_err(),
                    "{name}: inflated length {inflated:#x} in {:?} decoded",
                    span.tag
                );
            }
        }
    }
}

/// Each section's tag and payload in file order (end record excluded).
fn sections_of(bytes: &[u8]) -> Vec<([u8; 4], Vec<u8>)> {
    FileReader::new(bytes)
        .expect("pristine envelope")
        .spans()
        .iter()
        .filter(|s| s.tag != TAG_END)
        .map(|s| (s.tag, bytes[s.payload.clone()].to_vec()))
        .collect()
}

/// Write `sections` back out with freshly sealed checksums, so a payload
/// mutation reaches the payload decoder rather than dying at the
/// envelope.
fn reseal(sections: &[([u8; 4], Vec<u8>)]) -> Vec<u8> {
    let mut w = binser::FileWriter::new();
    for (tag, payload) in sections {
        w.section(*tag, payload);
    }
    w.finish()
}

/// Inflate record-count words *inside* payloads, then re-seal the file
/// with fresh checksums so the mutation reaches the payload decoder
/// rather than dying at the envelope. The decoder's count guard must
/// reject the declared count against the remaining bytes — not allocate.
#[test]
fn count_field_inflation_behind_valid_checksums_is_rejected() {
    for (_name, _key, _plan, bytes) in corpus() {
        let sections = sections_of(&bytes);
        let mut rng = StdRng::seed_from_u64(0xC0_4277);
        for _case in 0..(FLIPS_PER_FILE / 8) {
            let victim = rng.gen_range(0..sections.len());
            let mut mutated = sections.clone();
            let payload = &mut mutated[victim].1;
            if payload.len() < 8 {
                continue;
            }
            // Overwrite one aligned u64 word with a huge value: whatever
            // role it plays (count, n, dim, slot run), the decoder must
            // bound-check it.
            let word = rng.gen_range(0..payload.len() / 8) * 8;
            payload[word..word + 8].copy_from_slice(&(u64::MAX / 3).to_le_bytes());
            must_degrade_cleanly(&reseal(&mutated));
        }
    }
}

/// Since v3 each node's slots are numbered in key order, so its linked key run must
/// ascend strictly. Swap two adjacent keys of one run, or repeat a key,
/// and re-seal the file: the decoder must refuse it as `Malformed` at the
/// offending key's file offset — not admit it, not panic.
#[test]
fn unordered_or_repeated_keys_behind_valid_checksums_are_rejected() {
    for (name, _key, plan, bytes) in corpus() {
        let sections = sections_of(&bytes);
        let victim = sections
            .iter()
            .position(|(tag, _)| *tag == TAG_LINKED)
            .expect("linked section");
        let reader = FileReader::new(&bytes).expect("pristine envelope");
        let (_, payload_at) = reader.require(TAG_LINKED).expect("linked section");
        drop(reader);

        let (mut run_at, _) = linked_layout(&plan);
        run_at.retain(|&(_, slots)| slots >= 2);
        assert!(!run_at.is_empty(), "{name}: no node holds two keys");

        let mut rng = StdRng::seed_from_u64(0x5EED_0A7E);
        for _case in 0..16 {
            let (run, slots) = run_at[rng.gen_range(0..run_at.len())];
            let i = rng.gen_range(0..slots - 1);
            let (first, second) = (run + 16 * i, run + 16 * (i + 1));
            for repeat in [false, true] {
                let mut mutated = sections.clone();
                let p = &mut mutated[victim].1;
                let (lo, hi) = p.split_at_mut(second);
                if repeat {
                    hi[..16].copy_from_slice(&lo[first..first + 16]);
                } else {
                    lo[first..first + 16].swap_with_slice(&mut hi[..16]);
                }
                match decode_plan(&reseal(&mutated)) {
                    Err(BinSerError::Malformed { offset, .. }) => assert_eq!(
                        offset,
                        payload_at + second,
                        "{name} repeat={repeat}: wrong key blamed"
                    ),
                    Err(other) => panic!("{name} repeat={repeat}: expected Malformed, got {other}"),
                    Ok(_) => panic!("{name} repeat={repeat}: key run out of order was admitted"),
                }
            }
        }
    }
}

/// Offset inside the linked payload of each node's key run and of the
/// step table: four header words, then per node a u64 count and 16 bytes
/// per key, then the u64 step count and 32-byte step records.
fn linked_layout(plan: &CompiledPlan) -> (Vec<(usize, usize)>, usize) {
    let linked = &plan.linked;
    let mut runs = Vec::new();
    let mut at = 32;
    for v in 0..linked.n() as u32 {
        let slots = linked.slots_at(NodeId(v));
        runs.push((at + 8, slots));
        at += 8 + 16 * slots;
    }
    (runs, at + 8)
}

/// A linked step's index is its position. Rewrite each step record's
/// source-step word behind freshly sealed checksums: the decoder must
/// refuse the file as `Malformed` at that word, not admit a plan whose
/// runtime errors would name the wrong step.
#[test]
fn rewritten_step_indices_behind_valid_checksums_are_rejected() {
    for (name, _key, plan, bytes) in corpus() {
        let sections = sections_of(&bytes);
        let victim = sections
            .iter()
            .position(|(tag, _)| *tag == TAG_LINKED)
            .expect("linked section");
        let reader = FileReader::new(&bytes).expect("pristine envelope");
        let (_, payload_at) = reader.require(TAG_LINKED).expect("linked section");
        drop(reader);
        let (_, steps_at) = linked_layout(&plan);
        for step in 0..plan.linked.step_count() {
            let word = steps_at + 32 * step + 24;
            let position = step as u64;
            for rewritten in [position + 1, position ^ 3, 1_000_000] {
                let mut mutated = sections.clone();
                mutated[victim].1[word..word + 8].copy_from_slice(&rewritten.to_le_bytes());
                match decode_plan(&reseal(&mutated)) {
                    Err(BinSerError::Malformed { offset, .. }) => assert_eq!(
                        offset,
                        payload_at + word,
                        "{name} step {step} -> {rewritten}: wrong word blamed"
                    ),
                    Err(other) => {
                        panic!("{name} step {step} -> {rewritten}: expected Malformed, got {other}")
                    }
                    Ok(_) => panic!("{name} step {step} -> {rewritten}: decoded"),
                }
            }
        }
    }
}

/// Seeded single-word rewrites anywhere in the linked payload, behind
/// freshly sealed checksums so each one reaches the payload decoder and
/// the de-link: every mutant is refused with a typed error or decodes to
/// a plan that lints clean.
#[test]
fn resealed_linked_word_rewrites_degrade_cleanly() {
    for (_name, _key, _plan, bytes) in corpus() {
        let sections = sections_of(&bytes);
        let victim = sections
            .iter()
            .position(|(tag, _)| *tag == TAG_LINKED)
            .expect("linked section");
        let words = sections[victim].1.len() / 4;
        let mut rng = StdRng::seed_from_u64(0x11D_3070);
        for _case in 0..FLIPS_PER_FILE {
            let at = 4 * rng.gen_range(0..words);
            let mut mutated = sections.clone();
            let payload = &mut mutated[victim].1;
            let old = u32::from_le_bytes(payload[at..at + 4].try_into().expect("word"));
            let new = match rng.gen_range(0..4u32) {
                0 => old.wrapping_add(1),
                1 => old.wrapping_sub(1),
                2 => old ^ (1 << rng.gen_range(0..32u32)),
                _ => rng.gen(),
            };
            payload[at..at + 4].copy_from_slice(&new.to_le_bytes());
            must_degrade_cleanly(&reseal(&mutated));
        }
    }
}

#[test]
fn magic_constant_is_stable() {
    // The on-disk contract: changing these is a format break and must come
    // with a version bump, not a silent re-interpretation.
    assert_eq!(&BINSER_MAGIC, b"LBPLAN\r\n");
    assert_eq!(BINSER_VERSION, 4);
}

/// The end record covers section order: swapping two whole section
/// records leaves both section checksums intact, so only the end record
/// can catch it — and must.
#[test]
fn swapped_sections_are_rejected_by_the_end_record() {
    for (name, _key, _plan, bytes) in corpus() {
        let reader = FileReader::new(&bytes).expect("pristine envelope");
        let records: Vec<_> = reader.spans().iter().map(|s| s.record.clone()).collect();
        drop(reader);
        // Swap the last two sections before the end record (META and
        // LNKD): splice the file back together in the new order.
        let [.., first, second, end] = &records[..] else {
            panic!("{name}: expected at least two sections");
        };
        let mut swapped = bytes[..first.start].to_vec();
        swapped.extend_from_slice(&bytes[second.clone()]);
        swapped.extend_from_slice(&bytes[first.clone()]);
        swapped.extend_from_slice(&bytes[end.clone()]);
        assert_eq!(swapped.len(), bytes.len());
        match FileReader::new(&swapped) {
            Err(BinSerError::ChecksumMismatch { section, offset }) => {
                assert_eq!(
                    (section, offset),
                    (TAG_END, end.start),
                    "{name}: wrong record blamed"
                );
            }
            Err(other) => panic!("{name}: expected an end-record mismatch, got {other}"),
            Ok(_) => panic!("{name}: swapped sections were accepted"),
        }
    }
}

fn tmp_root(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("lowband-binser-fuzz-{tag}-{}", std::process::id()))
}

/// Store-level fuzz: corrupt the published file at seeded offsets; every
/// load must come back `Err` (gate rejection) or pristine-equivalent, and
/// the serving cache must degrade to a recompile that heals the file.
#[test]
fn tampered_store_files_degrade_to_miss_plus_recompile() {
    let s = gen::block_diagonal(24, 4);
    let inst = Instance::new(s.clone(), s.clone(), s);
    let algorithm = Algorithm::BoundedTriangles;
    let key = StructureKey::of(&inst, algorithm, false);

    let root = tmp_root("tamper");
    let _ = std::fs::remove_dir_all(&root);
    let store = PlanStore::open(&root).expect("open store");
    let plan = compile_plan(&inst, algorithm, false).expect("compile");
    store.save(key, &plan).expect("publish");
    let path = store.path_for(key);
    let pristine = std::fs::read(&path).expect("read published file");

    let mut rng = StdRng::seed_from_u64(0x7A39_ED57);
    for _ in 0..FLIPS_PER_FILE / 8 {
        let pos = rng.gen_range(0..pristine.len());
        let mut mutated = pristine.clone();
        mutated[pos] ^= 0x40;
        std::fs::write(&path, &mutated).expect("tamper");

        let mut cache = ScheduleCache::with_store(4, PlanStore::open(&root).expect("reopen"));
        let served = cache
            .get_or_compile(&inst, algorithm, false)
            .expect("request survives tampering");
        assert_eq!(
            served.schedule, plan.schedule,
            "tampered byte {pos} changed the served schedule"
        );
        let stats = cache.stats();
        assert_eq!(
            stats.disk_hits + stats.disk_rejects + stats.disk_misses,
            1,
            "byte {pos}: exactly one disk probe expected: {stats:?}"
        );
        if stats.disk_rejects == 1 {
            assert_eq!(
                (stats.compiles, stats.disk_writes),
                (1, 1),
                "byte {pos}: a reject must recompile and heal the file: {stats:?}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}

// ---------------------------------------------------------------------------
// Round-trip property tests over the `lowband::check` schedule generator:
// every seeded random valid schedule (sizes 2..12, capacities 1..4), raw and
// compressed, must survive `load(save(plan))` bit-identically and execute
// identically to its pristine link across semirings.
// ---------------------------------------------------------------------------

#[cfg(feature = "proptest-tests")]
const CASES: u64 = 128;
#[cfg(not(feature = "proptest-tests"))]
const CASES: u64 = 32;

/// Wrap a generated schedule (optionally re-scheduled by `compress`) into
/// a `CompiledPlan` the way `compile_plan` does: linked, with the schedule
/// kept in link order.
fn plan_of(schedule: lowband::model::Schedule) -> CompiledPlan {
    let linked = lowband::model::link(&schedule);
    let modeled_rounds = schedule.rounds() as f64;
    CompiledPlan {
        schedule: schedule.into_link_order(),
        linked,
        modeled_rounds,
        triangles: 0,
    }
}

#[test]
fn generated_schedules_roundtrip_bit_identically() {
    for seed in 0..CASES {
        let case = lowband::check::generate_for_seed(seed);
        for compressed in [false, true] {
            let schedule = if compressed {
                lowband::model::compress(&case.schedule)
            } else {
                case.schedule.clone()
            };
            let plan = plan_of(schedule);
            let key = u128::from(seed) << 64 | u128::from(u64::from(compressed));
            let bytes = encode_plan(key, &plan);
            let (found, decoded) =
                decode_plan(&bytes).unwrap_or_else(|e| panic!("seed {seed}: decode failed: {e}"));
            assert_eq!(found, key, "seed {seed}: key drifted");
            assert_eq!(
                decoded.schedule, plan.schedule,
                "seed {seed} compressed={compressed}: schedule drifted"
            );
            assert_eq!(
                lint_linked(&decoded.schedule, &decoded.linked)
                    .errors()
                    .count(),
                0,
                "seed {seed} compressed={compressed}: decode fails the admission lint"
            );
            assert_eq!(
                encode_plan(found, &decoded),
                bytes,
                "seed {seed} compressed={compressed}: load(save(plan)) is not bit-identical"
            );
        }
    }
}

/// Run a linked schedule under semiring `S` from the generator's loads and
/// return per-node snapshots plus stats.
fn execute<S: lowband::model::PackedSemiring<1>>(
    linked: &lowband::model::LinkedSchedule,
    loads: &[(u32, lowband::model::Key, u64)],
    lift: impl Fn(u64) -> S,
) -> (
    Vec<std::collections::HashMap<lowband::model::Key, S>>,
    lowband::model::ExecutionStats,
) {
    use lowband::model::{LinkedMachine, NodeId};
    let mut m: LinkedMachine<S> = LinkedMachine::new(linked);
    for &(node, key, v) in loads {
        m.load(NodeId(node), key, lift(v));
    }
    let stats = m.run().expect("generated schedule executes");
    let stores = (0..linked.n() as u32)
        .map(|node| m.snapshot(NodeId(node)))
        .collect();
    (stores, stats)
}

/// Compare pristine vs decoded execution under one semiring.
fn assert_same_execution<S: lowband::model::PackedSemiring<1> + PartialEq + std::fmt::Debug>(
    seed: u64,
    semiring: &str,
    pristine: &lowband::model::LinkedSchedule,
    decoded: &lowband::model::LinkedSchedule,
    loads: &[(u32, lowband::model::Key, u64)],
    lift: impl Fn(u64) -> S + Copy,
) {
    let (want_stores, want_stats) = execute(pristine, loads, lift);
    let (got_stores, got_stats) = execute(decoded, loads, lift);
    assert_eq!(
        want_stats, got_stats,
        "seed {seed} [{semiring}]: stats diverge after binser roundtrip"
    );
    assert_eq!(
        want_stores, got_stores,
        "seed {seed} [{semiring}]: stores diverge after binser roundtrip"
    );
}

#[test]
fn decoded_plans_execute_identically_across_semirings() {
    use lowband::matrix::{Bool, Fp, Gf2, MinPlus, Wrap64};
    use lowband::model::algebra::Nat;
    for seed in 0..CASES / 4 {
        let case = lowband::check::generate_for_seed(seed);
        let plan = plan_of(case.schedule.clone());
        let bytes = encode_plan(u128::from(seed), &plan);
        let (_, decoded) = decode_plan(&bytes).expect("roundtrip");
        let loads = &case.loads;
        assert_same_execution(seed, "Nat", &plan.linked, &decoded.linked, loads, Nat);
        assert_same_execution(seed, "Fp", &plan.linked, &decoded.linked, loads, Fp::new);
        assert_same_execution(seed, "Wrap64", &plan.linked, &decoded.linked, loads, Wrap64);
        assert_same_execution(
            seed,
            "MinPlus",
            &plan.linked,
            &decoded.linked,
            loads,
            MinPlus,
        );
        assert_same_execution(seed, "Bool", &plan.linked, &decoded.linked, loads, |v| {
            Bool(v % 2 == 1)
        });
        assert_same_execution(seed, "Gf2", &plan.linked, &decoded.linked, loads, |v| {
            Gf2(v % 2 == 1)
        });
    }
}
