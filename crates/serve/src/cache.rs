//! The structure-keyed compiled-schedule cache.
//!
//! A [`ScheduleCache`] maps [`StructureKey`]s to [`Arc`]-shared
//! [`CompiledPlan`]s. On a miss the plan is compiled, compressed (if
//! requested), linked, **lint-checked once** (`lowband-check::lint_linked`
//! — a cached artifact is served many times, so it is validated at insert,
//! not per run) and stored; on a hit the cached artifact comes back with
//! zero structure-dependent work. A miss answered by the disk tier
//! ([`PlanStore`]) passes that tier's admission gate instead and is not
//! linted again. The cache is LRU-bounded: inserting into
//! a full cache evicts the least-recently-used entry. Hits, misses and
//! evictions are counted on the cache and emitted as `serve.cache.*`
//! tracer counters.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use lowband_check::lint_linked_traced;
use lowband_core::{
    compile_plan_traced, run_plan_batch_traced, Algorithm, BatchElement, BatchMode, CompiledPlan,
    Instance, ResilientReport,
};
use lowband_model::{ModelError, NoopTracer, Tracer};

use crate::disk::PlanStore;
use crate::key::StructureKey;

/// Errors of the serving layer: the plan failed to compile or a batch
/// run on it failed, the compiled artifact failed the insert-time lint,
/// or the supervision machinery refused/abandoned the request (deadline,
/// breaker, quarantine).
#[derive(Clone, PartialEq, Debug)]
pub enum ServeError {
    /// Compiling the plan, or running a batch on it, failed.
    Model(ModelError),
    /// The linked artifact failed `lint_linked` — never cached.
    Lint {
        /// Number of lint errors found.
        errors: usize,
        /// The first lint error, rendered.
        first: String,
    },
    /// The request's [`lowband_core::Deadline`] expired mid-run. Carries
    /// the partial progress accumulated before expiry.
    DeadlineExceeded {
        /// Progress at expiry (`report.correct == false`).
        partial: Box<ResilientReport>,
    },
    /// The structure's circuit breaker is open: recent requests failed
    /// consecutively and the cooldown has not elapsed.
    BreakerOpen {
        /// Requests remaining before a half-open probe is admitted.
        cooldown_left: u32,
    },
    /// The structure's plan is quarantined after repeated detection
    /// failures; it stays blocked until
    /// [`ScheduleCache::try_readmit_traced`] passes.
    Quarantined,
    /// A quarantine readmission probe failed — the plan stays
    /// quarantined.
    ProbeFailed {
        /// Why the probe failed, rendered.
        detail: String,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Model(e) => write!(f, "plan compilation failed: {e}"),
            ServeError::Lint { errors, first } => {
                write!(f, "compiled plan failed lint ({errors} error(s)): {first}")
            }
            ServeError::DeadlineExceeded { partial } => write!(
                f,
                "request deadline exceeded after {} rounds ({} failures)",
                partial.stats.rounds, partial.failures
            ),
            ServeError::BreakerOpen { cooldown_left } => write!(
                f,
                "circuit breaker open ({cooldown_left} request(s) until half-open probe)"
            ),
            ServeError::Quarantined => write!(f, "plan is quarantined pending readmission"),
            ServeError::ProbeFailed { detail } => {
                write!(f, "quarantine readmission probe failed: {detail}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl From<ModelError> for ServeError {
    fn from(e: ModelError) -> ServeError {
        ServeError::Model(e)
    }
}

/// Hit/miss/eviction/quarantine accounting of one cache.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compile.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Entries currently cached.
    pub len: usize,
    /// Maximum number of entries.
    pub capacity: usize,
    /// Structures currently quarantined.
    pub quarantined: usize,
    /// Lookups refused because the structure was quarantined.
    pub quarantine_blocked: u64,
    /// Quarantined structures readmitted after a clean lint + probe.
    pub readmissions: u64,
    /// Memory misses answered from the disk tier (admission gate passed).
    pub disk_hits: u64,
    /// Memory misses with no file published in the disk tier.
    pub disk_misses: u64,
    /// Disk files rejected by the admission gate (corrupt, stale or
    /// mis-keyed) — each degraded to a recompile.
    pub disk_rejects: u64,
    /// Plans written through to the disk tier.
    pub disk_writes: u64,
    /// Full compiles performed (every miss neither tier could answer).
    pub compiles: u64,
}

impl CacheStats {
    /// Hits over lookups, in `[0, 1]`; `0.0` before any lookup.
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }

    /// The `cache` section of a results artifact.
    pub fn to_json(&self) -> lowband_trace::Json {
        lowband_trace::Json::obj()
            .set("hits", self.hits)
            .set("misses", self.misses)
            .set("evictions", self.evictions)
            .set("len", self.len)
            .set("capacity", self.capacity)
            .set("hit_rate", self.hit_rate())
            .set("quarantined", self.quarantined)
            .set("quarantine_blocked", self.quarantine_blocked)
            .set("readmissions", self.readmissions)
            .set("disk_hits", self.disk_hits)
            .set("disk_misses", self.disk_misses)
            .set("disk_rejects", self.disk_rejects)
            .set("disk_writes", self.disk_writes)
            .set("compiles", self.compiles)
    }
}

struct Entry {
    plan: Arc<CompiledPlan>,
    last_used: u64,
}

/// An LRU-bounded map from instance structure to compiled, linked,
/// lint-checked schedule artifacts.
pub struct ScheduleCache {
    entries: HashMap<StructureKey, Entry>,
    quarantined: HashSet<StructureKey>,
    store: Option<PlanStore>,
    tick: u64,
    /// Counters and capacity, updated in place. Its `len` and
    /// `quarantined` stay zero: [`ScheduleCache::stats`] reads them from
    /// `entries` and `quarantined`.
    stats: CacheStats,
}

impl ScheduleCache {
    /// A cache holding at most `capacity` plans (floored at 1).
    pub fn new(capacity: usize) -> ScheduleCache {
        ScheduleCache {
            entries: HashMap::new(),
            quarantined: HashSet::new(),
            store: None,
            tick: 0,
            stats: CacheStats {
                capacity: capacity.max(1),
                ..CacheStats::default()
            },
        }
    }

    /// A cache with an attached on-disk tier: memory misses consult the
    /// store before compiling, and fresh compiles are written through.
    pub fn with_store(capacity: usize, store: PlanStore) -> ScheduleCache {
        let mut cache = ScheduleCache::new(capacity);
        cache.store = Some(store);
        cache
    }

    /// Attach (or replace) the on-disk tier.
    pub fn set_store(&mut self, store: PlanStore) {
        self.store = Some(store);
    }

    /// The cached plan for this structure, compiling (and linting) it on a
    /// miss. Emits one `serve.cache.hit` or `serve.cache.miss` counter per
    /// call, `serve.cache.evict` per eviction, and — on the miss path —
    /// the usual compile/compress/link spans plus the `check.lint_linked`
    /// span of the insert-time lint.
    pub fn get_or_compile_traced<T: Tracer>(
        &mut self,
        inst: &Instance,
        algorithm: Algorithm,
        compress: bool,
        tracer: &mut T,
    ) -> Result<Arc<CompiledPlan>, ServeError> {
        let key = StructureKey::of(inst, algorithm, compress);
        self.get_or_compile_keyed(key, inst, algorithm, compress, tracer)
    }

    /// [`ScheduleCache::get_or_compile_traced`] for a caller that already
    /// holds the structure's key, which must be
    /// `StructureKey::of(inst, algorithm, compress)` — it saves hashing
    /// the structure a second time per request.
    pub(crate) fn get_or_compile_keyed<T: Tracer>(
        &mut self,
        key: StructureKey,
        inst: &Instance,
        algorithm: Algorithm,
        compress: bool,
        tracer: &mut T,
    ) -> Result<Arc<CompiledPlan>, ServeError> {
        debug_assert_eq!(key, StructureKey::of(inst, algorithm, compress));
        if self.quarantined.contains(&key) {
            self.stats.quarantine_blocked += 1;
            tracer.counter("serve.quarantine.blocked", 1);
            return Err(ServeError::Quarantined);
        }
        self.tick += 1;
        if let Some(entry) = self.entries.get_mut(&key) {
            entry.last_used = self.tick;
            self.stats.hits += 1;
            tracer.counter("serve.cache.hit", 1);
            return Ok(Arc::clone(&entry.plan));
        }
        self.stats.misses += 1;
        tracer.counter("serve.cache.miss", 1);
        if let Some(plan) = self.load_from_store(key, tracer) {
            return Ok(self.insert_plan(key, plan, tracer));
        }
        let plan = self.compile_and_lint(inst, algorithm, compress, tracer)?;
        self.save_to_store(key, &plan, tracer);
        Ok(self.insert_plan(key, plan, tracer))
    }

    /// Consult the disk tier on a memory miss. A gate-passing file is a
    /// disk hit; an absent file is a disk miss; a rejected file (corrupt,
    /// stale version, malformed, wrong key) is counted and treated as
    /// a miss, so the caller recompiles and the write-through overwrites
    /// the bad file — the store self-heals.
    fn load_from_store<T: Tracer>(
        &mut self,
        key: StructureKey,
        tracer: &mut T,
    ) -> Option<CompiledPlan> {
        let store = self.store.as_ref()?;
        match store.load(key) {
            Ok(Some(plan)) => {
                self.stats.disk_hits += 1;
                tracer.counter("serve.cache.disk.hit", 1);
                Some(plan)
            }
            Ok(None) => {
                self.stats.disk_misses += 1;
                tracer.counter("serve.cache.disk.miss", 1);
                None
            }
            Err(_) => {
                self.stats.disk_rejects += 1;
                tracer.counter("serve.cache.disk.reject", 1);
                None
            }
        }
    }

    /// Write a freshly compiled plan through to the disk tier. A write
    /// failure is counted but never fails the request — the plan is
    /// already in memory and correct.
    fn save_to_store<T: Tracer>(&mut self, key: StructureKey, plan: &CompiledPlan, tracer: &mut T) {
        let Some(store) = self.store.as_ref() else {
            return;
        };
        match store.save(key, plan) {
            Ok(_) => {
                self.stats.disk_writes += 1;
                tracer.counter("serve.cache.disk.write", 1);
            }
            Err(_) => {
                tracer.counter("serve.cache.disk.write_failed", 1);
            }
        }
    }

    /// Compile + link + lint a plan without touching the cache map.
    fn compile_and_lint<T: Tracer>(
        &mut self,
        inst: &Instance,
        algorithm: Algorithm,
        compress: bool,
        tracer: &mut T,
    ) -> Result<CompiledPlan, ServeError> {
        self.stats.compiles += 1;
        tracer.counter("serve.cache.compile", 1);
        let plan = compile_plan_traced(inst, algorithm, compress, tracer)?;
        let lint = lint_linked_traced(&plan.schedule, &plan.linked, tracer);
        let errors = lint.errors().count();
        if errors > 0 {
            tracer.counter("serve.lint.rejected", 1);
            return Err(ServeError::Lint {
                errors,
                first: lint
                    .errors()
                    .next()
                    .map(|e| e.to_string())
                    .unwrap_or_default(),
            });
        }
        Ok(plan)
    }

    /// LRU-evict if full, then insert, returning the shared handle.
    fn insert_plan<T: Tracer>(
        &mut self,
        key: StructureKey,
        plan: CompiledPlan,
        tracer: &mut T,
    ) -> Arc<CompiledPlan> {
        if self.entries.len() >= self.stats.capacity {
            if let Some((&victim, _)) = self.entries.iter().min_by_key(|(_, e)| e.last_used) {
                self.entries.remove(&victim);
                self.stats.evictions += 1;
                tracer.counter("serve.cache.evict", 1);
            }
        }
        let plan = Arc::new(plan);
        self.entries.insert(
            key,
            Entry {
                plan: Arc::clone(&plan),
                last_used: self.tick,
            },
        );
        plan
    }

    /// Quarantine a structure: evict its plan (if cached) and block every
    /// lookup ([`ServeError::Quarantined`]) until a readmission passes.
    /// Returns whether the structure was newly quarantined. Emits
    /// `serve.quarantine.add` on new additions.
    pub fn quarantine_traced<T: Tracer>(&mut self, key: StructureKey, tracer: &mut T) -> bool {
        self.entries.remove(&key);
        let newly = self.quarantined.insert(key);
        if newly {
            tracer.counter("serve.quarantine.add", 1);
        }
        newly
    }

    /// [`ScheduleCache::quarantine_traced`] without instrumentation.
    pub fn quarantine(&mut self, key: StructureKey) -> bool {
        self.quarantine_traced(key, &mut NoopTracer)
    }

    /// Whether this structure key is quarantined.
    pub fn is_quarantined_key(&self, key: &StructureKey) -> bool {
        self.quarantined.contains(key)
    }

    /// Attempt to readmit a quarantined structure: recompile from
    /// scratch, require a clean `lint_linked`, then require a **probe
    /// run** (one seeded value-set on the sequential linked backend) to
    /// verify against the reference product. Only a structure passing
    /// both is reinserted and unblocked; a failing probe leaves it
    /// quarantined ([`ServeError::ProbeFailed`]). A structure that is not
    /// quarantined falls through to
    /// [`ScheduleCache::get_or_compile_traced`].
    ///
    /// Emits `serve.quarantine.readmit` on success and
    /// `serve.quarantine.probe_failed` on a failed probe.
    pub fn try_readmit_traced<S: BatchElement, T: Tracer>(
        &mut self,
        inst: &Instance,
        algorithm: Algorithm,
        compress: bool,
        probe_seed: u64,
        tracer: &mut T,
    ) -> Result<Arc<CompiledPlan>, ServeError> {
        let key = StructureKey::of(inst, algorithm, compress);
        if !self.quarantined.contains(&key) {
            return self.get_or_compile_keyed(key, inst, algorithm, compress, tracer);
        }
        let plan = self.compile_and_lint(inst, algorithm, compress, tracer)?;
        let probe = run_plan_batch_traced::<S, T>(
            inst,
            &plan,
            &[probe_seed],
            BatchMode::Sequential,
            tracer,
        );
        match probe {
            Ok(reports) if reports.iter().all(|r| r.correct) => {
                self.quarantined.remove(&key);
                self.stats.readmissions += 1;
                tracer.counter("serve.quarantine.readmit", 1);
                self.tick += 1;
                self.stats.misses += 1;
                // Overwrite any published file: if the quarantine was
                // caused by a tampered disk artifact, the clean recompile
                // heals it.
                self.save_to_store(key, &plan, tracer);
                Ok(self.insert_plan(key, plan, tracer))
            }
            Ok(_) => {
                tracer.counter("serve.quarantine.probe_failed", 1);
                Err(ServeError::ProbeFailed {
                    detail: "probe run produced an incorrect product".to_string(),
                })
            }
            Err(e) => {
                tracer.counter("serve.quarantine.probe_failed", 1);
                Err(ServeError::ProbeFailed {
                    detail: e.to_string(),
                })
            }
        }
    }

    /// [`ScheduleCache::try_readmit_traced`] without instrumentation.
    pub fn try_readmit<S: BatchElement>(
        &mut self,
        inst: &Instance,
        algorithm: Algorithm,
        compress: bool,
        probe_seed: u64,
    ) -> Result<Arc<CompiledPlan>, ServeError> {
        self.try_readmit_traced::<S, _>(inst, algorithm, compress, probe_seed, &mut NoopTracer)
    }

    /// [`ScheduleCache::get_or_compile_traced`] without instrumentation.
    pub fn get_or_compile(
        &mut self,
        inst: &Instance,
        algorithm: Algorithm,
        compress: bool,
    ) -> Result<Arc<CompiledPlan>, ServeError> {
        self.get_or_compile_traced(inst, algorithm, compress, &mut NoopTracer)
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Hit/miss/eviction/quarantine accounting so far.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            len: self.entries.len(),
            quarantined: self.quarantined.len(),
            ..self.stats
        }
    }

    /// Drop every cached plan, lift every quarantine, and **reset the
    /// accounting** — a cleared cache reports like a fresh one, so a
    /// reused cache cannot poison a later artifact's `cache` section with
    /// stale hit/evict counts. Capacity is kept.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.quarantined.clear();
        self.tick = 0;
        self.stats = CacheStats {
            capacity: self.stats.capacity,
            ..CacheStats::default()
        };
        // The attached disk tier (if any) is kept: clearing the memory
        // tier is an accounting reset, not a store wipe.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowband_matrix::gen;
    use lowband_trace::MetricsRegistry;
    use rand::SeedableRng;

    fn us_instance(n: usize, d: usize, seed: u64) -> Instance {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Instance::new(
            gen::uniform_sparse(n, d, &mut rng),
            gen::uniform_sparse(n, d, &mut rng),
            gen::uniform_sparse(n, d, &mut rng),
        )
    }

    #[test]
    fn hit_returns_the_same_artifact() {
        let inst = us_instance(24, 3, 1);
        let mut cache = ScheduleCache::new(4);
        let p1 = cache
            .get_or_compile(&inst, Algorithm::BoundedTriangles, false)
            .unwrap();
        let p2 = cache
            .get_or_compile(&inst, Algorithm::BoundedTriangles, false)
            .unwrap();
        assert!(Arc::ptr_eq(&p1, &p2), "hit must share the cached plan");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.evictions, s.len), (1, 1, 0, 1));
    }

    #[test]
    fn distinct_configurations_get_distinct_entries() {
        let inst = us_instance(24, 3, 2);
        let mut cache = ScheduleCache::new(8);
        cache
            .get_or_compile(&inst, Algorithm::BoundedTriangles, false)
            .unwrap();
        cache
            .get_or_compile(&inst, Algorithm::BoundedTriangles, true)
            .unwrap();
        cache
            .get_or_compile(&inst, Algorithm::Trivial, false)
            .unwrap();
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.stats().misses, 3);
    }

    #[test]
    fn lru_eviction_at_capacity() {
        let a = us_instance(24, 3, 3);
        let b = us_instance(24, 3, 4);
        let c = us_instance(24, 3, 5);
        let mut cache = ScheduleCache::new(2);
        cache
            .get_or_compile(&a, Algorithm::BoundedTriangles, false)
            .unwrap();
        cache
            .get_or_compile(&b, Algorithm::BoundedTriangles, false)
            .unwrap();
        // Touch `a` so `b` is the LRU victim when `c` arrives.
        cache
            .get_or_compile(&a, Algorithm::BoundedTriangles, false)
            .unwrap();
        cache
            .get_or_compile(&c, Algorithm::BoundedTriangles, false)
            .unwrap();
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.evictions, s.len), (1, 3, 1, 2));
        // `a` and `c` survived: each lookup is a hit.
        for (inst, hits) in [(&a, 2), (&c, 3)] {
            cache
                .get_or_compile(inst, Algorithm::BoundedTriangles, false)
                .unwrap();
            assert_eq!(cache.stats().hits, hits);
        }
        // `b` was evicted: it recompiles correctly (a fresh miss).
        cache
            .get_or_compile(&b, Algorithm::BoundedTriangles, false)
            .unwrap();
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (3, 4));
    }

    #[test]
    fn counters_reach_the_tracer() {
        let inst = us_instance(24, 3, 6);
        let mut cache = ScheduleCache::new(4);
        let mut metrics = MetricsRegistry::new();
        for _ in 0..3 {
            cache
                .get_or_compile_traced(&inst, Algorithm::BoundedTriangles, false, &mut metrics)
                .unwrap();
        }
        assert_eq!(metrics.counter_value("serve.cache.miss"), Some(1));
        assert_eq!(metrics.counter_value("serve.cache.hit"), Some(2));
        assert_eq!(metrics.counter_value("serve.cache.evict"), None);
    }

    #[test]
    fn clear_resets_accounting_and_entries() {
        let a = us_instance(24, 3, 8);
        let b = us_instance(24, 3, 9);
        let c = us_instance(24, 3, 10);
        let mut cache = ScheduleCache::new(2);
        for inst in [&a, &b, &a, &c] {
            cache
                .get_or_compile(inst, Algorithm::BoundedTriangles, false)
                .unwrap();
        }
        let before = cache.stats();
        assert_eq!(
            (before.hits, before.misses, before.evictions, before.len),
            (1, 3, 1, 2)
        );
        cache.clear();
        let s = cache.stats();
        assert_eq!(
            s,
            CacheStats {
                capacity: 2,
                ..CacheStats::default()
            }
        );
        assert!(cache.is_empty());
        // A reused cache accounts from zero: one miss, then one hit, no
        // stale eviction counts.
        cache
            .get_or_compile(&a, Algorithm::BoundedTriangles, false)
            .unwrap();
        cache
            .get_or_compile(&a, Algorithm::BoundedTriangles, false)
            .unwrap();
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.evictions, s.len), (1, 1, 0, 1));
    }

    #[test]
    fn eviction_accounting_survives_reuse_only_until_clear() {
        // Regression for the stale-accounting bug: evictions recorded
        // before `clear` must not leak into post-clear stats.
        let insts: Vec<Instance> = (0..4).map(|s| us_instance(24, 3, 100 + s)).collect();
        let mut cache = ScheduleCache::new(1);
        for inst in &insts {
            cache
                .get_or_compile(inst, Algorithm::BoundedTriangles, false)
                .unwrap();
        }
        assert_eq!(cache.stats().evictions, 3);
        cache.clear();
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(cache.stats().hit_rate(), 0.0);
    }

    #[test]
    fn fresh_cache_hit_rate_is_zero_not_nan_in_json() {
        // Regression (ISSUE 9 satellite): before any lookup the hit-rate
        // is 0/0 — it must surface as `0.0`, never NaN, both from the
        // accessor and in the serialized `cache` artifact section
        // (`validate_results` rejects NaN, which `Json` renders as null).
        let cache = ScheduleCache::new(4);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (0, 0));
        let rate = stats.hit_rate();
        assert!(!rate.is_nan() && rate == 0.0, "got {rate}");
        let rendered = stats.to_json().to_compact();
        assert!(
            rendered.contains("\"hit_rate\":0.0") && !rendered.contains("null"),
            "serialized stats must carry a numeric hit_rate: {rendered}"
        );
    }

    #[test]
    fn quarantine_blocks_until_probe_readmits() {
        use lowband_matrix::Fp;
        let inst = us_instance(24, 3, 11);
        let mut cache = ScheduleCache::new(4);
        cache
            .get_or_compile(&inst, Algorithm::BoundedTriangles, false)
            .unwrap();
        let key = StructureKey::of(&inst, Algorithm::BoundedTriangles, false);
        assert!(cache.quarantine(key), "first quarantine is new");
        assert!(!cache.quarantine(key), "re-quarantine is idempotent");
        assert!(cache.is_quarantined_key(&key));
        assert_eq!(cache.len(), 0, "quarantine evicts the cached plan");
        // Lookups are refused while quarantined.
        assert!(matches!(
            cache.get_or_compile(&inst, Algorithm::BoundedTriangles, false),
            Err(ServeError::Quarantined)
        ));
        assert_eq!(cache.stats().quarantine_blocked, 1);
        // A clean lint + probe readmits it; lookups work again.
        let plan = cache
            .try_readmit::<Fp>(&inst, Algorithm::BoundedTriangles, false, 77)
            .unwrap();
        assert!(!cache.is_quarantined_key(&key));
        assert_eq!(cache.stats().readmissions, 1);
        let hit = cache
            .get_or_compile(&inst, Algorithm::BoundedTriangles, false)
            .unwrap();
        assert!(Arc::ptr_eq(&plan, &hit), "readmitted plan is cached");
    }

    #[test]
    fn disk_tier_answers_misses_without_compiling() {
        let root = std::env::temp_dir().join(format!("lowband-cache-disk-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let inst = us_instance(24, 3, 21);
        // First cache: cold compile + write-through.
        let mut warmer = ScheduleCache::with_store(4, PlanStore::open(&root).unwrap());
        warmer
            .get_or_compile(&inst, Algorithm::BoundedTriangles, false)
            .unwrap();
        let s = warmer.stats();
        assert_eq!((s.compiles, s.disk_misses, s.disk_writes), (1, 1, 1));
        // Second cache sharing the root: the miss is answered from disk,
        // zero compiles.
        let mut reader = ScheduleCache::with_store(4, PlanStore::open(&root).unwrap());
        let plan = reader
            .get_or_compile(&inst, Algorithm::BoundedTriangles, false)
            .unwrap();
        assert_eq!(plan.schedule.n(), 24);
        let s = reader.stats();
        assert_eq!((s.misses, s.disk_hits, s.compiles), (1, 1, 0));
        // And the entry now lives in memory: next lookup is a pure hit.
        reader
            .get_or_compile(&inst, Algorithm::BoundedTriangles, false)
            .unwrap();
        assert_eq!(reader.stats().hits, 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_disk_file_degrades_to_recompile() {
        let root =
            std::env::temp_dir().join(format!("lowband-cache-reject-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let inst = us_instance(24, 3, 22);
        let key = StructureKey::of(&inst, Algorithm::BoundedTriangles, false);
        let mut cache = ScheduleCache::with_store(4, PlanStore::open(&root).unwrap());
        cache
            .get_or_compile(&inst, Algorithm::BoundedTriangles, false)
            .unwrap();
        // Corrupt the published file, then force a memory miss.
        let path = PlanStore::open(&root).unwrap().path_for(key);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x08;
        std::fs::write(&path, &bytes).unwrap();
        cache.clear();
        let plan = cache
            .get_or_compile(&inst, Algorithm::BoundedTriangles, false)
            .unwrap();
        assert_eq!(plan.schedule.n(), 24);
        let s = cache.stats();
        assert_eq!(
            (s.disk_rejects, s.compiles, s.disk_writes),
            (1, 1, 1),
            "reject → recompile → heal: {s:?}"
        );
        // The healed file now serves a fresh cache.
        let mut reader = ScheduleCache::with_store(4, PlanStore::open(&root).unwrap());
        reader
            .get_or_compile(&inst, Algorithm::BoundedTriangles, false)
            .unwrap();
        assert_eq!(reader.stats().disk_hits, 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn zero_capacity_is_floored_to_one() {
        let inst = us_instance(16, 2, 7);
        let mut cache = ScheduleCache::new(0);
        cache
            .get_or_compile(&inst, Algorithm::Trivial, false)
            .unwrap();
        assert_eq!(cache.stats().capacity, 1);
        assert_eq!(cache.len(), 1);
    }
}
