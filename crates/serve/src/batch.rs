//! Batched multi-value execution through the cache.
//!
//! [`run_batch`] is the serving layer's front door: look the instance's
//! structure up in a [`ScheduleCache`], compiling at most once, then stream
//! every seeded value-set through the cached [`lowband_core::CompiledPlan`]
//! with [`lowband_core::run_plan_batch_traced`]. The first call for a
//! structure pays compile + link + lint; every later call — and every run
//! after the first within a call — pays only load + run + verify.
//!
//! A batch succeeds or fails as a whole: no batch path takes a fault hook,
//! so an execution error is the batch's error.

use lowband_core::{
    run_plan_batch_traced, Algorithm, BatchElement, BatchMode, Instance, RunReport,
};
use lowband_model::{NoopTracer, Tracer};

use crate::cache::{ScheduleCache, ServeError};

/// Execute `seeds.len()` independent value-sets over one instance through
/// the cache. Emits `serve.batch.size` plus the cache's `serve.cache.*`
/// counters, then the batch executor's spans and counters.
///
/// Reports come back in seed order for every [`BatchMode`] — including
/// [`BatchMode::Packed`], which streams lane groups of the batch through
/// one struct-of-arrays interpretation of the cached plan.
pub fn run_batch_traced<S: BatchElement, T: Tracer>(
    cache: &mut ScheduleCache,
    inst: &Instance,
    algorithm: Algorithm,
    seeds: &[u64],
    compress: bool,
    mode: BatchMode,
    tracer: &mut T,
) -> Result<Vec<RunReport>, ServeError> {
    tracer.counter("serve.batch.size", seeds.len() as u64);
    let plan = cache.get_or_compile_traced(inst, algorithm, compress, tracer)?;
    run_plan_batch_traced::<S, T>(inst, &plan, seeds, mode, tracer).map_err(ServeError::from)
}

/// [`run_batch_traced`] without instrumentation.
pub fn run_batch<S: BatchElement>(
    cache: &mut ScheduleCache,
    inst: &Instance,
    algorithm: Algorithm,
    seeds: &[u64],
    compress: bool,
    mode: BatchMode,
) -> Result<Vec<RunReport>, ServeError> {
    run_batch_traced::<S, _>(
        cache,
        inst,
        algorithm,
        seeds,
        compress,
        mode,
        &mut NoopTracer,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowband_core::run_algorithm;
    use lowband_matrix::{gen, Fp};
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
    fn batch_through_cache_matches_independent_runs() {
        let inst = us_instance(24, 3, 21);
        let seeds = [7u64, 8, 9];
        let mut cache = ScheduleCache::new(4);
        let batch = run_batch::<Fp>(
            &mut cache,
            &inst,
            Algorithm::BoundedTriangles,
            &seeds,
            false,
            BatchMode::Sequential,
        )
        .unwrap();
        assert_eq!(batch.len(), seeds.len());
        for (&seed, report) in seeds.iter().zip(&batch) {
            let solo = run_algorithm::<Fp>(&inst, Algorithm::BoundedTriangles, seed).unwrap();
            assert!(report.correct && solo.correct);
            assert_eq!(report.rounds, solo.rounds);
            assert_eq!(report.messages, solo.messages);
        }
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (0, 1));
    }

    #[test]
    fn packed_batch_through_cache_matches_sequential() {
        let inst = us_instance(24, 3, 23);
        let seeds: Vec<u64> = (40..49).collect(); // ragged for lanes = 4
        let mut cache = ScheduleCache::new(4);
        let seq = run_batch::<Fp>(
            &mut cache,
            &inst,
            Algorithm::BoundedTriangles,
            &seeds,
            false,
            BatchMode::Sequential,
        )
        .unwrap();
        let packed = run_batch::<Fp>(
            &mut cache,
            &inst,
            Algorithm::BoundedTriangles,
            &seeds,
            false,
            BatchMode::Packed { lanes: 4 },
        )
        .unwrap();
        assert_eq!(packed.len(), seq.len());
        for (s, p) in seq.iter().zip(&packed) {
            assert!(p.correct);
            assert_eq!((s.rounds, s.messages), (p.rounds, p.messages));
        }
        // Both batches share one compiled plan.
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn second_batch_hits_the_cache() {
        let inst = us_instance(24, 3, 22);
        let mut cache = ScheduleCache::new(4);
        for _ in 0..2 {
            run_batch::<Fp>(
                &mut cache,
                &inst,
                Algorithm::BoundedTriangles,
                &[1, 2],
                false,
                BatchMode::Sequential,
            )
            .unwrap();
        }
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }
}
