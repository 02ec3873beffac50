//! Supervised execution: the serving layer's failure-domain manager.
//!
//! A [`Supervisor`] owns a [`ScheduleCache`] plus per-structure health
//! state and turns one seeded request into *at most one* answer and
//! *never* a process abort, by composing five mechanisms:
//!
//! 1. **Deadlines** — each request gets a [`Deadline`] (wall-clock budget
//!    plus the virtual backoff clock) threaded through the retry loop;
//!    expiry surfaces as [`ServeError::DeadlineExceeded`] carrying the
//!    partial [`lowband_core::ResilientReport`].
//! 2. **Backoff** — decorrelated-jitter delays ([`Backoff`]) between
//!    rollback/replay attempts and between ladder rungs, seeded via the
//!    vendored `lowband-rng` so supervised runs stay deterministic.
//! 3. **Circuit breakers** — one [`CircuitBreaker`] per [`StructureKey`]:
//!    `N` consecutive distributed-path failures open it; while open,
//!    requests are refused ([`ServeError::BreakerOpen`]) for a cooldown
//!    measured in requests, then a half-open probe decides. Transitions
//!    emit `serve.breaker.*` counters.
//! 4. **Quarantine** — a structure whose supervised runs keep failing is
//!    evicted into the cache's quarantine set
//!    ([`ScheduleCache::quarantine_traced`]); quarantined requests are
//!    served plan-free at the bottom rung until
//!    [`ScheduleCache::try_readmit_traced`] passes a clean lint + probe.
//! 5. **Graceful degradation** — the ladder
//!    [`Rung::Packed`] → [`Rung::Linked`] → [`Rung::Reference`],
//!    descending exactly one rung per supervised failure. The bottom rung
//!    computes the sequential reference product locally and cannot fail,
//!    so a request that keeps its deadline and passes admission *always*
//!    produces the correct product — the rung it landed on is recorded in
//!    [`RunReport::rung`].
//!
//! The fault plan is created once per request and shared across rungs, so
//! the one-shot faults drain as the ladder descends — exactly the
//! behavior of a transient storm hitting one request.

use std::collections::HashMap;
use std::time::Duration;

use lowband_core::{
    run_packed_guarded_seeded_traced, run_reference_seeded, run_resilient_plan_traced, Algorithm,
    Backoff, BatchElement, CompiledPlan, Deadline, Instance, ResilientError, ResilientReport,
    RetryPolicy, RunReport, Rung, Supervision,
};
use lowband_matrix::{reference_multiply, SparseMatrix};
use lowband_model::{ExecutionStats, FaultSpec, Tracer};
use rand::SeedableRng;

use crate::cache::{ScheduleCache, ServeError};
use crate::key::StructureKey;

/// The three circuit-breaker states.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BreakerState {
    /// Healthy: requests flow, consecutive failures are counted.
    Closed,
    /// Tripped: requests are refused until the cooldown elapses.
    Open,
    /// Cooldown elapsed: the next request runs as a probe.
    HalfOpen,
}

impl BreakerState {
    /// Stable lowercase name.
    pub fn as_str(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }
}

/// A per-structure circuit breaker. Closed → open after `threshold`
/// consecutive failures; open → half-open after `cooldown` *refused
/// requests* (request-counted, not wall-clock, so behavior is
/// deterministic under test); half-open admits one probe whose outcome
/// closes or re-opens the breaker.
#[derive(Clone, Debug)]
pub struct CircuitBreaker {
    threshold: u32,
    cooldown: u32,
    state: BreakerState,
    consecutive_failures: u32,
    cooldown_left: u32,
    /// closed→open transitions so far.
    pub opened: u64,
    /// open→half-open transitions so far.
    pub half_opened: u64,
    /// half-open→closed transitions so far.
    pub closed_from_probe: u64,
    /// Requests refused while open.
    pub rejected: u64,
}

impl CircuitBreaker {
    /// A closed breaker tripping after `threshold` consecutive failures
    /// (floored at 1) and cooling down over `cooldown` refused requests
    /// (floored at 1).
    pub fn new(threshold: u32, cooldown: u32) -> CircuitBreaker {
        CircuitBreaker {
            threshold: threshold.max(1),
            cooldown: cooldown.max(1),
            state: BreakerState::Closed,
            consecutive_failures: 0,
            cooldown_left: 0,
            opened: 0,
            half_opened: 0,
            closed_from_probe: 0,
            rejected: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Ask to admit one request. `Ok(())` admits (closed, or the
    /// half-open probe); `Err(cooldown_left)` refuses while open, with
    /// the number of further refusals before a probe.
    pub fn admit<T: Tracer>(&mut self, tracer: &mut T) -> Result<(), u32> {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => Ok(()),
            BreakerState::Open => {
                self.cooldown_left = self.cooldown_left.saturating_sub(1);
                if self.cooldown_left == 0 {
                    self.state = BreakerState::HalfOpen;
                    self.half_opened += 1;
                    tracer.counter("serve.breaker.half_open", 1);
                    Ok(())
                } else {
                    self.rejected += 1;
                    tracer.counter("serve.breaker.rejected", 1);
                    Err(self.cooldown_left)
                }
            }
        }
    }

    /// Record the outcome of an admitted request.
    pub fn record<T: Tracer>(&mut self, success: bool, tracer: &mut T) {
        match (self.state, success) {
            (BreakerState::Closed, true) => self.consecutive_failures = 0,
            (BreakerState::Closed, false) => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.threshold {
                    self.trip(tracer);
                }
            }
            (BreakerState::HalfOpen, true) => {
                self.state = BreakerState::Closed;
                self.consecutive_failures = 0;
                self.closed_from_probe += 1;
                tracer.counter("serve.breaker.close", 1);
            }
            (BreakerState::HalfOpen, false) => self.trip(tracer),
            // Open requests were refused, not run; nothing to record.
            (BreakerState::Open, _) => {}
        }
    }

    fn trip<T: Tracer>(&mut self, tracer: &mut T) {
        self.state = BreakerState::Open;
        self.cooldown_left = self.cooldown;
        self.opened += 1;
        tracer.counter("serve.breaker.open", 1);
    }
}

/// Tuning of one [`Supervisor`].
#[derive(Clone, Debug)]
pub struct SupervisorConfig {
    /// Capacity of the owned [`ScheduleCache`].
    pub cache_capacity: usize,
    /// Checkpoint cadence / give-up thresholds of the linked rung.
    pub retry: RetryPolicy,
    /// Per-request deadline; `None` = unlimited.
    pub deadline: Option<Duration>,
    /// Decorrelated-jitter backoff floor.
    pub backoff_base: Duration,
    /// Decorrelated-jitter backoff ceiling.
    pub backoff_cap: Duration,
    /// Consecutive distributed-path failures that open a breaker.
    pub breaker_threshold: u32,
    /// Refused requests before an open breaker half-opens.
    pub breaker_cooldown: u32,
    /// Requests with supervised failures (since the last clean one) that
    /// quarantine the structure's plan.
    pub quarantine_threshold: u32,
    /// Lane width of the packed rung (`0` = the element default).
    pub packed_lanes: usize,
    /// The rung requests start on.
    pub start_rung: Rung,
    /// Root of the on-disk plan store tier ([`crate::PlanStore`]);
    /// `None` = memory-only caching.
    pub store_root: Option<std::path::PathBuf>,
}

impl Default for SupervisorConfig {
    fn default() -> SupervisorConfig {
        SupervisorConfig {
            cache_capacity: 32,
            retry: RetryPolicy::default(),
            deadline: None,
            backoff_base: Duration::from_micros(50),
            backoff_cap: Duration::from_millis(20),
            breaker_threshold: 3,
            breaker_cooldown: 4,
            quarantine_threshold: 3,
            packed_lanes: 0,
            start_rung: Rung::Packed,
            store_root: None,
        }
    }
}

/// What one supervised request came back with: the result plus the whole
/// supervision story (rung landed on, descents, deadline/breaker/
/// quarantine interactions, the linked rung's resilient accounting).
#[derive(Clone, Debug)]
pub struct SupervisedOutcome {
    /// The answer: a verified report, or a typed refusal/abandonment.
    pub result: Result<RunReport, ServeError>,
    /// The rung of the final attempt (the landing rung on `Ok`).
    pub rung: Rung,
    /// Supervised failures that forced a rung descent.
    pub descents: usize,
    /// One rendered description per rung failure, descent order.
    pub failures: Vec<String>,
    /// The linked rung's recovery accounting, when that rung ran to
    /// completion.
    pub resilient: Option<ResilientReport>,
    /// The request's deadline expired.
    pub deadline_missed: bool,
    /// The breaker refused the request (no execution happened).
    pub breaker_rejected: bool,
    /// The structure was quarantined, so the request was served plan-free
    /// at the bottom rung.
    pub quarantined: bool,
    /// Total backoff delay issued (virtual + real).
    pub backoff_total: Duration,
    /// Every fault that actually fired across the request's rungs (the
    /// shared plan's log) — what the chaos harness tallies per kind.
    pub fault_log: Vec<lowband_model::faults::Fault>,
}

/// Salt decorrelating the backoff RNG stream from the value RNG stream of
/// the same request seed.
const BACKOFF_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// The supervision layer: a [`ScheduleCache`] plus per-structure breakers
/// and failure strikes, driving every request down the degradation ladder
/// as needed. See the module docs for the full state-machine story.
pub struct Supervisor {
    config: SupervisorConfig,
    cache: ScheduleCache,
    breakers: HashMap<StructureKey, CircuitBreaker>,
    strikes: HashMap<StructureKey, u32>,
    requests: u64,
}

impl Supervisor {
    /// A supervisor with the given tuning.
    pub fn new(config: SupervisorConfig) -> Supervisor {
        let mut cache = ScheduleCache::new(config.cache_capacity);
        if let Some(root) = &config.store_root {
            // An unopenable root (permissions, bad path) degrades to
            // memory-only serving rather than refusing to start: the disk
            // tier is an accelerator, never a correctness dependency.
            if let Ok(store) = crate::disk::PlanStore::open(root) {
                cache.set_store(store);
            }
        }
        Supervisor {
            config,
            cache,
            breakers: HashMap::new(),
            strikes: HashMap::new(),
            requests: 0,
        }
    }

    /// The owned cache (for stats and readmission).
    pub fn cache(&self) -> &ScheduleCache {
        &self.cache
    }

    /// Mutable access to the owned cache (readmission, clearing).
    pub fn cache_mut(&mut self) -> &mut ScheduleCache {
        &mut self.cache
    }

    /// The breaker of one structure, if any request created it.
    pub fn breaker(&self, key: &StructureKey) -> Option<&CircuitBreaker> {
        self.breakers.get(key)
    }

    /// Requests supervised so far.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Supervise one seeded request end to end. Never panics and never
    /// aborts: the return's `result` is either a verified report (with
    /// the landing [`Rung`] recorded) or a typed [`ServeError`]. When
    /// `out` is given, a successful request writes the extracted product
    /// into it — bit-identical to a fault-free run of the same seed on
    /// any rung, including [`Rung::Reference`].
    #[allow(clippy::too_many_arguments)]
    pub fn run_supervised_traced<S: BatchElement, T: Tracer>(
        &mut self,
        inst: &Instance,
        algorithm: Algorithm,
        seed: u64,
        compress: bool,
        spec: &FaultSpec,
        mut out: Option<&mut SparseMatrix<S>>,
        tracer: &mut T,
    ) -> SupervisedOutcome {
        self.requests += 1;
        let key = StructureKey::of(inst, algorithm, compress);
        let mut outcome = SupervisedOutcome {
            result: Err(ServeError::Quarantined),
            rung: self.config.start_rung,
            descents: 0,
            failures: Vec::new(),
            resilient: None,
            deadline_missed: false,
            breaker_rejected: false,
            quarantined: false,
            backoff_total: Duration::ZERO,
            fault_log: Vec::new(),
        };

        // Admission: the breaker guards the (expensive, failure-prone)
        // distributed path. A refusal is a typed error, not an execution.
        let breaker = self.breakers.entry(key).or_insert_with(|| {
            CircuitBreaker::new(self.config.breaker_threshold, self.config.breaker_cooldown)
        });
        if let Err(cooldown_left) = breaker.admit(tracer) {
            outcome.breaker_rejected = true;
            outcome.result = Err(ServeError::BreakerOpen { cooldown_left });
            return outcome;
        }

        // A quarantined structure skips the plan rungs entirely: the
        // request is served plan-free at the bottom rung (degraded but
        // correct), and does not count against the breaker.
        if self.cache.is_quarantined_key(&key) {
            tracer.counter("serve.quarantine.degraded", 1);
            outcome.quarantined = true;
            outcome.rung = Rung::Reference;
            outcome.result = Ok(reference_without_plan::<S>(inst, seed, out));
            return outcome;
        }

        // Plan acquisition. A structure that cannot produce a valid plan
        // (compile error, lint rejection) is itself a degraded-service
        // case: strike the breaker and serve plan-free.
        let plan = match self
            .cache
            .get_or_compile_keyed(key, inst, algorithm, compress, tracer)
        {
            Ok(plan) => plan,
            Err(e) => {
                outcome.failures.push(format!("plan: {e}"));
                self.breakers
                    .get_mut(&key)
                    .expect("breaker was just inserted")
                    .record(false, tracer);
                outcome.rung = Rung::Reference;
                outcome.result = Ok(reference_without_plan::<S>(inst, seed, out));
                return outcome;
            }
        };

        let mut deadline = match self.config.deadline {
            Some(budget) => Deadline::within(budget),
            None => Deadline::none(),
        };
        let mut backoff = Backoff::new(
            seed ^ BACKOFF_SALT,
            self.config.backoff_base,
            self.config.backoff_cap,
        );
        // One fault plan for the whole request: its one-shot faults drain
        // as the ladder descends, like a storm hitting one request.
        let mut faults = spec.plan(plan.linked.rounds(), plan.linked.n());
        let mut rung = self.config.start_rung;

        let result = loop {
            if deadline.expired() {
                tracer.counter("serve.deadline.miss", 1);
                outcome.deadline_missed = true;
                let partial = outcome.resilient.clone().unwrap_or_else(|| {
                    synthesized_partial(&plan, rung, outcome.descents, &faults.log())
                });
                break Err(ServeError::DeadlineExceeded {
                    partial: Box::new(partial),
                });
            }
            outcome.rung = rung;
            let attempt: Result<RunReport, String> = match rung {
                Rung::Packed => run_packed_guarded_seeded_traced::<S, T, _>(
                    inst,
                    &plan,
                    seed,
                    self.config.packed_lanes,
                    &mut faults,
                    out.as_deref_mut(),
                    tracer,
                )
                .map_err(|e| format!("packed: {e:?}"))
                .and_then(require_correct),
                Rung::Linked => {
                    let mut sup = Supervision {
                        policy: self.config.retry,
                        deadline: &mut deadline,
                        backoff: Some(&mut backoff),
                    };
                    match run_resilient_plan_traced::<S, T>(
                        inst,
                        &plan,
                        seed,
                        &mut faults,
                        &mut sup,
                        out.as_deref_mut(),
                        tracer,
                    ) {
                        Ok(resilient) => {
                            let report = resilient.report.clone();
                            outcome.resilient = Some(resilient);
                            require_correct(report)
                        }
                        Err(ResilientError::DeadlineExceeded { partial }) => {
                            tracer.counter("serve.deadline.miss", 1);
                            outcome.deadline_missed = true;
                            break Err(ServeError::DeadlineExceeded { partial });
                        }
                        Err(e) => {
                            if let ResilientError::RetriesExhausted { partial, .. } = &e {
                                outcome.resilient = Some(partial.as_ref().clone());
                            }
                            Err(format!("linked: {e}"))
                        }
                    }
                }
                Rung::Reference => Ok(run_reference_seeded::<S>(
                    inst,
                    &plan,
                    seed,
                    out.as_deref_mut(),
                )),
            };
            match attempt {
                Ok(report) => break Ok(report),
                Err(desc) => {
                    outcome.failures.push(desc);
                    outcome.descents += 1;
                    tracer.counter("serve.supervise.descend", 1);
                    rung = rung.below().expect("the reference rung cannot fail");
                    // Inter-rung backoff: give a transient storm room to
                    // pass before the next (cheaper) backend tries.
                    backoff.pause(&mut deadline);
                }
            }
        };

        // Health bookkeeping: the breaker tracks the *distributed* path —
        // landing on the bottom rung means that path failed end to end.
        let distributed_ok =
            result.is_ok() && !outcome.deadline_missed && outcome.rung != Rung::Reference;
        self.breakers
            .get_mut(&key)
            .expect("breaker was just inserted")
            .record(distributed_ok, tracer);

        // Quarantine strikes: consecutive requests with supervised
        // failures poison the plan; a clean request clears the count.
        if outcome.descents > 0 || outcome.deadline_missed {
            let strikes = self.strikes.entry(key).or_insert(0);
            *strikes += 1;
            if *strikes >= self.config.quarantine_threshold {
                self.cache.quarantine_traced(key, tracer);
                self.strikes.remove(&key);
            }
        } else {
            self.strikes.remove(&key);
        }

        if result.is_ok() && outcome.rung == Rung::Reference {
            tracer.counter("serve.supervise.reference_landing", 1);
        }
        outcome.backoff_total = backoff.total;
        outcome.fault_log = faults.log();
        outcome.result = result;
        outcome
    }

    /// [`Supervisor::run_supervised_traced`] without instrumentation.
    pub fn run_supervised<S: BatchElement>(
        &mut self,
        inst: &Instance,
        algorithm: Algorithm,
        seed: u64,
        compress: bool,
        spec: &FaultSpec,
        out: Option<&mut SparseMatrix<S>>,
    ) -> SupervisedOutcome {
        self.run_supervised_traced::<S, _>(
            inst,
            algorithm,
            seed,
            compress,
            spec,
            out,
            &mut lowband_model::NoopTracer,
        )
    }
}

/// `Ok` iff the report verified; otherwise the supervised-failure string
/// of an *undetected* corruption the output check caught.
fn require_correct(report: RunReport) -> Result<RunReport, String> {
    if report.correct {
        Ok(report)
    } else {
        Err(format!(
            "{}: undetected corruption (output check failed)",
            report.rung.as_str()
        ))
    }
}

/// A plan-free bottom-rung response: the reference product computed
/// locally. Schedule metadata (`modeled_rounds`, `triangles`) is zeroed —
/// no plan was consulted.
fn reference_without_plan<S: BatchElement>(
    inst: &Instance,
    seed: u64,
    out: Option<&mut SparseMatrix<S>>,
) -> RunReport {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let a: SparseMatrix<S> = SparseMatrix::randomize(inst.ahat.clone(), &mut rng);
    let b: SparseMatrix<S> = SparseMatrix::randomize(inst.bhat.clone(), &mut rng);
    let want = reference_multiply(&a, &b, &inst.xhat);
    if let Some(o) = out {
        *o = want;
    }
    RunReport {
        rounds: 0,
        messages: 0,
        modeled_rounds: 0.0,
        triangles: 0,
        correct: true,
        events_per_sec: None,
        rung: Rung::Reference,
    }
}

/// A partial [`ResilientReport`] for deadline expiry outside the linked
/// rung (no resilient attempt to snapshot).
fn synthesized_partial(
    plan: &CompiledPlan,
    rung: Rung,
    descents: usize,
    fault_log: &[lowband_model::faults::Fault],
) -> ResilientReport {
    let mut stats = ExecutionStats::default();
    lowband_core::fill_fault_kinds(&mut stats, fault_log);
    stats.faults_injected = fault_log.len();
    ResilientReport {
        report: RunReport {
            rounds: 0,
            messages: 0,
            modeled_rounds: plan.modeled_rounds,
            triangles: plan.triangles,
            correct: false,
            events_per_sec: None,
            rung,
        },
        stats,
        failures: descents,
        replayed_rounds: 0,
        checkpoints: 0,
        fault_log: fault_log.to_vec(),
    }
}
