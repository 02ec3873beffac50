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
//!    rollback/replay attempts and before the reference fallback, seeded
//!    via the vendored `lowband-rng` so supervised runs stay
//!    deterministic.
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
//! 5. **Graceful degradation** — a linked attempt with a reference
//!    fallback. Every request first runs at [`Rung::Linked`]
//!    (checkpointed retry on `LinkedMachine`); only if that attempt fails
//!    does it descend to [`Rung::Reference`], which computes the
//!    sequential reference product locally and cannot fail. So a request
//!    that keeps its deadline and passes admission *always* produces the
//!    correct product — the rung it landed on is recorded in
//!    [`RunReport::rung`].

use std::collections::HashMap;
use std::time::Duration;

use lowband_core::{
    run_reference_seeded, run_resilient_plan_traced, Algorithm, Backoff, CompiledPlan, Deadline,
    Instance, ResilientError, ResilientReport, RetryPolicy, RunReport, Rung, Supervision,
};
use lowband_matrix::{SampleElement, SparseMatrix};
use lowband_model::{ExecutionStats, FaultSpec, Semiring, Tracer};

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
            store_root: None,
        }
    }
}

/// What one supervised request came back with: the result plus the whole
/// supervision story (rung landed on, descents, quarantine, the faults
/// that fired). A breaker refusal or a deadline miss is the `result`
/// itself: [`ServeError::BreakerOpen`] or [`ServeError::DeadlineExceeded`].
#[derive(Clone, Debug)]
pub struct SupervisedOutcome {
    /// The answer: a verified report, or a typed refusal/abandonment.
    pub result: Result<RunReport, ServeError>,
    /// The rung of the final attempt (the landing rung on `Ok`).
    pub rung: Rung,
    /// 1 when the linked attempt failed and the request descended to the
    /// reference rung, else 0.
    pub descents: usize,
    /// The rendered failure of plan acquisition or of the linked attempt,
    /// when either failed.
    pub failures: Vec<String>,
    /// The structure was quarantined, so the request was served plan-free
    /// at the bottom rung.
    pub quarantined: bool,
    /// Every fault that actually fired during the linked attempt (the
    /// reference rung consumes none) — what the chaos harness tallies per
    /// kind.
    pub fault_log: Vec<lowband_model::faults::Fault>,
}

/// Salt decorrelating the backoff RNG stream from the value RNG stream of
/// the same request seed.
const BACKOFF_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// The supervision layer: a [`ScheduleCache`] plus per-structure breakers
/// and failure strikes, falling back to the reference product when a
/// request's linked attempt fails. See the module docs for the full
/// state-machine story.
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

    /// Supervise one seeded request end to end. Supervised failures never
    /// abort it: the return's `result` is either a verified report (with
    /// the landing [`Rung`] recorded) or a typed [`ServeError`]. A panic
    /// inside the value type's own ops is not caught here and unwinds to
    /// the caller (the daemon contains it per request). When `out` is
    /// given, a successful request writes the extracted product into it —
    /// bit-identical to a fault-free run of the same seed on any rung,
    /// including [`Rung::Reference`].
    #[allow(clippy::too_many_arguments)]
    pub fn run_supervised_traced<S: Semiring + SampleElement, T: Tracer>(
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
            rung: Rung::Linked,
            descents: 0,
            failures: Vec::new(),
            quarantined: false,
            fault_log: Vec::new(),
        };

        // Admission: the breaker guards the (expensive, failure-prone)
        // distributed path. A refusal is a typed error, not an execution.
        let breaker = self.breakers.entry(key).or_insert_with(|| {
            CircuitBreaker::new(self.config.breaker_threshold, self.config.breaker_cooldown)
        });
        if let Err(cooldown_left) = breaker.admit(tracer) {
            outcome.result = Err(ServeError::BreakerOpen { cooldown_left });
            return outcome;
        }

        // A quarantined structure skips the linked attempt: the request
        // is served plan-free at the bottom rung (degraded but correct),
        // and does not count against the breaker.
        if self.cache.is_quarantined_key(&key) {
            tracer.counter("serve.quarantine.degraded", 1);
            outcome.quarantined = true;
            outcome.rung = Rung::Reference;
            outcome.result = Ok(run_reference_seeded::<S>(inst, None, seed, out));
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
                outcome.result = Ok(run_reference_seeded::<S>(inst, None, seed, out));
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
        let mut faults = spec.plan(plan.linked.rounds(), plan.linked.n());

        // `Err` is a deadline miss, carrying the partial report: the
        // linked attempt's when it left one, else a synthesized one.
        let served: Result<RunReport, Box<ResilientReport>> = 'serve: {
            if deadline.expired() {
                let partial = synthesized_partial(&plan, Rung::Linked, 0, &faults.log());
                break 'serve Err(Box::new(partial));
            }
            let mut sup = Supervision {
                policy: self.config.retry,
                deadline: &mut deadline,
                backoff: Some(&mut backoff),
            };
            let attempt = run_resilient_plan_traced::<S, T>(
                inst,
                &plan,
                seed,
                &mut faults,
                &mut sup,
                out.as_deref_mut(),
                tracer,
            );
            let (failure, linked) = match attempt {
                Ok(resilient) if resilient.report.correct => break 'serve Ok(resilient.report),
                Ok(resilient) => (
                    "undetected corruption (output check failed)".to_string(),
                    Some(Box::new(resilient)),
                ),
                Err(ResilientError::DeadlineExceeded { partial }) => break 'serve Err(partial),
                Err(e) => {
                    let failure = e.to_string();
                    match e {
                        ResilientError::RetriesExhausted { partial, .. } => {
                            (failure, Some(partial))
                        }
                        _ => (failure, None),
                    }
                }
            };
            outcome.failures.push(format!("linked: {failure}"));
            outcome.descents = 1;
            tracer.counter("serve.supervise.descend", 1);
            // Give a transient storm room to pass before the fallback.
            backoff.pause(&mut deadline);
            if deadline.expired() {
                let log = faults.log();
                break 'serve Err(linked.unwrap_or_else(|| {
                    Box::new(synthesized_partial(&plan, Rung::Reference, 1, &log))
                }));
            }
            outcome.rung = Rung::Reference;
            Ok(run_reference_seeded::<S>(inst, Some(&plan), seed, out))
        };
        let result = served.map_err(|partial| {
            tracer.counter("serve.deadline.miss", 1);
            ServeError::DeadlineExceeded { partial }
        });
        let deadline_missed = matches!(result, Err(ServeError::DeadlineExceeded { .. }));

        // Health bookkeeping: the breaker tracks the *distributed* path —
        // landing on the bottom rung means that path failed end to end.
        let distributed_ok = result.is_ok() && outcome.rung != Rung::Reference;
        self.breakers
            .get_mut(&key)
            .expect("breaker was just inserted")
            .record(distributed_ok, tracer);

        // Quarantine strikes: consecutive requests with supervised
        // failures poison the plan; a clean request clears the count.
        if outcome.descents > 0 || deadline_missed {
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
        outcome.fault_log = faults.log();
        outcome.result = result;
        outcome
    }

    /// [`Supervisor::run_supervised_traced`] without instrumentation.
    pub fn run_supervised<S: Semiring + SampleElement>(
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

/// A partial [`ResilientReport`] for a deadline miss that the linked
/// attempt left no partial for: one before the attempt, or after an
/// attempt that failed fatally.
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
