//! End-to-end execution: compile, load, run, verify.
//!
//! One call does the whole experiment pipeline for a single instance:
//! compile the selected algorithm to a schedule, load random (seeded)
//! values, execute on the simulated network, extract the output and check
//! it against the sequential reference product. The returned [`RunReport`]
//! is what the benches print.

use lowband_matrix::algebra::SampleElement;
use lowband_matrix::{
    reference_multiply, reference_multiply_into, Bool, Fp, Gf2, MinPlus, SparseMatrix, Wrap64,
};
use lowband_model::faults::{Fault, FaultKind};
use lowband_model::{
    Checkpoint, ExecutionStats, FaultPlan, FaultSpec, LinkedMachine, LinkedSchedule, ModelError,
    NoopFaults, NoopTracer, PackedLinkedMachine, PackedSemiring, RunWindow, Schedule, Semiring,
    Tracer,
};
use rand::SeedableRng;

use crate::algorithms::bounded_triangles::solve_bounded_triangles_from;
use crate::algorithms::dense::solve_dense_cube_from;
use crate::algorithms::solve_trivial;
use crate::algorithms::two_phase::solve_two_phase_from;
use crate::densemm::DenseEngine;
use crate::instance::{Instance, PackedSites};
use crate::supervise::{Backoff, Deadline, ResilientError, Rung};
use crate::triangles::TriangleSet;

/// Which algorithm to run.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Algorithm {
    /// Direct-fetch baseline ("trivial `O(d²)`").
    Trivial,
    /// Theorems 5.3/5.11: one Lemma 3.1 pass with `κ = ⌈|𝒯̂|/n⌉`.
    BoundedTriangles,
    /// Theorem 4.2 two-phase with the given dense engine.
    TwoPhase {
        /// Sparsity parameter `d` driving the cluster thresholds.
        d: usize,
        /// Dense cost model.
        engine: DenseEngine,
    },
    /// Full-network `O(n^{4/3})` cube multiplication (dense baseline).
    DenseCube,
    /// Full-network distributed Strassen (`O(n^{1.288})` measured; requires
    /// ring values — plain semirings fail at run time).
    StrassenField,
}

/// The outcome of one verified run.
#[derive(Clone, PartialEq, Debug)]
pub struct RunReport {
    /// Communication rounds actually executed.
    pub rounds: usize,
    /// Messages actually delivered.
    pub messages: usize,
    /// Modeled rounds (differs from `rounds` only for the fast-field
    /// engine; see DESIGN.md §3).
    pub modeled_rounds: f64,
    /// Number of triangles in `𝒯̂`.
    pub triangles: usize,
    /// Whether the simulated output matched the reference product.
    pub correct: bool,
    /// Executor throughput (simulated events per wall-clock second);
    /// `None` when the run was below clock resolution.
    pub events_per_sec: Option<f64>,
    /// Which degradation-ladder rung produced the result (see [`Rung`]).
    /// Unsupervised runs, packed lane batches included, report
    /// [`Rung::Linked`].
    pub rung: Rung,
}

/// Compile, execute with seeded random values of type `S`, verify.
pub fn run_algorithm<S: Semiring + SampleElement>(
    inst: &Instance,
    algorithm: Algorithm,
    seed: u64,
) -> Result<RunReport, ModelError> {
    run_algorithm_traced::<S, _>(inst, algorithm, seed, false, &mut NoopTracer)
}

/// [`run_algorithm`] with two extra controls: an optional schedule
/// [compression](fn@lowband_model::compress) pass, fused with linking, and
/// an instrumentation sink observing the whole pipeline.
///
/// The sink sees one span per phase — `"compile"`, `"link"`, then
/// `"compress"` (only if requested: compression places events on the
/// slot ids linking interned), `"load"`, `"run"`, `"verify"` — plus
/// artifact sizes as counters (`schedule.rounds`, `schedule.messages`,
/// `compress.*`, `link.*`) and the executor's per-round event stream (see
/// [`lowband_model::PackedLinkedMachine::run_traced`]).
pub fn run_algorithm_traced<S: Semiring + SampleElement, T: Tracer>(
    inst: &Instance,
    algorithm: Algorithm,
    seed: u64,
    compress: bool,
    tracer: &mut T,
) -> Result<RunReport, ModelError> {
    let plan = compile_plan_traced(inst, algorithm, compress, tracer)?;
    let mut machine: LinkedMachine<'_, S> = LinkedMachine::new(&plan.linked);
    let mut scratch = ValueScratch::new(inst);
    execute_seeded(inst, &plan, &mut machine, &mut scratch, seed, tracer)
}

/// The complete structure-dependent artifact of one (instance, algorithm,
/// compression) choice: everything `run_algorithm` computes *before* any
/// value exists. In the supported model this is exactly the part that may
/// be prepared in advance and reused across value-sets — the serving
/// layer's cache (`lowband-serve`) stores these, and the batch runners
/// stream seeded value-sets through one of them.
#[derive(Clone, Debug)]
pub struct CompiledPlan {
    /// The compiled (and, if requested, compressed) source schedule, every
    /// step in link order — each round's transfers stable-sorted by
    /// destination, each compute block's ops by node — so it pairs with
    /// `linked` event by event. Kept so external validators
    /// (`lowband-check::lint_linked`) and the hash-map reference executor
    /// can be run against the cached artifact. An uncompressed plan keeps
    /// the compiler's keys; a compressed plan's is the de-link of
    /// `linked`, as is every plan loaded from a plan file.
    pub schedule: Schedule,
    /// The linked, slot-addressed form the executors run.
    pub linked: LinkedSchedule,
    /// Modeled rounds (differs from executed rounds only for the
    /// fast-field engine; see DESIGN.md §3).
    pub modeled_rounds: f64,
    /// Number of triangles in `𝒯̂`.
    pub triangles: usize,
}

/// Compile + (optionally) compress + link one instance into a reusable
/// [`CompiledPlan`] — the structure-dependent prefix of
/// [`run_algorithm_traced`], with the identical span/counter protocol
/// (`"compile"`, `"link"`, `"compress"` if requested, plus the
/// `schedule.*`/`compress.*`/`link.*` counters).
///
/// Linking interns keys to dense slots, so every later execution is
/// hash-free. It checks nothing: the compiler's `ScheduleBuilder` already
/// held every round to the model, and the linked plan inherits that
/// check. Only compiling can fail. A compressed plan is compressed on
/// those slot ids
/// ([`lowband_model::compress_and_link_traced`]: the `"link"` span covers
/// interning, the `"compress"` span placement, emission and the de-link).
/// An uncompressed plan is linked as it is, then its schedule is
/// stable-sorted into link order.
pub fn compile_plan_traced<T: Tracer>(
    inst: &Instance,
    algorithm: Algorithm,
    compress: bool,
    tracer: &mut T,
) -> Result<CompiledPlan, ModelError> {
    tracer.span_enter("compile");
    let compiled = compile(inst, algorithm);
    tracer.span_exit("compile");
    let (ts_len, schedule, modeled) = compiled?;
    tracer.counter("schedule.rounds", schedule.rounds() as u64);
    tracer.counter("schedule.messages", schedule.messages() as u64);
    let (schedule, linked) = if compress {
        lowband_model::compress_and_link_traced(schedule, tracer)
    } else {
        let linked = lowband_model::link_traced(&schedule, tracer);
        (schedule.into_link_order(), linked)
    };
    Ok(CompiledPlan {
        schedule,
        linked,
        modeled_rounds: modeled,
        triangles: ts_len,
    })
}

/// [`compile_plan_traced`] without instrumentation.
pub fn compile_plan(
    inst: &Instance,
    algorithm: Algorithm,
    compress: bool,
) -> Result<CompiledPlan, ModelError> {
    compile_plan_traced(inst, algorithm, compress, &mut NoopTracer)
}

/// Per-plan scratch value-sets: the seeded inputs, extracted output and
/// reference product, reused across every seed streamed through one plan
/// so batch loops pay zero support-clone or matrix-allocation churn per
/// member.
struct ValueScratch<S: Semiring> {
    a: SparseMatrix<S>,
    b: SparseMatrix<S>,
    got: SparseMatrix<S>,
    want: SparseMatrix<S>,
}

impl<S: Semiring> ValueScratch<S> {
    fn new(inst: &Instance) -> ValueScratch<S> {
        ValueScratch {
            a: SparseMatrix::zeros(inst.ahat.clone()),
            b: SparseMatrix::zeros(inst.bhat.clone()),
            got: SparseMatrix::zeros(inst.xhat.clone()),
            want: SparseMatrix::zeros(inst.xhat.clone()),
        }
    }
}

/// Load the seed's value-set into `machine` (reusing its slot stores),
/// execute, and verify — the per-value-set suffix of
/// [`run_algorithm_traced`], identical spans (`"load"`, `"run"`,
/// `"verify"`) included.
fn execute_seeded<S: Semiring + SampleElement, T: Tracer>(
    inst: &Instance,
    plan: &CompiledPlan,
    machine: &mut LinkedMachine<'_, S>,
    scratch: &mut ValueScratch<S>,
    seed: u64,
    tracer: &mut T,
) -> Result<RunReport, ModelError> {
    let started = if T::ENABLED {
        Some(std::time::Instant::now())
    } else {
        None
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    scratch.a.refill_random(&mut rng);
    scratch.b.refill_random(&mut rng);
    tracer.span_enter("load");
    inst.reload_linked(machine, &scratch.a, &scratch.b);
    tracer.span_exit("load");
    tracer.span_enter("run");
    let run_result = machine.run_traced(tracer);
    tracer.span_exit("run");
    let stats = run_result?;
    tracer.span_enter("verify");
    inst.extract_x_into(machine, &mut scratch.got);
    reference_multiply_into(&scratch.a, &scratch.b, &mut scratch.want);
    // Both live on the X̂ support by construction, so value equality is
    // full matrix equality.
    let correct = scratch.got.values() == scratch.want.values();
    tracer.span_exit("verify");
    // End-to-end per-request latency (load + run + verify), the serving
    // layer's p50/p95/p99 surface.
    if let Some(t0) = started {
        tracer.histogram("run.request_nanos", t0.elapsed().as_nanos() as u64);
    }
    Ok(RunReport {
        rounds: stats.rounds,
        messages: stats.messages,
        modeled_rounds: plan.modeled_rounds,
        triangles: plan.triangles,
        correct,
        events_per_sec: stats.events_per_sec(),
        rung: Rung::Linked,
    })
}

/// How a batch of value-sets is driven through one [`CompiledPlan`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BatchMode {
    /// One slot-store machine, value-sets streamed through it in seed
    /// order via [`LinkedMachine::reset_values`] — zero allocation churn
    /// between runs.
    Sequential,
    /// Struct-of-arrays lane planes: the seed list is sharded into groups
    /// of `lanes` members and each group executes through ONE
    /// interpretation of the linked schedule on a
    /// [`PackedLinkedMachine`] — schedule-decode cost amortizes to
    /// `1/lanes` per member, and the semiring ops autovectorize (or
    /// bit-slice, for `Bool`/`Gf2`, at 64 members per `u64`). A ragged
    /// tail group (`K % lanes ≠ 0`) pads its unused lanes with zero
    /// planes that are excluded from the reports. Reports are
    /// bit-identical to [`BatchMode::Sequential`] (throughput aside).
    Packed {
        /// Lane count; `0` selects [`BatchElement::DEFAULT_LANES`]. Must
        /// otherwise be one of [`BatchElement::LANE_WIDTHS`] for the
        /// value type, else [`ModelError::PackedLanesUnsupported`].
        lanes: usize,
    },
}

/// A value type the batch runners can drive — scalar machinery (sampling
/// and semiring ops) plus the bridge from the *runtime* lane count in
/// [`BatchMode::Packed`] to the *const-generic* packed monomorphizations:
/// each implementor compiles a fixed menu of lane widths
/// ([`BatchElement::LANE_WIDTHS`]) and dispatches into the matching
/// [`PackedSemiring`] instantiation.
///
/// Word-sized algebras (`Fp`, `Wrap64`, `MinPlus`) compile array planes at
/// widths 4/8/16/32/64 (default 8); the two-element algebras (`Bool`,
/// `Gf2`) compile only width 64, where a bit-sliced plane fills its `u64`.
/// The packed path serves fault-free batches only: a single supervised
/// request runs on the one-lane machine, which alone has the fault hook.
pub trait BatchElement: Semiring + SampleElement {
    /// Lane widths with a compiled packed monomorphization, ascending.
    const LANE_WIDTHS: &'static [usize];
    /// The width [`BatchMode::Packed`]`{ lanes: 0 }` selects.
    const DEFAULT_LANES: usize;

    /// Execute `seeds` through `plan` in lane groups of `lanes`,
    /// monomorphized for this value type. Called by
    /// [`run_plan_batch_traced`]; `lanes` must be in
    /// [`BatchElement::LANE_WIDTHS`].
    fn run_packed_batch_traced<T: Tracer>(
        inst: &Instance,
        plan: &CompiledPlan,
        seeds: &[u64],
        lanes: usize,
        tracer: &mut T,
    ) -> Result<Vec<RunReport>, ModelError>;
}

macro_rules! batch_element {
    ($t:ty, default = $default:literal, widths = [$($w:literal),+ $(,)?]) => {
        impl BatchElement for $t {
            const LANE_WIDTHS: &'static [usize] = &[$($w),+];
            const DEFAULT_LANES: usize = $default;

            fn run_packed_batch_traced<T: Tracer>(
                inst: &Instance,
                plan: &CompiledPlan,
                seeds: &[u64],
                lanes: usize,
                tracer: &mut T,
            ) -> Result<Vec<RunReport>, ModelError> {
                match lanes {
                    $($w => packed_batch::<$t, $w, T>(inst, plan, seeds, tracer),)+
                    other => Err(ModelError::PackedLanesUnsupported { lanes: other }),
                }
            }
        }
    };
}

batch_element!(Fp, default = 8, widths = [4, 8, 16, 32, 64]);
batch_element!(Wrap64, default = 8, widths = [4, 8, 16, 32, 64]);
batch_element!(MinPlus, default = 8, widths = [4, 8, 16, 32, 64]);
batch_element!(Bool, default = 64, widths = [64]);
batch_element!(Gf2, default = 64, widths = [64]);

/// The packed analogue of streaming [`execute_seeded`] over the seed
/// list: shard `seeds` into groups of `LANES`, load each group member
/// into its lane, interpret the schedule ONCE per group, then verify each
/// lane against the sequential reference product. Every member's values
/// come from the same seeded RNG consumption as the scalar paths
/// (`a` randomized before `b`), so the reports are bit-identical to
/// [`BatchMode::Sequential`] — the tail group's unused lanes stay
/// zero-padded and produce no report.
fn packed_batch<S, const LANES: usize, T: Tracer>(
    inst: &Instance,
    plan: &CompiledPlan,
    seeds: &[u64],
    tracer: &mut T,
) -> Result<Vec<RunReport>, ModelError>
where
    S: PackedSemiring<LANES> + SampleElement,
{
    let mut machine: PackedLinkedMachine<'_, S, LANES> = PackedLinkedMachine::new(&plan.linked);
    // Structure-only preprocessing, paid once per batch: the placement
    // lookup and slot search of every support entry. Each lane's
    // load/extract then streams through resolved `(node, slot)` sites.
    let sites = PackedSites::new(inst, &plan.linked);
    let mut reports = Vec::with_capacity(seeds.len());
    // One pair of input scratch matrices per lane (each lane's values must
    // survive until its verification) plus one shared output/reference
    // pair — allocated once per batch, refilled in place per member.
    let mut values: Vec<(SparseMatrix<S>, SparseMatrix<S>)> = (0..LANES.min(seeds.len()))
        .map(|_| {
            (
                SparseMatrix::zeros(inst.ahat.clone()),
                SparseMatrix::zeros(inst.bhat.clone()),
            )
        })
        .collect();
    let mut got: SparseMatrix<S> = SparseMatrix::zeros(inst.xhat.clone());
    let mut want: SparseMatrix<S> = SparseMatrix::zeros(inst.xhat.clone());
    for group in seeds.chunks(LANES) {
        machine.reset_values();
        tracer.span_enter("load");
        for (lane, &seed) in group.iter().enumerate() {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let (a, b) = &mut values[lane];
            a.refill_random(&mut rng);
            b.refill_random(&mut rng);
            sites.load_lane(&mut machine, lane, a, b);
        }
        tracer.span_exit("load");
        tracer.span_enter("run");
        let run_result = machine.run_traced(tracer);
        tracer.span_exit("run");
        let stats = run_result?;
        tracer.span_enter("verify");
        for (lane, (a, b)) in values[..group.len()].iter().enumerate() {
            sites.extract_lane_into(&machine, lane, &mut got);
            reference_multiply_into(a, b, &mut want);
            reports.push(RunReport {
                rounds: stats.rounds,
                messages: stats.messages,
                modeled_rounds: plan.modeled_rounds,
                triangles: plan.triangles,
                // Both live on the X̂ support, so value equality is full
                // matrix equality.
                correct: got.values() == want.values(),
                events_per_sec: stats.events_per_sec(),
                rung: Rung::Linked,
            });
        }
        tracer.span_exit("verify");
    }
    Ok(reports)
}

/// Execute one seeded value-set per entry of `seeds` through a prepared
/// [`CompiledPlan`], reusing the dense slot stores between runs. Each
/// run's report is **bit-identical** (wall-clock throughput aside) to an
/// independent [`run_algorithm`] call with the same seed — the batch path
/// skips only the structure-dependent phases, never the verification.
///
/// A plan linked for another node count than `inst.n` (say, a plan file
/// run against other matrices) is refused with
/// [`ModelError::SizeMismatch`] before any value loads.
pub fn run_plan_batch_traced<S: BatchElement, T: Tracer>(
    inst: &Instance,
    plan: &CompiledPlan,
    seeds: &[u64],
    mode: BatchMode,
    tracer: &mut T,
) -> Result<Vec<RunReport>, ModelError> {
    if plan.linked.n() != inst.n {
        return Err(ModelError::SizeMismatch {
            expected: plan.linked.n(),
            actual: inst.n,
        });
    }
    tracer.counter("batch.runs", seeds.len() as u64);
    match mode {
        BatchMode::Packed { lanes } => {
            let lanes = if lanes == 0 { S::DEFAULT_LANES } else { lanes };
            tracer.counter("batch.lanes", lanes as u64);
            S::run_packed_batch_traced(inst, plan, seeds, lanes, tracer)
        }
        BatchMode::Sequential => {
            let mut machine: LinkedMachine<'_, S> = LinkedMachine::new(&plan.linked);
            let mut scratch = ValueScratch::new(inst);
            seeds
                .iter()
                .map(|&seed| execute_seeded(inst, plan, &mut machine, &mut scratch, seed, tracer))
                .collect()
        }
    }
}

/// When to checkpoint and when to give up during a fault-injected run.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Window length in communication rounds (0 is treated as 1). The
    /// deadline is checked before every window, and a window boundary is
    /// checkpointed while a planned fault can still fire
    /// ([`FaultPlan::pending_from`]); past the last one, windows run
    /// without snapshots.
    pub checkpoint_every: usize,
    /// Give up after this many detected failures.
    pub max_attempts: usize,
    /// Give up once the *cumulative* replayed rounds exceed
    /// `base_round_budget << (failures − 1)` — the budget doubles with
    /// every failure, so a burst of early faults doesn't strand a long run
    /// while a genuinely hopeless run still terminates.
    pub base_round_budget: usize,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            checkpoint_every: 32,
            max_attempts: 10,
            base_round_budget: 64,
        }
    }
}

/// The outcome of one [`run_resilient`] call: the verified report plus the
/// recovery accounting.
#[derive(Clone, PartialEq, Debug)]
pub struct ResilientReport {
    /// The usual verified run outcome.
    pub report: RunReport,
    /// Executor statistics of the *completed* run (replays excluded from
    /// `rounds`; fault counters filled in).
    pub stats: ExecutionStats,
    /// Detected failures that forced a rollback.
    pub failures: usize,
    /// Rounds re-executed across all rollbacks.
    pub replayed_rounds: usize,
    /// Checkpoints taken: the post-load snapshot and one per window
    /// boundary, each only while a planned fault could still fire. A run
    /// whose plan holds no fault takes none.
    pub checkpoints: usize,
    /// The faults the plan injected, in plan order — identical for every
    /// executor and every run with the same spec.
    pub fault_log: Vec<Fault>,
}

/// [`run_algorithm`] under a deterministic fault plan: executes in
/// checkpointed windows, rolls back and replays on every detected fault,
/// and verifies the final product against the sequential reference.
pub fn run_resilient<S: Semiring + SampleElement>(
    inst: &Instance,
    algorithm: Algorithm,
    seed: u64,
    spec: &FaultSpec,
    policy: RetryPolicy,
) -> Result<ResilientReport, ModelError> {
    run_resilient_traced::<S, _>(inst, algorithm, seed, spec, policy, &mut NoopTracer)
}

/// [`run_resilient`] with an instrumentation sink: the usual pipeline spans
/// plus the executor's `fault.*` counters and one `fault.recovered` per
/// rollback.
///
/// The run executes on the linked sequential backend in windows of
/// `policy.checkpoint_every` rounds. While a planned fault can still fire,
/// the loaded inputs and every cleanly ended window are checkpointed (each
/// under a `"checkpoint"` span); a window that surfaces
/// [`ModelError::Corruption`] or [`ModelError::NodeCrashed`] is rolled
/// back to the last checkpoint and replayed (injected faults are one-shot,
/// so replays make progress). Once no fault is pending, the remaining
/// windows run with [`NoopFaults`] and take no snapshot, so a fault-free
/// spec costs what the plain pipeline does. Any other error — and a fault
/// budget overrun per [`RetryPolicy`] — aborts with the underlying error.
pub fn run_resilient_traced<S: Semiring + SampleElement, T: Tracer>(
    inst: &Instance,
    algorithm: Algorithm,
    seed: u64,
    spec: &FaultSpec,
    policy: RetryPolicy,
    tracer: &mut T,
) -> Result<ResilientReport, ModelError> {
    let compiled = compile_plan_traced(inst, algorithm, false, tracer)?;
    let mut faults = spec.plan(compiled.linked.rounds(), compiled.linked.n());
    let mut deadline = Deadline::none();
    let mut sup = Supervision {
        policy,
        deadline: &mut deadline,
        backoff: None,
    };
    run_resilient_plan_traced::<S, T>(
        inst,
        &compiled,
        seed,
        &mut faults,
        &mut sup,
        None::<&mut SparseMatrix<S>>,
        tracer,
    )
    .map_err(|e| match e {
        ResilientError::RetriesExhausted { error, .. } | ResilientError::Fatal { error } => error,
        ResilientError::DeadlineExceeded { .. } => {
            unreachable!("an unlimited deadline cannot expire")
        }
    })
}

/// The retry-loop controls of one supervised resilient run: the retry
/// policy plus the request-level [`Deadline`] and optional [`Backoff`],
/// which the supervisor goes on charging after the run.
pub struct Supervision<'a> {
    /// Checkpoint cadence and give-up thresholds.
    pub policy: RetryPolicy,
    /// Request deadline — checked before every window and charged by
    /// virtual backoff delays.
    pub deadline: &'a mut Deadline,
    /// Delay between rollback and replay; `None` replays immediately
    /// (the pre-supervision behavior).
    pub backoff: Option<&'a mut Backoff>,
}

/// Fill the per-kind fault counters of `stats` from a fired-fault log.
pub fn fill_fault_kinds(stats: &mut ExecutionStats, log: &[Fault]) {
    stats.fault_drops = 0;
    stats.fault_corruptions = 0;
    stats.fault_crashes = 0;
    for fault in log {
        match fault.kind {
            FaultKind::Drop => stats.fault_drops += 1,
            FaultKind::Corrupt => stats.fault_corruptions += 1,
            FaultKind::Crash => stats.fault_crashes += 1,
        }
    }
}

/// The supervised core of [`run_resilient_traced`]: execute one seeded
/// value-set through an already-compiled plan on the linked sequential
/// backend in windows — checkpointed only while a planned fault can still
/// fire — rolling back and replaying on every detected fault, under an
/// externally owned [`FaultPlan`], [`Deadline`] and optional [`Backoff`].
///
/// The caller owns the fault plan, so it can read the fired-fault log
/// ([`FaultPlan::log`]) whatever the outcome. On failure the typed
/// [`ResilientError`] carries the partial [`ResilientReport`] accumulated
/// so far (`report.correct == false`).
/// On success, `out` (when given) receives the extracted product so
/// callers can compare outputs bit-for-bit across rungs.
pub fn run_resilient_plan_traced<S: Semiring + SampleElement, T: Tracer>(
    inst: &Instance,
    plan: &CompiledPlan,
    seed: u64,
    faults: &mut FaultPlan,
    sup: &mut Supervision<'_>,
    mut out: Option<&mut SparseMatrix<S>>,
    tracer: &mut T,
) -> Result<ResilientReport, ResilientError> {
    let (ts_len, modeled) = (plan.triangles, plan.modeled_rounds);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let a: SparseMatrix<S> = SparseMatrix::randomize(inst.ahat.clone(), &mut rng);
    let b: SparseMatrix<S> = SparseMatrix::randomize(inst.bhat.clone(), &mut rng);
    tracer.span_enter("load");
    let mut machine = inst.load_linked(&a, &b, &plan.linked);
    tracer.span_exit("load");

    let window_rounds = sup.policy.checkpoint_every.max(1);
    let mut stats = ExecutionStats::default();
    // Where the next window starts; a rollback rewinds it to `ckpt`.
    let mut next_step = 0usize;
    // Snapshots are taken only while a planned fault can still fire.
    // Faults are one-shot and only a fired one fails a window, so once
    // none is pending no rollback can need a newer checkpoint — and a
    // fault-free request takes none at all.
    let mut ckpt = None;
    let mut checkpoints = 0usize;
    let mut failures = 0usize;
    let mut replayed_rounds = 0usize;
    // The post-load checkpoint covers the freshly loaded inputs, so even
    // a first-round fault rolls back to a complete state.
    if faults.pending_from(0) {
        ckpt = Some(checkpoint_traced(&machine, 0, stats, tracer));
        checkpoints += 1;
    }

    // Snapshot the progress so far into a (partial or final) report. The
    // executors never touch the fault counters (single writer): the
    // driver owns them, so the totals are consistent with its own log.
    let snapshot = |mut stats: ExecutionStats,
                    correct: bool,
                    failures: usize,
                    replayed_rounds: usize,
                    checkpoints: usize,
                    faults: &FaultPlan| {
        stats.faults_injected = faults.injected();
        stats.faults_detected = failures;
        stats.recoveries = failures;
        fill_fault_kinds(&mut stats, &faults.log());
        ResilientReport {
            report: RunReport {
                rounds: stats.rounds,
                messages: stats.messages,
                modeled_rounds: modeled,
                triangles: ts_len,
                correct,
                events_per_sec: stats.events_per_sec(),
                rung: Rung::Linked,
            },
            fault_log: faults.log(),
            stats,
            failures,
            replayed_rounds,
            checkpoints,
        }
    };

    tracer.span_enter("run");
    loop {
        if sup.deadline.expired() {
            tracer.span_exit("run");
            tracer.counter("supervise.deadline.miss", 1);
            return Err(ResilientError::DeadlineExceeded {
                partial: Box::new(snapshot(
                    stats,
                    false,
                    failures,
                    replayed_rounds,
                    checkpoints,
                    faults,
                )),
            });
        }
        let window = RunWindow::new(next_step, window_rounds);
        // With no fault left to fire, the window runs without the hook:
        // its round checksums could only disagree after a tamper.
        let outcome = if faults.pending_from(stats.rounds) {
            machine.run_guarded(tracer, faults, window, &mut stats)
        } else {
            machine.run_guarded(tracer, &mut NoopFaults, window, &mut stats)
        };
        match outcome {
            Ok(None) => break,
            Ok(Some(step)) => {
                next_step = step;
                if faults.pending_from(stats.rounds) {
                    ckpt = Some(checkpoint_traced(&machine, step, stats, tracer));
                    checkpoints += 1;
                }
            }
            Err(e @ (ModelError::Corruption { .. } | ModelError::NodeCrashed { .. })) => {
                // Only a fired fault raises these, and a fault fires only
                // in a window that began with a checkpoint. Without one
                // there is nothing to roll back to: report, never panic.
                let Some(ckpt) = ckpt.as_ref() else {
                    tracer.span_exit("run");
                    return Err(ResilientError::Fatal { error: e });
                };
                failures += 1;
                replayed_rounds += stats.rounds - ckpt.stats().rounds;
                let shift = (failures - 1).min(32) as u32;
                let budget = sup
                    .policy
                    .base_round_budget
                    .checked_shl(shift)
                    .unwrap_or(usize::MAX);
                if failures > sup.policy.max_attempts || replayed_rounds > budget {
                    tracer.span_exit("run");
                    return Err(ResilientError::RetriesExhausted {
                        error: e,
                        partial: Box::new(snapshot(
                            stats,
                            false,
                            failures,
                            replayed_rounds,
                            checkpoints,
                            faults,
                        )),
                    });
                }
                if let Err(restore_err) = machine.restore(ckpt) {
                    tracer.span_exit("run");
                    return Err(ResilientError::Fatal { error: restore_err });
                }
                stats = ckpt.stats();
                next_step = ckpt.next_step();
                tracer.fault("fault.recovered", stats.rounds as u64);
                if let Some(backoff) = sup.backoff.as_deref_mut() {
                    let delay = backoff.pause(sup.deadline);
                    tracer.counter("supervise.backoff_nanos", delay.as_nanos() as u64);
                }
            }
            Err(e) => {
                tracer.span_exit("run");
                return Err(ResilientError::Fatal { error: e });
            }
        }
    }
    tracer.span_exit("run");

    tracer.span_enter("verify");
    let got = inst.extract_x_from(&machine);
    let want = reference_multiply(&a, &b, &inst.xhat);
    let correct = got == want;
    tracer.span_exit("verify");
    let resilient = snapshot(
        stats,
        correct,
        failures,
        replayed_rounds,
        checkpoints,
        faults,
    );
    if let Some(o) = out.take() {
        *o = got;
    }
    Ok(resilient)
}

/// [`LinkedMachine::checkpoint`] under a `"checkpoint"` span, so snapshot
/// time shows on its own instead of inside `"run"`.
fn checkpoint_traced<S: PackedSemiring<1>, T: Tracer>(
    machine: &LinkedMachine<'_, S>,
    next_step: usize,
    stats: ExecutionStats,
    tracer: &mut T,
) -> Checkpoint<S> {
    tracer.span_enter("checkpoint");
    let ckpt = machine.checkpoint(next_step, stats);
    tracer.span_exit("checkpoint");
    ckpt
}

/// The bottom rung of the degradation ladder: compute the product locally
/// via [`reference_multiply`] — no schedule, no network, no faults, and
/// therefore no failure mode. Same seeded RNG consumption as every
/// execution path, so the output is bit-identical to a fault-free run.
/// The report copies `modeled_rounds` and `triangles` from `plan`; a
/// plan-free response (`None`: quarantined structure, failed compile)
/// reports them as zero.
pub fn run_reference_seeded<S: Semiring + SampleElement>(
    inst: &Instance,
    plan: Option<&CompiledPlan>,
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
        modeled_rounds: plan.map_or(0.0, |p| p.modeled_rounds),
        triangles: plan.map_or(0, |p| p.triangles),
        // The reference product *is* the ground truth.
        correct: true,
        events_per_sec: None,
        rung: Rung::Reference,
    }
}

/// Compile an instance with the selected algorithm and return the
/// schedule alone — the artifact external validators (the
/// `lowband-check` linter, schedule caching) work with. Identical to the
/// compile phase of [`run_algorithm_traced`], minus the execution.
pub fn compile_schedule(
    inst: &Instance,
    algorithm: Algorithm,
) -> Result<lowband_model::Schedule, ModelError> {
    compile(inst, algorithm).map(|(_, schedule, _)| schedule)
}

/// The compile phase of [`run_algorithm_traced`]: triangle enumeration
/// (once) plus the selected solver.
fn compile(
    inst: &Instance,
    algorithm: Algorithm,
) -> Result<(usize, lowband_model::Schedule, f64), ModelError> {
    let ts = TriangleSet::enumerate(inst);
    let triangles = ts.len();
    let (schedule, modeled) = match algorithm {
        Algorithm::Trivial => {
            let s = solve_trivial(inst, &ts.triangles, 0)?;
            let r = s.rounds() as f64;
            (s, r)
        }
        Algorithm::BoundedTriangles => {
            let (s, _) = solve_bounded_triangles_from(inst, &ts, 0)?;
            let r = s.rounds() as f64;
            (s, r)
        }
        Algorithm::TwoPhase { d, engine } => {
            let report = solve_two_phase_from(inst, ts.triangles, d, engine, 0)?;
            let modeled = report.modeled_rounds;
            (report.schedule, modeled)
        }
        Algorithm::DenseCube => {
            let s = solve_dense_cube_from(inst, ts.triangles, 0)?;
            let r = s.rounds() as f64;
            (s, r)
        }
        Algorithm::StrassenField => {
            let s = crate::strassen::solve_strassen(inst, 0)?;
            let r = s.rounds() as f64;
            (s, r)
        }
    };
    Ok((triangles, schedule, modeled))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowband_matrix::{gen, Bool, Fp, MinPlus, Wrap64};
    use rand::SeedableRng;

    /// [`run_plan_batch_traced`] without a tracer.
    fn batch<S: BatchElement>(
        inst: &Instance,
        plan: &CompiledPlan,
        seeds: &[u64],
        mode: BatchMode,
    ) -> Result<Vec<RunReport>, ModelError> {
        run_plan_batch_traced::<S, _>(inst, plan, seeds, mode, &mut NoopTracer)
    }

    fn us_instance(n: usize, d: usize, seed: u64) -> Instance {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Instance::new(
            gen::uniform_sparse(n, d, &mut rng),
            gen::uniform_sparse(n, d, &mut rng),
            gen::uniform_sparse(n, d, &mut rng),
        )
    }

    #[test]
    fn all_algorithms_agree_over_fp() {
        let inst = us_instance(40, 3, 51);
        for alg in [
            Algorithm::Trivial,
            Algorithm::BoundedTriangles,
            Algorithm::TwoPhase {
                d: 3,
                engine: DenseEngine::Cube3d,
            },
        ] {
            let report = run_algorithm::<Fp>(&inst, alg, 52).unwrap();
            assert!(report.correct, "{alg:?} produced a wrong product");
        }
    }

    #[test]
    fn runs_over_every_semiring() {
        let inst = us_instance(24, 3, 53);
        assert!(
            run_algorithm::<Bool>(&inst, Algorithm::BoundedTriangles, 54)
                .unwrap()
                .correct
        );
        assert!(
            run_algorithm::<MinPlus>(&inst, Algorithm::BoundedTriangles, 55)
                .unwrap()
                .correct
        );
        assert!(
            run_algorithm::<Wrap64>(&inst, Algorithm::BoundedTriangles, 56)
                .unwrap()
                .correct
        );
    }

    #[test]
    fn batch_reports_match_independent_runs() {
        let inst = us_instance(32, 3, 61);
        let seeds = [7u64, 8, 9];
        let plan = compile_plan(&inst, Algorithm::BoundedTriangles, false).unwrap();
        let batch = batch::<Fp>(&inst, &plan, &seeds, BatchMode::Sequential).unwrap();
        assert_eq!(batch.len(), seeds.len());
        for (&seed, b) in seeds.iter().zip(&batch) {
            let solo = run_algorithm::<Fp>(&inst, Algorithm::BoundedTriangles, seed).unwrap();
            assert!(b.correct && solo.correct);
            assert_eq!(
                (b.rounds, b.messages, b.triangles),
                (solo.rounds, solo.messages, solo.triangles)
            );
            assert_eq!(b.modeled_rounds, solo.modeled_rounds);
        }
    }

    #[test]
    fn plan_for_another_node_count_is_refused_before_loading() {
        let plan =
            compile_plan(&us_instance(24, 3, 66), Algorithm::BoundedTriangles, false).unwrap();
        let other = us_instance(32, 3, 67);
        for mode in [BatchMode::Sequential, BatchMode::Packed { lanes: 0 }] {
            assert_eq!(
                batch::<Fp>(&other, &plan, &[1, 2], mode),
                Err(ModelError::SizeMismatch {
                    expected: 24,
                    actual: 32
                }),
                "{mode:?}"
            );
        }
    }

    #[test]
    fn packed_batch_matches_sequential_including_ragged_tails() {
        let inst = us_instance(32, 3, 63);
        let plan = compile_plan(&inst, Algorithm::BoundedTriangles, false).unwrap();
        // K = 1, LANES−1, LANES, LANES+1 for lanes = 4.
        for k in [1usize, 3, 4, 5] {
            let seeds: Vec<u64> = (200..200 + k as u64).collect();
            let seq = batch::<Fp>(&inst, &plan, &seeds, BatchMode::Sequential).unwrap();
            let packed = batch::<Fp>(&inst, &plan, &seeds, BatchMode::Packed { lanes: 4 }).unwrap();
            assert_eq!(packed.len(), k, "tail lanes must not produce reports");
            for (s, p) in seq.iter().zip(&packed) {
                assert!(p.correct, "k={k}");
                assert_eq!((s.rounds, s.messages), (p.rounds, p.messages));
                assert_eq!(s.modeled_rounds, p.modeled_rounds);
                assert_eq!(s.triangles, p.triangles);
            }
        }
    }

    #[test]
    fn packed_default_and_unsupported_lane_widths() {
        let inst = us_instance(24, 3, 64);
        let plan = compile_plan(&inst, Algorithm::BoundedTriangles, false).unwrap();
        let seeds = [1u64, 2, 3];
        // lanes = 0 selects the per-type default width.
        assert_eq!(<Fp as BatchElement>::DEFAULT_LANES, 8);
        assert_eq!(<Bool as BatchElement>::DEFAULT_LANES, 64);
        let reports = batch::<Fp>(&inst, &plan, &seeds, BatchMode::Packed { lanes: 0 }).unwrap();
        assert!(reports.iter().all(|r| r.correct));
        // A width with no compiled monomorphization is rejected loudly.
        assert!(matches!(
            batch::<Fp>(&inst, &plan, &seeds, BatchMode::Packed { lanes: 7 }),
            Err(ModelError::PackedLanesUnsupported { lanes: 7 })
        ));
        assert!(matches!(
            batch::<Bool>(&inst, &plan, &seeds, BatchMode::Packed { lanes: 8 }),
            Err(ModelError::PackedLanesUnsupported { lanes: 8 })
        ));
    }

    #[test]
    fn packed_bit_sliced_semirings_match_sequential() {
        let inst = us_instance(24, 3, 65);
        let plan = compile_plan(&inst, Algorithm::BoundedTriangles, false).unwrap();
        let seeds: Vec<u64> = (300..310).collect();
        let seq_bool = batch::<Bool>(&inst, &plan, &seeds, BatchMode::Sequential).unwrap();
        let packed_bool =
            batch::<Bool>(&inst, &plan, &seeds, BatchMode::Packed { lanes: 64 }).unwrap();
        for (s, p) in seq_bool.iter().zip(&packed_bool) {
            assert!(p.correct);
            assert_eq!((s.rounds, s.messages), (p.rounds, p.messages));
        }
        let seq_gf2 = batch::<Gf2>(&inst, &plan, &seeds, BatchMode::Sequential).unwrap();
        let packed_gf2 =
            batch::<Gf2>(&inst, &plan, &seeds, BatchMode::Packed { lanes: 64 }).unwrap();
        for (s, p) in seq_gf2.iter().zip(&packed_gf2) {
            assert!(p.correct);
            assert_eq!((s.rounds, s.messages), (p.rounds, p.messages));
        }
    }

    #[test]
    fn report_counts_are_plausible() {
        let inst = us_instance(32, 3, 57);
        let report = run_algorithm::<Fp>(&inst, Algorithm::BoundedTriangles, 58).unwrap();
        assert!(report.rounds > 0);
        assert!(report.messages > 0);
        assert_eq!(report.modeled_rounds, report.rounds as f64);
        assert!(report.triangles <= 9 * 32);
    }
}
