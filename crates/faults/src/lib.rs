//! # `lowband-faults` — deterministic fault injection for the executors
//!
//! The paper's model assumes a perfectly reliable round-synchronous
//! network: every message sent is delivered and every node survives all
//! rounds. Production distributed runs do not get that luxury, so the
//! executors accept a **fault hook** — in exactly the style of
//! `lowband-trace::Tracer` — through which a deterministic, seed-driven
//! [`FaultPlan`] injects three failure modes at round boundaries:
//!
//! * **message drop** — a sent value silently never arrives;
//! * **value corruption** — a sent value arrives perturbed
//!   (`v.corrupted()`, i.e. `v + 1` by default);
//! * **node crash** — a node loses its entire store at a round boundary
//!   (crash/restart with empty memory).
//!
//! The hook is a **monomorphized** trait ([`FaultHook`]): the default
//! [`NoopFaults`] has [`FaultHook::ENABLED`]` = false` and empty
//! `#[inline(always)]` bodies, so executor hot loops guarded by
//! `if F::ENABLED` compile to exactly the fault-free machine code.
//!
//! ## Determinism contract
//!
//! Fault decisions are keyed on **(round, sending node)** — never on the
//! position of a message inside a round. The linked executor re-sorts each
//! round's transfers by destination, so per-round message *order* differs
//! across executor backends; (round, node) keys are order-independent,
//! which makes the injected-fault log of a seeded plan identical across
//! the hash-map and linked executors (asserted by the cross-executor fault
//! suite). Every fault in a plan is **one-shot**: it fires at most once,
//! so a recovery retry that replays the same rounds does not re-trip the
//! same fault and bounded retry budgets terminate.

#![forbid(unsafe_code)]

use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// What happens to one message in flight.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Tamper {
    /// Deliver unchanged (the overwhelmingly common case).
    None,
    /// The message is lost: nothing is delivered.
    Drop,
    /// The payload is perturbed before delivery.
    Corrupt,
}

/// A sink of fault decisions, monomorphized into the executors.
///
/// Implementations are queried at two points of each communication round:
/// once per round for a crash ([`FaultHook::crash`]) and once per message
/// for in-flight tampering ([`FaultHook::tamper`]). Call sites guard every
/// query — and all checksum bookkeeping — behind `if F::ENABLED`, so the
/// no-op hook costs nothing.
pub trait FaultHook {
    /// `false` only for hooks that never inject (the no-op hook): lets the
    /// executors skip even the cost of *computing* round checksums.
    const ENABLED: bool = true;

    /// Called once at the boundary of `round` (global index, resumes
    /// included). Returning `Some(node)` crashes that node: the executor
    /// wipes its store and aborts the run with
    /// `ModelError::NodeCrashed`.
    fn crash(&mut self, round: usize) -> Option<u32>;

    /// Called once per message of `round` sent by `src`. Anything other
    /// than [`Tamper::None`] tampers with the message in flight.
    fn tamper(&mut self, round: usize, src: u32) -> Tamper;
}

/// The zero-cost hook: never injects, [`FaultHook::ENABLED`] is `false`,
/// every body is empty and `#[inline(always)]` — executors instantiated
/// with it compile to the same machine code as before the fault layer.
#[derive(Clone, Copy, Default, Debug)]
pub struct NoopFaults;

impl FaultHook for NoopFaults {
    const ENABLED: bool = false;

    #[inline(always)]
    fn crash(&mut self, _round: usize) -> Option<u32> {
        None
    }

    #[inline(always)]
    fn tamper(&mut self, _round: usize, _src: u32) -> Tamper {
        Tamper::None
    }
}

/// `&mut F` forwards, so one plan can be lent across an executor pipeline.
impl<F: FaultHook + ?Sized> FaultHook for &mut F {
    const ENABLED: bool = true;

    #[inline]
    fn crash(&mut self, round: usize) -> Option<u32> {
        (**self).crash(round)
    }

    #[inline]
    fn tamper(&mut self, round: usize, src: u32) -> Tamper {
        (**self).tamper(round, src)
    }
}

/// The three injectable failure modes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultKind {
    /// Lose one message sent by `node` in `round`.
    Drop,
    /// Corrupt one message sent by `node` in `round`.
    Corrupt,
    /// Wipe `node`'s store at the boundary of `round`.
    Crash,
}

impl FaultKind {
    /// Stable lowercase name, used in post-mortem dumps and artifacts.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultKind::Drop => "drop",
            FaultKind::Corrupt => "corrupt",
            FaultKind::Crash => "crash",
        }
    }
}

/// One planned (or fired) fault.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Fault {
    /// Global round index the fault targets.
    pub round: usize,
    /// Victim node: the sender for [`FaultKind::Drop`] /
    /// [`FaultKind::Corrupt`], the crashed node for [`FaultKind::Crash`].
    pub node: u32,
    /// Failure mode.
    pub kind: FaultKind,
}

impl Fault {
    /// One-line description (`"corrupt@r12 node 3"`), the form the flight
    /// recorder's post-mortem dump and the recovery artifacts use.
    pub fn describe(&self) -> String {
        format!("{}@r{} node {}", self.kind.as_str(), self.round, self.node)
    }
}

/// Render a fault log as one comma-separated line for a post-mortem
/// dump's `otherData` (empty log ⇒ `"none"`).
pub fn describe_log(log: &[Fault]) -> String {
    if log.is_empty() {
        return "none".to_string();
    }
    log.iter()
        .map(Fault::describe)
        .collect::<Vec<_>>()
        .join(", ")
}

/// Per-round fault *rates* plus a seed — the reproducible description of a
/// failure regime. [`FaultSpec::plan`] expands it into a concrete
/// [`FaultPlan`] once the schedule's round count is known.
#[derive(Clone, Copy, Debug)]
pub struct FaultSpec {
    /// PRNG seed; the entire plan is a pure function of
    /// `(seed, rates, rounds, n)`.
    pub seed: u64,
    /// Per-round probability of one message drop.
    pub drop_rate: f64,
    /// Per-round probability of one value corruption.
    pub corrupt_rate: f64,
    /// Per-round probability of one node crash.
    pub crash_rate: f64,
}

impl FaultSpec {
    /// A spec that never injects anything (useful as a baseline).
    pub fn none(seed: u64) -> FaultSpec {
        FaultSpec {
            seed,
            drop_rate: 0.0,
            corrupt_rate: 0.0,
            crash_rate: 0.0,
        }
    }

    /// Expand into a concrete plan for a schedule of `rounds` rounds on a
    /// network of `n` nodes. Deterministic: same inputs ⇒ same plan,
    /// bit for bit.
    pub fn plan(&self, rounds: usize, n: usize) -> FaultPlan {
        let mut rng = rand::rngs::StdRng::seed_from_u64(self.seed);
        let mut faults = Vec::new();
        let node_span = n.max(1) as u32;
        for round in 0..rounds {
            // Draw in a fixed kind order so the stream is stable.
            for (rate, kind) in [
                (self.drop_rate, FaultKind::Drop),
                (self.corrupt_rate, FaultKind::Corrupt),
                (self.crash_rate, FaultKind::Crash),
            ] {
                if rate > 0.0 && rng.gen_bool(rate.min(1.0)) {
                    faults.push(Fault {
                        round,
                        node: rng.gen_range(0..node_span),
                        kind,
                    });
                }
            }
        }
        FaultPlan::new(faults)
    }
}

/// A concrete, deterministic fault schedule implementing [`FaultHook`].
///
/// Every fault is one-shot: once fired it never fires again, even if the
/// executor replays its round after a checkpoint restore. [`FaultPlan::log`]
/// reports the fired faults in plan order — an executor-independent record
/// (see the module docs for why decisions key on `(round, node)`).
#[derive(Clone, Debug)]
pub struct FaultPlan {
    faults: Vec<Fault>,
    fired: Vec<bool>,
    /// Round → indices into `faults`, so per-message queries don't scan
    /// the whole plan.
    by_round: HashMap<usize, Vec<usize>>,
}

impl FaultPlan {
    /// Build a plan from an explicit fault list (kept in the given order;
    /// within one round, earlier faults fire first).
    pub fn new(faults: Vec<Fault>) -> FaultPlan {
        let mut by_round: HashMap<usize, Vec<usize>> = HashMap::new();
        for (idx, f) in faults.iter().enumerate() {
            by_round.entry(f.round).or_default().push(idx);
        }
        let fired = vec![false; faults.len()];
        FaultPlan {
            faults,
            fired,
            by_round,
        }
    }

    /// The planned faults, fired or not, in plan order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Number of planned faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// `true` if the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The faults that actually fired, in plan order. This is the
    /// reproducibility artifact: identical across repeated runs with the
    /// same seed and across executor backends.
    pub fn log(&self) -> Vec<Fault> {
        self.faults
            .iter()
            .zip(&self.fired)
            .filter(|(_, &fired)| fired)
            .map(|(f, _)| *f)
            .collect()
    }

    /// Number of faults injected so far.
    pub fn injected(&self) -> usize {
        self.fired.iter().filter(|&&f| f).count()
    }

    /// Re-arm every fault (clear the fired flags), so the same plan can
    /// drive a fresh run from scratch.
    pub fn rearm(&mut self) {
        self.fired.fill(false);
    }

    fn fire_matching(&mut self, round: usize, pred: impl Fn(&Fault) -> bool) -> Option<Fault> {
        let indices = self.by_round.get(&round)?;
        for &idx in indices {
            if !self.fired[idx] && pred(&self.faults[idx]) {
                self.fired[idx] = true;
                return Some(self.faults[idx]);
            }
        }
        None
    }
}

impl FaultHook for FaultPlan {
    fn crash(&mut self, round: usize) -> Option<u32> {
        self.fire_matching(round, |f| f.kind == FaultKind::Crash)
            .map(|f| f.node)
    }

    fn tamper(&mut self, round: usize, src: u32) -> Tamper {
        match self.fire_matching(round, |f| {
            f.node == src && matches!(f.kind, FaultKind::Drop | FaultKind::Corrupt)
        }) {
            Some(Fault {
                kind: FaultKind::Drop,
                ..
            }) => Tamper::Drop,
            Some(_) => Tamper::Corrupt,
            None => Tamper::None,
        }
    }
}

/// SplitMix64 step: a cheap bijective mixer. The executors fold each
/// payload digest through this before summing, so the per-round rolling
/// checksum (a commutative `wrapping_add` of mixed digests — order
/// independence is what lets the hash-map and linked executors agree)
/// detects single-value changes with overwhelming probability.
/// The golden-gamma pre-increment keeps zero from being a fixed point:
/// without it, dropping a digest-0 payload would shift neither sum.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_is_statically_disabled() {
        const {
            assert!(!NoopFaults::ENABLED);
            assert!(<&mut FaultPlan as FaultHook>::ENABLED);
        }
    }

    #[test]
    fn spec_expansion_is_deterministic() {
        let spec = FaultSpec {
            seed: 42,
            drop_rate: 0.3,
            corrupt_rate: 0.2,
            crash_rate: 0.1,
        };
        let a = spec.plan(200, 16);
        let b = spec.plan(200, 16);
        assert_eq!(a.faults(), b.faults());
        assert!(!a.is_empty(), "rates this high must yield faults");
        let other = FaultSpec { seed: 43, ..spec }.plan(200, 16);
        assert_ne!(a.faults(), other.faults(), "different seed, different plan");
    }

    #[test]
    fn faults_are_one_shot() {
        let mut plan = FaultPlan::new(vec![
            Fault {
                round: 3,
                node: 1,
                kind: FaultKind::Crash,
            },
            Fault {
                round: 5,
                node: 2,
                kind: FaultKind::Drop,
            },
        ]);
        assert_eq!(plan.crash(3), Some(1));
        assert_eq!(plan.crash(3), None, "fired faults never refire");
        assert_eq!(plan.tamper(5, 2), Tamper::Drop);
        assert_eq!(plan.tamper(5, 2), Tamper::None);
        assert_eq!(plan.injected(), 2);
        assert_eq!(plan.log().len(), 2);
        plan.rearm();
        assert_eq!(plan.injected(), 0);
        assert_eq!(plan.crash(3), Some(1), "rearmed faults fire again");
    }

    #[test]
    fn tamper_matches_sender_and_round_only() {
        let mut plan = FaultPlan::new(vec![Fault {
            round: 7,
            node: 4,
            kind: FaultKind::Corrupt,
        }]);
        assert_eq!(plan.tamper(7, 3), Tamper::None, "wrong sender");
        assert_eq!(plan.tamper(6, 4), Tamper::None, "wrong round");
        assert_eq!(plan.tamper(7, 4), Tamper::Corrupt);
    }

    #[test]
    fn crash_ignores_tamper_faults_and_vice_versa() {
        let mut plan = FaultPlan::new(vec![Fault {
            round: 1,
            node: 0,
            kind: FaultKind::Drop,
        }]);
        assert_eq!(plan.crash(1), None, "a drop is not a crash");
        assert_eq!(plan.tamper(1, 0), Tamper::Drop);
    }

    #[test]
    fn mix64_is_injective_on_samples() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for x in 0..10_000u64 {
            assert!(seen.insert(mix64(x)), "collision at {x}");
        }
        assert_ne!(mix64(0), 0, "zero must not be a fixed point");
    }

    #[test]
    fn log_is_plan_ordered() {
        let mut plan = FaultPlan::new(vec![
            Fault {
                round: 2,
                node: 0,
                kind: FaultKind::Drop,
            },
            Fault {
                round: 1,
                node: 1,
                kind: FaultKind::Crash,
            },
        ]);
        // Fire out of plan order.
        assert_eq!(plan.crash(1), Some(1));
        assert_eq!(plan.tamper(2, 0), Tamper::Drop);
        let log = plan.log();
        assert_eq!(log[0].round, 2, "log order follows the plan, not firing");
        assert_eq!(log[1].round, 1);
    }
}
