//! Supervision primitives for resilient execution: request deadlines,
//! decorrelated-jitter backoff, the graceful-degradation ladder, and the
//! typed partial-progress errors the supervised runner surfaces.
//!
//! These are the `core`-side building blocks of the serving layer's
//! `Supervisor` (`lowband-serve::supervise`): everything here is
//! deterministic under a seed (the backoff RNG is the vendored
//! `lowband-rng`, and delays are *virtual* — accounted against the
//! [`Deadline`] without sleeping — so supervised fault logs and deadline
//! decisions are bit-identical across runs and machines).

use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

use crate::runner::ResilientReport;
use lowband_model::ModelError;

/// A per-request wall-clock budget, threaded through the retry loop of
/// [`run_resilient_plan_traced`](crate::runner::run_resilient_plan_traced)
/// and the supervisor's backoff before its reference fallback.
///
/// Elapsed time is the sum of two clocks: the real monotonic clock since
/// construction, and a *virtual* component advanced by [`Backoff`] delays
/// (and by tests that need deterministic expiry). A deadline with no
/// budget ([`Deadline::none`]) never expires.
#[derive(Clone, Debug)]
pub struct Deadline {
    started: Instant,
    budget: Option<Duration>,
    virtual_elapsed: Duration,
}

impl Deadline {
    /// A deadline that never expires.
    pub fn none() -> Deadline {
        Deadline {
            started: Instant::now(),
            budget: None,
            virtual_elapsed: Duration::ZERO,
        }
    }

    /// A deadline `budget` from now.
    pub fn within(budget: Duration) -> Deadline {
        Deadline {
            started: Instant::now(),
            budget: Some(budget),
            virtual_elapsed: Duration::ZERO,
        }
    }

    /// Advance the virtual clock (used by [`Backoff`] delays so
    /// backoff consumes budget without sleeping, and by deterministic
    /// tests). Saturates rather than panicking when extreme backoff
    /// delays (cap near `u64::MAX` ns) accumulate past `Duration::MAX`.
    pub fn advance(&mut self, d: Duration) {
        self.virtual_elapsed = self.virtual_elapsed.saturating_add(d);
    }

    /// Total elapsed: real monotonic time plus the virtual component.
    /// Saturates at `Duration::MAX` alongside [`Deadline::advance`].
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed().saturating_add(self.virtual_elapsed)
    }

    /// Whether the budget (if any) is spent.
    pub fn expired(&self) -> bool {
        match self.budget {
            Some(budget) => self.elapsed() >= budget,
            None => false,
        }
    }

    /// Budget remaining, or `None` for an unlimited deadline. Saturates
    /// at zero once expired.
    pub fn remaining(&self) -> Option<Duration> {
        self.budget.map(|b| b.saturating_sub(self.elapsed()))
    }
}

/// Decorrelated-jitter backoff between retry attempts:
/// `delay = min(cap, uniform(base, prev × 3))`, seeded via the vendored
/// `lowband-rng` so the delay sequence is deterministic.
///
/// Delays are **virtual**: [`Backoff::pause`] advances the
/// [`Deadline`]'s virtual clock instead of sleeping, which keeps
/// supervised runs fast and bit-reproducible.
#[derive(Clone, Debug)]
pub struct Backoff {
    base: Duration,
    cap: Duration,
    prev: Duration,
    rng: rand::rngs::StdRng,
}

impl Backoff {
    /// A virtual (non-sleeping) decorrelated-jitter backoff.
    pub fn new(seed: u64, base: Duration, cap: Duration) -> Backoff {
        Backoff {
            base,
            cap,
            prev: base,
            rng: rand::rngs::StdRng::seed_from_u64(seed),
        }
    }

    /// Draw the next decorrelated-jitter delay without applying it.
    ///
    /// Every step of the arithmetic saturates at `u64::MAX` nanoseconds:
    /// with `cap` (or `base`, or an accumulated `prev`) near the top of
    /// the range the step must clamp — never wrap into a tiny delay,
    /// panic on an empty sample range, or truncate a `u128` nanosecond
    /// count. The drawn delay always lands in `[min(base, cap), cap]`.
    pub fn next_delay(&mut self) -> Duration {
        let nanos = |d: Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        let cap = nanos(self.cap);
        let lo = nanos(self.base).min(cap);
        let hi = nanos(self.prev).saturating_mul(3).min(cap);
        let drawn = if hi > lo {
            self.rng.gen_range(lo..=hi)
        } else {
            lo
        };
        let d = Duration::from_nanos(drawn);
        self.prev = d;
        d
    }

    /// Draw the next delay and charge it to `deadline`'s virtual clock.
    /// Returns the delay.
    pub fn pause(&mut self, deadline: &mut Deadline) -> Duration {
        let d = self.next_delay();
        deadline.advance(d);
        d
    }
}

/// The graceful-degradation ladder: where a supervised request executed.
/// Every request enters at [`Rung::Linked`]; a supervised failure there
/// descends to the bottom rung ([`Rung::Reference`] — the sequential
/// reference product computed locally), which cannot fail.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Rung {
    /// The linked schedule on the slot-store executor: one lane
    /// (`LinkedMachine`) under checkpointed retry (`run_resilient`-style
    /// windows) for a supervised request, lane planes for a batch.
    Linked,
    /// `reference_multiply_into` computed locally: no schedule, no
    /// network, always succeeds.
    Reference,
}

impl Rung {
    /// Stable lowercase name (JSON section keys, counters).
    pub fn as_str(self) -> &'static str {
        match self {
            Rung::Linked => "linked",
            Rung::Reference => "reference",
        }
    }
}

/// How a supervised resilient run failed. Unlike the plain
/// [`ModelError`] surface of `run_resilient`, deadline expiry and retry
/// exhaustion carry the **partial** [`ResilientReport`] accumulated up to
/// the failure (its `report.correct` is `false` and its stats cover the
/// rounds actually executed), so callers can log real progress instead of
/// a bare error.
#[derive(Clone, PartialEq, Debug)]
pub enum ResilientError {
    /// The [`Deadline`] expired before the run completed.
    DeadlineExceeded {
        /// Progress at expiry.
        partial: Box<ResilientReport>,
    },
    /// The [`RetryPolicy`](crate::runner::RetryPolicy) gave up — too many
    /// failures or replay budget overrun — on `error`.
    RetriesExhausted {
        /// The fault that exhausted the policy.
        error: ModelError,
        /// Progress at exhaustion.
        partial: Box<ResilientReport>,
    },
    /// An error the retry loop does not handle (setup errors, unsupported
    /// operations, …).
    Fatal {
        /// The underlying error.
        error: ModelError,
    },
}

impl std::fmt::Display for ResilientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResilientError::DeadlineExceeded { partial } => write!(
                f,
                "deadline exceeded after {} rounds ({} failures)",
                partial.stats.rounds, partial.failures
            ),
            ResilientError::RetriesExhausted { error, partial } => write!(
                f,
                "retries exhausted after {} failures: {error:?}",
                partial.failures
            ),
            ResilientError::Fatal { error } => write!(f, "fatal: {error:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_deadline_never_expires() {
        let d = Deadline::none();
        assert!(!d.expired());
        assert_eq!(d.remaining(), None);
    }

    #[test]
    fn virtual_advance_expires_deadline() {
        let mut d = Deadline::within(Duration::from_secs(3600));
        assert!(!d.expired());
        d.advance(Duration::from_secs(3600));
        assert!(d.expired());
        assert_eq!(d.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn backoff_is_deterministic_and_decorrelated() {
        let base = Duration::from_millis(1);
        let cap = Duration::from_millis(100);
        let mut x = Backoff::new(9, base, cap);
        let mut y = Backoff::new(9, base, cap);
        let xs: Vec<Duration> = (0..16).map(|_| x.next_delay()).collect();
        let ys: Vec<Duration> = (0..16).map(|_| y.next_delay()).collect();
        assert_eq!(xs, ys, "same seed must give the same delay sequence");
        for d in &xs {
            assert!(*d >= base && *d <= cap, "delay {d:?} escaped [base, cap]");
        }
        for w in xs.windows(2) {
            assert!(w[1] <= w[0] * 3, "{:?} grew past 3 × {:?}", w[1], w[0]);
        }
        assert!(
            xs.windows(2).any(|w| w[0] != w[1]),
            "jittered delays must vary"
        );
    }

    #[test]
    fn virtual_pause_charges_the_deadline() {
        let mut d = Deadline::within(Duration::from_secs(3600));
        let mut b = Backoff::new(1, Duration::from_secs(1800), Duration::from_secs(7200));
        let charged: Duration = (0..3).map(|_| b.pause(&mut d)).sum();
        // Three delays of ≥ 1800 s each against a 3600 s budget.
        assert!(d.expired());
        assert!(charged >= Duration::from_secs(3600));
    }

    #[test]
    fn ladder_descends_to_reference() {
        assert_eq!(Rung::Linked.as_str(), "linked");
        assert_eq!(Rung::Reference.as_str(), "reference");
    }
}
