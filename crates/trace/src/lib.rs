//! # `lowband-trace` — zero-cost observability for the pipeline
//!
//! The paper's deliverable is a *measured* quantity — round counts on a
//! simulated network — so the reproduction needs to see **where** rounds
//! and wall-clock time go: compile vs. compress vs. link vs. run, and
//! within a run, which rounds are full and which computers are loaded.
//! This crate provides the instrumentation substrate the rest of the
//! workspace threads through its hot paths:
//!
//! * [`Tracer`] — a **monomorphized** trait (no `dyn`, no `Box`): span
//!   enter/exit, named counters, fixed-bucket histograms, and two
//!   structured events the executors emit ([`Tracer::round`] per
//!   communication round, [`Tracer::node_loads`] per run);
//! * [`NoopTracer`] — the default sink. Every method is an empty
//!   `#[inline(always)]` body and [`Tracer::ENABLED`] is `false`, so
//!   instrumented code compiles to exactly the uninstrumented machine
//!   code: sites guard argument *gathering* (e.g. `Instant::now()`)
//!   behind `if T::ENABLED` and the constant folds the branch away;
//! * [`MetricsRegistry`] — named counters + log₂-bucket histograms +
//!   span timings, snapshot-able to JSON (see [`json`], serde-free).
//!
//! The second-generation layer (DESIGN.md §13) adds:
//!
//! * [`FlightRecorder`] — a fixed-capacity ring of recent spans/rounds
//!   with an overflow drop counter, rendered as Chrome `trace_event` JSON
//!   (loadable in `chrome://tracing` / Perfetto) and dumpable as a
//!   post-mortem into `results/postmortem/` when a run dies; it is the
//!   crate's one Chrome trace writer;
//! * [`percentile`] — p50/p95/p99/p999 surfaces from the log₂-bucket
//!   [`Histogram`]s (documented < 2× bucket-bound error) and an exact
//!   small-N [`Reservoir`], the `percentiles` section of every artifact;
//! * [`baseline`] — the committed-probe perf-regression gate behind
//!   `bin/perfgate` and `results/baseline.json`.
//!
//! Sinks compose: `(&mut metrics, &mut recorder)` is itself a [`Tracer`].

#![forbid(unsafe_code)]

pub mod baseline;
pub mod flight;
pub mod json;
pub mod metrics;
pub mod percentile;

pub use baseline::{GateResult, Probe};
pub use flight::FlightRecorder;
pub use json::Json;
pub use metrics::{Histogram, MetricsRegistry};
pub use percentile::Reservoir;

/// One communication round as observed by an executor.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RoundEvent {
    /// Round index within the run, starting at 0.
    pub index: u64,
    /// Messages delivered in this round.
    pub messages: u64,
    /// Local ops executed since the previous round (the free compute
    /// slots preceding this round).
    pub local_ops: u64,
    /// Wall-clock nanoseconds spent simulating the round.
    pub nanos: u64,
}

/// A sink for instrumentation events, monomorphized into the callers.
///
/// Implementations are cheap mutable sinks; the executors take `&mut T`
/// so a single sink can observe a whole pipeline. Call sites must guard
/// any *expensive argument gathering* (clock reads, per-node vectors)
/// behind `if T::ENABLED`; plain calls need no guard — an empty inlined
/// body disappears entirely.
pub trait Tracer {
    /// `false` only for sinks that ignore every event (the no-op sink):
    /// lets instrumentation sites skip even the cost of *computing* the
    /// event payloads.
    const ENABLED: bool = true;

    /// Enter a named phase span. Spans nest; `name` is a static phase
    /// label (`"compile"`, `"link"`, `"run"`, …).
    fn span_enter(&mut self, name: &'static str);

    /// Exit the innermost span. `name` must match the matching
    /// [`Tracer::span_enter`] (checked by debug sinks, trusted here).
    fn span_exit(&mut self, name: &'static str);

    /// Add `delta` to the named monotonic counter.
    fn counter(&mut self, name: &'static str, delta: u64);

    /// Record one observation of `value` into the named histogram.
    fn histogram(&mut self, name: &'static str, value: u64);

    /// One communication round. The default decomposes into counters and
    /// histograms so aggregate sinks need no special handling.
    fn round(&mut self, event: RoundEvent) {
        self.counter("run.rounds", 1);
        self.counter("run.messages", event.messages);
        self.histogram("run.round_messages", event.messages);
        self.histogram("run.round_nanos", event.nanos);
        self.histogram("run.round_local_ops", event.local_ops);
    }

    /// Per-node total send/receive load of one finished run. The default
    /// feeds two histograms, so min/mean/max per-node load come for free.
    fn node_loads(&mut self, sends: &[u64], recvs: &[u64]) {
        for &s in sends {
            self.histogram("run.node_sends", s);
        }
        for &r in recvs {
            self.histogram("run.node_recvs", r);
        }
    }

    /// One fault-layer event observed by a fault-guarded executor run:
    /// `counter` names the event (`"fault.injected.drop"`,
    /// `"fault.injected.corrupt"`, `"fault.injected.crash"`,
    /// `"fault.detected"`, `"fault.recovered"`), `round` is the global
    /// round index it occurred at. The default decomposes into the named
    /// counter plus a `fault.round` histogram, so aggregate sinks need no
    /// special handling.
    fn fault(&mut self, counter: &'static str, round: u64) {
        self.counter(counter, 1);
        self.histogram("fault.round", round);
    }
}

/// The zero-cost sink: every method is an empty inlined body and
/// [`Tracer::ENABLED`] is `false`, so instrumented hot loops compile to
/// the same machine code as before instrumentation.
#[derive(Clone, Copy, Default, Debug)]
pub struct NoopTracer;

impl Tracer for NoopTracer {
    const ENABLED: bool = false;

    #[inline(always)]
    fn span_enter(&mut self, _name: &'static str) {}

    #[inline(always)]
    fn span_exit(&mut self, _name: &'static str) {}

    #[inline(always)]
    fn counter(&mut self, _name: &'static str, _delta: u64) {}

    #[inline(always)]
    fn histogram(&mut self, _name: &'static str, _value: u64) {}

    #[inline(always)]
    fn round(&mut self, _event: RoundEvent) {}

    #[inline(always)]
    fn node_loads(&mut self, _sends: &[u64], _recvs: &[u64]) {}

    #[inline(always)]
    fn fault(&mut self, _counter: &'static str, _round: u64) {}
}

/// `&mut T` forwards, so callers can lend a sink down the pipeline.
impl<T: Tracer + ?Sized> Tracer for &mut T {
    const ENABLED: bool = true;

    #[inline]
    fn span_enter(&mut self, name: &'static str) {
        (**self).span_enter(name);
    }

    #[inline]
    fn span_exit(&mut self, name: &'static str) {
        (**self).span_exit(name);
    }

    #[inline]
    fn counter(&mut self, name: &'static str, delta: u64) {
        (**self).counter(name, delta);
    }

    #[inline]
    fn histogram(&mut self, name: &'static str, value: u64) {
        (**self).histogram(name, value);
    }

    #[inline]
    fn round(&mut self, event: RoundEvent) {
        (**self).round(event);
    }

    #[inline]
    fn node_loads(&mut self, sends: &[u64], recvs: &[u64]) {
        (**self).node_loads(sends, recvs);
    }

    #[inline]
    fn fault(&mut self, counter: &'static str, round: u64) {
        (**self).fault(counter, round);
    }
}

/// A pair of sinks receives every event in order — e.g. a
/// [`MetricsRegistry`] and a [`FlightRecorder`] observing one run.
impl<A: Tracer, B: Tracer> Tracer for (A, B) {
    const ENABLED: bool = A::ENABLED || B::ENABLED;

    #[inline]
    fn span_enter(&mut self, name: &'static str) {
        self.0.span_enter(name);
        self.1.span_enter(name);
    }

    #[inline]
    fn span_exit(&mut self, name: &'static str) {
        self.0.span_exit(name);
        self.1.span_exit(name);
    }

    #[inline]
    fn counter(&mut self, name: &'static str, delta: u64) {
        self.0.counter(name, delta);
        self.1.counter(name, delta);
    }

    #[inline]
    fn histogram(&mut self, name: &'static str, value: u64) {
        self.0.histogram(name, value);
        self.1.histogram(name, value);
    }

    #[inline]
    fn round(&mut self, event: RoundEvent) {
        self.0.round(event);
        self.1.round(event);
    }

    #[inline]
    fn node_loads(&mut self, sends: &[u64], recvs: &[u64]) {
        self.0.node_loads(sends, recvs);
        self.1.node_loads(sends, recvs);
    }

    #[inline]
    fn fault(&mut self, counter: &'static str, round: u64) {
        self.0.fault(counter, round);
        self.1.fault(counter, round);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_is_statically_disabled() {
        const {
            assert!(!NoopTracer::ENABLED);
            assert!(<&mut MetricsRegistry as Tracer>::ENABLED);
            assert!(<(NoopTracer, MetricsRegistry) as Tracer>::ENABLED);
            assert!(!<(NoopTracer, NoopTracer) as Tracer>::ENABLED);
        }
    }

    #[test]
    fn pair_sink_receives_both() {
        let mut pair = (MetricsRegistry::new(), MetricsRegistry::new());
        pair.counter("x", 2);
        pair.round(RoundEvent {
            index: 0,
            messages: 3,
            local_ops: 1,
            nanos: 10,
        });
        assert_eq!(pair.0.counter_value("x"), Some(2));
        assert_eq!(pair.1.counter_value("run.messages"), Some(3));
    }

    #[test]
    fn fault_decomposes_into_counter_and_histogram() {
        let mut m = MetricsRegistry::new();
        m.fault("fault.injected.drop", 3);
        m.fault("fault.injected.drop", 9);
        m.fault("fault.detected", 9);
        assert_eq!(m.counter_value("fault.injected.drop"), Some(2));
        assert_eq!(m.counter_value("fault.detected"), Some(1));
        let h = m.histogram_stats("fault.round").unwrap();
        assert_eq!(h.count, 3);
        assert_eq!(h.max, 9);
    }

    #[test]
    fn default_round_decomposition_feeds_counters() {
        let mut m = MetricsRegistry::new();
        for i in 0..4u64 {
            m.round(RoundEvent {
                index: i,
                messages: i + 1,
                local_ops: 0,
                nanos: 5,
            });
        }
        assert_eq!(m.counter_value("run.rounds"), Some(4));
        assert_eq!(m.counter_value("run.messages"), Some(1 + 2 + 3 + 4));
        let h = m.histogram_stats("run.round_messages").unwrap();
        assert_eq!(h.count, 4);
        assert_eq!(h.max, 4);
    }
}
