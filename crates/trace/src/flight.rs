//! The flight recorder: a fixed-capacity ring of recent trace events,
//! cheap enough to leave on in batch serving, dumpable as a post-mortem
//! Chrome/Perfetto trace when a run dies.
//!
//! A [`FlightRecorder`] is a [`Tracer`] sink that keeps only the **last
//! `capacity` events** — span enters/exits, [`RoundEvent`]s, and fault
//! events — each stamped with microseconds
//! since the recorder was created. Aggregate events (counters,
//! histograms, node loads) are deliberately ignored: those belong to a
//! [`crate::MetricsRegistry`], which composes alongside via the `(A, B)`
//! tracer pair. Overflow overwrites the oldest event and bumps a drop
//! counter, so a recorder attached to a week of serving still costs O(1)
//! memory and the dump says exactly how much history it lost.
//!
//! On `ModelError::Corruption`/`NodeCrashed` or a lint rejection the
//! owning layer calls [`FlightRecorder::dump_postmortem`], which writes
//! `results/postmortem/<label>-<seq>.trace.json`: a valid Chrome
//! `trace_event` JSON object (loadable in `chrome://tracing` / Perfetto
//! as-is) whose extra `otherData` key carries the abort reason, the drop
//! counter, and any caller-supplied metrics snapshot.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::json::Json;
use crate::{RoundEvent, Tracer};

/// One recorded event: a payload plus microseconds since recorder birth.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlightEvent {
    /// Microseconds since the recorder was created.
    pub micros: u64,
    /// What happened.
    pub kind: FlightKind,
}

/// The event payloads the ring retains.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FlightKind {
    /// A span opened.
    SpanEnter(&'static str),
    /// A span closed.
    SpanExit(&'static str),
    /// One communication round.
    Round(RoundEvent),
    /// A fault-layer event (`fault.injected.*`, `fault.detected`, …) at a
    /// global round index.
    Fault(&'static str, u64),
}

/// Monotonic dump sequence shared by every recorder in the process, so
/// concurrent post-mortems never clobber each other's files.
static DUMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// The ring-buffer [`Tracer`] sink. See the module docs.
#[derive(Debug)]
pub struct FlightRecorder {
    epoch: Instant,
    ring: Vec<FlightEvent>,
    capacity: usize,
    /// Index of the oldest event once the ring has wrapped.
    head: usize,
    /// Events overwritten by ring overflow.
    dropped: u64,
}

impl FlightRecorder {
    /// A recorder retaining the last `capacity` events (floored at 1).
    pub fn new(capacity: usize) -> FlightRecorder {
        let capacity = capacity.max(1);
        FlightRecorder {
            epoch: Instant::now(),
            ring: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            dropped: 0,
        }
    }

    fn push(&mut self, kind: FlightKind) {
        let micros = self.epoch.elapsed().as_micros() as u64;
        let ev = FlightEvent { micros, kind };
        if self.ring.len() < self.capacity {
            self.ring.push(ev);
        } else {
            self.ring[self.head] = ev;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Events overwritten by ring overflow.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &FlightEvent> {
        let (newer, older) = self.ring.split_at(self.head);
        older.iter().chain(newer.iter())
    }

    /// The ring rendered as Chrome `trace_event` JSON:
    /// `{"traceEvents": [...], "displayTimeUnit": "ms", "otherData": {...}}`.
    ///
    /// Ring overflow can orphan span halves; orphans are repaired so the
    /// B/E stream always balances (required by strict trace viewers): an
    /// exit whose enter was overwritten becomes an instant event, and a
    /// still-open enter gets a synthetic exit at the last timestamp.
    /// `reason` and the drop counter land in `otherData`, plus every
    /// key of `extra` when it is an object (pass `Json::Null` for none).
    pub fn to_chrome_json(&self, reason: &str, extra: Json) -> Json {
        let mut events: Vec<Json> = Vec::with_capacity(self.ring.len() + 8);
        let mut open: Vec<(&'static str, u64)> = Vec::new();
        let mut last_ts = 0u64;
        for ev in self.events() {
            last_ts = last_ts.max(ev.micros);
            match &ev.kind {
                FlightKind::SpanEnter(name) => {
                    open.push((name, ev.micros));
                    events.push(chrome_event("B", name, ev.micros));
                }
                FlightKind::SpanExit(name) => {
                    if open.pop().is_some() {
                        events.push(chrome_event("E", name, ev.micros));
                    } else {
                        // The matching enter was overwritten by overflow:
                        // degrade to an instant so B/E still balance.
                        events.push(
                            chrome_instant(name, ev.micros)
                                .set("args", Json::obj().set("orphan_exit", true)),
                        );
                    }
                }
                FlightKind::Round(r) => {
                    events.push(
                        chrome_instant("round", ev.micros).set(
                            "args",
                            Json::obj()
                                .set("index", r.index)
                                .set("messages", r.messages)
                                .set("local_ops", r.local_ops)
                                .set("nanos", r.nanos),
                        ),
                    );
                }
                FlightKind::Fault(name, round) => {
                    events.push(
                        chrome_instant(name, ev.micros)
                            .set("args", Json::obj().set("round", *round)),
                    );
                }
            }
        }
        // Close spans still open at dump time (e.g. the run that died).
        while let Some((name, _)) = open.pop() {
            events.push(chrome_event("E", name, last_ts));
        }
        let mut other = Json::obj()
            .set("reason", reason)
            .set("recorded", self.ring.len() as u64)
            .set("capacity", self.capacity as u64)
            .set("dropped", self.dropped);
        if let Json::Obj(fields) = extra {
            for (k, v) in fields {
                other = other.set(&k, v);
            }
        }
        Json::obj()
            .set("traceEvents", Json::Arr(events))
            .set("displayTimeUnit", "ms")
            .set("otherData", other)
    }

    /// Write the post-mortem into [`postmortem_dir`] as
    /// `<label>-<seq>.trace.json` and return the path. `reason` and
    /// `extra` as in [`FlightRecorder::to_chrome_json`].
    pub fn dump_postmortem(
        &self,
        label: &str,
        reason: &str,
        extra: Json,
    ) -> std::io::Result<PathBuf> {
        let dir = postmortem_dir();
        std::fs::create_dir_all(&dir)?;
        let seq = DUMP_SEQ.fetch_add(1, Ordering::Relaxed);
        let path = dir.join(format!("{label}-{seq}.trace.json"));
        std::fs::write(&path, self.to_chrome_json(reason, extra).to_pretty())?;
        Ok(path)
    }
}

/// Where post-mortem dumps go: `<results dir>/postmortem/`, honoring the
/// same `LOWBAND_RESULTS_DIR` override as the artifact writers. A
/// subdirectory, deliberately: `validate_results` scans `results/*.json`
/// non-recursively, and dumps are diagnostics, not gated artifacts.
pub fn postmortem_dir() -> PathBuf {
    let base = std::env::var("LOWBAND_RESULTS_DIR").unwrap_or_else(|_| "results".to_string());
    Path::new(&base).join("postmortem")
}

fn chrome_event(phase: &str, name: &str, ts: u64) -> Json {
    Json::obj()
        .set("name", name)
        .set("cat", "lowband")
        .set("ph", phase)
        .set("pid", 0u64)
        .set("tid", 0u64)
        .set("ts", ts)
}

fn chrome_instant(name: &str, ts: u64) -> Json {
    // "i" = instant event; scope "t" (thread) keeps Perfetto happy.
    chrome_event("i", name, ts).set("s", "t")
}

impl Tracer for FlightRecorder {
    fn span_enter(&mut self, name: &'static str) {
        self.push(FlightKind::SpanEnter(name));
    }

    fn span_exit(&mut self, name: &'static str) {
        self.push(FlightKind::SpanExit(name));
    }

    #[inline]
    fn counter(&mut self, _name: &'static str, _delta: u64) {}

    #[inline]
    fn histogram(&mut self, _name: &'static str, _value: u64) {}

    fn round(&mut self, event: RoundEvent) {
        self.push(FlightKind::Round(event));
    }

    #[inline]
    fn node_loads(&mut self, _sends: &[u64], _recvs: &[u64]) {}

    fn fault(&mut self, counter: &'static str, round: u64) {
        self.push(FlightKind::Fault(counter, round));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn balanced(doc: &Json) -> bool {
        let Some(Json::Arr(events)) = doc.get("traceEvents") else {
            return false;
        };
        let mut depth = 0i64;
        for e in events {
            match e.get("ph").and_then(|p| p.as_str()) {
                Some("B") => depth += 1,
                Some("E") => {
                    depth -= 1;
                    if depth < 0 {
                        return false;
                    }
                }
                _ => {}
            }
        }
        depth == 0
    }

    #[test]
    fn ring_keeps_the_newest_events_and_counts_drops() {
        let mut r = FlightRecorder::new(4);
        for i in 0..10u64 {
            r.round(RoundEvent {
                index: i,
                messages: 1,
                local_ops: 0,
                nanos: 0,
            });
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.dropped(), 6);
        let kept: Vec<u64> = r
            .events()
            .map(|e| match e.kind {
                FlightKind::Round(ev) => ev.index,
                _ => panic!("only rounds recorded"),
            })
            .collect();
        assert_eq!(kept, vec![6, 7, 8, 9], "oldest-first, newest retained");
    }

    #[test]
    fn dump_balances_spans_cut_by_overflow() {
        let mut r = FlightRecorder::new(3);
        r.span_enter("compile");
        r.span_exit("compile");
        r.span_enter("run"); // overwritten by the next three events
        r.span_enter("verify");
        r.span_exit("verify");
        r.span_enter("open-at-dump");
        let doc = r.to_chrome_json("test", Json::Null);
        assert!(balanced(&doc), "B/E must balance: {}", doc.to_pretty());
        let text = doc.to_compact();
        let parsed = crate::json::parse(&text).unwrap();
        assert_eq!(
            parsed.get("otherData").unwrap().get("reason").unwrap(),
            &Json::Str("test".into())
        );
    }

    #[test]
    fn extra_object_lands_in_other_data() {
        let mut r = FlightRecorder::new(8);
        r.fault("fault.detected", 12);
        let doc = r.to_chrome_json(
            "corruption",
            Json::obj().set("metrics", Json::obj().set("x", 1u64)),
        );
        let other = doc.get("otherData").unwrap();
        assert!(other.get("metrics").unwrap().get("x").is_some());
        assert_eq!(other.get("dropped").unwrap().as_u64(), Some(0));
    }
}
