//! Chaos soak: supervised execution under escalating fault storms (E18).
//!
//! ```text
//! cargo run -p lowband-bench --release --bin chaos [-- --json] [--requests N] [--seed K]
//! ```
//!
//! Drives a [`lowband_serve::Supervisor`] through an escalating
//! fault-intensity ladder (clean → light → storm → max, mixing drops,
//! corruptions and crashes) × three structure classes (scattered, block,
//! mixed) × both ladder entry rungs (packed, linked), plus a
//! tight-deadline slice that forces `ServeError::DeadlineExceeded` and a
//! breaker/quarantine slice that forces open → half-open → closed
//! transitions and a quarantine → probe → readmission round trip.
//!
//! Gates, asserted here and re-checked by `validate_results`:
//!
//! * **survival rate exactly 1.0** — every request ends in a verified
//!   report or a typed error; a panic or abort would stop the soak;
//! * **served rate ≥ 0.9** — refusals come only from the breaker and
//!   tight-deadline slices;
//! * **zero incorrect products** — every `Ok` report verified, whatever
//!   rung it landed on.
//!
//! With `--json`, additionally writes `results/chaos.json` with the
//! sections `survival`, `rungs`, `breaker`, `deadline`, `fault_kinds`
//! plus the standard `percentiles` + `budget` envelope (DESIGN.md §14).

use std::time::Duration;

use lowband_bench::report::{
    budget_section, percentiles_section, BudgetEntry, Json, JsonReport, DEFAULT_TOLERANCE,
};
use lowband_bench::{block_workload, mixed_workload, scattered_workload, TablePrinter};
use lowband_core::budget::entries_for_report;
use lowband_core::{run_algorithm_traced, Algorithm, Instance, RetryPolicy, Rung};
use lowband_matrix::Fp;
use lowband_model::trace::MetricsRegistry;
use lowband_model::FaultSpec;
use lowband_serve::{
    BreakerState, ServeError, StructureKey, SupervisedOutcome, Supervisor, SupervisorConfig,
};

/// The escalating intensity ladder: per-round drop/corrupt/crash rates.
const INTENSITIES: &[(&str, f64, f64, f64)] = &[
    ("clean", 0.0, 0.0, 0.0),
    ("light", 0.02, 0.02, 0.01),
    ("storm", 0.15, 0.15, 0.05),
    ("max", 0.60, 0.60, 0.25),
];

/// Everything the gates and the artifact sections are computed from.
#[derive(Default)]
struct Tally {
    issued: u64,
    completed: u64,
    served: u64,
    refused: u64,
    incorrect: u64,
    rungs: [u64; 3],
    descents: u64,
    deadline_misses: u64,
    breaker_rejected: u64,
    quarantine_served: u64,
    drops: u64,
    corruptions: u64,
    crashes: u64,
}

impl Tally {
    /// Fold one supervised outcome into the running totals.
    fn absorb(&mut self, outcome: &SupervisedOutcome) {
        self.completed += 1;
        self.descents += outcome.descents as u64;
        if outcome.deadline_missed {
            self.deadline_misses += 1;
        }
        if outcome.breaker_rejected {
            self.breaker_rejected += 1;
        }
        if outcome.quarantined {
            self.quarantine_served += 1;
        }
        for f in &outcome.fault_log {
            match f.kind {
                lowband_model::faults::FaultKind::Drop => self.drops += 1,
                lowband_model::faults::FaultKind::Corrupt => self.corruptions += 1,
                lowband_model::faults::FaultKind::Crash => self.crashes += 1,
            }
        }
        match &outcome.result {
            Ok(report) => {
                self.served += 1;
                self.rungs[rung_index(report.rung)] += 1;
                if !report.correct {
                    self.incorrect += 1;
                }
            }
            Err(_) => self.refused += 1,
        }
    }

    fn survived_rate(&self) -> f64 {
        if self.issued == 0 {
            return 0.0;
        }
        self.completed as f64 / self.issued as f64
    }

    fn served_rate(&self) -> f64 {
        if self.issued == 0 {
            return 0.0;
        }
        self.served as f64 / self.issued as f64
    }
}

fn rung_index(rung: Rung) -> usize {
    match rung {
        Rung::Packed => 0,
        Rung::Linked => 1,
        Rung::Reference => 2,
    }
}

fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// The three structure classes of the soak.
fn structures(seed: u64) -> Vec<(&'static str, Instance)> {
    vec![
        ("scattered", scattered_workload(40, 4, seed)),
        ("block", block_workload(8, 5)),
        ("mixed", mixed_workload(8, 5, seed ^ 0x5EED)),
    ]
}

fn soak_config(start_rung: Rung) -> SupervisorConfig {
    SupervisorConfig {
        cache_capacity: 8,
        retry: RetryPolicy {
            checkpoint_every: 8,
            max_attempts: 4,
            base_round_budget: 1 << 12,
        },
        // The soak measures the ladder, not admission control: the breaker
        // never trips (its slice runs separately), quarantine stays live.
        breaker_threshold: u32::MAX,
        quarantine_threshold: 6,
        start_rung,
        ..SupervisorConfig::default()
    }
}

fn main() {
    let requests: usize = arg_value("--requests")
        .and_then(|v| v.parse().ok())
        .unwrap_or(12)
        .max(1);
    let seed: u64 = arg_value("--seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0xC4A0);
    let algorithm = Algorithm::BoundedTriangles;

    let mut artifact = JsonReport::new("chaos");
    let mut metrics = MetricsRegistry::new();
    let mut tally = Tally::default();
    let mut budget: Vec<BudgetEntry> = Vec::new();

    // Budget rows come from one verified fault-free run per structure
    // class — replays and degraded rungs never inflate the clean bound.
    for (name, inst) in &structures(seed) {
        let clean = run_algorithm_traced::<Fp, _>(inst, algorithm, seed, false, &mut metrics)
            .expect("fault-free baseline");
        assert!(clean.correct, "baseline must verify");
        budget.extend(entries_for_report(
            &format!("chaos clean {name}"),
            inst,
            algorithm,
            &clean,
        ));
    }

    println!("# chaos — supervised soak, {requests} request(s) per scenario, seed {seed:#x}\n");
    let t = TablePrinter::new(
        &[
            "structure",
            "entry",
            "intensity",
            "served",
            "pk/ln/ref",
            "descents",
            "quarantined",
        ],
        &[10, 7, 9, 7, 13, 9, 11],
    );

    for (sname, inst) in &structures(seed) {
        for entry in [Rung::Packed, Rung::Linked] {
            let mut sup = Supervisor::new(soak_config(entry));
            for (iname, drop_rate, corrupt_rate, crash_rate) in INTENSITIES {
                let before = (
                    tally.served,
                    tally.rungs,
                    tally.descents,
                    tally.quarantine_served,
                );
                for req in 0..requests {
                    let spec = FaultSpec {
                        seed: seed
                            ^ (req as u64).wrapping_mul(0x9E37_79B9)
                            ^ (*drop_rate * 1e3) as u64,
                        drop_rate: *drop_rate,
                        corrupt_rate: *corrupt_rate,
                        crash_rate: *crash_rate,
                    };
                    tally.issued += 1;
                    let outcome = sup.run_supervised_traced::<Fp, _>(
                        inst,
                        algorithm,
                        seed.wrapping_add(req as u64),
                        false,
                        &spec,
                        None,
                        &mut metrics,
                    );
                    tally.absorb(&outcome);
                }
                let rungs: Vec<u64> = (0..3).map(|i| tally.rungs[i] - before.1[i]).collect();
                t.row(&[
                    sname.to_string(),
                    entry.as_str().to_string(),
                    iname.to_string(),
                    format!("{}/{requests}", tally.served - before.0),
                    format!("{}/{}/{}", rungs[0], rungs[1], rungs[2]),
                    (tally.descents - before.2).to_string(),
                    (tally.quarantine_served - before.3).to_string(),
                ]);
            }
        }
    }

    let breaker = breaker_quarantine_slice(&mut tally, seed, algorithm, &mut metrics);
    let deadline = deadline_slice(&mut tally, seed, algorithm, &mut metrics);

    let survived = tally.survived_rate();
    let served = tally.served_rate();
    println!(
        "\nsoak totals: {} issued, {} served, {} refused, {} incorrect — survival {survived:.3}, served {served:.3}",
        tally.issued, tally.served, tally.refused, tally.incorrect
    );
    println!(
        "fault kinds injected: {} drops, {} corruptions, {} crashes",
        tally.drops, tally.corruptions, tally.crashes
    );

    artifact.section(
        "survival",
        Json::obj()
            .set("issued", tally.issued)
            .set("completed", tally.completed)
            .set("served", tally.served)
            .set("refused", tally.refused)
            .set("incorrect", tally.incorrect)
            .set("survived_rate", survived)
            .set("served_rate", served),
    );
    artifact.section(
        "rungs",
        Json::obj()
            .set("packed", tally.rungs[0])
            .set("linked", tally.rungs[1])
            .set("reference", tally.rungs[2])
            .set("descents", tally.descents)
            .set("quarantine_served", tally.quarantine_served),
    );
    artifact.section("breaker", breaker);
    artifact.section("deadline", deadline);
    artifact.section(
        "fault_kinds",
        Json::obj()
            .set("drops", tally.drops)
            .set("corruptions", tally.corruptions)
            .set("crashes", tally.crashes)
            .set("total", tally.drops + tally.corruptions + tally.crashes),
    );
    artifact.section("percentiles", percentiles_section(&metrics));
    artifact.section("budget", budget_section(&budget, DEFAULT_TOLERANCE));
    artifact.finish();

    // The gates: the binary is its own regression check.
    let mut failed = false;
    if survived < 1.0 {
        eprintln!("GATE FAILED: survival rate {survived} < 1.0");
        failed = true;
    }
    if served < 0.9 {
        eprintln!("GATE FAILED: served rate {served} < 0.9");
        failed = true;
    }
    if tally.incorrect > 0 {
        eprintln!(
            "GATE FAILED: {} served product(s) failed to verify",
            tally.incorrect
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!("\nall gates passed: zero aborts, zero incorrect products.");
}

/// Trip a breaker organically, observe open → half-open → closed, and run
/// the quarantine → probe → readmission round trip on the same structure.
fn breaker_quarantine_slice(
    tally: &mut Tally,
    seed: u64,
    algorithm: Algorithm,
    metrics: &mut MetricsRegistry,
) -> Json {
    println!("\n# chaos — breaker/quarantine slice\n");
    let inst = scattered_workload(40, 4, seed ^ 0xB4EA);
    let key = StructureKey::of(&inst, algorithm, false);
    let mut sup = Supervisor::new(SupervisorConfig {
        retry: RetryPolicy {
            checkpoint_every: 8,
            max_attempts: 2,
            base_round_budget: 256,
        },
        breaker_threshold: 2,
        breaker_cooldown: 2,
        quarantine_threshold: 2,
        ..SupervisorConfig::default()
    });
    let storm = FaultSpec {
        seed: seed ^ 0xFA11,
        drop_rate: 0.8,
        corrupt_rate: 0.8,
        crash_rate: 0.3,
    };
    let clean = FaultSpec::none(1);

    // Storm requests until the breaker trips (threshold 2 ⇒ normally two).
    let mut storm_requests = 0u64;
    while sup
        .breaker(&key)
        .is_none_or(|b| b.state() != BreakerState::Open)
        && storm_requests < 8
    {
        tally.issued += 1;
        let outcome = sup.run_supervised_traced::<Fp, _>(
            &inst,
            algorithm,
            seed.wrapping_add(storm_requests),
            false,
            &FaultSpec {
                seed: storm.seed.wrapping_add(storm_requests),
                ..storm
            },
            None,
            metrics,
        );
        tally.absorb(&outcome);
        storm_requests += 1;
    }
    let opened_after_storm = sup
        .breaker(&key)
        .is_some_and(|b| b.state() == BreakerState::Open);
    println!("breaker opened after {storm_requests} storm request(s): {opened_after_storm}");

    // While open, a request is refused — that is the rejected count.
    tally.issued += 1;
    let refused =
        sup.run_supervised_traced::<Fp, _>(&inst, algorithm, seed, false, &clean, None, metrics);
    let was_refused = matches!(refused.result, Err(ServeError::BreakerOpen { .. }));
    tally.absorb(&refused);
    println!("open-state refusal observed: {was_refused}");

    // The same storm quarantined the plan; readmit via clean lint + probe.
    let was_quarantined = sup.cache().is_quarantined_key(&key);
    let readmitted = if was_quarantined {
        sup.cache_mut()
            .try_readmit::<Fp>(&inst, algorithm, false, seed ^ 0x9406)
            .is_ok()
    } else {
        false
    };
    println!("quarantined: {was_quarantined}, readmitted via probe: {readmitted}");

    // Cooldown elapsed: the next request is the half-open probe; clean, so
    // it closes the breaker.
    tally.issued += 1;
    let probe =
        sup.run_supervised_traced::<Fp, _>(&inst, algorithm, seed, false, &clean, None, metrics);
    let probe_served = probe.result.is_ok();
    tally.absorb(&probe);
    let closed = sup
        .breaker(&key)
        .is_some_and(|b| b.state() == BreakerState::Closed);
    println!("half-open probe served: {probe_served}, breaker closed: {closed}");

    let b = sup.breaker(&key).expect("breaker exists");
    Json::obj()
        .set("opened", b.opened)
        .set("half_opened", b.half_opened)
        .set("closed_from_probe", b.closed_from_probe)
        .set("rejected", b.rejected)
        .set("storm_requests", storm_requests)
        .set("quarantined", u64::from(was_quarantined))
        .set("readmitted", u64::from(readmitted))
}

/// Force `DeadlineExceeded` with a tight budget + storm (the inter-rung
/// backoff charges the virtual clock), and show clean requests under a
/// generous budget still serve.
fn deadline_slice(
    tally: &mut Tally,
    seed: u64,
    algorithm: Algorithm,
    metrics: &mut MetricsRegistry,
) -> Json {
    println!("\n# chaos — tight-deadline slice\n");
    let inst = scattered_workload(40, 4, seed ^ 0xDEAD);
    let storm = FaultSpec {
        seed: seed ^ 0x7160,
        drop_rate: 0.8,
        corrupt_rate: 0.8,
        crash_rate: 0.3,
    };
    let tight_budget = Duration::from_micros(20);
    let mut tight = Supervisor::new(SupervisorConfig {
        deadline: Some(tight_budget),
        backoff_base: Duration::from_micros(500),
        backoff_cap: Duration::from_millis(5),
        retry: RetryPolicy {
            checkpoint_every: 8,
            max_attempts: 2,
            base_round_budget: 256,
        },
        breaker_threshold: u32::MAX,
        quarantine_threshold: u32::MAX,
        ..SupervisorConfig::default()
    });
    let mut misses = 0u64;
    let tight_requests = 3u64;
    for req in 0..tight_requests {
        tally.issued += 1;
        let outcome = tight.run_supervised_traced::<Fp, _>(
            &inst,
            algorithm,
            seed.wrapping_add(req),
            false,
            &FaultSpec {
                seed: storm.seed.wrapping_add(req),
                ..storm
            },
            None,
            metrics,
        );
        if outcome.deadline_missed {
            misses += 1;
            assert!(
                matches!(outcome.result, Err(ServeError::DeadlineExceeded { .. })),
                "a missed deadline must surface as the typed error"
            );
        }
        tally.absorb(&outcome);
    }
    println!("tight budget ({tight_budget:?}) under storm: {misses}/{tight_requests} missed");

    // Same structure, generous budget, no faults: all served.
    let mut generous = Supervisor::new(SupervisorConfig {
        deadline: Some(Duration::from_secs(30)),
        breaker_threshold: u32::MAX,
        quarantine_threshold: u32::MAX,
        ..SupervisorConfig::default()
    });
    let mut served_within = 0u64;
    let generous_requests = 2u64;
    for req in 0..generous_requests {
        tally.issued += 1;
        let outcome = generous.run_supervised_traced::<Fp, _>(
            &inst,
            algorithm,
            seed.wrapping_add(req),
            false,
            &FaultSpec::none(1),
            None,
            metrics,
        );
        if outcome.result.is_ok() {
            served_within += 1;
        }
        tally.absorb(&outcome);
    }
    println!("generous budget, no faults: {served_within}/{generous_requests} served");

    Json::obj()
        .set("tight_budget_us", tight_budget.as_micros() as u64)
        .set("tight_requests", tight_requests)
        .set("misses", misses)
        .set("generous_requests", generous_requests)
        .set("served_within", served_within)
}
