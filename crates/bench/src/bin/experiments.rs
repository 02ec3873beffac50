//! Supplementary experiments E6–E10 (see DESIGN.md §4): the per-lemma
//! round-count measurements backing EXPERIMENTS.md.
//!
//! ```text
//! cargo run -p lowband-bench --release --bin experiments [-- --json]
//! ```
//!
//! With `--json`, additionally writes `results/experiments.json`.

use lowband_bench::report::{
    budget_section, percentiles_section, Json, JsonReport, DEFAULT_TOLERANCE,
};
use lowband_bench::{
    bd_as_as_workload, block_workload, fit_exponent, lemma31_rounds, scattered_workload,
    us_as_gm_workload, TablePrinter,
};
use lowband_core::budget::{entries_for_observed, entries_for_report};
use lowband_core::optimizer::{schedule, Phase2, LAMBDA_SEMIRING};
use lowband_core::{compile_schedule, Algorithm, Instance, TriangleSet};
use lowband_matrix::{Fp, Support};
use lowband_model::trace::MetricsRegistry;

fn main() {
    let mut artifact = JsonReport::new("experiments");
    e6_lemma31_scaling(&mut artifact);
    e6b_prior_phase2_comparison(&mut artifact);
    e7_general_cases_shape(&mut artifact);
    e9_routing_gap(&mut artifact);
    e10_ablation_coloring(&mut artifact);
    e11_model_comparison(&mut artifact);
    e12_compression_ablation(&mut artifact);
    observability(&mut artifact);
    artifact.finish();
}

/// Observability tail: one traced end-to-end run feeds the `percentiles`
/// section, and the compiled schedules of representative E-workloads are
/// pinned under the analytic round/message predictions in `budget`: the
/// block workload at d = 4, 8 and 16 and at n = 4096 (the largest
/// schedule any artifact budgets), the scattered and `[US:AS:GM]`
/// workloads of E6/E7, and the `US×GM` routing gadget of E9.
fn observability(artifact: &mut JsonReport) {
    let mut metrics = MetricsRegistry::new();
    let inst = us_as_gm_workload(64, 3, 61);
    let report = lowband_core::run_algorithm_traced::<Fp, _>(
        &inst,
        Algorithm::BoundedTriangles,
        21,
        false,
        &mut metrics,
    )
    .unwrap();
    assert!(report.correct);
    let mut budget = entries_for_report(
        "experiments [US:AS:GM] d=3",
        &inst,
        Algorithm::BoundedTriangles,
        &report,
    );
    for (label, inst) in [
        ("experiments block d=8", block_workload(4, 8)),
        ("experiments scattered d=8", scattered_workload(128, 8, 60)),
        ("experiments block d=4", block_workload(4, 4)),
        ("experiments block d=16", block_workload(4, 16)),
        ("experiments block d=16 n=4096", block_workload(256, 16)),
        (
            "experiments [US:AS:GM] d=3 n=48",
            us_as_gm_workload(48, 3, 5),
        ),
        (
            "experiments [US:AS:GM] d=3 n=96",
            us_as_gm_workload(96, 3, 5),
        ),
        (
            "experiments US×GM gadget n=64",
            lowband_lower::gadgets::us_gm_gadget(64),
        ),
        (
            "experiments US×GM gadget n=256",
            lowband_lower::gadgets::us_gm_gadget(256),
        ),
    ] {
        let s = compile_schedule(&inst, Algorithm::BoundedTriangles).unwrap();
        budget.extend(entries_for_observed(
            label,
            &inst,
            Algorithm::BoundedTriangles,
            s.rounds(),
            s.messages(),
            s.capacity(),
        ));
    }
    artifact.section("percentiles", percentiles_section(&metrics));
    artifact.section("budget", budget_section(&budget, DEFAULT_TOLERANCE));
}

/// E12 (ablation): dataflow round compression — pipelining the phases of a
/// compiled algorithm (extension beyond the paper; semantics verified by
/// property tests).
fn e12_compression_ablation(artifact: &mut JsonReport) {
    println!("\n# E12 — ablation: phase-sequential schedules vs dataflow compression\n");
    let t = TablePrinter::new(
        &["workload", "algorithm", "rounds", "compressed", "saving"],
        &[16, 12, 8, 12, 8],
    );
    let cases: Vec<(String, lowband_core::Instance)> = vec![
        ("block d=8".into(), block_workload(4, 8)),
        ("block d=16".into(), block_workload(4, 16)),
        ("scattered d=8".into(), scattered_workload(128, 8, 60)),
        ("[US:AS:GM] d=3".into(), us_as_gm_workload(64, 3, 61)),
    ];
    for (name, inst) in cases {
        let ts = TriangleSet::enumerate(&inst);
        let schedule =
            lowband_core::lemma31::process_triangles(&inst, &ts.triangles, ts.kappa(inst.n), 0)
                .unwrap();
        let compressed = lowband_model::compress(&schedule);
        artifact.section(
            "e12_compression",
            Json::Arr(vec![Json::obj()
                .set("workload", name.as_str())
                .set("rounds", schedule.rounds())
                .set("compressed_rounds", compressed.rounds())]),
        );
        t.row(&[
            name,
            "Lemma 3.1".into(),
            schedule.rounds().to_string(),
            compressed.rounds().to_string(),
            format!(
                "{:.0}%",
                100.0 * (1.0 - compressed.rounds() as f64 / schedule.rounds().max(1) as f64)
            ),
        ]);
    }
    println!(
        "\ncompression overlaps the A-, B- and X-phases of Lemma 3.1 wherever the\n\
         dataflow allows; the asymptotic exponents are unchanged (it can save at most\n\
         the number of phases × their depth), but the constant shrinks for free."
    );
}

/// E11: low-bandwidth vs node-capacitated clique (§1.5) — the same message
/// set, routed at capacities 1, ⌈log₂ n⌉ and n.
fn e11_model_comparison(artifact: &mut JsonReport) {
    println!("\n# E11 — model comparison: low-bandwidth vs node-capacitated clique (§1.5)\n");
    let n = 128usize;
    let log_n = (n as f64).log2().ceil() as usize;
    let t = TablePrinter::new(
        &["workload", "capacity", "rounds", "vs cap 1"],
        &[14, 12, 8, 9],
    );
    for d in [8usize, 16] {
        let inst = scattered_workload(n, d, 50);
        let ts = TriangleSet::enumerate(&inst);
        let mut messages = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for tri in &ts.triangles {
            let consumer = inst.placement.x.owner(tri.i, tri.k);
            let src = inst.placement.b.owner(tri.j, tri.k);
            if src != consumer && seen.insert((tri.j, tri.k, consumer)) {
                messages.push(lowband_routing::router::msg(
                    src,
                    lowband_model::Key::b(tri.j as u64, tri.k as u64),
                    consumer,
                    lowband_model::Key::b(tri.j as u64, tri.k as u64),
                ));
            }
        }
        let base = lowband_routing::route(n, &messages).unwrap().rounds();
        for (label, cap) in [
            ("low-bandwidth", 1usize),
            ("NCC(log n)", log_n),
            ("congested clique", n),
        ] {
            let rounds = lowband_routing::route_with_capacity(n, cap, &messages)
                .unwrap()
                .rounds();
            artifact.section(
                "e11_model_comparison",
                Json::Arr(vec![Json::obj()
                    .set("d", d)
                    .set("model", label)
                    .set("capacity", cap)
                    .set("rounds", rounds)
                    .set("base_rounds", base)]),
            );
            t.row(&[
                format!("fetch d={d}"),
                label.into(),
                rounds.to_string(),
                format!("{:.2}×", base as f64 / rounds.max(1) as f64),
            ]);
        }
    }
    println!(
        "\nthe capacity-c model simulates the low-bandwidth schedule c× faster — the\n\
         relationship the paper uses to place itself between NCC and congested clique,\n\
         and why sparse MM is only interesting below NCC bandwidth (≈O(1) rounds there)."
    );
}

/// E6: Lemma 3.1's O(κ + d + log m) — sweep each term separately.
fn e6_lemma31_scaling(artifact: &mut JsonReport) {
    println!("# E6 — Lemma 3.1 cost model O(κ + d + log m)\n");

    println!("## κ sweep (block workload, κ = d², d and log m grow slowly)\n");
    let t = TablePrinter::new(&["d", "κ", "rounds", "rounds/κ"], &[4, 8, 8, 9]);
    let mut pts = Vec::new();
    for d in [4usize, 8, 16, 32] {
        let inst = block_workload(4, d);
        let ts = TriangleSet::enumerate(&inst);
        let kappa = ts.kappa(inst.n);
        let rounds = lemma31_rounds(&inst, None);
        pts.push((kappa as f64, rounds as f64));
        artifact.section(
            "e6_kappa_sweep",
            Json::Arr(vec![Json::obj()
                .set("d", d)
                .set("kappa", kappa)
                .set("rounds", rounds)]),
        );
        t.row(&[
            d.to_string(),
            kappa.to_string(),
            rounds.to_string(),
            format!("{:.2}", rounds as f64 / kappa as f64),
        ]);
    }
    let (e, _) = fit_exponent(&pts).expect("κ sweep has positive rounds");
    println!("\nrounds vs κ fitted exponent: {e:.3} (theory: 1.0 — linear in κ)\n");
    artifact.section("e6_kappa_fit", Json::obj().set("exponent", e));

    println!("## log m sweep (single heavy pair: m triangles share one edge)\n");
    let t = TablePrinter::new(&["n = m", "rounds", "⌈log₂ m⌉"], &[8, 8, 10]);
    for n in [32usize, 128, 512, 2048] {
        // Triangles (i, 0, 0): pair (j,k) = (0,0) has multiplicity n.
        let ahat = Support::from_entries(n, n, (0..n as u32).map(|i| (i, 0)));
        let bhat = Support::from_entries(n, n, vec![(0, 0)]);
        let xhat = Support::from_entries(n, n, (0..n as u32).map(|i| (i, 0)));
        let inst = Instance::balanced(ahat, bhat, xhat);
        let rounds = lemma31_rounds(&inst, None);
        artifact.section(
            "e6_logm_sweep",
            Json::Arr(vec![Json::obj()
                .set("n", n)
                .set("rounds", rounds)
                .set("log2_m", ((n as f64).log2()).ceil() as usize)]),
        );
        t.row(&[
            n.to_string(),
            rounds.to_string(),
            (((n as f64).log2()).ceil() as usize).to_string(),
        ]);
    }
    println!();
}

/// E6b: the headline Lemma 3.1 improvement — d^{2−ε} vs prior d^{2−ε/2}
/// residual processing, from the cost models both papers prove.
fn e6b_prior_phase2_comparison(artifact: &mut JsonReport) {
    println!("# E6b — phase-2 cost: this work vs SPAA 2022 (analytic, Lemma 3.1 vs Lemma 5.1)\n");
    let t = TablePrinter::new(
        &[
            "residual d^(2−ε)n: ε",
            "prior d^(2−ε/2)",
            "ours d^(2−ε)",
            "speedup @ d=10⁴",
        ],
        &[20, 16, 14, 16],
    );
    for eps in [0.1f64, 0.2, 0.4, 0.667] {
        let d: f64 = 1e4;
        let prior = d.powf(2.0 - eps / 2.0);
        let ours = d.powf(2.0 - eps);
        t.row(&[
            format!("{eps:.3}"),
            format!("d^{:.3}", 2.0 - eps / 2.0),
            format!("d^{:.3}", 2.0 - eps),
            format!("{:.1}×", prior / ours),
        ]);
    }
    let ours = schedule(LAMBDA_SEMIRING, 0.00001, 1.867, Phase2::ThisWork);
    let prior = schedule(LAMBDA_SEMIRING, 0.00001, 1.926, Phase2::PriorWork);
    println!(
        "\nbalanced end-to-end exponents: ours {:.3} (ε* = {:.4}) vs prior {:.3} (ε* = {:.4})\n",
        ours.exponent,
        ours.steps.last().unwrap().eps,
        prior.exponent,
        prior.steps.last().unwrap().eps
    );
    artifact.section(
        "e6b_phase2",
        Json::obj()
            .set("our_exponent", ours.exponent)
            .set("our_eps", ours.steps.last().unwrap().eps)
            .set("prior_exponent", prior.exponent)
            .set("prior_eps", prior.steps.last().unwrap().eps),
    );
}

/// E7: the O(d² + log n) shape of Theorems 5.3/5.11 — d sweep at fixed n,
/// n sweep at fixed d.
fn e7_general_cases_shape(artifact: &mut JsonReport) {
    println!("# E7 — Theorems 5.3/5.11: O(d² + log n) shape\n");
    println!("## d sweep at n = 96\n");
    let t = TablePrinter::new(
        &["task", "d", "κ", "rounds", "rounds/d²"],
        &[12, 4, 6, 8, 10],
    );
    let mut pts = Vec::new();
    for d in [2usize, 4, 8] {
        let inst = us_as_gm_workload(96, d, 20 + d as u64);
        let ts = TriangleSet::enumerate(&inst);
        let rounds = lemma31_rounds(&inst, None);
        pts.push((d as f64, rounds as f64));
        artifact.section(
            "e7_d_sweep",
            Json::Arr(vec![Json::obj()
                .set("task", "[US:AS:GM]")
                .set("d", d)
                .set("kappa", ts.kappa(inst.n))
                .set("rounds", rounds)]),
        );
        t.row(&[
            "[US:AS:GM]".into(),
            d.to_string(),
            ts.kappa(inst.n).to_string(),
            rounds.to_string(),
            format!("{:.2}", rounds as f64 / (d * d) as f64),
        ]);
    }
    let (e, _) = fit_exponent(&pts).expect("d sweep has positive rounds");
    println!("\nfitted exponent vs d: {e:.3} (theory: 2.0)\n");
    artifact.section("e7_d_fit", Json::obj().set("exponent", e));

    println!("## n sweep at d = 3 (additive log n term)\n");
    let t = TablePrinter::new(&["task", "n", "rounds"], &[12, 6, 8]);
    for n in [48usize, 96, 192, 384] {
        let inst = bd_as_as_workload(n, 3, 30);
        let rounds = lemma31_rounds(&inst, None);
        artifact.section(
            "e7_n_sweep",
            Json::Arr(vec![Json::obj()
                .set("task", "[BD:AS:AS]")
                .set("n", n)
                .set("rounds", rounds)]),
        );
        t.row(&["[BD:AS:AS]".into(), n.to_string(), rounds.to_string()]);
    }
    println!("\nrounds stay nearly flat in n (the log n term), as Theorem 5.11 predicts.\n");
}

/// E9: the √n gap — certified lower bound vs executed upper bound on the
/// routing gadgets.
fn e9_routing_gap(artifact: &mut JsonReport) {
    println!("# E9 — Theorem 6.27 gadgets: certificate vs executed algorithm\n");
    let t = TablePrinter::new(
        &["gadget", "n", "√n", "certified LB", "executed UB", "UB/n"],
        &[12, 6, 6, 13, 12, 6],
    );
    for n in [64usize, 144, 256] {
        for (name, g) in [
            ("US×GM=GM", lowband_lower::gadgets::us_gm_gadget(n)),
            ("RS×CS=GM", lowband_lower::gadgets::rs_cs_gadget(n)),
        ] {
            let cert = lowband_lower::max_foreign_values(&g);
            let ub = lemma31_rounds(&g, None);
            artifact.section(
                "e9_routing_gap",
                Json::Arr(vec![Json::obj()
                    .set("gadget", name)
                    .set("n", n)
                    .set("certified_lb", cert)
                    .set("executed_ub", ub)]),
            );
            t.row(&[
                name.into(),
                n.to_string(),
                ((n as f64).sqrt() as usize).to_string(),
                cert.to_string(),
                ub.to_string(),
                format!("{:.1}", ub as f64 / n as f64),
            ]);
        }
    }
    println!("\nboth gadgets sit in the Ω(√n)…O(n·polylog) window the paper leaves open.\n");

    println!("## the placement game: the certificate vs the friendliest output placement\n");
    let t = TablePrinter::new(&["placement", "n", "√n", "certified LB"], &[20, 6, 6, 13]);
    for n in [64usize, 256] {
        let balanced = lowband_lower::gadgets::us_gm_gadget(n);
        let square = lowband_lower::gadgets::with_square_block_output(
            lowband_lower::gadgets::us_gm_gadget(n),
        );
        let lb_balanced = lowband_lower::max_foreign_values(&balanced);
        let lb_square = lowband_lower::max_foreign_values(&square);
        artifact.section(
            "e9_placement_game",
            Json::Arr(vec![Json::obj()
                .set("n", n)
                .set("balanced_lb", lb_balanced)
                .set("square_block_lb", lb_square)]),
        );
        t.row(&[
            "balanced rows".into(),
            n.to_string(),
            ((n as f64).sqrt() as usize).to_string(),
            lb_balanced.to_string(),
        ]);
        t.row(&[
            "√n×√n blocks".into(),
            n.to_string(),
            ((n as f64).sqrt() as usize).to_string(),
            lb_square.to_string(),
        ]);
    }
    println!(
        "\neven the friendliest placement cannot push the certificate below ~√n —\n\
         the pigeonhole maxcol·numcols ≥ |X^v| of Theorem 6.27's proof.\n"
    );
}

/// E10 (ablation): exact Δ edge coloring vs greedy first-fit — the design
/// choice DESIGN.md calls out for the routing substrate.
fn e10_ablation_coloring(artifact: &mut JsonReport) {
    println!("# E10 — ablation: exact Δ-edge-coloring vs greedy routing\n");
    let t = TablePrinter::new(
        &["workload", "d", "exact rounds", "greedy rounds", "overhead"],
        &[12, 4, 13, 14, 9],
    );
    for d in [4usize, 8, 16] {
        let inst = scattered_workload(128, d, 40);
        let ts = TriangleSet::enumerate(&inst);
        // Compare the raw routing phase: every consumer fetches its B
        // values (the trivial algorithm's message set) under both routers.
        let mut messages = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for tri in &ts.triangles {
            let consumer = inst.placement.x.owner(tri.i, tri.k);
            let src = inst.placement.b.owner(tri.j, tri.k);
            if src != consumer && seen.insert((tri.j, tri.k, consumer)) {
                messages.push(lowband_routing::router::msg(
                    src,
                    lowband_model::Key::b(tri.j as u64, tri.k as u64),
                    consumer,
                    lowband_model::Key::b(tri.j as u64, tri.k as u64),
                ));
            }
        }
        let exact = lowband_routing::route(inst.n, &messages).unwrap().rounds();
        let greedy = lowband_routing::route_greedy(inst.n, &messages)
            .unwrap()
            .rounds();
        artifact.section(
            "e10_coloring",
            Json::Arr(vec![Json::obj()
                .set("d", d)
                .set("exact_rounds", exact)
                .set("greedy_rounds", greedy)]),
        );
        t.row(&[
            "scattered US".into(),
            d.to_string(),
            exact.to_string(),
            greedy.to_string(),
            format!("{:.2}×", greedy as f64 / exact.max(1) as f64),
        ]);
    }
    println!("\ngreedy is within 2× (König guarantees exact = Δ; greedy ≤ 2Δ−1).");
}
