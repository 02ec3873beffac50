//! `lowband-cli` — command-line front end for the library.
//!
//! ```text
//! lowband-cli gen <kind> <n> <d> [--seed S] --out FILE
//! lowband-cli profile FILE.mtx
//! lowband-cli classify A.mtx B.mtx X.mtx --d D
//! lowband-cli solve A.mtx B.mtx X.mtx [--alg ALG] [--d D] [--seed S] [--semiring S]
//! lowband-cli compile A.mtx B.mtx X.mtx --out PLAN [--alg ALG] [--d D]
//! lowband-cli exec PLAN A.mtx B.mtx X.mtx [--seed S]
//! ```
//!
//! Matrices are Matrix Market coordinate patterns. `compile` writes a
//! binary plan file, the same `binser` form the daemon's plan store
//! writes (`serve::encode_plan`); `exec` loads one, streams one seeded
//! value set through it over 𝔽_p and verifies the output. `solve` and
//! `exec` check the distributed output against the sequential reference
//! and exit nonzero on mismatch.

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::process::ExitCode;

use lowband::core::classify::classify_instance;
use lowband::core::densemm::DenseEngine;
use lowband::core::{
    compile_plan, run_algorithm, run_plan_batch_traced, Algorithm, BatchMode, Instance, TriangleSet,
};
use lowband::matrix::io::{read_support, write_support};
use lowband::matrix::{gen, Bool, Fp, MinPlus, SparsityProfile, Support, Wrap64};
use lowband::model::NoopTracer;
use lowband::serve::{decode_plan, encode_plan, StructureKey};
use rand::SeedableRng;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  lowband-cli gen <kind> <n> <d> [--seed S] --out FILE\n      \
         kinds: us rs cs bd as block band\n  \
         lowband-cli profile FILE.mtx\n  \
         lowband-cli classify A.mtx B.mtx X.mtx --d D\n  \
         lowband-cli solve A.mtx B.mtx X.mtx [--alg ALG] [--d D] [--seed S] [--semiring fp|bool|minplus|wrap]\n  \
         lowband-cli compile A.mtx B.mtx X.mtx --out PLAN [--alg ALG] [--d D]\n  \
         lowband-cli exec PLAN A.mtx B.mtx X.mtx [--seed S]\n      \
         algs: trivial bounded two-phase two-phase-fast two-phase-strassen dense strassen"
    );
    ExitCode::from(2)
}

/// Minimal flag parser: positional args plus `--flag value` pairs.
struct Args {
    positional: Vec<String>,
    flags: std::collections::HashMap<String, String>,
}

impl Args {
    fn parse(raw: &[String]) -> Option<Args> {
        let mut positional = Vec::new();
        let mut flags = std::collections::HashMap::new();
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                let value = it.next()?;
                flags.insert(name.to_string(), value.clone());
            } else {
                positional.push(a.clone());
            }
        }
        Some(Args { positional, flags })
    }

    fn flag(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(|s| s.as_str())
    }

    fn flag_parse<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flag(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("bad value for --{name}: `{v}`")),
        }
    }
}

fn load(path: &str) -> Result<Support, String> {
    let f = File::open(path).map_err(|e| format!("{path}: {e}"))?;
    read_support(BufReader::new(f)).map_err(|e| format!("{path}: {e}"))
}

fn load_instance(a: &str, b: &str, x: &str) -> Result<Instance, String> {
    let (a, b, x) = (load(a)?, load(b)?, load(x)?);
    if a.rows() != a.cols() || a.rows() != b.rows() || a.rows() != x.rows() {
        return Err("all three matrices must be square and same-sized".into());
    }
    Ok(Instance::balanced(a, b, x))
}

fn cmd_gen(args: &Args) -> Result<(), String> {
    let [kind, n, d] = &args.positional[..] else {
        return Err("gen needs <kind> <n> <d>".into());
    };
    let n: usize = n.parse().map_err(|_| "bad n")?;
    let d: usize = d.parse().map_err(|_| "bad d")?;
    let seed: u64 = args.flag_parse("seed", 1)?;
    let out = args.flag("out").ok_or("gen needs --out FILE")?;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let support = match kind.as_str() {
        "us" => gen::uniform_sparse(n, d, &mut rng),
        "rs" => gen::row_sparse(n, d, &mut rng),
        "cs" => gen::col_sparse(n, d, &mut rng),
        "bd" => gen::bounded_degeneracy(n, d, &mut rng),
        "as" => gen::average_sparse(n, d, &mut rng),
        "block" => gen::block_diagonal(n, d),
        "band" => gen::cyclic_band(n),
        other => return Err(format!("unknown kind `{other}`")),
    };
    let f = File::create(out).map_err(|e| format!("{out}: {e}"))?;
    write_support(&support, BufWriter::new(f)).map_err(|e| e.to_string())?;
    println!(
        "wrote {out}: {}×{}, {} entries",
        support.rows(),
        support.cols(),
        support.nnz()
    );
    Ok(())
}

fn cmd_profile(args: &Args) -> Result<(), String> {
    let [path] = &args.positional[..] else {
        return Err("profile needs one FILE.mtx".into());
    };
    let s = load(path)?;
    let p = SparsityProfile::of(&s);
    println!("{path}: {}×{}, {} entries", s.rows(), s.cols(), s.nnz());
    println!("  minimal US parameter: {}", p.us_param);
    println!("  minimal RS parameter: {}", p.rs_param);
    println!("  minimal CS parameter: {}", p.cs_param);
    println!("  degeneracy (BD):      {}", p.bd_param);
    println!("  average (AS):         {}", p.as_param);
    for d in [p.us_param, p.bd_param, p.as_param] {
        if d > 0 {
            println!("  tightest class at d = {d}: {}", p.tightest_class(d));
        }
    }
    Ok(())
}

fn cmd_classify(args: &Args) -> Result<(), String> {
    let [a, b, x] = &args.positional[..] else {
        return Err("classify needs A.mtx B.mtx X.mtx".into());
    };
    let inst = load_instance(a, b, x)?;
    let d: usize = args.flag_parse("d", 0)?;
    let d = if d == 0 {
        SparsityProfile::of(&inst.ahat)
            .us_param
            .max(SparsityProfile::of(&inst.bhat).us_param)
            .max(1)
    } else {
        d
    };
    let c = classify_instance(&inst, d);
    println!("classification at d = {d}: {:?}", c.band);
    println!("  upper bound: {}", c.upper_bound());
    println!("  lower bound: {}", c.lower_bound());
    if c.omega_log_n {
        println!("  Ω(log n) applies (Theorem 6.15)");
    }
    let ts = TriangleSet::enumerate(&inst);
    println!("  triangles: {} (κ = {})", ts.len(), ts.kappa(inst.n));
    Ok(())
}

fn parse_algorithm(args: &Args, default_d: usize) -> Result<Algorithm, String> {
    let d: usize = args.flag_parse("d", default_d)?;
    match args.flag("alg").unwrap_or("bounded") {
        "trivial" => Ok(Algorithm::Trivial),
        "bounded" => Ok(Algorithm::BoundedTriangles),
        "two-phase" => Ok(Algorithm::TwoPhase {
            d,
            engine: DenseEngine::Cube3d,
        }),
        "two-phase-fast" => Ok(Algorithm::TwoPhase {
            d,
            engine: DenseEngine::FastField {
                omega: lowband::core::optimizer::OMEGA_PAPER,
            },
        }),
        "dense" => Ok(Algorithm::DenseCube),
        "strassen" => Ok(Algorithm::StrassenField),
        "two-phase-strassen" => Ok(Algorithm::TwoPhase {
            d,
            engine: DenseEngine::StrassenExec,
        }),
        other => Err(format!("unknown algorithm `{other}`")),
    }
}

fn cmd_solve(args: &Args) -> Result<(), String> {
    let [a, b, x] = &args.positional[..] else {
        return Err("solve needs A.mtx B.mtx X.mtx".into());
    };
    let inst = load_instance(a, b, x)?;
    let default_d = SparsityProfile::of(&inst.ahat).us_param.max(1);
    let alg = parse_algorithm(args, default_d)?;
    let seed: u64 = args.flag_parse("seed", 7)?;
    let report = match args.flag("semiring").unwrap_or("fp") {
        "fp" => run_algorithm::<Fp>(&inst, alg, seed),
        "bool" => run_algorithm::<Bool>(&inst, alg, seed),
        "minplus" => run_algorithm::<MinPlus>(&inst, alg, seed),
        "wrap" => run_algorithm::<Wrap64>(&inst, alg, seed),
        other => return Err(format!("unknown semiring `{other}`")),
    }
    .map_err(|e| e.to_string())?;
    println!(
        "n = {}, triangles = {}, algorithm = {:?}",
        inst.n, report.triangles, alg
    );
    println!(
        "rounds = {}, messages = {}, modeled rounds = {:.0}",
        report.rounds, report.messages, report.modeled_rounds
    );
    if report.correct {
        println!("verified: output matches the sequential reference ✓");
        Ok(())
    } else {
        Err("VERIFICATION FAILED: output differs from the reference".into())
    }
}

fn cmd_compile(args: &Args) -> Result<(), String> {
    let [a, b, x] = &args.positional[..] else {
        return Err("compile needs A.mtx B.mtx X.mtx".into());
    };
    let inst = load_instance(a, b, x)?;
    let out = args.flag("out").ok_or("compile needs --out FILE")?;
    let default_d = SparsityProfile::of(&inst.ahat).us_param.max(1);
    let alg = parse_algorithm(args, default_d)?;
    let plan = compile_plan(&inst, alg, false).map_err(|e| e.to_string())?;
    let bytes = encode_plan(StructureKey::of(&inst, alg, false).as_u128(), &plan);
    std::fs::write(out, &bytes).map_err(|e| format!("{out}: {e}"))?;
    println!(
        "compiled {} rounds / {} messages ({} triangles, algorithm = {alg:?}) to {out}",
        plan.linked.rounds(),
        plan.linked.messages(),
        plan.triangles
    );
    Ok(())
}

fn cmd_exec(args: &Args) -> Result<(), String> {
    let [plan_path, a, b, x] = &args.positional[..] else {
        return Err("exec needs PLAN A.mtx B.mtx X.mtx".into());
    };
    let inst = load_instance(a, b, x)?;
    let bytes = std::fs::read(plan_path).map_err(|e| format!("{plan_path}: {e}"))?;
    let (_, plan) = decode_plan(&bytes).map_err(|e| format!("{plan_path}: {e}"))?;
    let seed: u64 = args.flag_parse("seed", 7)?;
    let reports = run_plan_batch_traced::<Fp, _>(
        &inst,
        &plan,
        &[seed],
        BatchMode::Sequential,
        &mut NoopTracer,
    )
    .map_err(|e| e.to_string())?;
    let report = &reports[0];
    println!(
        "executed {} rounds, {} messages from {plan_path}",
        report.rounds, report.messages
    );
    if report.correct {
        println!("verified ✓");
        Ok(())
    } else {
        Err("VERIFICATION FAILED".into())
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = raw.split_first() else {
        return usage();
    };
    let Some(args) = Args::parse(rest) else {
        return usage();
    };
    let result = match cmd.as_str() {
        "gen" => cmd_gen(&args),
        "profile" => cmd_profile(&args),
        "classify" => cmd_classify(&args),
        "solve" => cmd_solve(&args),
        "compile" => cmd_compile(&args),
        "exec" => cmd_exec(&args),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
