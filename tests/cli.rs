//! End-to-end tests of the `lowband-cli` binary: generate supports,
//! `solve`, `compile` a plan file and `exec` it, and probe `exec`'s
//! error paths. Every failure must be a typed `error:` line with exit
//! status 1, never a panic.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh scratch directory for the test named `tag`.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lowband-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn cli(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lowband-cli"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("spawn lowband-cli")
}

/// Run a command that must succeed; returns its stdout.
fn ok(dir: &Path, args: &[&str]) -> String {
    let out = cli(dir, args);
    assert!(
        out.status.success(),
        "{args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// Run a command that must fail with exit status 1; returns its stderr.
fn fails(dir: &Path, args: &[&str]) -> String {
    let out = cli(dir, args);
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
    stderr
}

/// The number that follows `prefix` on the first stdout line holding it.
fn number_after(stdout: &str, prefix: &str) -> usize {
    let rest = stdout
        .lines()
        .find_map(|l| l.split_once(prefix).map(|(_, r)| r))
        .unwrap_or_else(|| panic!("no `{prefix}` in {stdout:?}"));
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().expect("a number")
}

fn gen(dir: &Path, file: &str, n: usize, seed: u64) {
    ok(
        dir,
        &[
            "gen",
            "us",
            &n.to_string(),
            "4",
            "--seed",
            &seed.to_string(),
            "--out",
            file,
        ],
    );
}

#[test]
fn compile_solve_and_exec_agree_on_rounds() {
    let root = scratch("agree");
    let dir = root.as_path();
    for (file, seed) in [("A.mtx", 7), ("B.mtx", 8), ("X.mtx", 9)] {
        gen(dir, file, 64, seed);
    }
    for alg in ["bounded", "trivial", "two-phase"] {
        let inputs = ["A.mtx", "B.mtx", "X.mtx"];
        let mut solve = vec!["solve"];
        solve.extend(inputs);
        solve.extend(["--alg", alg, "--d", "4", "--seed", "42"]);
        let solved = number_after(&ok(dir, &solve), "rounds = ");

        let mut compile = vec!["compile"];
        compile.extend(inputs);
        compile.extend(["--out", "plan.bin", "--alg", alg, "--d", "4"]);
        let compiled = number_after(&ok(dir, &compile), "compiled ");

        let mut exec = vec!["exec", "plan.bin"];
        exec.extend(inputs);
        exec.extend(["--seed", "42"]);
        let stdout = ok(dir, &exec);
        assert!(stdout.contains("verified ✓"), "{alg}: {stdout}");
        let executed = number_after(&stdout, "executed ");

        assert_eq!((compiled, executed), (solved, solved), "{alg}");
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn exec_errors_are_typed_and_exit_1() {
    let root = scratch("errors");
    let dir = root.as_path();
    for (file, seed) in [("A.mtx", 7), ("B.mtx", 8), ("X.mtx", 9), ("A2.mtx", 10)] {
        gen(dir, file, 64, seed);
    }
    for (file, seed) in [("A128.mtx", 11), ("B128.mtx", 12), ("X128.mtx", 13)] {
        gen(dir, file, 128, seed);
    }
    ok(
        dir,
        &[
            "compile", "A.mtx", "B.mtx", "X.mtx", "--out", "plan.bin", "--d", "4",
        ],
    );

    // An A of another support: the plan asks for entries that hold no value.
    let stderr = fails(dir, &["exec", "plan.bin", "A2.mtx", "B.mtx", "X.mtx"]);
    assert!(stderr.contains("holds no value for key"), "{stderr}");

    // Matrices of another size: refused before any value loads.
    let stderr = fails(
        dir,
        &["exec", "plan.bin", "A128.mtx", "B128.mtx", "X128.mtx"],
    );
    assert!(stderr.contains("compiled for 64 nodes"), "{stderr}");

    // A truncated plan file: a binser error naming the file.
    let bytes = std::fs::read(dir.join("plan.bin")).expect("plan written");
    std::fs::write(dir.join("short.bin"), &bytes[..bytes.len() / 2]).expect("write");
    let stderr = fails(dir, &["exec", "short.bin", "A.mtx", "B.mtx", "X.mtx"]);
    assert!(stderr.contains("short.bin: "), "{stderr}");
    assert!(stderr.contains("offset"), "{stderr}");
    let _ = std::fs::remove_dir_all(&root);
}
