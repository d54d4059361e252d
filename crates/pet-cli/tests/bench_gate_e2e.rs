//! End-to-end exercise of `pet bench` in subprocesses: record a snapshot
//! into a temp ledger twice, gate the identical runs (must pass), then
//! gate against a synthetic −15% regression (must fail with exit 1 and a
//! machine-readable verdict). Everything happens under a temp dir —
//! `results/ledger.jsonl` in the repo is never touched.

use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A temporary directory owned by one test, removed when dropped. The tests
/// in this binary run in parallel in one process, so the name carries the
/// test's name as well as the pid.
struct TmpDir(PathBuf);

impl TmpDir {
    fn new(test: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("pet-bench-e2e-{test}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Self(dir)
    }
}

impl Deref for TmpDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn pet(args: &[&str], cwd: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pet"))
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("spawn pet")
}

fn assert_ok(out: &Output, what: &str) {
    assert!(
        out.status.success(),
        "{what} failed\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

/// A deterministic kernel snapshot standing in for a live measurement.
const SNAPSHOT: &str = r#"{"n": 100000, "lane": "avx2", "commit": "aaaaaaa",
 "rounds_per_sec_oracle": 2900000.0, "rounds_per_sec_kernel": 9600000.0,
 "rounds_per_sec_kernel_simd": 10000000.0,
 "hash_elems_per_sec_scalar": 310000000.0, "hash_elems_per_sec_simd": 1190000000.0}"#;

#[test]
fn record_twice_then_gate_passes_and_synthetic_regression_fails() {
    let dir = TmpDir::new("gate");
    std::fs::write(dir.join("snap.json"), SNAPSHOT).unwrap();
    let ledger = dir.join("ledger.jsonl");
    let ledger = ledger.to_str().unwrap();

    // Record the same snapshot twice under different commits — two honest
    // runs that measured identical numbers.
    let out = pet(
        &[
            "bench",
            "record",
            "--from",
            "snap.json",
            "--ledger",
            ledger,
            "--commit",
            "base001",
        ],
        &dir,
    );
    assert_ok(&out, "first record");
    let out = pet(
        &[
            "bench",
            "record",
            "--from",
            "snap.json",
            "--ledger",
            ledger,
            "--commit",
            "cand001",
        ],
        &dir,
    );
    assert_ok(&out, "second record");
    let rows = std::fs::read_to_string(ledger).unwrap();
    assert_eq!(rows.lines().count(), 2, "two recorded rows:\n{rows}");

    // Baseline = only the first row, in its own file.
    let baseline = dir.join("baseline.jsonl");
    std::fs::write(&baseline, rows.lines().next().unwrap().to_string() + "\n").unwrap();

    // Identical runs: the gate passes and says so in the verdict JSON.
    let verdict = dir.join("verdict.json");
    let out = pet(
        &[
            "bench",
            "gate",
            "--baseline",
            baseline.to_str().unwrap(),
            "--ledger",
            ledger,
            "--threshold",
            "10%",
            "--pin",
            "kernel:rounds_per_sec_kernel_simd",
            "--verdict",
            verdict.to_str().unwrap(),
        ],
        &dir,
    );
    assert_ok(&out, "gate on identical runs");
    let v = std::fs::read_to_string(&verdict).unwrap();
    assert!(v.contains("\"pass\":true"), "verdict: {v}");
    assert!(v.contains("\"status\":\"pass\""), "verdict: {v}");

    // Synthetic −15% on the pinned metric: append a doctored row.
    let regressed = rows
        .lines()
        .next()
        .unwrap()
        .replace(
            "\"rounds_per_sec_kernel_simd\":10000000",
            "\"rounds_per_sec_kernel_simd\":8500000",
        )
        .replace("\"commit\":\"base001\"", "\"commit\":\"bad0001\"");
    assert!(regressed.contains("8500000"), "doctored row: {regressed}");
    let mut with_regression = rows.clone();
    with_regression.push_str(&regressed);
    with_regression.push('\n');
    std::fs::write(dir.join("regressed.jsonl"), with_regression).unwrap();

    let out = pet(
        &[
            "bench",
            "gate",
            "--baseline",
            baseline.to_str().unwrap(),
            "--ledger",
            dir.join("regressed.jsonl").to_str().unwrap(),
            "--threshold",
            "10%",
            "--pin",
            "kernel:rounds_per_sec_kernel_simd",
            "--verdict",
            verdict.to_str().unwrap(),
        ],
        &dir,
    );
    assert_eq!(out.status.code(), Some(1), "regression must exit 1");
    let v = std::fs::read_to_string(&verdict).unwrap();
    assert!(v.contains("\"pass\":false"), "verdict: {v}");
    assert!(v.contains("\"status\":\"regressed\""), "verdict: {v}");
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("REGRESSED"),
        "human rendering names the regression"
    );
}

#[test]
fn migrate_report_round_trip_in_temp_results() {
    let dir = TmpDir::new("migrate");
    let results = dir.join("results");
    std::fs::create_dir_all(&results).unwrap();
    std::fs::write(results.join("BENCH_kernel.json"), SNAPSHOT).unwrap();
    std::fs::write(
        results.join("BENCH_fleet.json"),
        r#"{"benchmark":"pet-fleet","readers":3,"tags":5000,"zones":3,"rounds":32,
           "estimate":5039.0,"effective_coverage":0.8351,"full_rounds":16,"partial_rounds":16,
           "degraded":true,"round_latency_ns":{"mean":2355944,"p95_bound":33554431,"max":31391405},
           "digest":"0x0"}"#,
    )
    .unwrap();
    let ledger = dir.join("ledger.jsonl");
    let ledger_s = ledger.to_str().unwrap();

    let out = pet(
        &[
            "bench",
            "migrate",
            "--results",
            results.to_str().unwrap(),
            "--ledger",
            ledger_s,
        ],
        &dir,
    );
    assert_ok(&out, "migrate");
    // Idempotent: a second migrate appends nothing.
    let before = std::fs::read_to_string(&ledger).unwrap();
    let out = pet(
        &[
            "bench",
            "migrate",
            "--results",
            results.to_str().unwrap(),
            "--ledger",
            ledger_s,
        ],
        &dir,
    );
    assert_ok(&out, "second migrate");
    assert_eq!(std::fs::read_to_string(&ledger).unwrap(), before);
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("0 row(s) appended"),
        "second migrate reports dedupe"
    );

    let out_dir = dir.join("report");
    let out = pet(
        &[
            "bench",
            "report",
            "--ledger",
            ledger_s,
            "--out",
            out_dir.to_str().unwrap(),
        ],
        &dir,
    );
    assert_ok(&out, "report");
    let csv = std::fs::read_to_string(out_dir.join("trends.csv")).unwrap();
    assert!(csv.starts_with("bench,config,metric,seq,commit,timestamp_s,value"));
    assert!(csv.contains("kernel,n=100000/lane=avx2,rounds_per_sec_kernel_simd,0,aaaaaaa"));
    assert!(csv.contains("fleet,r3/z3/t5000,round_latency_mean_ns"));
    assert!(out_dir.join("svg/trend_kernel.svg").is_file());
    assert!(out_dir.join("svg/trend_fleet.svg").is_file());
}

#[test]
fn gate_with_unknown_flags_or_actions_reports_usage_errors() {
    let dir = TmpDir::new("usage");
    let out = pet(&["bench", "frobnicate"], &dir);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown bench action"));
    let out = pet(&["bench", "gate"], &dir);
    assert_eq!(
        out.status.code(),
        Some(2),
        "missing --baseline is a usage error"
    );
}
