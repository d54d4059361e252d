//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sweep-fig4|serve-tiny|serve-churn> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Prints an environment record, a sample-count line, and, last, one JSON
//! result line; a readable table goes to stderr. `--trace 0` measures the
//! end-to-end metrics with tracing off; `--trace 1` is the separate traced
//! run that yields the per-layer metrics and writes its spans to
//! `perfbench/out/<workload>.trace.jsonl`. Exits 1 when a correctness check
//! fails and 2 on a usage error. See `perfbench/README.md`.

mod loadgen;
mod probe;
mod report;
mod serve;
mod stats;
mod sweep;
mod trace;

use report::{metric, Metric, Outcome};
use std::process::ExitCode;

/// Workload seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 20_110_620;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <sweep-fig4|serve-tiny|serve-churn> \
                     [--seed <n>] [--seconds <n>] [--trace <0|1>]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// Every per-layer metric, in a fixed order, with its unit. A workload
/// that does not exercise a layer reports 0 for it.
const PER_LAYER: [(&str, &str); 27] = [
    ("server.transport_us", "us"),
    ("server.parse_us", "us"),
    ("server.execute_us", "us"),
    ("server.reply_bytes", "bytes"),
    ("server.failed.overloaded", "count"),
    ("server.failed.deadline", "count"),
    ("server.failed.internal", "count"),
    ("server.failed.lost", "count"),
    ("server.failed.malformed", "count"),
    ("server.failed.mismatch", "count"),
    ("loadgen.late_p99_ms", "ms"),
    ("sim.cache.hit_ratio", "ratio"),
    ("sim.cache.bank_us", "us"),
    ("sim.runner.trial_us", "us"),
    ("sim.runner.busy_ratio", "ratio"),
    ("hash.bulk_ns_per_code", "ns"),
    ("hash.sort_ns_per_code", "ns"),
    ("hash.codes", "count"),
    ("core.estimate_us", "us"),
    ("core.ns_per_round", "ns"),
    ("core.rounds", "count"),
    ("core.slots", "count"),
    ("core.monitor.observe_us", "us"),
    ("tags.churn_us", "us"),
    ("tags.keys_us", "us"),
    ("obs.trace_overhead", "ratio"),
    ("unaccounted_share", "ratio"),
];

/// Orders a workload's per-layer metrics as [`PER_LAYER`] lists them,
/// filling the layers it does not exercise with 0.
pub fn layers(measured: Vec<Metric>) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            measured
                .iter()
                .find(|m| m.name == name)
                .cloned()
                .unwrap_or_else(|| metric(name, 0.0, unit))
        })
        .collect()
}

/// Peak resident set of this process, from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Writes the traced run's spans under `perfbench/out/`.
pub fn write_trace(tracer: &trace::Tracer, workload: &str) {
    let path = std::path::Path::new("perfbench/out").join(format!("{workload}.trace.jsonl"));
    if let Err(e) = tracer.write_jsonl(&path) {
        eprintln!("could not write {}: {e}", path.display());
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let spec = serve::SPECS.iter().find(|s| s.name == args.workload);
    if spec.is_none() && args.workload != "sweep-fig4" {
        eprintln!("unknown workload {}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    }
    println!("{}", report::environment_json());
    let outcome: Outcome = match spec {
        Some(spec) => serve::run(spec, &args),
        None => sweep::run(&args),
    };
    eprintln!(
        "{} seed={} trace={}:\n{}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        outcome.render()
    );
    println!("{}", outcome.detail_json());
    println!("{}", outcome.result_json());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&argv(
            "--workload serve-tiny --seed 7 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve-tiny", 7, 3, true)
        );
        assert!(parse_args(&argv("--seed 7")).is_err());
        assert!(parse_args(&argv("--workload x --trace 2")).is_err());
        assert!(parse_args(&argv("--workload x --seed")).is_err());
    }

    #[test]
    fn layers_are_complete_and_ordered() {
        let out = layers(vec![metric("core.rounds", 5.0, "count")]);
        assert_eq!(out.len(), PER_LAYER.len());
        assert!(out.iter().zip(PER_LAYER).all(|(m, (n, _))| m.name == n));
        assert_eq!(
            out.iter().find(|m| m.name == "core.rounds").unwrap().value,
            5.0
        );
    }
}
