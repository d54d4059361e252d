//! `sweep-fig4`: the paper's own evaluation, Fig. 4 at its default size
//! (n ∈ {5k, 10k, 50k, 100k} × m ∈ {1..512} × 300 runs).
//!
//! `fig4::run` walks its 40 cells one after another, so the timed run calls
//! it one cell at a time (a one-cell `Fig4Params` carrying that cell's seed
//! gives the same row) and cycles through the cells until `--seconds` is
//! spent. After each cell of the largest population, its first trials run
//! again from the public pieces (`run_trials` over `fig4::pet_trial`), each
//! timed from outside, for `p50_ms`. Between cells the host-speed
//! [`Probe`] runs, and every timing is scaled to its reference speed.
//! `sweep_s` sums each cell's median scaled time. The traced run replays
//! one pass with spans around `RosterCache::sequential_bank` and
//! `Estimator::try_run_bank`.

use crate::probe::{self, Probe};
use crate::report::{metric, sampled, Outcome};
use crate::stats::{median, percentile};
use crate::trace::{self, ObsSink, Tracer};
use crate::Args;
use pet_core::config::PetConfig;
use pet_core::front::Estimator;
use pet_hash::family::AnyFamily;
use pet_sim::cache::RosterCache;
use pet_sim::experiments::fig4::{self, Fig4Params, Fig4Row};
use pet_sim::runner::run_trials;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Set-ups timed per batch; a batch runs before the sweep and after every
/// [`SETUP_EVERY`] cells, and `setup_s` is the median of all of them.
const SETUPS_PER_BATCH: usize = 7;
const SETUP_EVERY: usize = 10;

/// Fewest timings of each cell `sweep_s` takes the median of.
const MIN_PASSES: usize = 2;

/// Trials of a cell of the largest population timed one by one after each
/// timing of the cell. A trial's time steps with its population (it hashes
/// and sorts `n` codes), so a median over trials pooled from all four
/// populations would sit on the step between two of them and jump from
/// run to run; the largest population is most of the sweep's time.
const SAMPLED_TRIALS: usize = 80;

/// Accuracy band every row with `m >= 64` must fall in.
const ACCURACY_BAND: (f64, f64) = (0.95, 1.05);

pub fn run(args: &Args) -> Outcome {
    let params = Fig4Params {
        seed: args.seed,
        ..Fig4Params::default()
    };
    let cells = cells(&params);
    let mut out = Outcome {
        attempted: (cells.len() * params.runs) as u64,
        ..Outcome::default()
    };
    let mut setup_times = Vec::new();
    time_setups(&params, &mut setup_times);

    if args.trace {
        let started = Instant::now();
        let rows: Vec<Fig4Row> = cells.iter().map(|&c| cell_row(&params, c)).collect();
        let untraced_s = started.elapsed().as_secs_f64();
        check_rows(&mut out, &rows);
        traced(&mut out, &params, untraced_s, digest(&rows));
        return out;
    }

    let started = Instant::now();
    let largest = params.tag_counts.iter().copied().max().unwrap_or(0);
    let mut steps: Vec<Step> = Vec::new();
    let mut probe = Probe::new();
    let mut probes = vec![probe.run()];
    let mut rows: Vec<Fig4Row> = Vec::new();
    // Read after the first pass, one whole sweep's worth of work, so the
    // figure does not depend on how many passes fit in `--seconds`.
    let mut peak_rss_mb = f64::NAN;
    let mut trial_values: Vec<Vec<f64>> = Vec::new();
    for step in 0.. {
        let i = step % cells.len();
        let pass = step / cells.len();
        let walls: Vec<f64> = steps
            .iter()
            .filter(|s| s.cell == i)
            .map(|s| s.wall_s)
            .collect();
        let next_s = if walls.is_empty() {
            0.0
        } else {
            median(&walls)
        };
        if pass >= MIN_PASSES && started.elapsed().as_secs_f64() + next_s > args.seconds as f64 {
            break;
        }
        let cell_started = Instant::now();
        let row = cell_row(&params, cells[i]);
        let wall_s = cell_started.elapsed().as_secs_f64();
        let mut trial_ns = Vec::new();
        let values = if cells[i].0 == largest {
            sample_trials(cells[i], &mut trial_ns)
        } else {
            Vec::new()
        };
        probes.push(probe.run());
        steps.push(Step {
            cell: i,
            wall_s,
            trial_ns,
        });
        if pass == 0 {
            rows.push(row);
            trial_values.push(values);
        } else {
            out.check(digest(&[row]) == digest(&rows[i..=i]), || {
                format!("fig4::run did not repeat cell {i}")
            });
            out.check(bits(&values) == bits(&trial_values[i]), || {
                format!("run_trials + pet_trial did not repeat cell {i}")
            });
        }
        if step % SETUP_EVERY == SETUP_EVERY - 1 {
            time_setups(&params, &mut setup_times);
        }
        if step + 1 == cells.len() {
            peak_rss_mb = crate::peak_rss_mb();
        }
    }
    check_rows(&mut out, &rows);
    out.notes
        .push(("digest", format!("{:016x}", digest(&rows))));

    // Step `j` ran between probes `j` and `j + 1`.
    let scale: Vec<f64> = probes
        .windows(2)
        .map(|w| probe::scale(w[0], w[1]))
        .collect();
    let per_cell = |time: &dyn Fn(usize, &Step) -> f64| -> f64 {
        (0..cells.len())
            .map(|i| {
                let t: Vec<f64> = steps
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.cell == i)
                    .map(|(j, s)| time(j, s))
                    .collect();
                median(&t)
            })
            .sum()
    };
    let sweep_s = per_cell(&|j, s| s.wall_s * scale[j]);
    let raw_s = per_cell(&|_, s| s.wall_s);
    let mut trial_ns: Vec<u64> = steps
        .iter()
        .zip(&scale)
        .flat_map(|(s, k)| s.trial_ns.iter().map(move |&ns| (ns as f64 * k) as u64))
        .collect();
    trial_ns.sort_unstable();
    let at = |q: f64| percentile(&trial_ns, q).map_or(f64::NAN, |ns| ns as f64 / 1e6);
    out.metrics = vec![
        metric("setup_s", median(&setup_times), "s"),
        sampled("sweep_s", sweep_s, "s", steps.len()),
        sampled("p50_ms", at(0.5), "ms", trial_ns.len()),
        metric("ok_ratio", 1.0, "ratio"),
        metric("peak_rss_mb", peak_rss_mb, "MB"),
    ];
    out.reported = vec![
        sampled("p99_ms", at(0.99), "ms", trial_ns.len()),
        sampled("sweep_raw_s", raw_s, "s", steps.len()),
        metric(
            "trials_per_s",
            (cells.len() * params.runs) as f64 / sweep_s,
            "1/s",
        ),
        sampled("probe_s", median(&probes), "s", probes.len()),
    ];
    out.notes.push((
        "sweep_s",
        format!(
            "sum over {} cells of the median cell time at the probe's reference speed, {} cell timings",
            cells.len(),
            steps.len()
        ),
    ));
    out.notes.push((
        "p50_ms/p99_ms",
        format!(
            "per-trial latency at the probe's reference speed, n = {largest}, the first {SAMPLED_TRIALS} trials of each of its cells"
        ),
    ));
    out
}

/// One timing of one cell, with the trials sampled after it.
struct Step {
    cell: usize,
    wall_s: f64,
    trial_ns: Vec<u64>,
}

/// The sweep's lazy set-up is filling the roster key cache for each tag
/// count. The very first fill warms the process-wide cache `fig4::run`
/// uses; every other fill repeats it on a fresh cache.
fn time_setups(params: &Fig4Params, times: &mut Vec<f64>) {
    for _ in 0..SETUPS_PER_BATCH {
        let fresh = RosterCache::default();
        let cache = if times.is_empty() {
            RosterCache::global()
        } else {
            &fresh
        };
        let started = Instant::now();
        let _lane = pet_hash::simd::active_lane();
        for &n in &params.tag_counts {
            std::hint::black_box(cache.sequential_keys(n));
        }
        times.push(started.elapsed().as_secs_f64());
    }
}

fn check_rows(out: &mut Outcome, rows: &[Fig4Row]) {
    for row in rows.iter().filter(|r| r.rounds >= 64) {
        out.check(
            (ACCURACY_BAND.0..=ACCURACY_BAND.1).contains(&row.accuracy),
            || {
                format!(
                    "n={} m={}: accuracy {} outside {ACCURACY_BAND:?}",
                    row.n, row.rounds, row.accuracy
                )
            },
        );
    }
}

/// FNV-1a over the bits of every row field.
fn digest(rows: &[Fig4Row]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for r in rows {
        for word in [
            r.n as u64,
            u64::from(r.rounds),
            r.accuracy.to_bits(),
            r.std_dev.to_bits(),
            r.normalized_std_dev.to_bits(),
        ] {
            for b in word.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

/// The sweep's cells in `fig4::run` order, with the seed `fig4::run`
/// gives each.
fn cells(params: &Fig4Params) -> Vec<(usize, u32, u64)> {
    let mut cells = Vec::new();
    for (ni, &n) in params.tag_counts.iter().enumerate() {
        for (mi, &m) in params.round_counts.iter().enumerate() {
            let seed = params
                .seed
                .wrapping_add(0x1000 * ni as u64)
                .wrapping_add(mi as u64);
            cells.push((n, m, seed));
        }
    }
    cells
}

fn row(n: usize, rounds: u32, values: &[f64], mean: f64) -> Fig4Row {
    let truth = n as f64;
    let rmse = pet_stats::describe::rmse(values, truth);
    Fig4Row {
        n,
        rounds,
        accuracy: mean / truth,
        std_dev: rmse,
        normalized_std_dev: rmse / truth,
    }
}

/// One cell of the sweep through the front door: `fig4::run` over that
/// cell alone, with the seed the whole sweep gives it.
fn cell_row(params: &Fig4Params, (n, m, seed): (usize, u32, u64)) -> Fig4Row {
    let one = Fig4Params {
        tag_counts: vec![n],
        round_counts: vec![m],
        runs: params.runs,
        seed,
    };
    fig4::run(&one).rows[0]
}

/// The first [`SAMPLED_TRIALS`] trials of a cell from `run_trials` +
/// `pet_trial`, timing every trial; returns their estimates.
fn sample_trials((n, m, seed): (usize, u32, u64), times: &mut Vec<u64>) -> Vec<f64> {
    let ns = Mutex::new(Vec::with_capacity(SAMPLED_TRIALS));
    let summary = run_trials(SAMPLED_TRIALS, seed, |trial_seed| {
        let started = Instant::now();
        let estimate = fig4::pet_trial(n, m, trial_seed);
        let elapsed = started.elapsed().as_nanos() as u64;
        ns.lock().expect("trial times poisoned").push(elapsed);
        estimate
    });
    times.extend(ns.into_inner().expect("trial times poisoned"));
    summary.values
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// The traced replay: `pet_trial`'s two layer calls, each in a span, with
/// the pet-obs sink recording what the program emits.
fn traced(out: &mut Outcome, params: &Fig4Params, untraced_s: f64, expected: u64) {
    let sink = Arc::new(ObsSink::new());
    pet_obs::install(sink.clone());
    let tracer = Tracer::new();
    let started = Instant::now();
    let mut rows = Vec::new();
    let mut codes = 0u64;
    for (cell_index, (n, m, seed)) in cells(params).into_iter().enumerate() {
        let cell = tracer.open("sim.cell", None, cell_index as u64);
        let summary = run_trials(params.runs, seed, |trial_seed| {
            let trial = tracer.open("sim.trial", Some(&cell), trial_seed);
            // The body of `fig4::pet_trial`, one layer call per span.
            let config = PetConfig::builder()
                .manufacture_seed(trial_seed ^ 0x4D41_4E55)
                .build()
                .expect("valid config");
            let estimator = Estimator::new(config);
            let mut bank = tracer.time("sim.cache.bank", Some(&trial), trial_seed, || {
                RosterCache::global().sequential_bank(n, &config, AnyFamily::default())
            });
            let mut rng = StdRng::seed_from_u64(trial_seed);
            let report = tracer.time("core.estimate", Some(&trial), trial_seed, || {
                estimator.try_run_bank(&mut bank, m, &mut rng)
            });
            tracer.close(trial);
            report.expect("fig4 rounds are positive").estimate
        });
        tracer.close(cell);
        codes += (n * params.runs) as u64;
        rows.push(row(n, m, &summary.values, summary.mean));
    }
    let traced_s = started.elapsed().as_secs_f64();
    pet_obs::shutdown();
    out.check(digest(&rows) == expected, || {
        "traced replay of the sweep differs from fig4::run".to_string()
    });

    let spans = tracer.spans();
    let hits = sink.count("cache.codes.hit");
    let misses = sink.count("cache.codes.miss");
    let lookups = (hits + misses).max(1);
    // Every lookup of a cell hashes `n` codes when it misses.
    let codes = codes * misses / lookups;
    let per = |total: u64, count: u64| {
        if count == 0 {
            0.0
        } else {
            total as f64 / count as f64
        }
    };
    let trial_ns = {
        let mut v = trace::durations(&spans, "sim.trial");
        v.sort_unstable();
        v
    };
    let threads = crate::report::nproc().min(params.runs) as f64;
    let trial_total = trace::total(&spans, "sim.trial");
    let estimate_ns = trace::durations(&spans, "core.estimate");
    let bank_ns = trace::durations(&spans, "sim.cache.bank");
    let total_rounds = sink.count("core.rounds");
    out.metrics = crate::layers(vec![
        metric("sim.cache.hit_ratio", hits as f64 / lookups as f64, "ratio"),
        metric(
            "sim.cache.bank_us",
            per(bank_ns.iter().sum(), bank_ns.len() as u64) / 1e3,
            "us",
        ),
        sampled(
            "sim.runner.trial_us",
            percentile(&trial_ns, 0.5).unwrap_or(0) as f64 / 1e3,
            "us",
            trial_ns.len(),
        ),
        metric(
            "sim.runner.busy_ratio",
            trial_total as f64 / (threads * traced_s * 1e9),
            "ratio",
        ),
        metric(
            "hash.bulk_ns_per_code",
            per(sink.span_nanos("hash.bulk_hash"), codes),
            "ns",
        ),
        metric(
            "hash.sort_ns_per_code",
            per(sink.span_nanos("hash.radix_sort"), codes),
            "ns",
        ),
        metric("hash.codes", codes as f64, "count"),
        metric(
            "core.estimate_us",
            per(estimate_ns.iter().sum(), estimate_ns.len() as u64) / 1e3,
            "us",
        ),
        metric(
            "core.ns_per_round",
            per(sink.span_nanos("core.session.kernel"), total_rounds),
            "ns",
        ),
        metric("core.rounds", total_rounds as f64, "count"),
        metric("core.slots", sink.count("core.round.slots") as f64, "count"),
        metric("obs.trace_overhead", traced_s / untraced_s - 1.0, "ratio"),
        metric(
            "unaccounted_share",
            per(trace::total_self_time(&spans, "sim.trial"), trial_total),
            "ratio",
        ),
    ]);
    out.notes.push((
        "unaccounted_share",
        "share of trial time outside bank + estimate".into(),
    ));
    crate::write_trace(&tracer, "sweep-fig4");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_follow_fig4_order_and_seeds() {
        let params = Fig4Params {
            tag_counts: vec![10, 20],
            round_counts: vec![1, 2, 4],
            runs: 5,
            seed: 100,
        };
        let c = cells(&params);
        assert_eq!(c.len(), 6);
        assert_eq!(c[0], (10, 1, 100));
        assert_eq!(c[2], (10, 4, 102));
        assert_eq!(c[3], (20, 1, 100 + 0x1000));
    }

    #[test]
    fn cell_by_cell_matches_fig4_run() {
        let params = Fig4Params {
            tag_counts: vec![300, 2_000],
            round_counts: vec![4, 64],
            runs: 20,
            seed: 9,
        };
        let rows: Vec<Fig4Row> = cells(&params)
            .into_iter()
            .map(|c| cell_row(&params, c))
            .collect();
        assert_eq!(digest(&rows), digest(&fig4::run(&params).rows));
    }

    #[test]
    fn sampled_trials_are_timed_and_repeat() {
        let mut times = Vec::new();
        let first = sample_trials((300, 4, 9), &mut times);
        let again = sample_trials((300, 4, 9), &mut times);
        assert_eq!(first.len(), SAMPLED_TRIALS);
        assert_eq!(bits(&first), bits(&again));
        assert_eq!(times.len(), 2 * SAMPLED_TRIALS);
    }
}
