//! Fig. 4: PET accuracy (a), standard deviation (b), and normalized standard
//! deviation (c) as functions of the number of estimating rounds, for
//! several population sizes.
//!
//! Paper shapes to reproduce: accuracy ≈ 1 by 32–64 rounds regardless of
//! `n` (4a); std-dev shrinking with rounds (4b); normalized std-dev ≈ 0.2 at
//! 64 rounds, independent of `n` (4c — analytically
//! `ln2·σ(h)/√m = 0.693·1.87/8 ≈ 0.16`, plus the `2^x` convexity bump).

use crate::cache::RosterCache;
use crate::runner::run_trials;
use pet_core::config::PetConfig;
use pet_core::front::Estimator;
use pet_hash::family::AnyFamily;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Sweep parameters.
#[derive(Debug, Clone)]
pub struct Fig4Params {
    /// Population sizes (paper sweeps thousands to ~10⁵).
    pub tag_counts: Vec<usize>,
    /// Estimating-round counts `m` (the x-axis).
    pub round_counts: Vec<u32>,
    /// Independent runs per data point (§5.1: 300).
    pub runs: usize,
    /// Experiment seed.
    pub seed: u64,
}

impl Default for Fig4Params {
    fn default() -> Self {
        Self {
            tag_counts: vec![5_000, 10_000, 50_000, 100_000],
            round_counts: vec![1, 2, 4, 8, 16, 32, 64, 128, 256, 512],
            runs: 300,
            seed: 0xF194,
        }
    }
}

/// One data point of the sweep.
#[derive(Debug, Clone, Copy)]
pub struct Fig4Row {
    /// True tag count.
    pub n: usize,
    /// Estimating rounds `m`.
    pub rounds: u32,
    /// Eq. (22) accuracy: mean of `n̂/n`.
    pub accuracy: f64,
    /// Eq. (23) precision: `√E[(n̂ − n)²]`.
    pub std_dev: f64,
    /// `std_dev / n`.
    pub normalized_std_dev: f64,
}

/// The full sweep result.
#[derive(Debug, Clone)]
pub struct Fig4Result {
    /// Rows in `(n, m)` sweep order.
    pub rows: Vec<Fig4Row>,
}

/// One PET estimate of `n` sequential tags using `rounds` rounds; each trial
/// re-manufactures the preloaded codes under its own seed (a fresh
/// deployment), exactly like an independent simulation run in §5.1.
pub fn pet_trial(n: usize, rounds: u32, trial_seed: u64) -> f64 {
    let config = PetConfig::builder()
        .manufacture_seed(trial_seed ^ 0x4D41_4E55) // "MANU"
        .build()
        .expect("valid config");
    // Default backend is the batched kernel, bit-for-bit equal to the oracle
    // session for the same seeds (pinned by the kernel equivalence suite).
    // Per-trial manufacture seeds mean the code cache misses by design: each
    // trial hashes and radix-sorts its own codes (over the shared key
    // vector), outside the cache's lock, so trial workers build in parallel.
    let estimator = Estimator::new(config);
    let mut bank = RosterCache::global().sequential_bank(n, &config, AnyFamily::default());
    let mut rng = StdRng::seed_from_u64(trial_seed);
    estimator.run_bank(&mut bank, rounds, &mut rng).estimate
}

/// Runs the sweep.
///
/// # Panics
///
/// Panics if any parameter list is empty or `runs` is zero.
pub fn run(params: &Fig4Params) -> Fig4Result {
    assert!(!params.tag_counts.is_empty(), "need at least one tag count");
    assert!(
        !params.round_counts.is_empty(),
        "need at least one round count"
    );
    let mut rows = Vec::new();
    for (ni, &n) in params.tag_counts.iter().enumerate() {
        for (mi, &rounds) in params.round_counts.iter().enumerate() {
            let cell_seed = params
                .seed
                .wrapping_add(0x1000 * ni as u64)
                .wrapping_add(mi as u64);
            let summary = run_trials(params.runs, cell_seed, |trial_seed| {
                pet_trial(n, rounds, trial_seed)
            });
            let truth = n as f64;
            let rmse = pet_stats::describe::rmse(&summary.values, truth);
            rows.push(Fig4Row {
                n,
                rounds,
                accuracy: summary.mean / truth,
                std_dev: rmse,
                normalized_std_dev: rmse / truth,
            });
        }
    }
    Fig4Result { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_params() -> Fig4Params {
        Fig4Params {
            tag_counts: vec![2_000, 20_000],
            round_counts: vec![8, 64],
            runs: 120,
            seed: 11,
        }
    }

    /// Fig. 4a: accuracy near 1 at moderate round counts, for every n.
    #[test]
    fn accuracy_approaches_one() {
        let result = run(&small_params());
        for row in result.rows.iter().filter(|r| r.rounds == 64) {
            assert!(
                (row.accuracy - 1.0).abs() < 0.08,
                "n = {}: accuracy {}",
                row.n,
                row.accuracy
            );
        }
    }

    /// Fig. 4b/c: more rounds shrink the (normalized) deviation, and the
    /// normalized deviation at fixed m is insensitive to n.
    #[test]
    fn deviation_shrinks_with_rounds_and_ignores_n() {
        let result = run(&small_params());
        let get = |n: usize, m: u32| {
            result
                .rows
                .iter()
                .find(|r| r.n == n && r.rounds == m)
                .copied()
                .expect("row exists")
        };
        for &n in &[2_000usize, 20_000] {
            assert!(
                get(n, 64).normalized_std_dev < get(n, 8).normalized_std_dev,
                "n = {n}"
            );
        }
        let a = get(2_000, 64).normalized_std_dev;
        let b = get(20_000, 64).normalized_std_dev;
        assert!((a - b).abs() < 0.08, "normalized σ {a} vs {b}");
        // Paper: ≈ 0.2 at 64 rounds.
        assert!((0.1..0.3).contains(&a), "normalized σ at m=64: {a}");
    }

    #[test]
    fn trials_are_reproducible() {
        assert_eq!(pet_trial(1_000, 16, 42), pet_trial(1_000, 16, 42));
        assert_ne!(pet_trial(1_000, 16, 42), pet_trial(1_000, 16, 43));
    }
}
