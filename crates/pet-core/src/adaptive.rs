//! Sequential (early-stopping) estimation — an optimization extension,
//! run by [`crate::Estimator::try_run_adaptive`].
//!
//! Eq. (20) sizes the round budget from the *asymptotic* per-round deviation
//! `σ(h) ≈ 1.87271`, which is an upper envelope: near tree boundaries and at
//! small populations the realized spread is smaller, and a fixed budget then
//! overshoots. Adaptive estimation instead monitors the *empirical*
//! deviation of the collected gray-node observations and stops as soon as
//! the implied confidence interval is inside `±ε` at confidence `1 − δ`
//! (never before [`DEFAULT_MIN_ROUNDS`], never after the Eq. (20) budget or
//! that floor, whichever is larger — so the worst case equals the paper's
//! protocol exactly). It shares the
//! slot-by-slot runner with every other run, so the zero probe and the
//! configured [`Mitigation`](crate::config::Mitigation) apply as usual.
//!
//! Sequential stopping peeks at the data, which inflates the realized error
//! probability relative to a fixed-m analysis; the `adaptive` ablation bench
//! measures the realized coverage so the trade-off is quantified rather
//! than hand-waved.

/// Floor on rounds before the empirical deviation is trusted at all.
pub const DEFAULT_MIN_ROUNDS: u32 = 32;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Backend, Mitigation, PetConfig};
    use crate::front::Estimator;
    use crate::oracle::CodeRoster;
    use crate::session::EstimateReport;
    use pet_hash::family::AnyFamily;
    use pet_phy::channel::PerfectChannel;
    use pet_phy::Air;
    use pet_stats::accuracy::Accuracy;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run_once(n: usize, eps: f64, delta: f64, seed: u64) -> EstimateReport {
        let config = PetConfig::builder()
            .accuracy(Accuracy::new(eps, delta).unwrap())
            .manufacture_seed(seed)
            .build()
            .unwrap();
        let keys: Vec<u64> = (0..n as u64).collect();
        let mut oracle = CodeRoster::new(&keys, &config, AnyFamily::default());
        let mut air = Air::new(PerfectChannel);
        let mut rng = StdRng::seed_from_u64(seed);
        Estimator::new(config)
            .try_run_adaptive(&mut oracle, &mut air, &mut rng)
            .unwrap()
    }

    /// Adaptive stops at or under the Eq. (20) budget and still lands near n.
    #[test]
    fn stops_early_and_stays_accurate() {
        let config = PetConfig::builder()
            .accuracy(Accuracy::new(0.10, 0.05).unwrap())
            .build()
            .unwrap();
        let budget = config.rounds();
        let mut savings = 0u32;
        let mut worst_rel: f64 = 0.0;
        let trials = 25;
        for t in 0..trials {
            let report = run_once(10_000, 0.10, 0.05, 1_000 + t);
            assert!(report.rounds <= budget);
            savings += budget - report.rounds;
            worst_rel = worst_rel.max((report.estimate - 10_000.0).abs() / 10_000.0);
        }
        // The empirical σ is a touch under the asymptotic envelope, so at
        // least *some* trials must stop early in aggregate.
        assert!(savings > 0, "adaptive never saved a round");
        // 2ε tolerance: sequential peeking can cost a little coverage.
        assert!(worst_rel < 0.20, "worst relative error {worst_rel}");
    }

    /// Never stops before the floor.
    #[test]
    fn respects_min_rounds() {
        let report = run_once(100, 0.45, 0.45, 9);
        assert_eq!(report.rounds, DEFAULT_MIN_ROUNDS);
    }

    /// With a requirement so tight the empirical interval never closes
    /// early, adaptive degenerates to exactly the fixed budget.
    #[test]
    fn worst_case_equals_fixed_budget() {
        let config = PetConfig::builder()
            .accuracy(Accuracy::new(0.02, 0.01).unwrap())
            .build()
            .unwrap();
        let report = run_once(10_000, 0.02, 0.01, 77);
        assert!(report.rounds <= config.rounds());
        // Tight ε: the stop rule needs most of the budget; far more rounds
        // than the floor get used.
        assert!(report.rounds > 10 * DEFAULT_MIN_ROUNDS);
    }

    /// When the Eq. (20) budget is at or under the floor, adaptive runs the
    /// floor exactly, so it must equal a fixed run of that many rounds bit
    /// for bit — through the same zero probe and the same mitigation.
    #[test]
    fn budget_under_floor_equals_fixed_run() {
        let mitigations = [
            Mitigation::None,
            Mitigation::TrimmedMean { trim: 3 },
            Mitigation::ReProbe { probes: 2 },
        ];
        for mitigation in mitigations {
            for (n, zero_probe) in [(600u64, false), (600, true), (0, true)] {
                let config = PetConfig::builder()
                    .accuracy(Accuracy::new(0.45, 0.45).unwrap())
                    .backend(Backend::Oracle)
                    .mitigation(mitigation)
                    .zero_probe(zero_probe)
                    .build()
                    .unwrap();
                assert!(config.rounds() <= DEFAULT_MIN_ROUNDS);
                let estimator = Estimator::new(config);
                let keys: Vec<u64> = (0..n).collect();
                let run = |adaptive: bool| {
                    let mut oracle = CodeRoster::new(&keys, &config, estimator.family());
                    let mut air = Air::new(PerfectChannel);
                    let mut rng = StdRng::seed_from_u64(0xADA);
                    if adaptive {
                        estimator.try_run_adaptive(&mut oracle, &mut air, &mut rng)
                    } else {
                        estimator.try_run_oracle(
                            DEFAULT_MIN_ROUNDS,
                            &mut oracle,
                            &mut air,
                            &mut rng,
                        )
                    }
                    .unwrap()
                };
                let (fixed, adaptive) = (run(false), run(true));
                let label = format!("{mitigation:?}, n = {n}, zero probe {zero_probe}");
                assert_eq!(
                    fixed.estimate.to_bits(),
                    adaptive.estimate.to_bits(),
                    "{label}"
                );
                assert_eq!(
                    fixed.mean_prefix_len.to_bits(),
                    adaptive.mean_prefix_len.to_bits(),
                    "{label}"
                );
                assert_eq!(fixed.records, adaptive.records, "{label}");
                assert_eq!(fixed.metrics, adaptive.metrics, "{label}");
                assert_eq!(fixed.rounds, adaptive.rounds, "{label}");
                assert_eq!(fixed.zero_detected, adaptive.zero_detected, "{label}");
                assert_eq!(adaptive.zero_detected, n == 0, "{label}");
            }
        }
    }
}
