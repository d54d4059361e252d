//! The result of one PET estimation.
//!
//! Every [`crate::Estimator`] entry point returns an [`EstimateReport`]:
//! the Eq. (14) estimate over the rounds run (`m` from Eq. (20) unless the
//! caller picks a count), the per-round records, and the air costs.

use crate::config::PetConfig;
use crate::error::PetError;
use crate::estimator::aggregate_records;
use crate::reader::RoundRecord;
use pet_phy::{AirMetrics, PhyReport};

/// Result of one complete estimation.
#[derive(Debug, Clone)]
pub struct EstimateReport {
    /// The cardinality estimate `n̂`.
    pub estimate: f64,
    /// Rounds executed.
    pub rounds: u32,
    /// Mean responsive prefix length `L̄` across rounds.
    pub mean_prefix_len: f64,
    /// Air costs (slots, command bits) for the whole estimation.
    pub metrics: AirMetrics,
    /// Set when the zero probe fired and found an empty region (in which
    /// case `estimate` is exactly 0 and no rounds were run).
    pub zero_detected: bool,
    /// Per-round records, in order.
    pub records: Vec<RoundRecord>,
    /// Wall-clock/energy ledger when the config carries a
    /// [`pet_phy::PhyProfile`] (`None` otherwise). Computed as a pure fold
    /// over `metrics` after the run, so its presence never changes
    /// `estimate`, `records`, or `metrics` (pinned by the
    /// `phy_conformance` differential).
    pub phy: Option<PhyReport>,
}

/// Folds finished [`AirMetrics`] into the configured PHY report (if any)
/// and emits the `phy.wall_ms` / `phy.energy_uj` telemetry counters. Pure
/// with respect to the protocol: reads the config and metrics only.
fn phy_fold(config: &PetConfig, metrics: &AirMetrics) -> Option<PhyReport> {
    let report = config.phy().map(|profile| profile.report(metrics));
    if let Some(r) = &report {
        if pet_obs::enabled() {
            pet_obs::counter("phy.wall_ms", r.wall_ms.round() as u64);
            pet_obs::counter("phy.energy_uj", r.energy_uj.round() as u64);
        }
    }
    report
}

impl EstimateReport {
    /// The report of a run whose zero probe heard nobody: the estimate is
    /// exactly 0 and no rounds ran.
    pub(crate) fn empty_region(config: &PetConfig, metrics: AirMetrics) -> Self {
        Self {
            estimate: 0.0,
            rounds: 0,
            mean_prefix_len: 0.0,
            metrics,
            zero_detected: true,
            records: Vec::new(),
            phy: phy_fold(config, &metrics),
        }
    }

    /// Aggregates finished rounds under the configured mitigation.
    pub(crate) fn from_records(
        config: &PetConfig,
        records: Vec<RoundRecord>,
        metrics: AirMetrics,
    ) -> Self {
        let (estimate, mean_prefix_len) =
            aggregate_records(config.height(), &records, config.mitigation());
        Self {
            estimate,
            rounds: records.len() as u32,
            mean_prefix_len,
            metrics,
            zero_detected: false,
            records,
            phy: phy_fold(config, &metrics),
        }
    }

    /// Two-sided confidence interval of the estimate at error probability
    /// `delta`, from the asymptotic law of the mean gray-node statistic
    /// (`L̄ ~ N(E L, σ(h)/√m)` ⇒ multiplicative `2^±(c·σ/√m)` bounds).
    ///
    /// Returns `(0.0, 0.0)` when the zero probe detected an empty region.
    ///
    /// # Panics
    ///
    /// Panics if `delta` lies outside `(0, 1)` or no rounds were run on a
    /// non-empty region. [`Self::try_confidence_interval`] reports the same
    /// conditions as values.
    #[must_use]
    pub fn confidence_interval(&self, delta: f64) -> (f64, f64) {
        match self.try_confidence_interval(delta) {
            Ok(interval) => interval,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible form of [`Self::confidence_interval`].
    ///
    /// # Errors
    ///
    /// [`PetError::InvalidDelta`] when `delta` lies outside `(0, 1)`, and
    /// [`PetError::NoRoundsRun`] when the report holds no rounds on a
    /// non-empty region.
    pub fn try_confidence_interval(&self, delta: f64) -> Result<(f64, f64), PetError> {
        if self.zero_detected {
            return Ok((0.0, 0.0));
        }
        if !(delta > 0.0 && delta < 1.0) {
            return Err(PetError::InvalidDelta(delta));
        }
        if self.rounds == 0 {
            return Err(PetError::NoRoundsRun);
        }
        let c = pet_stats::erf::two_sided_quantile(delta);
        let half = c * pet_stats::gray::SIGMA_H / f64::from(self.rounds).sqrt();
        Ok((
            self.estimate * 2f64.powf(-half),
            self.estimate * 2f64.powf(half),
        ))
    }
}

/// End-to-end runs through [`crate::Estimator`]. Tests that stand in for
/// the slot-by-slot reader pin [`Backend::Oracle`]; the `engine_*` tests
/// run the same inputs through both backends and demand identical reports.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Backend, Mitigation, PetConfigBuilder, SearchStrategy, TagMode};
    use crate::front::Estimator;
    use crate::oracle::CodeRoster;
    use pet_phy::channel::{ChannelModel, LossyChannel, PerfectChannel};
    use pet_phy::Air;
    use pet_stats::accuracy::Accuracy;
    use pet_tags::population::TagPopulation;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    /// The slot-by-slot reference reader, at a loose accuracy to keep unit
    /// tests fast; statistical quality is covered by the integration suite
    /// and benches.
    fn builder() -> PetConfigBuilder {
        PetConfig::builder()
            .backend(Backend::Oracle)
            .accuracy(Accuracy::new(0.2, 0.2).unwrap())
    }

    fn quick_config() -> PetConfig {
        builder().build().unwrap()
    }

    /// One configuration on both backends: `(reference reader, kernel)`.
    fn pair(builder: PetConfigBuilder) -> (Estimator, Estimator) {
        let build = |backend| Estimator::new(builder.backend(backend).build().unwrap());
        (build(Backend::Oracle), build(Backend::Kernel))
    }

    #[test]
    fn estimates_are_in_the_right_ballpark() {
        let mut rng = StdRng::seed_from_u64(1);
        let estimator = Estimator::new(quick_config());
        for &n in &[100usize, 1_000, 10_000] {
            let pop = TagPopulation::sequential(n);
            let report = estimator.estimate_population_rounds(&pop, 256, &mut rng);
            let rel = (report.estimate - n as f64).abs() / n as f64;
            assert!(
                rel < 0.3,
                "n = {n}: estimate {} off by {rel}",
                report.estimate
            );
        }
    }

    /// Table 3's accounting: total slots = 5m at H = 32 (for n large enough
    /// that disambiguation never fires).
    #[test]
    fn slot_budget_is_five_per_round() {
        let mut rng = StdRng::seed_from_u64(2);
        let estimator = Estimator::new(quick_config());
        let pop = TagPopulation::sequential(5_000);
        let report = estimator.estimate_population_rounds(&pop, 64, &mut rng);
        assert_eq!(report.metrics.slots, 64 * 5);
        assert_eq!(report.rounds, 64);
        assert_eq!(report.records.len(), 64);
    }

    #[test]
    fn configured_rounds_follow_accuracy() {
        let mut rng = StdRng::seed_from_u64(3);
        let config = builder()
            .accuracy(Accuracy::new(0.3, 0.3).unwrap())
            .build()
            .unwrap();
        let estimator = Estimator::new(config);
        let pop = TagPopulation::sequential(1_000);
        let report = estimator.estimate_population(&pop, &mut rng);
        assert_eq!(report.rounds, config.rounds());
        assert_eq!(
            report.metrics.slots,
            u64::from(report.rounds) * 5,
            "5 slots/round"
        );
    }

    #[test]
    fn zero_probe_detects_empty_region() {
        let mut rng = StdRng::seed_from_u64(4);
        let config = builder().zero_probe(true).build().unwrap();
        let estimator = Estimator::new(config);
        let report = estimator.estimate_population(&TagPopulation::new(), &mut rng);
        assert!(report.zero_detected);
        assert_eq!(report.estimate, 0.0);
        assert_eq!(report.metrics.slots, 1, "only the probe slot");
    }

    #[test]
    fn zero_probe_passes_through_when_tags_exist() {
        let mut rng = StdRng::seed_from_u64(5);
        let config = builder().zero_probe(true).build().unwrap();
        let estimator = Estimator::new(config);
        let pop = TagPopulation::sequential(500);
        let report = estimator.estimate_population_rounds(&pop, 32, &mut rng);
        assert!(!report.zero_detected);
        assert_eq!(report.metrics.slots, 1 + 32 * 5);
    }

    #[test]
    fn without_zero_probe_empty_region_estimates_below_one() {
        let mut rng = StdRng::seed_from_u64(6);
        let estimator = Estimator::new(quick_config());
        let report = estimator.estimate_population_rounds(&TagPopulation::new(), 16, &mut rng);
        assert!(!report.zero_detected);
        assert!(report.estimate < 1.0);
    }

    /// §4.5's claim: the passive preloaded-code variant estimates as well as
    /// the active per-round variant.
    #[test]
    fn passive_and_active_modes_agree_statistically() {
        let n = 2_000usize;
        let pop = TagPopulation::sequential(n);
        let mut estimates = Vec::new();
        for mode in [TagMode::PassivePreloaded, TagMode::ActivePerRound] {
            let config = builder().tag_mode(mode).build().unwrap();
            let estimator = Estimator::new(config);
            let mut rng = StdRng::seed_from_u64(7);
            let report = estimator.estimate_population_rounds(&pop, 512, &mut rng);
            estimates.push(report.estimate);
        }
        let rel = (estimates[0] - estimates[1]).abs() / n as f64;
        assert!(
            rel < 0.15,
            "passive {} vs active {}",
            estimates[0],
            estimates[1]
        );
    }

    #[test]
    fn linear_strategy_sessions_work_end_to_end() {
        let mut rng = StdRng::seed_from_u64(8);
        let config = builder().search(SearchStrategy::Linear).build().unwrap();
        let estimator = Estimator::new(config);
        let pop = TagPopulation::sequential(1_000);
        let report = estimator.estimate_population_rounds(&pop, 128, &mut rng);
        let rel = (report.estimate - 1_000.0).abs() / 1_000.0;
        assert!(rel < 0.3, "estimate {}", report.estimate);
        // Linear rounds cost ≈ log₂ n + 1 slots, well above binary's 5.
        let per_round = report.metrics.slots as f64 / 128.0;
        assert!(per_round > 8.0, "slots/round {per_round}");
    }

    #[test]
    fn confidence_interval_brackets_truth_usually() {
        let mut rng = StdRng::seed_from_u64(10);
        let estimator = Estimator::new(quick_config());
        let pop = TagPopulation::sequential(5_000);
        let report = estimator.estimate_population_rounds(&pop, 256, &mut rng);
        let (lo, hi) = report.confidence_interval(0.05);
        assert!(lo < report.estimate && report.estimate < hi);
        assert!(lo < 5_000.0 && 5_000.0 < hi, "CI ({lo}, {hi}) misses truth");
        // Tighter delta → wider interval.
        let (lo2, hi2) = report.confidence_interval(0.001);
        assert!(lo2 < lo && hi2 > hi);
    }

    #[test]
    fn confidence_interval_zero_region() {
        let mut rng = StdRng::seed_from_u64(11);
        let config = builder().zero_probe(true).build().unwrap();
        let report = Estimator::new(config).estimate_population(&TagPopulation::new(), &mut rng);
        assert_eq!(report.confidence_interval(0.05), (0.0, 0.0));
    }

    /// The kernel backend's report must equal the reference reader's field
    /// by field (estimate bits, records, metrics) for the same RNG stream.
    #[test]
    fn engine_matches_session_bit_for_bit() {
        for mode in [TagMode::PassivePreloaded, TagMode::ActivePerRound] {
            for zero_probe in [false, true] {
                let (reader, kernel) = pair(builder().tag_mode(mode).zero_probe(zero_probe));
                let pop = TagPopulation::sequential(700);
                let mut rng_a = StdRng::seed_from_u64(77);
                let mut rng_b = StdRng::seed_from_u64(77);
                let slow = reader.estimate_population_rounds(&pop, 48, &mut rng_a);
                let keys: Vec<u64> = pop.keys().collect();
                let fast = kernel.estimate_keys_rounds(&keys, 48, &mut rng_b);
                assert_eq!(slow.estimate.to_bits(), fast.estimate.to_bits());
                assert_eq!(
                    slow.mean_prefix_len.to_bits(),
                    fast.mean_prefix_len.to_bits()
                );
                assert_eq!(slow.records, fast.records, "mode {mode:?}");
                assert_eq!(slow.metrics, fast.metrics, "mode {mode:?}");
                assert_eq!(slow.rounds, fast.rounds);
                assert_eq!(slow.zero_detected, fast.zero_detected);
            }
        }
    }

    /// Zero probe over an empty bank short-circuits identically.
    #[test]
    fn engine_zero_probe_detects_empty_region() {
        let (reader, kernel) = pair(builder().zero_probe(true));
        let mut rng_a = StdRng::seed_from_u64(4);
        let mut rng_b = StdRng::seed_from_u64(4);
        let slow = reader.estimate_population(&TagPopulation::new(), &mut rng_a);
        let rounds = kernel.config().rounds();
        let fast = kernel.estimate_keys_rounds(&[], rounds, &mut rng_b);
        assert!(fast.zero_detected);
        assert_eq!(slow.metrics, fast.metrics);
        assert_eq!(slow.estimate.to_bits(), fast.estimate.to_bits());
    }

    #[test]
    fn try_confidence_interval_reports_errors() {
        let mut rng = StdRng::seed_from_u64(10);
        let estimator = Estimator::new(quick_config());
        let pop = TagPopulation::sequential(100);
        let report = estimator.estimate_population_rounds(&pop, 16, &mut rng);
        let (lo, hi) = report.try_confidence_interval(0.05).unwrap();
        assert_eq!((lo, hi), report.confidence_interval(0.05));
        assert_eq!(
            report.try_confidence_interval(0.0).unwrap_err(),
            crate::PetError::InvalidDelta(0.0)
        );
        let mut unrun = report.clone();
        unrun.rounds = 0;
        assert_eq!(
            unrun.try_confidence_interval(0.05).unwrap_err(),
            crate::PetError::NoRoundsRun
        );
    }

    #[test]
    fn try_run_rounds_rejects_zero_as_value() {
        let mut rng = StdRng::seed_from_u64(9);
        let estimator = Estimator::new(quick_config());
        let keys: Vec<u64> = (0..10).collect();
        let mut oracle = CodeRoster::new(&keys, estimator.config(), estimator.family());
        let mut air = Air::new(PerfectChannel);
        let err = estimator
            .try_run_oracle(0, &mut oracle, &mut air, &mut rng)
            .unwrap_err();
        assert_eq!(err, crate::PetError::ZeroRounds);
    }

    #[test]
    #[should_panic(expected = "at least one round")]
    fn zero_rounds_rejected() {
        let mut rng = StdRng::seed_from_u64(9);
        let estimator = Estimator::new(quick_config());
        let _ = estimator.estimate_population_rounds(&TagPopulation::sequential(10), 0, &mut rng);
    }

    fn lossy_builder(mode: TagMode, mitigation: Mitigation) -> PetConfigBuilder {
        builder()
            .tag_mode(mode)
            .channel(ChannelModel::Lossy(LossyChannel::new(0.1, 0.02).unwrap()))
            .mitigation(mitigation)
    }

    /// The tentpole invariant: backend equivalence must survive fault
    /// injection — lossy channel, both tag modes, with and without
    /// mitigation.
    #[test]
    fn engine_matches_session_bit_for_bit_under_loss() {
        for mode in [TagMode::PassivePreloaded, TagMode::ActivePerRound] {
            for mitigation in [
                Mitigation::None,
                Mitigation::TrimmedMean { trim: 3 },
                Mitigation::ReProbe { probes: 2 },
            ] {
                let (reader, kernel) = pair(lossy_builder(mode, mitigation));
                let pop = TagPopulation::sequential(600);
                let mut rng_a = StdRng::seed_from_u64(123);
                let mut rng_b = StdRng::seed_from_u64(123);
                let slow = reader.estimate_population_rounds(&pop, 48, &mut rng_a);
                let keys: Vec<u64> = pop.keys().collect();
                let fast = kernel.estimate_keys_rounds(&keys, 48, &mut rng_b);
                assert_eq!(slow.estimate.to_bits(), fast.estimate.to_bits());
                assert_eq!(slow.records, fast.records, "mode {mode:?} {mitigation:?}");
                assert_eq!(slow.metrics, fast.metrics, "mode {mode:?} {mitigation:?}");
            }
        }
    }

    /// A lossy channel actually perturbs the transcript relative to the
    /// perfect channel under the same seed (the fault injection is live).
    #[test]
    fn lossy_channel_changes_outcomes() {
        let perfect = quick_config();
        let heavy = builder()
            .channel(ChannelModel::Lossy(LossyChannel::new(0.4, 0.0).unwrap()))
            .build()
            .unwrap();
        let pop = TagPopulation::sequential(500);
        let mut rng_a = StdRng::seed_from_u64(5);
        let mut rng_b = StdRng::seed_from_u64(5);
        let clean = Estimator::new(perfect).estimate_population_rounds(&pop, 64, &mut rng_a);
        let noisy = Estimator::new(heavy).estimate_population_rounds(&pop, 64, &mut rng_b);
        assert_ne!(clean.records, noisy.records, "40% miss must perturb rounds");
        // Missed responses bias the prefix statistic low.
        assert!(noisy.mean_prefix_len < clean.mean_prefix_len);
    }

    /// The kernel backend's transcribed run equals the reference reader's
    /// transcript slot for slot, report included.
    #[test]
    fn transcribed_run_matches_oracle_transcript() {
        for mitigation in [Mitigation::None, Mitigation::TrimmedMean { trim: 2 }] {
            let (reader, kernel) = pair(lossy_builder(TagMode::PassivePreloaded, mitigation));
            let keys: Vec<u64> = (0..400u64).map(|k| k.wrapping_mul(0x9e37_79b9)).collect();

            let mut rng_a = StdRng::seed_from_u64(42);
            let mut oracle = CodeRoster::new(&keys, reader.config(), reader.family());
            let mut air = Air::new(reader.config().channel()).with_transcript(4096);
            let slow = reader
                .try_run_oracle(32, &mut oracle, &mut air, &mut rng_a)
                .unwrap();
            let slow_tape = air.transcript().cloned().unwrap();

            let mut rng_b = StdRng::seed_from_u64(42);
            let mut bank = kernel.bank_for_keys(Arc::new(keys.clone()));
            let (fast, fast_tape) = kernel
                .try_run_bank_transcribed(&mut bank, 32, 4096, &mut rng_b)
                .unwrap();
            assert_eq!(slow.estimate.to_bits(), fast.estimate.to_bits());
            assert_eq!(slow.records, fast.records);
            assert_eq!(slow.metrics, fast.metrics);
            assert_eq!(slow_tape.records(), fast_tape.records());
            assert!(!fast_tape.records().is_empty());
        }
    }

    /// `Perfect + ReProbe` exercises the arithmetic fast path's synthetic
    /// re-probe accounting against the slot-accurate oracle loop: idle
    /// readings repeat, busy ones don't, and the statistic is untouched.
    #[test]
    fn reprobe_on_perfect_channel_only_adds_idle_slots() {
        for mode in [TagMode::PassivePreloaded, TagMode::ActivePerRound] {
            let build = |mitigation| builder().tag_mode(mode).mitigation(mitigation);
            let (reader, kernel) = pair(build(Mitigation::ReProbe { probes: 2 }));
            let pop = TagPopulation::sequential(300);
            let keys: Vec<u64> = pop.keys().collect();
            let mut rng_a = StdRng::seed_from_u64(21);
            let mut rng_b = StdRng::seed_from_u64(21);
            let slow = reader.estimate_population_rounds(&pop, 40, &mut rng_a);
            let fast = kernel.estimate_keys_rounds(&keys, 40, &mut rng_b);
            assert_eq!(slow.estimate.to_bits(), fast.estimate.to_bits());
            assert_eq!(slow.records, fast.records, "mode {mode:?}");
            assert_eq!(slow.metrics, fast.metrics, "mode {mode:?}");

            // Same seed without re-probe: identical statistic, fewer slots
            // (each binary round re-reads its idle decisions twice).
            let mut rng_c = StdRng::seed_from_u64(21);
            let plain = Estimator::new(build(Mitigation::None).build().unwrap())
                .estimate_population_rounds(&pop, 40, &mut rng_c);
            assert_eq!(plain.estimate.to_bits(), slow.estimate.to_bits());
            assert!(slow.metrics.slots > plain.metrics.slots);
            assert_eq!(slow.metrics.collision, plain.metrics.collision);
            assert_eq!(slow.metrics.singleton, plain.metrics.singleton);
        }
    }

    /// Re-probing measurably recovers loss-truncated prefixes: under a
    /// miss-heavy channel the probed reader's statistic moves back toward
    /// the clean one.
    #[test]
    fn reprobe_recovers_missed_responses() {
        let channel = ChannelModel::Lossy(LossyChannel::new(0.3, 0.0).unwrap());
        let build = |mitigation| {
            builder()
                .channel(channel)
                .mitigation(mitigation)
                .build()
                .unwrap()
        };
        let pop = TagPopulation::sequential(2_000);
        let mut rng = StdRng::seed_from_u64(33);
        let clean = Estimator::new(quick_config()).estimate_population_rounds(&pop, 128, &mut rng);
        let mut rng = StdRng::seed_from_u64(33);
        let lossy =
            Estimator::new(build(Mitigation::None)).estimate_population_rounds(&pop, 128, &mut rng);
        let mut rng = StdRng::seed_from_u64(33);
        let probed = Estimator::new(build(Mitigation::ReProbe { probes: 2 }))
            .estimate_population_rounds(&pop, 128, &mut rng);
        assert!(lossy.mean_prefix_len < clean.mean_prefix_len);
        assert!(
            probed.mean_prefix_len > lossy.mean_prefix_len,
            "probed {} vs lossy {}",
            probed.mean_prefix_len,
            lossy.mean_prefix_len
        );
        let gap = |r: &EstimateReport| (r.mean_prefix_len - clean.mean_prefix_len).abs();
        assert!(gap(&probed) < gap(&lossy));
    }

    /// Mitigation changes only the aggregation, not the protocol: same
    /// records and metrics, different estimate arithmetic.
    #[test]
    fn mitigation_is_aggregation_only() {
        let pop = TagPopulation::sequential(900);
        let mut reports = Vec::new();
        for mitigation in [Mitigation::None, Mitigation::TrimmedMean { trim: 4 }] {
            let config = lossy_builder(TagMode::PassivePreloaded, mitigation)
                .build()
                .unwrap();
            let mut rng = StdRng::seed_from_u64(9);
            reports.push(Estimator::new(config).estimate_population_rounds(&pop, 40, &mut rng));
        }
        assert_eq!(reports[0].records, reports[1].records);
        assert_eq!(reports[0].metrics, reports[1].metrics);
    }
}
