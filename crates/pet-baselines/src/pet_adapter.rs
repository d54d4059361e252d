//! PET behind the common [`CardinalityEstimator`] trait.

use crate::{CardinalityEstimator, Estimate};
use pet_core::config::PetConfig;
use pet_core::front::Estimator;
use pet_core::oracle::CodeRoster;
use pet_phy::channel::ChannelModel;
use pet_phy::Air;
use pet_stats::accuracy::Accuracy;
use rand::RngCore;

/// PET as a [`CardinalityEstimator`], so the experiment harness can sweep it
/// alongside the baselines.
#[derive(Debug, Clone)]
pub struct PetAdapter {
    config: PetConfig,
}

impl PetAdapter {
    /// Wraps an explicit PET configuration.
    #[must_use]
    pub fn new(config: PetConfig) -> Self {
        Self { config }
    }

    /// The paper's default configuration (`H = 32`, binary search, passive
    /// preloaded codes).
    #[must_use]
    pub fn paper_default() -> Self {
        Self::new(PetConfig::paper_default())
    }

    /// The wrapped configuration.
    #[must_use]
    pub fn config(&self) -> &PetConfig {
        &self.config
    }
}

impl CardinalityEstimator for PetAdapter {
    fn name(&self) -> &str {
        "PET"
    }

    fn rounds(&self, accuracy: &Accuracy) -> u32 {
        accuracy.pet_rounds()
    }

    fn slots_per_round(&self) -> u64 {
        u64::from(self.config.slots_per_round_nominal())
    }

    /// §4.5: one preloaded `H`-bit code, used across *all* rounds, plus the
    /// two `⌈log₂H⌉`-bit working registers of the 1-bit feedback mode.
    fn tag_memory_bits(&self, _accuracy: &Accuracy) -> u64 {
        let register = u64::from(32 - (self.config.height() - 1).leading_zeros());
        u64::from(self.config.height()) + 2 * register
    }

    fn estimate_rounds(
        &self,
        keys: &[u64],
        rounds: u32,
        air: &mut Air<ChannelModel>,
        rng: &mut dyn RngCore,
    ) -> Estimate {
        let estimator = Estimator::new(self.config);
        let mut oracle = CodeRoster::new(keys, &self.config, estimator.family());
        let report = estimator
            .try_run_oracle(rounds, &mut oracle, air, rng)
            .unwrap_or_else(|e| panic!("{e}"));
        Estimate {
            estimate: report.estimate,
            rounds: report.rounds,
            metrics: report.metrics,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn adapter_matches_direct_session() {
        let keys: Vec<u64> = (0..2_000).collect();
        let adapter = PetAdapter::paper_default();
        let mut air = Air::new(ChannelModel::Perfect);
        let mut rng = StdRng::seed_from_u64(1);
        let est = adapter.estimate_rounds(&keys, 512, &mut air, &mut rng);
        let rel = (est.estimate - 2_000.0).abs() / 2_000.0;
        assert!(rel < 0.2, "estimate {}", est.estimate);
        assert_eq!(est.metrics.slots, 512 * 5);
    }

    #[test]
    fn memory_is_constant_in_accuracy() {
        let adapter = PetAdapter::paper_default();
        let loose = Accuracy::new(0.2, 0.2).unwrap();
        let tight = Accuracy::new(0.01, 0.01).unwrap();
        assert_eq!(
            adapter.tag_memory_bits(&loose),
            adapter.tag_memory_bits(&tight)
        );
        // 32-bit code + 2 × 5-bit registers.
        assert_eq!(adapter.tag_memory_bits(&loose), 42);
    }

    #[test]
    fn nominal_slots_match_table3() {
        let adapter = PetAdapter::paper_default();
        assert_eq!(adapter.slots_per_round(), 5);
        let acc = Accuracy::new(0.05, 0.01).unwrap();
        assert_eq!(adapter.total_slots(&acc), u64::from(acc.pet_rounds()) * 5);
    }
}
