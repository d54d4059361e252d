//! Per-category estimation via Gen2 *Select* scoping.
//!
//! EPC C1G2 readers can broadcast a Select command that asserts only tags
//! whose EPC matches a field filter; every subsequent inventory (or PET
//! estimation) round then runs over that subpopulation exclusively. This
//! lets an operator ask "how many pallets *per supplier*?" — one anonymous
//! PET estimate per EPC manager number — without ever reading an ID. The
//! Select broadcast itself is charged as command overhead (a Gen2 Select is
//! on the order of 45 bits plus the mask).

use pet_core::config::PetConfig;
use pet_core::front::Estimator;
use pet_core::oracle::CodeRoster;
use pet_core::session::EstimateReport;
use pet_phy::channel::PerfectChannel;
use pet_phy::Air;
use pet_tags::population::TagPopulation;
use pet_tags::tag::Tag;
use rand::Rng;
use std::collections::BTreeMap;

/// Gen2 Select command overhead: command code + target/action + EBV pointer
/// + length + a 28-bit manager mask + CRC-16 ≈ 45 + 28 bits.
const SELECT_BITS: u32 = 73;

/// One category's estimate.
#[derive(Debug, Clone)]
pub struct CategoryReport {
    /// The category key (e.g. the EPC manager number).
    pub category: u32,
    /// True member count in the scoped population (simulation ground truth,
    /// exposed for evaluation; a real deployment would not know it).
    pub true_count: usize,
    /// The estimation report for this category.
    pub report: EstimateReport,
}

/// Estimates every category of a population, scoping each estimation run
/// with a Select on the key returned by `key_of`.
pub fn estimate_by<K, R>(
    population: &TagPopulation,
    config: &PetConfig,
    rounds: u32,
    key_of: K,
    rng: &mut R,
) -> Vec<CategoryReport>
where
    K: Fn(&Tag) -> u32,
    R: Rng + ?Sized,
{
    let mut groups: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
    for tag in population {
        groups.entry(key_of(tag)).or_default().push(tag.key());
    }
    let estimator = Estimator::new(*config);
    groups
        .into_iter()
        .map(|(category, keys)| {
            let mut oracle = CodeRoster::new(&keys, config, estimator.family());
            let mut air = Air::new(PerfectChannel);
            // The Select broadcast that scopes everything that follows.
            air.broadcast(SELECT_BITS);
            let report = estimator
                .try_run_oracle(rounds, &mut oracle, &mut air, rng)
                .unwrap_or_else(|e| panic!("{e}"));
            CategoryReport {
                category,
                true_count: keys.len(),
                report,
            }
        })
        .collect()
}

/// Convenience: per-EPC-manager estimates (the "per supplier" question).
pub fn estimate_by_manager<R: Rng + ?Sized>(
    population: &TagPopulation,
    config: &PetConfig,
    rounds: u32,
    rng: &mut R,
) -> Vec<CategoryReport> {
    estimate_by(population, config, rounds, |t| t.epc().manager(), rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pet_stats::accuracy::Accuracy;
    use pet_tags::epc::Epc96;
    use pet_tags::tag::TagKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mixed_population(per_supplier: &[(u32, usize)]) -> TagPopulation {
        let mut tags = Vec::new();
        for &(manager, count) in per_supplier {
            for serial in 0..count as u64 {
                tags.push(Tag::new(
                    Epc96::new(0x30, manager, 7, serial).unwrap(),
                    TagKind::Passive,
                ));
            }
        }
        TagPopulation::from_tags(tags)
    }

    fn config() -> PetConfig {
        PetConfig::builder()
            .accuracy(Accuracy::new(0.2, 0.2).unwrap())
            .build()
            .unwrap()
    }

    #[test]
    fn per_supplier_estimates_are_accurate() {
        let pop = mixed_population(&[(100, 3_000), (200, 8_000), (300, 500)]);
        let mut rng = StdRng::seed_from_u64(1);
        let reports = estimate_by_manager(&pop, &config(), 512, &mut rng);
        assert_eq!(reports.len(), 3);
        for r in &reports {
            let rel = (r.report.estimate - r.true_count as f64).abs() / r.true_count as f64;
            assert!(
                rel < 0.25,
                "supplier {}: estimate {} vs {}",
                r.category,
                r.report.estimate,
                r.true_count
            );
        }
        // Sum of category estimates tracks the whole population.
        let total: f64 = reports.iter().map(|r| r.report.estimate).sum();
        assert!((total - 11_500.0).abs() / 11_500.0 < 0.2, "total {total}");
    }

    #[test]
    fn select_overhead_is_charged() {
        let pop = mixed_population(&[(1, 100)]);
        let mut rng = StdRng::seed_from_u64(2);
        let reports = estimate_by_manager(&pop, &config(), 16, &mut rng);
        let m = &reports[0].report.metrics;
        // 16 rounds × (32-bit path + 5 query slots × 5 bits) + the Select.
        assert_eq!(m.command_bits, u64::from(SELECT_BITS) + 16 * (32 + 25));
    }

    #[test]
    fn categories_are_deterministically_ordered() {
        let pop = mixed_population(&[(30, 10), (10, 10), (20, 10)]);
        let mut rng = StdRng::seed_from_u64(3);
        let reports = estimate_by_manager(&pop, &config(), 8, &mut rng);
        let cats: Vec<u32> = reports.iter().map(|r| r.category).collect();
        assert_eq!(cats, vec![10, 20, 30]);
    }

    #[test]
    fn custom_keys_group_by_class() {
        let mut tags = Vec::new();
        for serial in 0..40u64 {
            tags.push(Tag::new(
                Epc96::new(0x30, 1, (serial % 2) as u32, serial).unwrap(),
                TagKind::Passive,
            ));
        }
        let pop = TagPopulation::from_tags(tags);
        let mut rng = StdRng::seed_from_u64(4);
        let reports = estimate_by(&pop, &config(), 8, |t| t.epc().class(), &mut rng);
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].true_count, 20);
        assert_eq!(reports[1].true_count, 20);
    }

    #[test]
    fn empty_population_yields_no_categories() {
        let mut rng = StdRng::seed_from_u64(5);
        let reports = estimate_by_manager(&TagPopulation::new(), &config(), 8, &mut rng);
        assert!(reports.is_empty());
    }
}
