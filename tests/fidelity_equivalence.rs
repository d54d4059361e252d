//! Distributional equivalence of the sampled fast paths and the per-tag
//! reference implementations, checked with a two-sample Kolmogorov–Smirnov
//! test rather than by comparing means.

use pet::baselines::{CardinalityEstimator, Fidelity, Fneb, Lof};
use pet::prelude::*;
use pet_stats::ks;

fn sample_estimates(
    estimator: &dyn CardinalityEstimator,
    keys: &[u64],
    rounds: u32,
    trials: usize,
    seed: u64,
) -> Vec<f64> {
    (0..trials)
        .map(|t| {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_add(t as u64 * 7919));
            let mut air = Air::new(ChannelModel::Perfect);
            estimator
                .estimate_rounds(keys, rounds, &mut air, &mut rng)
                .estimate
        })
        .collect()
}

/// LoF's binomial-chain sampler draws from the same estimate distribution
/// as hashing every tag.
#[test]
fn lof_sampled_equals_per_tag_distribution() {
    let keys: Vec<u64> = (0..5_000).collect();
    let per_tag = sample_estimates(&Lof::paper_default(), &keys, 16, 200, 1);
    let sampled = sample_estimates(
        &Lof::paper_default().with_fidelity(Fidelity::Sampled),
        &keys,
        16,
        200,
        2,
    );
    let r = ks::two_sample(&per_tag, &sampled);
    assert!(
        r.same_distribution_at(0.01),
        "LoF fidelities differ: D = {}, p = {}",
        r.statistic,
        r.p_value
    );
}

/// FNEB's inverse-transform sampler draws from the same estimate
/// distribution as hashing every tag into the frame.
#[test]
fn fneb_sampled_equals_per_tag_distribution() {
    let keys: Vec<u64> = (0..5_000).collect();
    let fneb = Fneb::new(1 << 16, Fidelity::PerTag);
    let per_tag = sample_estimates(&fneb, &keys, 16, 200, 3);
    let sampled = sample_estimates(
        &fneb.clone().with_fidelity(Fidelity::Sampled),
        &keys,
        16,
        200,
        4,
    );
    let r = ks::two_sample(&per_tag, &sampled);
    assert!(
        r.same_distribution_at(0.01),
        "FNEB fidelities differ: D = {}, p = {}",
        r.statistic,
        r.p_value
    );
}

/// Negative control: the KS machinery does reject when the workloads truly
/// differ (10% more tags shifts the estimate distribution detectably).
#[test]
fn ks_detects_a_real_population_difference() {
    let keys_a: Vec<u64> = (0..5_000).collect();
    let keys_b: Vec<u64> = (0..5_500).collect();
    let lof = Lof::paper_default().with_fidelity(Fidelity::Sampled);
    let a = sample_estimates(&lof, &keys_a, 64, 200, 5);
    let b = sample_estimates(&lof, &keys_b, 64, 200, 6);
    let r = ks::two_sample(&a, &b);
    assert!(
        !r.same_distribution_at(0.05),
        "KS failed to separate 5,000 from 5,500 tags: p = {}",
        r.p_value
    );
}

/// PET's roster oracle is exact (not sampled), so two independent
/// estimate streams from different manufacture seeds must also be
/// KS-indistinguishable — the §4.5 claim that code refresh does not change
/// the estimator's law.
#[test]
fn pet_estimate_law_is_seed_invariant() {
    let n = 5_000usize;
    let collect = |base_seed: u64| -> Vec<f64> {
        (0..200u64)
            .map(|t| {
                let config = PetConfig::builder()
                    .accuracy(Accuracy::new(0.2, 0.2).unwrap())
                    .manufacture_seed(base_seed ^ (t * 131))
                    .backend(Backend::Oracle)
                    .build()
                    .unwrap();
                let mut rng = StdRng::seed_from_u64(base_seed.wrapping_add(t));
                Estimator::new(config)
                    .estimate_population_rounds(&TagPopulation::sequential(n), 16, &mut rng)
                    .estimate
            })
            .collect()
    };
    let a = collect(0xAAAA);
    let b = collect(0xBBBB);
    let r = ks::two_sample(&a, &b);
    assert!(
        r.same_distribution_at(0.01),
        "PET law depends on the manufacture seed: p = {}",
        r.p_value
    );
}
