//! Dynamic tag sets and multi-reader mobility (§4.6.3), end to end.

use pet::prelude::*;
use pet::sim::Deployment;
use pet::tags::dynamics::{ChurnEvent, Timeline};
use pet::tags::mobility::ZoneField;
use pet_phy::channel::LossyChannel;

/// Pins the slot-by-slot reader.
fn quick_config() -> PetConfig {
    PetConfig::builder()
        .accuracy(Accuracy::new(0.2, 0.2).unwrap())
        .backend(Backend::Oracle)
        .build()
        .unwrap()
}

/// Estimates track a churning population snapshot by snapshot.
#[test]
fn estimates_track_churn() {
    let estimator = Estimator::new(quick_config());
    let mut timeline = Timeline::new(TagPopulation::sequential(4_000));
    let mut rng = StdRng::seed_from_u64(1);
    for (event, expected) in [
        (ChurnEvent::Join(4_000), 8_000usize),
        (ChurnEvent::Leave(6_000), 2_000),
        (ChurnEvent::Join(1_000), 3_000),
    ] {
        let size = timeline.apply(event);
        assert_eq!(size, expected);
        let report = estimator.estimate_population_rounds(timeline.population(), 384, &mut rng);
        let rel = (report.estimate - expected as f64).abs() / expected as f64;
        assert!(rel < 0.2, "after {event:?}: estimate {}", report.estimate);
    }
}

/// Mobility between estimates does not change what a fully-covering
/// deployment reports.
#[test]
fn mobility_between_estimates_is_invisible_under_full_coverage() {
    let n = 6_000usize;
    let pop = TagPopulation::sequential(n);
    let mut rng = StdRng::seed_from_u64(2);
    let mut field = ZoneField::uniform(n, 4, &mut rng);
    let coverages = vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![3, 0]];
    let config = quick_config();
    for step in 0..3 {
        let deployment = Deployment::new(&pop, field.clone(), coverages.clone());
        let report = deployment.estimate(&config, 384, ChannelModel::Perfect, &mut rng);
        assert_eq!(
            report.covered_tags, n as u64,
            "full coverage at step {step}"
        );
        let rel = (report.estimate - n as f64).abs() / n as f64;
        assert!(rel < 0.2, "step {step}: estimate {}", report.estimate);
        field.step(0.5, &mut rng);
    }
}

/// A tag crossing into an overlap mid-deployment is still counted once —
/// §4.6.3's "equivalent to that of the multiple readers" argument for
/// mobile tags, tested by comparing a clustered and a spread population.
#[test]
fn overlap_crossing_tags_counted_once() {
    let n = 5_000usize;
    let pop = TagPopulation::sequential(n);
    let config = quick_config();
    let mut rng = StdRng::seed_from_u64(3);
    // All tags piled into zone 0, which *every* reader covers.
    let field = ZoneField::clustered(n, 3);
    let coverages = vec![vec![0, 1], vec![0, 2], vec![0]];
    let deployment = Deployment::new(&pop, field, coverages);
    let report = deployment.estimate(&config, 384, ChannelModel::Perfect, &mut rng);
    let rel = (report.estimate - n as f64).abs() / n as f64;
    assert!(
        rel < 0.2,
        "triple-covered tags: estimate {}",
        report.estimate
    );
}

/// Lossy readers in a multi-reader deployment: overlap provides diversity —
/// a tag missed by one reader can still be heard by another, so overlapping
/// lossy coverage beats single lossy coverage.
#[test]
fn overlap_mitigates_reader_loss() {
    let n = 5_000usize;
    let pop = TagPopulation::sequential(n);
    let config = quick_config();
    let lossy = ChannelModel::Lossy(LossyChannel::new(0.4, 0.0).unwrap());
    let rounds = 512;

    // Single lossy reader covering everything.
    let single = Deployment::new(&pop, ZoneField::clustered(n, 1), vec![vec![0]]);
    let mut rng = StdRng::seed_from_u64(4);
    let single_report = single.estimate(&config, rounds, lossy, &mut rng);

    // Three lossy readers all covering the same zone: 0.4³ effective miss.
    let triple = Deployment::new(
        &pop,
        ZoneField::clustered(n, 1),
        vec![vec![0], vec![0], vec![0]],
    );
    let mut rng = StdRng::seed_from_u64(4);
    let triple_report = triple.estimate(&config, rounds, lossy, &mut rng);

    let err = |e: f64| (e - n as f64).abs() / n as f64;
    assert!(
        err(triple_report.estimate) < err(single_report.estimate) + 0.02,
        "triple {} vs single {}",
        triple_report.estimate,
        single_report.estimate
    );
    // And the redundant deployment must be near-unbiased.
    assert!(err(triple_report.estimate) < 0.15);
}

/// The zero probe works through the multi-reader controller too.
#[test]
fn controller_detects_empty_region() {
    let config = PetConfig::builder()
        .accuracy(Accuracy::new(0.2, 0.2).unwrap())
        .zero_probe(true)
        .build()
        .unwrap();
    let pop = TagPopulation::new();
    let deployment = Deployment::new(&pop, ZoneField::clustered(0, 2), vec![vec![0], vec![1]]);
    let mut rng = StdRng::seed_from_u64(5);
    let report = deployment.estimate(&config, 16, ChannelModel::Perfect, &mut rng);
    assert_eq!(report.estimate, 0.0);
    assert_eq!(report.controller_slots, 1, "one probe slot");
}
