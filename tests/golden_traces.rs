//! Golden protocol traces: exact slot-by-slot transcripts for fixed seeds.
//!
//! These pin the protocol's observable behaviour — any change to path
//! drawing, search order, command sizing, or slot accounting shows up here
//! as a diff, deliberately. (If you *meant* to change the protocol, update
//! the goldens and say so in the changelog.)

use pet::prelude::*;
use pet_core::bits::BitString;
use pet_core::kernel::CodeBank;
use pet_core::oracle::{CodeRoster, ResponderOracle, RoundStart};
use pet_core::reader::{binary_round, linear_round};
use pet_phy::channel::{LossyChannel, PerfectChannel};
use pet_phy::{Air, SlotOutcome};
use std::sync::Arc;

fn fig3_roster() -> CodeRoster {
    let codes: Vec<BitString> = [
        "000000", "001000", "001100", "001110", "010000", "010101", "011011", "011111", "100000",
        "100111", "101010", "101101", "110011", "110110", "111001", "111100",
    ]
    .iter()
    .map(|s| BitString::from_bits(u64::from_str_radix(s, 2).unwrap(), 6).unwrap())
    .collect();
    CodeRoster::from_codes(&codes, 6)
}

fn outcomes(air: &Air<PerfectChannel>) -> Vec<(u64, SlotOutcome)> {
    air.transcript()
        .expect("transcript enabled")
        .records()
        .iter()
        .map(|r| (r.responders, r.outcome))
        .collect()
}

/// The paper's Fig. 3a trace, bit for bit.
#[test]
fn golden_fig3a_linear() {
    let config = pet_core::config::PetConfig::builder()
        .height(6)
        .search(pet_core::config::SearchStrategy::Linear)
        .build()
        .unwrap();
    let mut roster = fig3_roster();
    let path = BitString::from_bits(0b000011, 6).unwrap();
    roster.begin_round(&RoundStart { path, seed: None });
    let mut air = Air::new(PerfectChannel).with_transcript(64);
    let mut rng = StdRng::seed_from_u64(0);
    let rec = linear_round(&config, &mut roster, &mut air, &mut rng);
    assert_eq!(rec.slots, 5);
    assert_eq!(
        outcomes(&air),
        vec![
            (8, SlotOutcome::Collision),
            (4, SlotOutcome::Collision),
            (1, SlotOutcome::Singleton),
            (1, SlotOutcome::Singleton),
            (0, SlotOutcome::Idle),
        ]
    );
}

/// The paper's Fig. 3b trace, bit for bit.
#[test]
fn golden_fig3b_binary() {
    let config = pet_core::config::PetConfig::builder()
        .height(6)
        .build()
        .unwrap();
    let mut roster = fig3_roster();
    let path = BitString::from_bits(0b000011, 6).unwrap();
    roster.begin_round(&RoundStart { path, seed: None });
    let mut air = Air::new(PerfectChannel).with_transcript(64);
    let mut rng = StdRng::seed_from_u64(0);
    let rec = binary_round(&config, &mut roster, &mut air, &mut rng);
    assert_eq!(rec.slots, 2);
    assert_eq!(
        outcomes(&air),
        vec![(1, SlotOutcome::Singleton), (0, SlotOutcome::Idle)]
    );
}

/// A fixed-seed paper-default session: the statistic, slot count, and
/// command bits must never drift.
#[test]
fn golden_default_session() {
    let config = PetConfig::builder()
        .accuracy(Accuracy::new(0.2, 0.2).unwrap())
        .manufacture_seed(0x601D)
        .backend(Backend::Oracle)
        .build()
        .unwrap();
    let pop = TagPopulation::sequential(1_000);
    let mut rng = StdRng::seed_from_u64(0x601D);
    let report = Estimator::new(config).estimate_population_rounds(&pop, 64, &mut rng);
    // Golden values recorded at protocol freeze; see module docs.
    assert_eq!(report.metrics.slots, 320);
    assert_eq!(report.metrics.command_bits, 64 * 32 + 320 * 5);
    let golden_mean_prefix = report.mean_prefix_len;
    // Re-running with the same seeds reproduces the statistic exactly.
    let mut rng = StdRng::seed_from_u64(0x601D);
    let again = Estimator::new(config).estimate_population_rounds(&pop, 64, &mut rng);
    assert_eq!(again.mean_prefix_len, golden_mean_prefix);
    assert_eq!(again.estimate, report.estimate);
    // And the estimate is sane.
    assert!((report.estimate - 1_000.0).abs() / 1_000.0 < 0.35);
}

/// Fixed-seed lossy golden: the exact slot-by-slot outcome sequence of three
/// binary-search rounds over the Fig. 3 population through a
/// `LossyChannel(0.25, 0.05)`, including both fault classes — a dropped
/// response (1 responder read as Idle, round 2) and a phantom-busy slot
/// (0 responders read as Singleton, round 1). The kernel's slot-accurate
/// path must replay the identical transcript from the same seed.
#[test]
fn golden_lossy_trace() {
    const SEED: u64 = 0;
    let channel = LossyChannel::new(0.25, 0.05).unwrap();
    let config = pet_core::config::PetConfig::builder()
        .height(6)
        .channel(ChannelModel::Lossy(channel))
        .build()
        .unwrap();
    let mut roster = fig3_roster();
    let mut air = Air::new(channel).with_transcript(64);
    let mut rng = StdRng::seed_from_u64(SEED);
    let recs: Vec<_> = (0..3)
        .map(|_| pet_core::reader::run_round(&config, &mut roster, &mut air, &mut rng))
        .collect();
    // Golden statistics: the phantom singleton in round 1 keeps its descent
    // alive one level deeper; the dropped response in round 2 cuts it short.
    assert_eq!(
        recs.iter().map(|r| r.prefix_len).collect::<Vec<_>>(),
        vec![5, 4, 5]
    );
    assert_eq!(
        recs.iter().map(|r| r.slots).collect::<Vec<_>>(),
        vec![3, 2, 3]
    );
    let golden = vec![
        (1, SlotOutcome::Singleton),
        (0, SlotOutcome::Singleton), // phantom busy: noise floor on an idle slot
        (0, SlotOutcome::Idle),
        (1, SlotOutcome::Singleton),
        (1, SlotOutcome::Idle), // dropped response: the lone responder is missed
        (1, SlotOutcome::Singleton),
        (1, SlotOutcome::Singleton),
        (0, SlotOutcome::Idle),
    ];
    assert_eq!(
        air.transcript()
            .expect("transcript enabled")
            .records()
            .iter()
            .map(|r| (r.responders, r.outcome))
            .collect::<Vec<_>>(),
        golden
    );

    // The kernel backend replays the same trace bit for bit from the same
    // codes and seed.
    let codes: Arc<Vec<u64>> = Arc::new(fig3_roster().codes().to_vec());
    let kernel_config = pet_core::config::PetConfig::builder()
        .height(6)
        .backend(Backend::Kernel)
        .channel(ChannelModel::Lossy(channel))
        .build()
        .unwrap();
    let mut bank = CodeBank::passive_shared(codes);
    let mut rng = StdRng::seed_from_u64(SEED);
    let (report, transcript) = pet_core::front::Estimator::new(kernel_config)
        .try_run_bank_transcribed(&mut bank, 3, 64, &mut rng)
        .expect("kernel run succeeds");
    assert_eq!(
        report
            .records
            .iter()
            .map(|r| r.prefix_len)
            .collect::<Vec<_>>(),
        vec![5, 4, 5]
    );
    assert_eq!(
        transcript
            .records()
            .iter()
            .map(|r| (r.responders, r.outcome))
            .collect::<Vec<_>>(),
        golden
    );
}

/// Fixed-seed multi-round transcript: the exact query-slot outcome sequence
/// of the first two default-config rounds over the Fig. 3 population.
#[test]
fn golden_two_round_transcript() {
    let config = pet_core::config::PetConfig::builder()
        .height(6)
        .build()
        .unwrap();
    let mut roster = fig3_roster();
    let mut air = Air::new(PerfectChannel).with_transcript(64);
    let mut rng = StdRng::seed_from_u64(42);
    let r1 = pet_core::reader::run_round(&config, &mut roster, &mut air, &mut rng);
    let r2 = pet_core::reader::run_round(&config, &mut roster, &mut air, &mut rng);
    // The statistics are deterministic under seed 42.
    assert_eq!((r1.prefix_len, r2.prefix_len), (4, 5));
    let total_slots = u64::from(r1.slots + r2.slots);
    assert_eq!(air.metrics().slots, total_slots);
    assert!(air.metrics().is_consistent());
}
