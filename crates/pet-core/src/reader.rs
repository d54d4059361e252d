//! Reader-side round execution: Algorithms 1 and 3.
//!
//! Both algorithms measure the same statistic — the longest prefix length
//! `L` of the estimating path that draws a response (the gray node sits at
//! depth `L`, height `h = H − L`) — differing only in how many slots they
//! spend finding it:
//!
//! - [`linear_round`] (Algorithm 1) grows the prefix one bit per slot until
//!   the first idle slot: `L + 1 ≈ log₂ n` slots.
//! - [`binary_round`] (Algorithm 3) binary-searches the prefix length:
//!   `⌈log₂ H⌉ = 5` slots at `H = 32`, i.e. `O(log log n)`.
//!
//! One refinement over the paper's pseudocode: Algorithm 3 searches
//! `low ∈ [1, 32]` and therefore cannot represent `L = 0` (no tag matches
//! even the first path bit — probability `≈ e^{−n/2}`, vanishing for the
//! paper's populations but real for tiny ones). Five binary answers cannot
//! distinguish 33 outcomes, so when the search converges to `low = 1`
//! without ever hearing a busy slot we spend one *disambiguation slot*
//! querying the 1-bit prefix directly. Expected cost stays 5 + o(1) slots
//! per round (Table 3 reproduces); small-`n` correctness is preserved.

use crate::bits::BitString;
use crate::config::{Mitigation, PetConfig, SearchStrategy, TagMode};
use crate::oracle::{ResponderOracle, RoundStart};
use pet_phy::channel::Channel;
use pet_phy::{Air, AirMetrics, SlotOutcome};
use rand::Rng;

/// Outcome of one estimation round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundRecord {
    /// Longest responsive prefix length `L` (gray node depth).
    pub prefix_len: u32,
    /// Gray-node height `h = H − L`, the paper's statistic.
    pub gray_height: u32,
    /// Query slots spent this round.
    pub slots: u32,
    /// Whether the `L ∈ {0, 1}` disambiguation slot was needed.
    pub disambiguated: bool,
}

/// Runs one full round under `config`: draws the estimating path (and seed),
/// announces it, and locates the gray node with the configured strategy.
pub fn run_round<O, C, R>(
    config: &PetConfig,
    oracle: &mut O,
    air: &mut Air<C>,
    rng: &mut R,
) -> RoundRecord
where
    O: ResponderOracle,
    C: Channel,
    R: Rng + ?Sized,
{
    let span = pet_obs::span("core.round");
    let before = *air.metrics();
    let path = BitString::random(config.height(), rng);
    let seed = match config.tag_mode() {
        TagMode::ActivePerRound => Some(rng.random::<u64>()),
        TagMode::PassivePreloaded => None,
    };
    oracle.begin_round(&RoundStart { path, seed });
    air.broadcast(config.round_start_bits());
    let record = match config.search() {
        SearchStrategy::Linear => linear_round(config, oracle, air, rng),
        SearchStrategy::Binary => binary_round(config, oracle, air, rng),
    };
    drop(span);
    record_round_telemetry(config, &record);
    record_outcome_telemetry(&before, air.metrics());
    record
}

/// Emits the per-round slot/bit counters shared by the oracle reader and
/// the batched lossless kernel (in [`crate::front`]), so traces from either
/// backend aggregate under the same names. Costs one branch when telemetry
/// is disabled.
pub(crate) fn record_round_telemetry(config: &PetConfig, record: &RoundRecord) {
    if !pet_obs::enabled() {
        return;
    }
    pet_obs::counter("core.rounds", 1);
    pet_obs::counter("core.round.slots", u64::from(record.slots));
    let command_bits = u64::from(config.round_start_bits())
        + u64::from(record.slots) * u64::from(config.encoding().bits_per_query(config.height()));
    pet_obs::counter("core.round.command_bits", command_bits);
}

/// Emits this round's slot-outcome tallies (`core.round.slots.idle` /
/// `.singleton` / `.collision`, summing to `core.round.slots`) from a
/// before/after [`AirMetrics`] snapshot — the observable that makes channel
/// fault injection visible in telemetry. Shared by both backends so the
/// counters aggregate under the same names. Zero increments are skipped to
/// keep JSONL streams lean.
pub(crate) fn record_outcome_telemetry(before: &AirMetrics, after: &AirMetrics) {
    if !pet_obs::enabled() {
        return;
    }
    for (name, delta) in [
        ("core.round.slots.idle", after.idle - before.idle),
        (
            "core.round.slots.singleton",
            after.singleton - before.singleton,
        ),
        (
            "core.round.slots.collision",
            after.collision - before.collision,
        ),
    ] {
        if delta > 0 {
            pet_obs::counter(name, delta);
        }
    }
}

/// Runs one slot, re-transmitting idle readings when
/// [`Mitigation::ReProbe`] is configured: up to `probes` extra readings of
/// the same query, stopping at the first busy one (the last reading wins).
/// Each reading is a real slot — it hits the channel, the metrics, the
/// transcript, and `slots`. Shared by both protocol loops and the
/// session-level zero probe so every backend re-probes identically.
pub(crate) fn probed_slot<C, R>(
    mitigation: Mitigation,
    air: &mut Air<C>,
    responders: u64,
    bits: u32,
    slots: &mut u32,
    rng: &mut R,
) -> SlotOutcome
where
    C: Channel,
    R: Rng + ?Sized,
{
    let mut outcome = air.slot(responders, bits, rng);
    *slots += 1;
    if let Mitigation::ReProbe { probes } = mitigation {
        for _ in 0..probes {
            if !outcome.is_idle() {
                break;
            }
            outcome = air.slot(responders, bits, rng);
            *slots += 1;
        }
    }
    outcome
}

/// Algorithm 1: additively growing prefix queries until the first idle slot.
///
/// `begin_round` must already have been called on the oracle.
pub fn linear_round<O, C, R>(
    config: &PetConfig,
    oracle: &mut O,
    air: &mut Air<C>,
    rng: &mut R,
) -> RoundRecord
where
    O: ResponderOracle,
    C: Channel,
    R: Rng + ?Sized,
{
    let height = config.height();
    let bits = config.encoding().bits_per_query(height);
    let mut slots = 0;
    let mut prefix_len = height; // if every query is busy, L = H
    for j in 1..=height {
        let outcome = probed_slot(
            config.mitigation(),
            air,
            oracle.responders(j),
            bits,
            &mut slots,
            rng,
        );
        oracle.feedback(outcome.is_busy());
        if outcome.is_idle() {
            prefix_len = j - 1;
            break;
        }
    }
    RoundRecord {
        prefix_len,
        gray_height: height - prefix_len,
        slots,
        disambiguated: false,
    }
}

/// Algorithm 3: binary search for the last responsive prefix length, plus
/// the rare `L ∈ {0, 1}` disambiguation slot described in the module docs.
///
/// `begin_round` must already have been called on the oracle.
pub fn binary_round<O, C, R>(
    config: &PetConfig,
    oracle: &mut O,
    air: &mut Air<C>,
    rng: &mut R,
) -> RoundRecord
where
    O: ResponderOracle,
    C: Channel,
    R: Rng + ?Sized,
{
    let height = config.height();
    let bits = config.encoding().bits_per_query(height);
    let mut low = 1u32;
    let mut high = height;
    let mut slots = 0;
    let mut any_busy = false;
    while low < high {
        let mid = (low + high).div_ceil(2);
        let outcome = probed_slot(
            config.mitigation(),
            air,
            oracle.responders(mid),
            bits,
            &mut slots,
            rng,
        );
        oracle.feedback(outcome.is_busy());
        if outcome.is_busy() {
            low = mid;
            any_busy = true;
        } else {
            high = mid - 1;
        }
    }
    let mut disambiguated = false;
    let prefix_len = if low == 1 && !any_busy {
        // The converged transcript is consistent with both L = 0 and L = 1;
        // one direct query of the 1-bit prefix settles it.
        disambiguated = true;
        let outcome = probed_slot(
            config.mitigation(),
            air,
            oracle.responders(1),
            bits,
            &mut slots,
            rng,
        );
        oracle.feedback(outcome.is_busy());
        u32::from(outcome.is_busy())
    } else {
        low
    };
    RoundRecord {
        prefix_len,
        gray_height: height - prefix_len,
        slots,
        disambiguated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CommandEncoding;
    use crate::oracle::{CodeRoster, TagFleet};
    use crate::tree::Tree;
    use pet_hash::family::{AnyFamily, HashKind};
    use pet_phy::channel::PerfectChannel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn family() -> AnyFamily {
        AnyFamily::new(HashKind::Mix)
    }

    fn run_many(config: &PetConfig, keys: &[u64], rounds: usize, seed: u64) -> Vec<RoundRecord> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut oracle = CodeRoster::new(keys, config, family());
        let mut air = Air::new(PerfectChannel);
        (0..rounds)
            .map(|_| run_round(config, &mut oracle, &mut air, &mut rng))
            .collect()
    }

    /// Linear and binary search must find the same prefix length on the same
    /// round (same path, same codes).
    #[test]
    fn linear_and_binary_agree() {
        let cfg_any = PetConfig::builder().height(16).build().unwrap();
        let keys: Vec<u64> = (0..200).collect();
        let mut rng = StdRng::seed_from_u64(3);
        let mut oracle = CodeRoster::new(&keys, &cfg_any, family());
        let mut air = Air::new(PerfectChannel);
        for _ in 0..100 {
            let path = BitString::random(16, &mut rng);
            oracle.begin_round(&RoundStart { path, seed: None });
            let lin = linear_round(&cfg_any, &mut oracle, &mut air, &mut rng);
            let bin = binary_round(&cfg_any, &mut oracle, &mut air, &mut rng);
            assert_eq!(lin.prefix_len, bin.prefix_len, "path {path}");
            assert_eq!(lin.gray_height, bin.gray_height);
        }
    }

    /// Both strategies must agree with the definitional gray node from the
    /// materialized reference tree.
    #[test]
    fn rounds_match_reference_tree() {
        let cfg = PetConfig::builder().height(12).build().unwrap();
        let keys: Vec<u64> = (0..64).collect();
        let mut rng = StdRng::seed_from_u64(4);
        let mut oracle = CodeRoster::new(&keys, &cfg, family());
        let codes: Vec<BitString> = oracle
            .codes()
            .iter()
            .map(|&c| BitString::from_bits(c, 12).unwrap())
            .collect();
        let tree = Tree::build(&codes, 12);
        let mut air = Air::new(PerfectChannel);
        for _ in 0..100 {
            let path = BitString::random(12, &mut rng);
            oracle.begin_round(&RoundStart { path, seed: None });
            let rec = binary_round(&cfg, &mut oracle, &mut air, &mut rng);
            let gray = tree.gray_node(&path).expect("non-empty tree");
            assert_eq!(rec.prefix_len, gray.prefix_len, "path {path}");
            assert_eq!(rec.gray_height, gray.height);
        }
    }

    /// Table 3: binary search at H = 32 takes exactly 5 slots per round for
    /// populations large enough that the disambiguation slot never fires.
    #[test]
    fn five_slots_per_round_at_height_32() {
        let cfg = PetConfig::builder().height(32).build().unwrap();
        let keys: Vec<u64> = (0..10_000).collect();
        let records = run_many(&cfg, &keys, 200, 5);
        for r in &records {
            assert_eq!(r.slots, 5, "record {r:?}");
            assert!(!r.disambiguated);
        }
    }

    /// Fig. 3's point: binary search uses far fewer slots than linear for
    /// the same rounds.
    #[test]
    fn binary_is_cheaper_than_linear() {
        let keys: Vec<u64> = (0..10_000).collect();
        let lin_cfg = PetConfig::builder()
            .height(32)
            .search(SearchStrategy::Linear)
            .build()
            .unwrap();
        let bin_cfg = PetConfig::builder().height(32).build().unwrap();
        let lin: u32 = run_many(&lin_cfg, &keys, 100, 6)
            .iter()
            .map(|r| r.slots)
            .sum();
        let bin: u32 = run_many(&bin_cfg, &keys, 100, 6)
            .iter()
            .map(|r| r.slots)
            .sum();
        // Linear ≈ log₂(10k) + 1 ≈ 14.6 slots/round; binary = 5.
        assert!(
            lin > 2 * bin,
            "linear {lin} should dwarf binary {bin} slots"
        );
    }

    /// The empty population converges to L = 0 via the disambiguation slot.
    #[test]
    fn empty_population_yields_prefix_zero() {
        let cfg = PetConfig::builder().height(32).build().unwrap();
        let records = run_many(&cfg, &[], 20, 7);
        for r in &records {
            assert_eq!(r.prefix_len, 0);
            assert_eq!(r.gray_height, 32);
            assert!(r.disambiguated);
            assert_eq!(r.slots, 6); // 5 search + 1 disambiguation
        }
    }

    /// A single tag exercises the L ∈ {0, 1} boundary in both directions.
    #[test]
    fn single_tag_prefix_is_its_common_prefix_with_path() {
        let cfg = PetConfig::builder().height(8).build().unwrap();
        let keys = [42u64];
        let mut rng = StdRng::seed_from_u64(8);
        let mut oracle = CodeRoster::new(&keys, &cfg, family());
        let code = BitString::from_bits(oracle.codes()[0], 8).unwrap();
        let mut air = Air::new(PerfectChannel);
        let mut seen_zero = false;
        let mut seen_positive = false;
        for _ in 0..200 {
            let path = BitString::random(8, &mut rng);
            oracle.begin_round(&RoundStart { path, seed: None });
            let rec = binary_round(&cfg, &mut oracle, &mut air, &mut rng);
            assert_eq!(rec.prefix_len, code.common_prefix_len(&path));
            if rec.prefix_len == 0 {
                seen_zero = true;
            } else {
                seen_positive = true;
            }
        }
        assert!(seen_zero && seen_positive, "both branches exercised");
    }

    /// Feedback-encoded tags must stay synchronized with the reader through
    /// whole rounds (the fleet debug-asserts mid agreement internally) and
    /// produce the same statistic as explicit commands.
    #[test]
    fn feedback_mode_matches_explicit_mode() {
        let explicit_cfg = PetConfig::builder().height(16).build().unwrap();
        let feedback_cfg = PetConfig::builder()
            .height(16)
            .encoding(CommandEncoding::FeedbackBit)
            .build()
            .unwrap();
        let keys: Vec<u64> = (0..50).collect();
        let mut rng_a = StdRng::seed_from_u64(9);
        let mut rng_b = StdRng::seed_from_u64(9);
        let mut explicit = TagFleet::new(&keys, &explicit_cfg, family());
        let mut feedback = TagFleet::new(&keys, &feedback_cfg, family());
        let mut air_a = Air::new(PerfectChannel);
        let mut air_b = Air::new(PerfectChannel);
        for _ in 0..100 {
            let a = run_round(&explicit_cfg, &mut explicit, &mut air_a, &mut rng_a);
            let b = run_round(&feedback_cfg, &mut feedback, &mut air_b, &mut rng_b);
            assert_eq!(a.prefix_len, b.prefix_len);
            assert_eq!(a.slots, b.slots);
        }
        // Same slots, but far fewer command bits (1 vs 4 per query at H=16).
        assert_eq!(air_a.metrics().slots, air_b.metrics().slots);
        assert!(air_b.metrics().command_bits < air_a.metrics().command_bits);
    }

    /// Disambiguation never triggers once any busy slot is heard, and the
    /// result matches linear search even for tiny populations.
    #[test]
    fn tiny_populations_agree_across_strategies() {
        for n in [1u64, 2, 3, 5] {
            let keys: Vec<u64> = (0..n).collect();
            let bin_cfg = PetConfig::builder().height(32).build().unwrap();
            let lin_cfg = PetConfig::builder()
                .height(32)
                .search(SearchStrategy::Linear)
                .build()
                .unwrap();
            let mut rng = StdRng::seed_from_u64(100 + n);
            let mut oracle = CodeRoster::new(&keys, &bin_cfg, family());
            let mut air = Air::new(PerfectChannel);
            for _ in 0..50 {
                let path = BitString::random(32, &mut rng);
                oracle.begin_round(&RoundStart { path, seed: None });
                let b = binary_round(&bin_cfg, &mut oracle, &mut air, &mut rng);
                let l = linear_round(&lin_cfg, &mut oracle, &mut air, &mut rng);
                assert_eq!(b.prefix_len, l.prefix_len, "n = {n}");
            }
        }
    }
}
