//! The estimation front door.
//!
//! [`Estimator`] is the one type that runs PET: `m` rounds of Algorithm 3
//! (or Algorithm 1 under linear search), averaged by Eq. (14), with `m`
//! sized by Eq. (20). It dispatches to two private runners:
//!
//! - **the slot-by-slot runner**, generic over any [`ResponderOracle`] and
//!   [`Air`]: zero probe, round loop ([`run_round`]), aggregation, PHY
//!   fold. It serves [`Backend::Oracle`], the kernel backend's lossy and
//!   transcribed runs (through a `BankOracle` view of the [`CodeBank`]),
//!   caller-supplied oracles ([`Estimator::try_run_oracle`]), and
//!   sequential stopping ([`Estimator::try_run_adaptive`]);
//! - **the lossless kernel** ([`crate::kernel`]): one binary search per
//!   round over sorted codes, with air metrics synthesized arithmetically.
//!
//! Both produce bit-for-bit identical [`EstimateReport`]s for the same RNG
//! stream, so [`Backend`] is purely an execution detail.

use crate::adaptive::DEFAULT_MIN_ROUNDS;
use crate::bits::BitString;
use crate::config::{Backend, Mitigation, PetConfig, TagMode};
use crate::error::PetError;
use crate::kernel::{self, CodeBank};
use crate::oracle::{CodeRoster, ResponderOracle, RoundStart};
use crate::reader::{self, run_round, RoundRecord};
use crate::session::EstimateReport;
use pet_hash::family::AnyFamily;
use pet_phy::channel::{Channel, ChannelModel};
use pet_phy::{Air, AirMetrics, SlotOutcome, Transcript};
use pet_stats::describe::Describe;
use pet_tags::population::TagPopulation;
use rand::Rng;
use std::sync::Arc;

/// One entry point for PET estimation, dispatching on
/// [`PetConfig::backend`].
///
/// # Example
///
/// ```
/// use pet_core::{Estimator, PetConfig};
/// use pet_tags::population::TagPopulation;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(42);
/// let warehouse = TagPopulation::sequential(25_000);
/// let estimator = Estimator::new(PetConfig::paper_default());
/// let report = estimator.estimate_population(&warehouse, &mut rng);
/// assert!((report.estimate - 25_000.0).abs() < 0.05 * 25_000.0);
/// ```
#[derive(Debug, Clone)]
pub struct Estimator {
    config: PetConfig,
    family: AnyFamily,
}

impl Estimator {
    /// Creates an estimator with the default fast hash family.
    #[must_use]
    pub fn new(config: PetConfig) -> Self {
        Self::with_family(config, AnyFamily::default())
    }

    /// Creates an estimator with an explicit hash family (e.g. MD5/SHA-1 as
    /// §4.5 suggests for manufactured codes).
    #[must_use]
    pub fn with_family(config: PetConfig, family: AnyFamily) -> Self {
        Self { config, family }
    }

    /// The estimator's configuration.
    #[must_use]
    pub fn config(&self) -> &PetConfig {
        &self.config
    }

    /// The estimator's hash family.
    #[must_use]
    pub fn family(&self) -> AnyFamily {
        self.family
    }

    /// The configured execution backend.
    #[must_use]
    pub fn backend(&self) -> Backend {
        self.config.backend()
    }

    /// Builds the [`CodeBank`] matching this estimator's configuration
    /// (reusable across [`Self::run_bank`] calls and shareable across
    /// trials).
    #[must_use]
    pub fn bank_for_keys(&self, keys: Arc<Vec<u64>>) -> CodeBank {
        CodeBank::for_config(keys, &self.config, self.family)
    }

    /// Estimates a population with the configured number of rounds
    /// (Eq. (20)).
    pub fn estimate_population<R: Rng + ?Sized>(
        &self,
        population: &TagPopulation,
        rng: &mut R,
    ) -> EstimateReport {
        self.estimate_population_rounds(population, self.config.rounds(), rng)
    }

    /// Like [`Self::estimate_population`] with an explicit round count.
    ///
    /// # Panics
    ///
    /// Panics if `rounds` is zero.
    pub fn estimate_population_rounds<R: Rng + ?Sized>(
        &self,
        population: &TagPopulation,
        rounds: u32,
        rng: &mut R,
    ) -> EstimateReport {
        let keys: Vec<u64> = population.keys().collect();
        self.estimate_keys_rounds(&keys, rounds, rng)
    }

    /// Estimates over a key slice with an explicit round count.
    ///
    /// # Panics
    ///
    /// Panics if `rounds` is zero.
    pub fn estimate_keys_rounds<R: Rng + ?Sized>(
        &self,
        keys: &[u64],
        rounds: u32,
        rng: &mut R,
    ) -> EstimateReport {
        match self.try_estimate_keys_rounds(keys, rounds, rng) {
            Ok(report) => report,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible form of [`Self::estimate_keys_rounds`].
    ///
    /// # Errors
    ///
    /// [`PetError::ZeroRounds`] when `rounds` is zero.
    pub fn try_estimate_keys_rounds<R: Rng + ?Sized>(
        &self,
        keys: &[u64],
        rounds: u32,
        rng: &mut R,
    ) -> Result<EstimateReport, PetError> {
        match self.backend() {
            Backend::Kernel => {
                let mut bank = self.bank_for_keys(Arc::new(keys.to_vec()));
                self.try_run_bank(&mut bank, rounds, rng)
            }
            Backend::Oracle => {
                let mut oracle = CodeRoster::new(keys, &self.config, self.family);
                let mut air = Air::new(self.config.channel());
                self.try_run_oracle(rounds, &mut oracle, &mut air, rng)
            }
        }
    }

    /// Runs `rounds` against a prebuilt bank (the experiments' hot path:
    /// banks come from `pet-sim`'s roster cache and amortize hashing and
    /// sorting across trials).
    ///
    /// On the oracle backend the bank is lowered to a [`CodeRoster`] first,
    /// so both backends consume `rng` identically and return identical
    /// reports.
    ///
    /// # Panics
    ///
    /// Panics if `rounds` is zero.
    pub fn run_bank<R: Rng + ?Sized>(
        &self,
        bank: &mut CodeBank,
        rounds: u32,
        rng: &mut R,
    ) -> EstimateReport {
        match self.try_run_bank(bank, rounds, rng) {
            Ok(report) => report,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible form of [`Self::run_bank`].
    ///
    /// # Errors
    ///
    /// [`PetError::ZeroRounds`] when `rounds` is zero.
    pub fn try_run_bank<R: Rng + ?Sized>(
        &self,
        bank: &mut CodeBank,
        rounds: u32,
        rng: &mut R,
    ) -> Result<EstimateReport, PetError> {
        match (self.backend(), self.config.channel()) {
            (Backend::Kernel, ChannelModel::Perfect) => {
                if rounds == 0 {
                    return Err(PetError::ZeroRounds);
                }
                let _session_span = pet_obs::span("core.session.kernel");
                self.run_fast_lossless(bank, rounds, rng)
            }
            (_, channel) => self.run_bank_slots(bank, rounds, &mut Air::new(channel), rng),
        }
    }

    /// Like [`Self::try_run_bank`], but also returns the slot-by-slot
    /// [`Transcript`] (up to `capacity` slots). Both backends run
    /// slot-accurately here, even over the perfect channel, so transcripts
    /// — not just reports — are bit-for-bit comparable across [`Backend`]s
    /// under a shared seed; the differential fuzz and golden-trace suites
    /// lean on this.
    ///
    /// # Errors
    ///
    /// [`PetError::ZeroRounds`] when `rounds` is zero.
    pub fn try_run_bank_transcribed<R: Rng + ?Sized>(
        &self,
        bank: &mut CodeBank,
        rounds: u32,
        capacity: usize,
        rng: &mut R,
    ) -> Result<(EstimateReport, Transcript), PetError> {
        let mut air = Air::new(self.config.channel()).with_transcript(capacity);
        let report = self.run_bank_slots(bank, rounds, &mut air, rng)?;
        let transcript = air.transcript().cloned().expect("transcript was requested");
        Ok((report, transcript))
    }

    /// Runs `rounds` against a caller-supplied [`ResponderOracle`] and
    /// [`Air`] — the front door for shard-scoped and distributed rounds,
    /// where responder counts come from somewhere the estimator cannot
    /// build itself (a multi-reader controller, a networked fleet
    /// coordinator, a zone shard on another machine).
    ///
    /// Always executes the slot-by-slot runner regardless of the
    /// configured [`Backend`]: the batched kernel requires a local
    /// [`CodeBank`], which an external oracle by definition does not have.
    /// The RNG stream (one path per round, plus a per-round seed in active
    /// mode) is identical to the other entry points, so results stay
    /// bit-for-bit comparable under a shared seed.
    ///
    /// # Errors
    ///
    /// [`PetError::ZeroRounds`] when `rounds` is zero.
    pub fn try_run_oracle<O, C, R>(
        &self,
        rounds: u32,
        oracle: &mut O,
        air: &mut Air<C>,
        rng: &mut R,
    ) -> Result<EstimateReport, PetError>
    where
        O: ResponderOracle,
        C: Channel,
        R: Rng + ?Sized,
    {
        self.run_slots("core.session.oracle", rounds, oracle, air, rng, |_, _| {
            false
        })
    }

    /// Like [`Self::try_run_oracle`], but stops as soon as the empirical
    /// `(ε, δ)` interval of the collected gray-node observations closes
    /// (sequential stopping, see [`crate::adaptive`]). Runs at least
    /// [`DEFAULT_MIN_ROUNDS`] rounds and at most the larger of that floor
    /// and the Eq. (20) budget, so with a budget at or under the floor it
    /// equals `try_run_oracle(DEFAULT_MIN_ROUNDS, ..)` bit for bit.
    ///
    /// # Errors
    ///
    /// None in practice: the round budget is never zero. The `Result`
    /// matches [`Self::try_run_oracle`].
    pub fn try_run_adaptive<O, C, R>(
        &self,
        oracle: &mut O,
        air: &mut Air<C>,
        rng: &mut R,
    ) -> Result<EstimateReport, PetError>
    where
        O: ResponderOracle,
        C: Channel,
        R: Rng + ?Sized,
    {
        let accuracy = self.config.accuracy();
        let budget = self.config.rounds().max(DEFAULT_MIN_ROUNDS);
        let c = accuracy.quantile();
        // The binding side of Eq. (19): log₂(1+ε) is the smaller margin.
        let margin = (1.0 + accuracy.epsilon()).log2();
        let mut spread = Describe::new();
        let stop = |record: &RoundRecord, round: u32| {
            spread.push(f64::from(record.prefix_len));
            // Stop when c·s/√m fits inside the log-domain margin.
            round >= DEFAULT_MIN_ROUNDS
                && c * spread.sample_std_dev() / f64::from(round).sqrt() <= margin
        };
        self.run_slots("core.session.oracle", budget, oracle, air, rng, stop)
    }

    /// The slot-by-slot runner: the zero probe (if configured), then up to
    /// `budget` rounds of [`run_round`] — ending early once `stop(record,
    /// round)` says so — aggregated under the configured mitigation.
    fn run_slots<O, C, R>(
        &self,
        span: &'static str,
        budget: u32,
        oracle: &mut O,
        air: &mut Air<C>,
        rng: &mut R,
        mut stop: impl FnMut(&RoundRecord, u32) -> bool,
    ) -> Result<EstimateReport, PetError>
    where
        O: ResponderOracle,
        C: Channel,
        R: Rng + ?Sized,
    {
        if budget == 0 {
            return Err(PetError::ZeroRounds);
        }
        let _session_span = pet_obs::span(span);
        let config = &self.config;
        if config.zero_probe() {
            // One match-all slot (re-probed under `Mitigation::ReProbe` —
            // a missed answer here would wrongly declare the region
            // empty): if nobody answers, the region is empty.
            let responders = oracle.responders(0);
            let outcome = reader::probed_slot(config.mitigation(), air, responders, 1, &mut 0, rng);
            if outcome.is_idle() {
                return Ok(EstimateReport::empty_region(config, *air.metrics()));
            }
        }
        let mut records = Vec::with_capacity(budget as usize);
        for round in 1..=budget {
            let record = run_round(config, oracle, air, rng);
            records.push(record);
            if stop(&record, round) {
                break;
            }
        }
        Ok(EstimateReport::from_records(
            config,
            records,
            *air.metrics(),
        ))
    }

    /// A slot-by-slot run over a bank: the kernel backend queries the bank
    /// in place through a [`BankOracle`]; the oracle backend lowers it to
    /// the equivalent [`CodeRoster`] first.
    fn run_bank_slots<R: Rng + ?Sized>(
        &self,
        bank: &mut CodeBank,
        rounds: u32,
        air: &mut Air<ChannelModel>,
        rng: &mut R,
    ) -> Result<EstimateReport, PetError> {
        match self.backend() {
            Backend::Kernel => {
                let mut oracle = BankOracle {
                    bank,
                    family: self.family,
                    height: self.config.height(),
                    path: None,
                };
                self.run_slots(
                    "core.session.kernel",
                    rounds,
                    &mut oracle,
                    air,
                    rng,
                    |_, _| false,
                )
            }
            Backend::Oracle => {
                let mut oracle = self.roster_from_bank(bank);
                self.try_run_oracle(rounds, &mut oracle, air, rng)
            }
        }
    }

    /// The lossless arithmetic fast path: one binary search per round,
    /// metrics synthesized by [`kernel::apply_round_metrics`]. Bit-for-bit
    /// identical to the slot-by-slot runner over [`ChannelModel::Perfect`]
    /// (which draws no slot-level randomness).
    fn run_fast_lossless<R: Rng + ?Sized>(
        &self,
        bank: &mut CodeBank,
        rounds: u32,
        rng: &mut R,
    ) -> Result<EstimateReport, PetError> {
        let config = &self.config;
        let family = self.family;
        let height = config.height();
        let probes = match config.mitigation() {
            Mitigation::ReProbe { probes } => probes,
            _ => 0,
        };
        let mut metrics = AirMetrics::default();
        if config.zero_probe() {
            let responders = bank.population();
            let outcome = SlotOutcome::from_detected(responders);
            metrics.record_slot(1, responders, outcome);
            if outcome.is_idle() {
                // Perfect-channel re-probes hear the same silence.
                for _ in 0..probes {
                    metrics.record_slot(1, responders, outcome);
                }
                return Ok(EstimateReport::empty_region(config, metrics));
            }
        }
        let mut records = Vec::with_capacity(rounds as usize);
        for _ in 0..rounds {
            let round_span = pet_obs::span("core.round");
            let path = BitString::random(height, rng);
            let seed = match config.tag_mode() {
                TagMode::ActivePerRound => Some(rng.random::<u64>()),
                TagMode::PassivePreloaded => None,
            };
            bank.begin_round(seed, family, height);
            let l = kernel::locate_prefix_len(bank.codes(), &path);
            let record = kernel::round_record_probed(height, config.search(), l, probes);
            let before = metrics;
            kernel::apply_round_metrics(bank.codes(), &path, config, l, &mut metrics);
            drop(round_span);
            reader::record_round_telemetry(config, &record);
            reader::record_outcome_telemetry(&before, &metrics);
            records.push(record);
        }
        Ok(EstimateReport::from_records(config, records, metrics))
    }

    /// Lowers a bank to the equivalent slot-by-slot oracle: passive banks
    /// already hold the manufacture-time codes, active banks re-hash from
    /// their keys exactly as the roster does.
    fn roster_from_bank(&self, bank: &CodeBank) -> CodeRoster {
        let height = self.config.height();
        match bank {
            CodeBank::Passive { codes } => {
                let codes: Vec<BitString> = codes
                    .iter()
                    .map(|&c| BitString::from_bits(c, height).expect("bank codes fit the height"))
                    .collect();
                CodeRoster::from_codes(&codes, height)
            }
            CodeBank::Active { keys, .. } => CodeRoster::new(keys, &self.config, self.family),
        }
    }
}

/// [`ResponderOracle`] view over a [`CodeBank`], used by the kernel
/// backend's slot-by-slot runs so lossy-channel rounds replay the exact
/// protocol loop ([`run_round`]) that the roster oracle drives —
/// equivalence with [`Backend::Oracle`] holds by construction. Prefix
/// counts come from [`kernel::count_prefix_sorted`] because under a lossy
/// channel the busy query lengths are not monotone, so the roster's
/// narrowing optimisation does not apply.
struct BankOracle<'a> {
    bank: &'a mut CodeBank,
    family: AnyFamily,
    height: u32,
    path: Option<BitString>,
}

impl ResponderOracle for BankOracle<'_> {
    fn begin_round(&mut self, start: &RoundStart) {
        self.bank.begin_round(start.seed, self.family, self.height);
        self.path = Some(start.path);
    }

    fn responders(&mut self, prefix_len: u32) -> u64 {
        if prefix_len == 0 {
            // Matches `CodeRoster`: the root query (and zero probe) counts
            // everyone, valid even before the first round starts.
            return self.bank.population();
        }
        let path = self
            .path
            .as_ref()
            .expect("responders() before begin_round()");
        kernel::count_prefix_sorted(self.bank.codes(), path, prefix_len)
    }

    fn population(&self) -> u64 {
        self.bank.population()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TagMode;
    use pet_stats::accuracy::Accuracy;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn config_for(backend: Backend, mode: TagMode) -> PetConfig {
        PetConfig::builder()
            .accuracy(Accuracy::new(0.2, 0.2).unwrap())
            .backend(backend)
            .tag_mode(mode)
            .build()
            .unwrap()
    }

    /// `pet-server` shares one `Estimator` value across its worker pool
    /// and moves configs between threads; these bounds are load-bearing
    /// API, so losing them (e.g. by adding an `Rc`/`RefCell` field) must
    /// fail to compile here rather than break the server.
    #[test]
    fn estimator_and_config_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Estimator>();
        assert_send_sync::<PetConfig>();
        assert_send_sync::<super::Backend>();
    }

    /// The headline guarantee: flipping `Backend` changes nothing about the
    /// result — estimate bits, per-round records, and air metrics all match.
    #[test]
    fn backends_are_bit_for_bit_identical() {
        for mode in [TagMode::PassivePreloaded, TagMode::ActivePerRound] {
            let keys: Vec<u64> = (0..900).collect();
            let oracle = Estimator::new(config_for(Backend::Oracle, mode));
            let kernel = Estimator::new(config_for(Backend::Kernel, mode));
            let mut rng_a = StdRng::seed_from_u64(31);
            let mut rng_b = StdRng::seed_from_u64(31);
            let a = oracle.estimate_keys_rounds(&keys, 48, &mut rng_a);
            let b = kernel.estimate_keys_rounds(&keys, 48, &mut rng_b);
            assert_eq!(a.estimate.to_bits(), b.estimate.to_bits(), "mode {mode:?}");
            assert_eq!(a.mean_prefix_len.to_bits(), b.mean_prefix_len.to_bits());
            assert_eq!(a.records, b.records, "mode {mode:?}");
            assert_eq!(a.metrics, b.metrics, "mode {mode:?}");
            assert_eq!(a.rounds, b.rounds);
        }
    }

    /// Same guarantee through the prebuilt-bank path the experiments use.
    #[test]
    fn run_bank_is_backend_invariant() {
        for mode in [TagMode::PassivePreloaded, TagMode::ActivePerRound] {
            let keys = Arc::new((0..700u64).collect::<Vec<_>>());
            let oracle = Estimator::new(config_for(Backend::Oracle, mode));
            let kernel = Estimator::new(config_for(Backend::Kernel, mode));
            let mut bank_a = oracle.bank_for_keys(Arc::clone(&keys));
            let mut bank_b = kernel.bank_for_keys(Arc::clone(&keys));
            let mut rng_a = StdRng::seed_from_u64(77);
            let mut rng_b = StdRng::seed_from_u64(77);
            let a = oracle.run_bank(&mut bank_a, 32, &mut rng_a);
            let b = kernel.run_bank(&mut bank_b, 32, &mut rng_b);
            assert_eq!(a.estimate.to_bits(), b.estimate.to_bits(), "mode {mode:?}");
            assert_eq!(a.records, b.records, "mode {mode:?}");
            assert_eq!(a.metrics, b.metrics, "mode {mode:?}");
        }
    }

    /// The default backend is the kernel, and the key-slice entry point
    /// equals a run over a prebuilt bank.
    #[test]
    fn default_backend_matches_engine_path() {
        let config = PetConfig::builder()
            .accuracy(Accuracy::new(0.2, 0.2).unwrap())
            .build()
            .unwrap();
        assert_eq!(config.backend(), Backend::Kernel);
        let estimator = Estimator::new(config);
        let keys: Vec<u64> = (0..500).collect();
        let mut bank = estimator.bank_for_keys(Arc::new(keys.clone()));
        let mut rng_a = StdRng::seed_from_u64(5);
        let mut rng_b = StdRng::seed_from_u64(5);
        let a = estimator.estimate_keys_rounds(&keys, 16, &mut rng_a);
        let b = estimator.run_bank(&mut bank, 16, &mut rng_b);
        assert_eq!(a.estimate.to_bits(), b.estimate.to_bits());
        assert_eq!(a.records, b.records);
    }

    #[test]
    fn zero_rounds_surface_as_error() {
        for backend in [Backend::Oracle, Backend::Kernel] {
            let estimator = Estimator::new(config_for(backend, TagMode::PassivePreloaded));
            let mut rng = StdRng::seed_from_u64(1);
            let err = estimator
                .try_estimate_keys_rounds(&[1, 2, 3], 0, &mut rng)
                .unwrap_err();
            assert_eq!(err, PetError::ZeroRounds, "backend {backend:?}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one round")]
    fn zero_rounds_panic_via_wrapper() {
        let estimator = Estimator::new(config_for(Backend::Kernel, TagMode::PassivePreloaded));
        let mut rng = StdRng::seed_from_u64(1);
        let _ = estimator.estimate_keys_rounds(&[1, 2, 3], 0, &mut rng);
    }

    /// The external-oracle front door consumes the RNG stream exactly like
    /// the key-slice entry point, so a local roster routed through it
    /// reproduces `estimate_keys_rounds` bit for bit.
    #[test]
    fn run_oracle_front_door_matches_estimate_keys() {
        let estimator = Estimator::new(config_for(Backend::Oracle, TagMode::PassivePreloaded));
        let keys: Vec<u64> = (0..600).collect();
        let mut rng_a = StdRng::seed_from_u64(99);
        let a = estimator.estimate_keys_rounds(&keys, 32, &mut rng_a);
        let mut oracle = CodeRoster::new(&keys, estimator.config(), estimator.family());
        let mut air = Air::new(estimator.config().channel());
        let mut rng_b = StdRng::seed_from_u64(99);
        let b = estimator
            .try_run_oracle(32, &mut oracle, &mut air, &mut rng_b)
            .unwrap();
        assert_eq!(a.estimate.to_bits(), b.estimate.to_bits());
        assert_eq!(a.records, b.records);
        assert_eq!(a.metrics, b.metrics);
    }

    /// Backend invariance extends to lossy channels and transcripts: both
    /// backends must emit the identical slot-by-slot tape under a shared
    /// seed, fault injection included.
    #[test]
    fn lossy_transcripts_are_backend_invariant() {
        use pet_phy::channel::{ChannelModel, LossyChannel};
        for mode in [TagMode::PassivePreloaded, TagMode::ActivePerRound] {
            let lossy = ChannelModel::Lossy(LossyChannel::new(0.15, 0.03).unwrap());
            let build = |backend| {
                PetConfig::builder()
                    .accuracy(Accuracy::new(0.2, 0.2).unwrap())
                    .backend(backend)
                    .tag_mode(mode)
                    .channel(lossy)
                    .build()
                    .unwrap()
            };
            let oracle = Estimator::new(build(Backend::Oracle));
            let kernel = Estimator::new(build(Backend::Kernel));
            let keys = Arc::new((0..800u64).map(|k| k * 31 + 7).collect::<Vec<_>>());
            let mut bank_a = oracle.bank_for_keys(Arc::clone(&keys));
            let mut bank_b = kernel.bank_for_keys(Arc::clone(&keys));
            let mut rng_a = StdRng::seed_from_u64(404);
            let mut rng_b = StdRng::seed_from_u64(404);
            let (a, tape_a) = oracle
                .try_run_bank_transcribed(&mut bank_a, 24, 8192, &mut rng_a)
                .unwrap();
            let (b, tape_b) = kernel
                .try_run_bank_transcribed(&mut bank_b, 24, 8192, &mut rng_b)
                .unwrap();
            assert_eq!(a.estimate.to_bits(), b.estimate.to_bits(), "mode {mode:?}");
            assert_eq!(a.records, b.records, "mode {mode:?}");
            assert_eq!(a.metrics, b.metrics, "mode {mode:?}");
            assert_eq!(tape_a.records(), tape_b.records(), "mode {mode:?}");
            assert!(!tape_a.records().is_empty());
        }
    }
}
