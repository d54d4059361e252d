//! PET protocol configuration.

use pet_phy::channel::ChannelModel;
use pet_phy::profile::PhyProfile;
use pet_stats::accuracy::Accuracy;
use std::fmt;

/// How the reader locates the gray node on the estimating path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SearchStrategy {
    /// Algorithm 1: additively growing prefix queries, `O(log n)` slots.
    Linear,
    /// Algorithm 3: binary search over prefix lengths, `O(log log n)` slots
    /// (5 per round at `H = 32`).
    #[default]
    Binary,
}

/// Where the tag's PET code comes from (paper §4.3 vs §4.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TagMode {
    /// Active tags re-hash `H(s, tagID)` with a fresh reader seed every
    /// round (Algorithm 2).
    ActivePerRound,
    /// Passive tags use a single preloaded code across all rounds; only the
    /// estimating path varies (Algorithm 4, §4.5).
    #[default]
    PassivePreloaded,
}

/// Which execution backend the unified [`crate::Estimator`] front door
/// drives. Both produce **bit-for-bit identical** [`crate::EstimateReport`]s
/// for the same configuration and RNG stream (pinned by the kernel
/// equivalence suite); they differ only in speed and generality.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Backend {
    /// The slot-by-slot reader: every query goes through a
    /// [`crate::oracle::ResponderOracle`] (the [`crate::CodeRoster`]) and
    /// the radio [`pet_phy::Air`]. The reference the kernel is pinned
    /// against.
    Oracle,
    /// The batched gray-node kernel ([`crate::kernel`]): over the perfect
    /// channel, one binary search per round over a sorted [`crate::CodeBank`]
    /// — ~5× faster at paper scale, the default. Lossy channels and
    /// transcripts run slot by slot over the same bank.
    #[default]
    Kernel,
}

/// Channel-fault mitigation (robustness extension; the paper assumes a
/// perfect channel and its Eq. (12)–(14) is the plain mean).
///
/// Channel loss corrupts rounds in two ways: a missed response turns a
/// busy slot idle, truncating the measured prefix (biasing `n̂` low),
/// while phantom energy turns an idle slot busy, extending it (biasing
/// high). Because *every* round is independently exposed, miss loss acts
/// as a systematic shift of the whole per-round `L` sample — which is why
/// the effective counter is [`Mitigation::ReProbe`] at the slot level
/// (suspect idle readings are re-transmitted, so a busy→idle flip must
/// survive every probe), while [`Mitigation::TrimmedMean`] is an
/// aggregation-level outlier guard for heavy-tailed corruption.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Mitigation {
    /// Plain mean over all rounds (the paper's estimator).
    #[default]
    None,
    /// Drop the `trim` smallest and `trim` largest per-round prefix
    /// lengths before averaging. Clamped at aggregation time so at least
    /// one round always survives. Note the per-round `L` law is
    /// right-skewed, so symmetric trimming itself shifts the mean low;
    /// this knob trades bias for resistance to gross outlier rounds.
    TrimmedMean {
        /// Rounds discarded from *each* end of the sorted prefix lengths.
        trim: u32,
    },
    /// Re-transmit every slot that reads idle up to `probes` extra times,
    /// taking the last reading (a busy re-probe wins immediately). A
    /// busy→idle flip then requires all `1 + probes` readings to miss, so
    /// the miss-induced bias shrinks geometrically at the cost of extra
    /// slots on genuinely idle queries. On a perfect channel only the slot
    /// count changes, never the statistic. Incompatible with the 1-bit
    /// feedback encoding (tags mirroring search state cannot interpret a
    /// repeated query).
    ReProbe {
        /// Extra readings taken for each idle slot.
        probes: u32,
    },
}

/// Reader command encoding for each prefix query (paper §4.6.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CommandEncoding {
    /// Broadcast the full `H`-bit mask every slot.
    FullMask,
    /// Broadcast only the `⌈log₂ H⌉`-bit prefix length (`mid`).
    #[default]
    PrefixLength,
    /// Broadcast a single feedback bit; tags mirror the binary-search state
    /// (`high`/`low`) locally. Only meaningful with
    /// [`SearchStrategy::Binary`].
    FeedbackBit,
}

impl CommandEncoding {
    /// Bits broadcast per query slot for a PET of height `height`.
    #[must_use]
    pub fn bits_per_query(self, height: u32) -> u32 {
        match self {
            Self::FullMask => height,
            // mid ∈ 1..=H: ⌈log₂ H⌉ bits (5 for H = 32, as §4.6.2 argues).
            Self::PrefixLength => u32::BITS - (height - 1).leading_zeros(),
            Self::FeedbackBit => 1,
        }
    }
}

/// Error validating a [`PetConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// Height must lie in `1..=64`.
    HeightOutOfRange,
    /// The 1-bit feedback encoding requires the binary-search strategy —
    /// with linear search the tags would have nothing to mirror.
    FeedbackRequiresBinarySearch,
    /// Re-probe mitigation requires explicit command encodings — tags
    /// mirroring the search state off feedback bits cannot recognize a
    /// repeated query.
    ReProbeRequiresExplicitCommands,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::HeightOutOfRange => write!(f, "PET height must be in 1..=64"),
            Self::FeedbackRequiresBinarySearch => write!(
                f,
                "the 1-bit feedback encoding requires the binary-search strategy"
            ),
            Self::ReProbeRequiresExplicitCommands => write!(
                f,
                "re-probe mitigation requires an explicit command encoding"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Complete PET protocol configuration.
///
/// # Example
///
/// ```
/// use pet_core::config::{PetConfig, SearchStrategy};
/// use pet_stats::accuracy::Accuracy;
///
/// let config = PetConfig::builder()
///     .height(32)
///     .accuracy(Accuracy::new(0.05, 0.01).unwrap())
///     .search(SearchStrategy::Binary)
///     .build()
///     .unwrap();
/// assert_eq!(config.height(), 32);
/// // 5 query slots per round at H = 32 (Table 3).
/// assert_eq!(config.slots_per_round_nominal(), 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PetConfig {
    height: u32,
    accuracy: Accuracy,
    search: SearchStrategy,
    tag_mode: TagMode,
    encoding: CommandEncoding,
    manufacture_seed: u64,
    zero_probe: bool,
    backend: Backend,
    channel: ChannelModel,
    mitigation: Mitigation,
    phy: Option<PhyProfile>,
}

impl PetConfig {
    /// Starts a builder with the paper's defaults: `H = 32`, ε = 5%,
    /// δ = 1%, binary search, passive preloaded tags, `⌈log₂H⌉`-bit
    /// commands, no zero-probe.
    #[must_use]
    pub fn builder() -> PetConfigBuilder {
        PetConfigBuilder::default()
    }

    /// The paper's default configuration.
    #[must_use]
    pub fn paper_default() -> Self {
        Self::builder().build().expect("defaults are valid")
    }

    /// PET height `H`.
    #[must_use]
    pub fn height(&self) -> u32 {
        self.height
    }

    /// The accuracy requirement.
    #[must_use]
    pub fn accuracy(&self) -> Accuracy {
        self.accuracy
    }

    /// The gray-node search strategy.
    #[must_use]
    pub fn search(&self) -> SearchStrategy {
        self.search
    }

    /// The tag code mode.
    #[must_use]
    pub fn tag_mode(&self) -> TagMode {
        self.tag_mode
    }

    /// The per-query command encoding.
    #[must_use]
    pub fn encoding(&self) -> CommandEncoding {
        self.encoding
    }

    /// Seed under which passive tags' codes were "manufactured" (§4.5).
    #[must_use]
    pub fn manufacture_seed(&self) -> u64 {
        self.manufacture_seed
    }

    /// Whether to spend one extra slot per estimate on an "anyone there?"
    /// probe so a zero-tag region reports exactly 0 (extension; the plain
    /// estimator cannot distinguish 0 from ~1).
    #[must_use]
    pub fn zero_probe(&self) -> bool {
        self.zero_probe
    }

    /// The execution backend the unified [`crate::Estimator`] selects.
    #[must_use]
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// The physical channel model both backends execute under (default:
    /// the paper's lossless channel).
    #[must_use]
    pub fn channel(&self) -> ChannelModel {
        self.channel
    }

    /// The round-aggregation mitigation (default: the paper's plain mean).
    #[must_use]
    pub fn mitigation(&self) -> Mitigation {
        self.mitigation
    }

    /// The PHY profile, if wall-clock/energy reporting was requested
    /// (default `None`: the paper's pure slot accounting). Attaching a
    /// profile never changes slot counts or estimate bits — the report is
    /// a pure fold over the finished [`pet_phy::AirMetrics`].
    #[must_use]
    pub fn phy(&self) -> Option<PhyProfile> {
        self.phy
    }

    /// Rounds `m` required by the accuracy requirement (paper Eq. (20)).
    #[must_use]
    pub fn rounds(&self) -> u32 {
        self.accuracy.pet_rounds()
    }

    /// Nominal query slots per round: `⌈log₂ H⌉` for binary search (the
    /// paper's 5 at `H = 32`; a rare extra disambiguation slot can occur,
    /// see `reader`), `H` worst-case for linear search.
    #[must_use]
    pub fn slots_per_round_nominal(&self) -> u32 {
        match self.search {
            SearchStrategy::Binary => u32::BITS - (self.height - 1).leading_zeros(),
            SearchStrategy::Linear => self.height,
        }
    }

    /// Bits the reader broadcasts at the start of each round: the `H`-bit
    /// estimating path, plus a 32-bit seed in active mode (Algorithm 1
    /// line 3 "broadcast r and s").
    #[must_use]
    pub fn round_start_bits(&self) -> u32 {
        match self.tag_mode {
            TagMode::ActivePerRound => self.height + 32,
            TagMode::PassivePreloaded => self.height,
        }
    }
}

impl Default for PetConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Builder for [`PetConfig`].
#[derive(Debug, Clone, Copy)]
pub struct PetConfigBuilder {
    height: u32,
    accuracy: Accuracy,
    search: SearchStrategy,
    tag_mode: TagMode,
    encoding: CommandEncoding,
    manufacture_seed: u64,
    zero_probe: bool,
    backend: Backend,
    channel: ChannelModel,
    mitigation: Mitigation,
    phy: Option<PhyProfile>,
}

impl Default for PetConfigBuilder {
    fn default() -> Self {
        Self {
            height: 32,
            accuracy: Accuracy::new(0.05, 0.01).expect("paper defaults are valid"),
            search: SearchStrategy::default(),
            tag_mode: TagMode::default(),
            encoding: CommandEncoding::default(),
            manufacture_seed: 0x9e37_79b9_7f4a_7c15,
            zero_probe: false,
            backend: Backend::default(),
            channel: ChannelModel::default(),
            mitigation: Mitigation::default(),
            phy: None,
        }
    }
}

impl PetConfigBuilder {
    /// Sets the PET height `H` (default 32).
    #[must_use]
    pub fn height(mut self, height: u32) -> Self {
        self.height = height;
        self
    }

    /// Sets the accuracy requirement (default ε = 5%, δ = 1%).
    #[must_use]
    pub fn accuracy(mut self, accuracy: Accuracy) -> Self {
        self.accuracy = accuracy;
        self
    }

    /// Sets the search strategy (default binary).
    #[must_use]
    pub fn search(mut self, search: SearchStrategy) -> Self {
        self.search = search;
        self
    }

    /// Sets the tag mode (default passive preloaded).
    #[must_use]
    pub fn tag_mode(mut self, tag_mode: TagMode) -> Self {
        self.tag_mode = tag_mode;
        self
    }

    /// Sets the command encoding (default `⌈log₂H⌉`-bit prefix length).
    #[must_use]
    pub fn encoding(mut self, encoding: CommandEncoding) -> Self {
        self.encoding = encoding;
        self
    }

    /// Sets the manufacture seed for passive preloaded codes.
    #[must_use]
    pub fn manufacture_seed(mut self, seed: u64) -> Self {
        self.manufacture_seed = seed;
        self
    }

    /// Enables the zero-cardinality probe (default off, matching the paper's
    /// slot accounting).
    #[must_use]
    pub fn zero_probe(mut self, enabled: bool) -> Self {
        self.zero_probe = enabled;
        self
    }

    /// Selects the execution backend for [`crate::Estimator`] (default
    /// [`Backend::Kernel`]).
    #[must_use]
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Sets the physical channel model (default
    /// [`ChannelModel::Perfect`], the paper's lossless assumption).
    /// [`pet_phy::channel::LossyChannel`] parameters are validated at
    /// construction, so every `ChannelModel` reaching the builder is
    /// already well-formed and round-trips unchanged through `build`.
    #[must_use]
    pub fn channel(mut self, channel: ChannelModel) -> Self {
        self.channel = channel;
        self
    }

    /// Sets the round-aggregation mitigation (default
    /// [`Mitigation::None`]).
    #[must_use]
    pub fn mitigation(mut self, mitigation: Mitigation) -> Self {
        self.mitigation = mitigation;
        self
    }

    /// Attaches a PHY profile so every report carries wall-clock ms and a
    /// µJ energy ledger alongside slots (default `None`).
    #[must_use]
    pub fn phy(mut self, phy: Option<PhyProfile>) -> Self {
        self.phy = phy;
        self
    }

    /// Validates and builds the configuration.
    ///
    /// # Errors
    ///
    /// Returns an error for out-of-range heights or incompatible
    /// strategy/encoding combinations.
    pub fn build(self) -> Result<PetConfig, ConfigError> {
        if !(1..=64).contains(&self.height) {
            return Err(ConfigError::HeightOutOfRange);
        }
        if self.encoding == CommandEncoding::FeedbackBit && self.search != SearchStrategy::Binary {
            return Err(ConfigError::FeedbackRequiresBinarySearch);
        }
        if self.encoding == CommandEncoding::FeedbackBit
            && matches!(self.mitigation, Mitigation::ReProbe { .. })
        {
            return Err(ConfigError::ReProbeRequiresExplicitCommands);
        }
        Ok(PetConfig {
            height: self.height,
            accuracy: self.accuracy,
            search: self.search,
            tag_mode: self.tag_mode,
            encoding: self.encoding,
            manufacture_seed: self.manufacture_seed,
            zero_probe: self.zero_probe,
            backend: self.backend,
            channel: self.channel,
            mitigation: self.mitigation,
            phy: self.phy,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = PetConfig::paper_default();
        assert_eq!(c.height(), 32);
        assert_eq!(c.search(), SearchStrategy::Binary);
        assert_eq!(c.tag_mode(), TagMode::PassivePreloaded);
        assert_eq!(c.slots_per_round_nominal(), 5);
        assert_eq!(c.round_start_bits(), 32);
        assert!(!c.zero_probe());
        assert_eq!(c.backend(), Backend::Kernel);
        assert!((c.accuracy().epsilon() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn builder_overrides() {
        let c = PetConfig::builder()
            .height(16)
            .search(SearchStrategy::Linear)
            .tag_mode(TagMode::ActivePerRound)
            .encoding(CommandEncoding::FullMask)
            .zero_probe(true)
            .backend(Backend::Oracle)
            .build()
            .unwrap();
        assert_eq!(c.height(), 16);
        assert_eq!(c.slots_per_round_nominal(), 16);
        assert_eq!(c.round_start_bits(), 16 + 32);
        assert!(c.zero_probe());
        assert_eq!(c.backend(), Backend::Oracle);
    }

    #[test]
    fn validation_errors() {
        assert_eq!(
            PetConfig::builder().height(0).build().unwrap_err(),
            ConfigError::HeightOutOfRange
        );
        assert_eq!(
            PetConfig::builder().height(65).build().unwrap_err(),
            ConfigError::HeightOutOfRange
        );
        assert_eq!(
            PetConfig::builder()
                .search(SearchStrategy::Linear)
                .encoding(CommandEncoding::FeedbackBit)
                .build()
                .unwrap_err(),
            ConfigError::FeedbackRequiresBinarySearch
        );
    }

    /// §4.6.2's arithmetic: 32-bit masks carry log₂32 = 5 bits of
    /// information; feedback needs only 1.
    #[test]
    fn encoding_bit_costs() {
        assert_eq!(CommandEncoding::FullMask.bits_per_query(32), 32);
        assert_eq!(CommandEncoding::PrefixLength.bits_per_query(32), 5);
        assert_eq!(CommandEncoding::FeedbackBit.bits_per_query(32), 1);
        // Non-power-of-two heights round up.
        assert_eq!(CommandEncoding::PrefixLength.bits_per_query(33), 6);
        assert_eq!(CommandEncoding::PrefixLength.bits_per_query(1), 0);
        assert_eq!(CommandEncoding::PrefixLength.bits_per_query(2), 1);
    }

    /// A validated `LossyChannel` survives the builder unchanged, and the
    /// defaults stay on the paper's lossless channel with no mitigation.
    #[test]
    fn channel_and_mitigation_round_trip_through_builder() {
        use pet_phy::channel::LossyChannel;

        let c = PetConfig::paper_default();
        assert_eq!(c.channel(), ChannelModel::Perfect);
        assert_eq!(c.mitigation(), Mitigation::None);

        let lossy = LossyChannel::new(0.05, 0.01).unwrap();
        let c = PetConfig::builder()
            .channel(ChannelModel::Lossy(lossy))
            .mitigation(Mitigation::TrimmedMean { trim: 4 })
            .build()
            .unwrap();
        match c.channel() {
            ChannelModel::Lossy(got) => {
                assert_eq!(got, lossy);
                assert!((got.miss() - 0.05).abs() < 1e-15);
                assert!((got.false_busy() - 0.01).abs() < 1e-15);
            }
            ChannelModel::Perfect => panic!("lossy channel lost in the builder"),
        }
        assert_eq!(c.mitigation(), Mitigation::TrimmedMean { trim: 4 });
        // The channel is part of the config's identity.
        assert_ne!(c, PetConfig::paper_default());
        // Normalized negative zero compares equal to a plain zero config.
        let a = PetConfig::builder()
            .channel(ChannelModel::Lossy(LossyChannel::new(-0.0, 0.0).unwrap()))
            .build()
            .unwrap();
        let b = PetConfig::builder()
            .channel(ChannelModel::Lossy(LossyChannel::new(0.0, 0.0).unwrap()))
            .build()
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn reprobe_round_trips_but_rejects_feedback_encoding() {
        let c = PetConfig::builder()
            .mitigation(Mitigation::ReProbe { probes: 2 })
            .build()
            .unwrap();
        assert_eq!(c.mitigation(), Mitigation::ReProbe { probes: 2 });
        let err = PetConfig::builder()
            .encoding(CommandEncoding::FeedbackBit)
            .mitigation(Mitigation::ReProbe { probes: 1 })
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::ReProbeRequiresExplicitCommands);
        // Trimmed mean stays compatible with feedback tags.
        assert!(PetConfig::builder()
            .encoding(CommandEncoding::FeedbackBit)
            .mitigation(Mitigation::TrimmedMean { trim: 2 })
            .build()
            .is_ok());
    }

    #[test]
    fn phy_profile_round_trips_and_defaults_off() {
        assert_eq!(PetConfig::paper_default().phy(), None);
        let c = PetConfig::builder()
            .phy(Some(PhyProfile::gen2()))
            .build()
            .unwrap();
        assert_eq!(c.phy(), Some(PhyProfile::gen2()));
        // The profile is part of the config's identity.
        assert_ne!(c, PetConfig::paper_default());
    }

    #[test]
    fn rounds_come_from_accuracy() {
        let tight = PetConfig::builder()
            .accuracy(Accuracy::new(0.05, 0.01).unwrap())
            .build()
            .unwrap();
        let loose = PetConfig::builder()
            .accuracy(Accuracy::new(0.20, 0.10).unwrap())
            .build()
            .unwrap();
        assert!(tight.rounds() > loose.rounds());
    }
}
