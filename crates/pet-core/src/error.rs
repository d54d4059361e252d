//! Error types for fallible PET operations.
//!
//! The original API panicked on misuse (zero rounds, out-of-range `delta`);
//! those panicking methods remain as thin wrappers, while the `try_*`
//! variants ([`crate::Estimator::try_run_oracle`],
//! [`crate::EstimateReport::try_confidence_interval`]) surface the same
//! conditions as values for callers that must not unwind — CLI argument
//! handling, long-running sweeps, FFI boundaries.

use crate::config::ConfigError;
use std::fmt;

/// An invalid request to the PET estimation API.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PetError {
    /// A session was asked to execute zero rounds.
    ZeroRounds,
    /// A confidence interval was requested at an error probability outside
    /// `(0, 1)`.
    InvalidDelta(f64),
    /// A confidence interval was requested on a report holding no rounds
    /// (and no zero-probe detection to fall back on).
    NoRoundsRun,
    /// The configuration failed to validate.
    Config(ConfigError),
}

impl fmt::Display for PetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            // Wording matches the historical panic messages so callers (and
            // tests) matching on substrings keep working through the
            // panicking wrappers.
            Self::ZeroRounds => write!(f, "at least one round is required"),
            Self::InvalidDelta(delta) => {
                write!(f, "delta must be in (0, 1), got {delta}")
            }
            Self::NoRoundsRun => write!(f, "no rounds were run"),
            Self::Config(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Config(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for PetError {
    fn from(e: ConfigError) -> Self {
        Self::Config(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_legacy_panic_wording() {
        assert_eq!(
            PetError::ZeroRounds.to_string(),
            "at least one round is required"
        );
        assert_eq!(PetError::NoRoundsRun.to_string(), "no rounds were run");
        assert_eq!(
            PetError::InvalidDelta(1.5).to_string(),
            "delta must be in (0, 1), got 1.5"
        );
    }

    #[test]
    fn config_errors_convert_and_chain() {
        let e: PetError = ConfigError::HeightOutOfRange.into();
        assert_eq!(e, PetError::Config(ConfigError::HeightOutOfRange));
        assert_eq!(e.to_string(), ConfigError::HeightOutOfRange.to_string());
        assert!(std::error::Error::source(&e).is_some());
        assert!(std::error::Error::source(&PetError::ZeroRounds).is_none());
    }
}
