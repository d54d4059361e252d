//! The host-speed probe. On a shared host the speed of identical work
//! drifts by 10–35% over tens of seconds to minutes, longer than a run can
//! average out. So a run times this probe, code of the benchmark's own
//! that the program cannot change, before and after each stretch of
//! measured work, and scales the stretch's timings by [`REFERENCE_S`] over
//! the mean of the two probes. A faster or slower program still moves the
//! scaled figures in full; a slow spell of the host moves the probe with
//! it and cancels.

use std::time::Instant;

/// Keys sorted in one round of a probe.
const KEYS: usize = 100_000;

/// Rounds in one probe; the probe is their median, so a round that a
/// context switch or an interrupt hits does not set it.
const ROUNDS: usize = 3;

/// The probe's median time on the host the bounds were set on (2-vCPU
/// AVX2 Xeon): scaled timings read as seconds on that host at its usual
/// speed.
pub const REFERENCE_S: f64 = 0.0025;

/// In each round, the calling thread refills its buffer with the same
/// fixed [`KEYS`] keys and sorts them. The probe starts no thread and
/// allocates its buffer once, so repeated probes leave the process's
/// threads and memory as they were.
pub struct Probe {
    keys: Vec<u64>,
}

impl Probe {
    pub fn new() -> Self {
        Self {
            keys: vec![0; KEYS],
        }
    }

    /// One probe; returns the median wall time of its rounds, in seconds.
    pub fn run(&mut self) -> f64 {
        let rounds: Vec<f64> = (0..ROUNDS).map(|_| self.round()).collect();
        crate::stats::median(&rounds)
    }

    fn round(&mut self) -> f64 {
        let started = Instant::now();
        for (x, key) in (0u64..).zip(self.keys.iter_mut()) {
            *key = x.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (x >> 7);
        }
        self.keys.sort_unstable();
        started.elapsed().as_secs_f64()
    }
}

/// The factor that scales work timed between probes of `before` and
/// `after` seconds to the reference speed.
pub fn scale(before: f64, after: f64) -> f64 {
    REFERENCE_S / ((before + after) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_reference_over_mean_probe() {
        assert_eq!(scale(REFERENCE_S, REFERENCE_S), 1.0);
        // A host running at half speed doubles both probes.
        assert_eq!(scale(2.0 * REFERENCE_S, 2.0 * REFERENCE_S), 0.5);
        assert!((scale(0.01, 0.03) - REFERENCE_S / 0.02).abs() < 1e-12);
    }

    #[test]
    fn probe_takes_time_and_keeps_its_buffer() {
        let mut probe = Probe::new();
        let first = probe.keys.as_ptr();
        assert!(probe.run() > 0.0);
        assert!(probe.run() > 0.0);
        assert_eq!(probe.keys.as_ptr(), first);
        assert!(probe.keys.windows(2).all(|w| w[0] <= w[1]));
    }
}
