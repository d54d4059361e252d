//! Sample statistics and the rate-ladder rule.

use pet_server::loadgen::percentile_of;

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q` of an ascending sample, or `None` when fewer
/// than [`MIN_BEYOND`] samples lie beyond it (the percentile would then be
/// set by a handful of outliers).
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    (sorted.len() - rank >= MIN_BEYOND).then(|| percentile_of(sorted, q))
}

/// Median of a sample (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Whether the nearest-rank p99 of a window's latencies is within
/// `limit_ns`: at most 1% of its requests over the limit or unanswered.
pub fn p99_within(latencies: &[Option<u64>], limit_ns: u64) -> bool {
    let allowed = latencies.len() - (0.99 * latencies.len() as f64).ceil() as usize;
    latencies
        .iter()
        .filter(|l| l.is_none_or(|l| l > limit_ns))
        .count()
        <= allowed
}

/// What one rung of the rate ladder measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RungOutcome {
    /// Offered rate of the rung, requests per second.
    pub rate: f64,
    /// Requests sent on the rung.
    pub attempted: usize,
    /// Requests that failed (refused, lost, malformed or mismatched).
    pub failed: usize,
    /// Consecutive windows the rung was split into, and how many of them
    /// kept their p99 within the limit.
    pub windows: usize,
    pub windows_met: usize,
    /// Requests due but not yet answered when the rung's last one was due.
    pub backlog: usize,
    /// Answered requests per second over the rung.
    pub achieved_rps: f64,
}

impl RungOutcome {
    /// A rung is met when nothing failed, most of its windows kept p99
    /// within the limit (one scheduling stall moves one window only), and
    /// the backlog stayed within what Little's law allows at the limit:
    /// `rate × limit` in flight, plus one per connection.
    pub fn meets(&self, limit_s: f64, connections: usize) -> bool {
        let allowed_backlog = (self.rate * limit_s).ceil() as usize + connections;
        self.failed == 0 && 2 * self.windows_met > self.windows && self.backlog <= allowed_backlog
    }
}

/// Finds the highest rung of `rates` (ascending) that `probe` reports as
/// met, by bisection over rung indices; assumes a met rung's lower
/// neighbours are met too. Returns the rung's index and outcome, or `None`
/// when even the first rung is not met.
pub fn highest_met_rung(
    rates: &[f64],
    mut probe: impl FnMut(f64) -> (bool, RungOutcome),
) -> Option<(usize, RungOutcome)> {
    let (mut lo, mut hi) = (0usize, rates.len());
    let mut best = None;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let (met, outcome) = probe(rates[mid]);
        if met {
            best = Some((mid, outcome));
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    best
}

/// Geometric ladder from `low` to at most `high`, each rung `step` times
/// the last.
pub fn ladder(low: f64, high: f64, step: f64) -> Vec<f64> {
    let mut rates = vec![low];
    while let Some(&last) = rates.last() {
        let next = (last * step).round();
        if next > high {
            break;
        }
        rates.push(next);
    }
    rates
}

/// One open-loop request's timeline, in nanoseconds from the run's start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timing {
    /// When the schedule said to send it.
    pub due: u64,
    /// When the generator actually sent it.
    pub sent: u64,
    /// When its whole reply had arrived (`None` if it never did).
    pub done: Option<u64>,
}

impl Timing {
    /// Latency timed from the due time, so a stall that delays sending is
    /// charged to the requests it delayed.
    pub fn latency(&self) -> Option<u64> {
        self.done.map(|d| d.saturating_sub(self.due))
    }
}

/// How late the generator itself sent each request of one connection,
/// given in send order. A connection's requests are served in order, so a
/// request cannot start before its predecessor's reply; the generator is
/// only late past both its due time and that reply.
pub fn generator_lateness(connection: &[Timing]) -> Vec<u64> {
    let mut previous_done = 0;
    connection
        .iter()
        .map(|t| {
            let ready = t.due.max(previous_done);
            previous_done = t.done.unwrap_or(t.sent);
            t.sent.saturating_sub(ready)
        })
        .collect()
}

/// Requests due by `t` and not yet answered at `t`.
pub fn backlog_at(timings: &[Timing], t: u64) -> usize {
    timings
        .iter()
        .filter(|x| x.due <= t && x.done.is_none_or(|d| d > t))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let sample: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&sample, 0.5), Some(500));
        // Rank 990 leaves exactly 10 beyond it.
        assert_eq!(percentile(&sample, 0.99), Some(990));
        // Rank 999 leaves one.
        assert_eq!(percentile(&sample, 0.999), None);
        let small: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&small, 0.9), Some(90));
        assert_eq!(percentile(&small, 0.99), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    fn rung(rate: f64, windows_met: usize, backlog: usize) -> RungOutcome {
        RungOutcome {
            rate,
            attempted: 1000,
            failed: 0,
            windows: 8,
            windows_met,
            backlog,
            achieved_rps: rate,
        }
    }

    #[test]
    fn p99_window_rule() {
        let ms = 1_000_000;
        // 100 requests: one may miss the limit, two may not.
        let mut window = vec![Some(ms / 2); 100];
        window[0] = Some(2 * ms);
        assert!(p99_within(&window, ms));
        window[1] = None;
        assert!(!p99_within(&window, ms));
        // Exactly at the limit is within it.
        assert!(p99_within(&[Some(ms); 50], ms));
    }

    #[test]
    fn rung_rule_checks_windows_failures_and_backlog() {
        assert!(rung(1000.0, 5, 0).meets(0.01, 2));
        // Half the windows is not a majority.
        assert!(!rung(1000.0, 4, 0).meets(0.01, 2));
        // Any failure fails the rung.
        let mut failed = rung(1000.0, 8, 0);
        failed.failed = 1;
        assert!(!failed.meets(0.01, 2));
        // Little's law at 1000 req/s and 10 ms: 10 in flight, plus 2.
        assert!(rung(1000.0, 8, 12).meets(0.01, 2));
        assert!(!rung(1000.0, 8, 13).meets(0.01, 2));
    }

    #[test]
    fn ladder_search_finds_the_highest_met_rung() {
        let rates = ladder(100.0, 1000.0, 1.25);
        assert_eq!(rates[..3], [100.0, 125.0, 156.0]);
        assert!(rates.iter().all(|&r| r <= 1000.0));
        for capacity in [90.0, 100.0, 300.0, 999.0, 5000.0] {
            let mut probes = 0;
            let found = highest_met_rung(&rates, |rate| {
                probes += 1;
                (rate <= capacity, rung(rate, 8, 0))
            });
            let expected = rates.iter().rposition(|&r| r <= capacity);
            assert_eq!(found.map(|(i, _)| i), expected, "capacity {capacity}");
            assert!(
                probes <= 1 + rates.len().ilog2() as usize,
                "{probes} probes"
            );
        }
    }

    #[test]
    fn latency_is_timed_from_the_due_time() {
        // Due every 1 ms; a 5 ms stall holds back the sends of the second
        // and third requests, which then answer in 0.1 ms each.
        let ms = 1_000_000;
        let timings = [
            Timing {
                due: 0,
                sent: 0,
                done: Some(ms / 10),
            },
            Timing {
                due: ms,
                sent: 6 * ms,
                done: Some(6 * ms + ms / 10),
            },
            Timing {
                due: 2 * ms,
                sent: 6 * ms,
                done: Some(6 * ms + 2 * ms / 10),
            },
            Timing {
                due: 3 * ms,
                sent: 6 * ms,
                done: None,
            },
        ];
        let latencies: Vec<_> = timings.iter().map(Timing::latency).collect();
        assert_eq!(
            latencies,
            [
                Some(ms / 10),
                Some(5 * ms + ms / 10),
                Some(4 * ms + 2 * ms / 10),
                None
            ]
        );
        // The stall was the generator's own: nothing was in flight.
        assert_eq!(generator_lateness(&timings[..2]), [0, 5 * ms]);
        // Waiting for an in-flight reply is not the generator's lateness:
        // the server would not have started the next request sooner.
        let waited = [
            Timing {
                due: 0,
                sent: 0,
                done: Some(3 * ms),
            },
            Timing {
                due: ms,
                sent: 3 * ms + 1_000,
                done: Some(4 * ms),
            },
        ];
        assert_eq!(generator_lateness(&waited), [0, 1_000]);
        assert_eq!(backlog_at(&timings, 3 * ms), 3);
        assert_eq!(backlog_at(&timings, 7 * ms), 1);
    }
}
