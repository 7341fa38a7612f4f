//! Order statistics and the staleness computation.

use std::time::Duration;

/// The `q`-quantile (`0 <= q <= 1`) of `samples`, linearly interpolated
/// between the two closest ranks (the "linear" rule of NumPy and of
/// Python's `statistics.quantiles(..., method="inclusive")`). `NaN` for an
/// empty sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `samples` (`NaN` when empty).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Per-settlement staleness: for each settlement boundary, the time from
/// handing the runtime the boundary's last event to the reader's first
/// load of a snapshot that covers it.
///
/// * `handed[b]` — when event number `(b + 1) * every` (1-based) was handed
///   to the runtime, i.e. the last event of settlement `b`;
/// * `loads` — `(when, events)` for each snapshot the reader loaded for the
///   first time, in load order; `events` is the count the snapshot covers.
///
/// Boundaries that no load covers yield no sample. A load that covers
/// several boundaries at once yields one sample per boundary, each from
/// its own hand-off time.
pub fn staleness(handed: &[Duration], every: u64, loads: &[(Duration, u64)]) -> Vec<Duration> {
    let mut out = Vec::with_capacity(handed.len());
    let mut next = 0usize;
    for &(when, events) in loads {
        while next < handed.len() && (next as u64 + 1) * every <= events {
            out.push(when.saturating_sub(handed[next]));
            next += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let s = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&s), 3.0);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 5.0);
        assert_eq!(quantile(&s, 0.25), 2.0);
        assert!((quantile(&s, 0.9) - 4.6).abs() < 1e-12);
        assert_eq!(median(&[1.0, 2.0]), 1.5);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn p99_of_a_hundred_is_the_second_largest_interpolated() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!((quantile(&s, 0.99) - 99.01).abs() < 1e-9);
        assert_eq!(quantile(&s, 0.5), 50.5);
    }

    #[test]
    fn staleness_matches_each_boundary_to_its_first_covering_load() {
        // Settlements every 10 events; boundaries handed at 1, 2, 3, 4 ms.
        let handed = [ms(1), ms(2), ms(3), ms(4)];
        // The reader first sees 10 events at 5 ms, then a snapshot
        // covering 30 events (two boundaries at once) at 9 ms, then one
        // that covers nothing new, and never sees the fourth boundary.
        let loads = [(ms(5), 10), (ms(9), 30), (ms(12), 30)];
        assert_eq!(staleness(&handed, 10, &loads), vec![ms(4), ms(7), ms(6)]);
    }

    #[test]
    fn staleness_ignores_loads_before_any_boundary_and_never_goes_negative() {
        let handed = [ms(10), ms(20)];
        // A load covering fewer events than a settlement holds covers no
        // boundary; a load timed before its hand-off (clock skew between
        // threads) reads as zero, not negative.
        let loads = [(ms(3), 5), (ms(9), 10), (ms(30), 25)];
        assert_eq!(staleness(&handed, 10, &loads), vec![ms(0), ms(10)]);
        assert!(staleness(&handed, 10, &[]).is_empty());
    }
}
