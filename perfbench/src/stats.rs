//! The benchmark's own arithmetic: percentiles, the ladder's stop rule,
//! generator lateness and the traced run's additivity check. Kept free
//! of I/O so the self-tests at the bottom pin every rule down.

/// Samples that must lie strictly beyond a percentile before it is
/// reported: fewer than this and the tail is a handful of outliers.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `p` quantile (`0 < p < 1`) of `sorted` (ascending),
/// or `None` when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 1.0, "percentile {p} outside (0, 1)");
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Samples per window of [`windowed_percentile`]: enough to report a
/// p99 with [`MIN_BEYOND`] samples beyond it.
pub const WINDOW: usize = 1000;

/// A percentile robust to a passing stall: `values` (in the order the
/// requests were due) are cut into consecutive windows of equal size, at
/// least [`WINDOW`] each, and the result is the median of the windows'
/// `p` percentiles. `None` when there are too few values for one window.
pub fn windowed_percentile(values: &[f64], p: f64) -> Option<f64> {
    let k = values.len() / WINDOW;
    if k == 0 {
        return None;
    }
    let n = values.len();
    let each: Vec<f64> = (0..k)
        .map(|i| percentile(&sorted(&values[i * n / k..(i + 1) * n / k]), p))
        .collect::<Option<Vec<f64>>>()?;
    median(&each)
}

/// Sorts a copy of `values` and returns it (NaN-free input assumed).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// The median of `values` (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let v = sorted(values);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// The arithmetic mean, or `None` for no samples.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

/// The latency limit every open-loop step is held to: the windowed p99
/// of the step's latencies (timed from each request's due time), so one
/// host stall does not end the ladder.
pub const SLO_P99_MS: f64 = 50.0;

/// Share of the offered load a step must complete within its window.
pub const SLO_KEEP_UP: f64 = 0.99;

/// One measured step of an open-loop ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Step {
    /// Offered rate, requests per second.
    pub offered_rps: f64,
    /// Completions per second inside the step's window.
    pub completed_rps: f64,
    /// Windowed p99 latency in ms ([`windowed_percentile`]), or `None`
    /// when the step had too few samples.
    pub p99_ms: Option<f64>,
    /// Requests that failed (error reply, or unanswered at the end).
    pub failed: u64,
}

impl Step {
    /// Whether the step meets the SLO: p99 within the limit, no
    /// failures, and completions keeping up with the offered load. A
    /// step whose p99 cannot be reported does not pass.
    pub fn meets_slo(&self) -> bool {
        self.failed == 0
            && self.p99_ms.is_some_and(|p| p <= SLO_P99_MS)
            && self.completed_rps >= SLO_KEEP_UP * self.offered_rps
    }
}

/// Growth factor between ladder steps.
pub const LADDER_FACTOR: f64 = 1.25;

/// The ladder's stop rule: steps run in increasing order, and the first
/// step that misses the SLO ends the climb. Returns the highest step
/// below that break (the sustained rate), or `None` when the very first
/// step already failed.
pub fn sustained(steps: &[Step]) -> Option<Step> {
    let mut best = None;
    for s in steps {
        if !s.meets_slo() {
            break;
        }
        best = Some(*s);
    }
    best
}

/// Whether the ladder should run another step after `last`.
pub fn ladder_continues(last: &Step) -> bool {
    last.meets_slo()
}

/// Generator lateness of one request: how long after its due time it
/// was actually written, in ms (never negative: sending early is not
/// possible by construction, but clock reads may tie).
pub fn lateness_ms(due_ns: u64, sent_ns: u64) -> f64 {
    sent_ns.saturating_sub(due_ns) as f64 / 1e6
}

/// Latency of one open-loop request: from its due time (not its send
/// time) to its reply, in ms, so a generator or server stall that
/// delays later sends is charged to them.
pub fn latency_ms(due_ns: u64, done_ns: u64) -> f64 {
    done_ns.saturating_sub(due_ns) as f64 / 1e6
}

/// The traced run's additivity tolerance: stage means must sum to the
/// measured per-request mean within this share of it.
pub const ADDITIVITY_TOLERANCE: f64 = 0.10;

/// Checks that `stage_means` add up to `total_mean` within
/// [`ADDITIVITY_TOLERANCE`]. Returns the relative gap on success.
pub fn check_additivity(stage_means: &[f64], total_mean: f64) -> Result<f64, String> {
    if total_mean.is_nan() || total_mean <= 0.0 {
        return Err(format!("total mean {total_mean} is not positive"));
    }
    let sum: f64 = stage_means.iter().sum();
    let gap = (sum - total_mean).abs() / total_mean;
    if gap <= ADDITIVITY_TOLERANCE {
        Ok(gap)
    } else {
        Err(format!(
            "stage means sum to {sum:.3} but the per-request mean is {total_mean:.3} \
             ({:.1}% apart, tolerance {:.0}%)",
            gap * 100.0,
            ADDITIVITY_TOLERANCE * 100.0
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // p99 of 1000 samples: rank 990, exactly ten beyond.
        assert_eq!(percentile(&ramp(1000), 0.99), Some(990.0));
        // 999 samples: rank 990 leaves only nine beyond.
        assert_eq!(percentile(&ramp(999), 0.99), None);
        // p50 needs 20 samples, not 2.
        assert_eq!(percentile(&ramp(19), 0.5), None);
        assert_eq!(percentile(&ramp(20), 0.5), Some(10.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = ramp(2000);
        assert_eq!(percentile(&v, 0.5), Some(1000.0));
        assert_eq!(percentile(&v, 0.99), Some(1980.0));
        assert_eq!(percentile(&v, 0.999), None);
    }

    #[test]
    fn windowed_percentile_takes_the_median_window() {
        // Three windows of 1000; the middle one holds a stall.
        let mut v: Vec<f64> = (0..3000).map(|i| (i % 1000) as f64).collect();
        for x in &mut v[1000..2000] {
            *x += 500.0;
        }
        // Window p99s are 989, 1489 and 989: the stall does not move the
        // median, where the pooled p99 would jump.
        assert_eq!(windowed_percentile(&v, 0.99), Some(989.0));
        assert!(percentile(&sorted(&v), 0.99).unwrap() > 1400.0);
        // Fewer than one window's worth: nothing to report.
        assert_eq!(windowed_percentile(&v[..999], 0.99), None);
        // The median works the same way: 500, 1000 and 500.
        assert_eq!(windowed_percentile(&v, 0.5), Some(499.0));
        // 2500 values make two windows of 1250.
        assert_eq!(
            windowed_percentile(&ramp(2500), 0.99),
            Some((1238.0 + 2488.0) / 2.0)
        );
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }

    fn step(offered: f64, completed: f64, p99: Option<f64>, failed: u64) -> Step {
        Step {
            offered_rps: offered,
            completed_rps: completed,
            p99_ms: p99,
            failed,
        }
    }

    #[test]
    fn slo_requires_tail_keep_up_and_no_failures() {
        assert!(step(1000.0, 995.0, Some(12.0), 0).meets_slo());
        assert!(step(1000.0, 990.0, Some(50.0), 0).meets_slo());
        assert!(
            !step(1000.0, 989.0, Some(12.0), 0).meets_slo(),
            "backlog growing"
        );
        assert!(
            !step(1000.0, 1000.0, Some(50.1), 0).meets_slo(),
            "tail over the limit"
        );
        assert!(
            !step(1000.0, 1000.0, Some(5.0), 1).meets_slo(),
            "a failure misses the SLO"
        );
        assert!(
            !step(1000.0, 1000.0, None, 0).meets_slo(),
            "unreportable tail"
        );
    }

    #[test]
    fn ladder_stops_at_the_first_break() {
        let steps = [
            step(4000.0, 3999.0, Some(8.0), 0),
            step(5000.0, 4990.0, Some(20.0), 0),
            step(6250.0, 6000.0, Some(80.0), 0),
            // A later step that happens to pass does not count: the
            // climb already broke.
            step(7812.5, 7800.0, Some(10.0), 0),
        ];
        assert!(ladder_continues(&steps[1]));
        assert!(!ladder_continues(&steps[2]));
        assert_eq!(sustained(&steps).map(|s| s.offered_rps), Some(5000.0));
        assert_eq!(sustained(&steps[2..]), None);
        assert_eq!(sustained(&[]), None);
    }

    #[test]
    fn lateness_and_latency_count_from_due_time() {
        assert_eq!(lateness_ms(1_000_000, 3_500_000), 2.5);
        assert_eq!(lateness_ms(2_000_000, 1_000_000), 0.0);
        // Sent 2 ms late, answered 1 ms after sending: 3 ms of latency.
        assert_eq!(latency_ms(1_000_000, 4_000_000), 3.0);
    }

    #[test]
    fn additivity_within_tolerance() {
        assert!(check_additivity(&[10.0, 20.0, 65.0], 100.0).is_ok());
        assert!(check_additivity(&[10.0, 20.0, 80.0], 100.0).is_ok());
        assert!(
            check_additivity(&[10.0, 20.0, 50.0], 100.0).is_err(),
            "20% unaccounted"
        );
        assert!(
            check_additivity(&[60.0, 60.0], 100.0).is_err(),
            "double counting"
        );
        assert!(check_additivity(&[1.0], 0.0).is_err());
    }
}
