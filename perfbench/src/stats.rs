//! Order statistics for timings, with the sample-count rule.
//!
//! A timing is reported as its median and the highest percentile that has
//! at least [`MIN_TAIL`] samples beyond it, together with the sample count.

use std::collections::BTreeMap;

/// Samples that must lie strictly beyond a percentile before it is reported.
pub const MIN_TAIL: usize = 10;

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by linear interpolation
/// between closest ranks; `None` when `values` is empty.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median of `values`; `None` when `values` is empty.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// Whether the `q`-quantile of `n` samples has at least [`MIN_TAIL`]
/// samples beyond it.
pub fn reportable(n: usize, q: f64) -> bool {
    // The epsilon absorbs the rounding of `1 − q` (100 · (1 − 0.9) < 10).
    n as f64 * (1.0 - q) + 1e-9 >= MIN_TAIL as f64
}

/// The `q`-quantile when [`reportable`] allows it for this many samples.
pub fn tail_quantile(values: &[f64], q: f64) -> Option<f64> {
    if reportable(values.len(), q) {
        quantile(values, q)
    } else {
        None
    }
}

/// The highest of the tail percentiles 99.9, 99, 95 and 90 that `n`
/// samples support under the sample-count rule (`None` below 100 samples).
pub fn highest_reportable(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.95, 0.9]
        .into_iter()
        .find(|&q| reportable(n, q))
}

/// A timing summary: the median, the highest reportable tail percentile
/// and the sample count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// `(q, value)` of the highest reportable percentile, if any.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarizes `values`; `None` when empty.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let median = median(values)?;
        let tail =
            highest_reportable(values.len()).and_then(|q| quantile(values, q).map(|v| (q, v)));
        Some(Summary {
            n: values.len(),
            median,
            tail,
        })
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "median {:.6} (n = {}", self.median, self.n)?;
        if let Some((q, v)) = self.tail {
            write!(f, ", p{} {:.6}", q * 100.0, v)?;
        }
        write!(f, ")")
    }
}

/// One timed call into the program: the work it did and the seconds it
/// took, labelled with the kind of call (a DP instance, a Monte Carlo arm,
/// a whole sweep).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    /// Kind of call.
    pub kind: &'static str,
    /// Work units done.
    pub work: f64,
    /// Seconds taken.
    pub secs: f64,
}

/// Work per second of a job mix: per kind of call, the median seconds per
/// unit of work, weighted by the kind's share of all work. With one kind
/// this is the median of `work / secs`. Samples without work (failed
/// calls) are skipped; `None` when none remain.
pub fn mix_rate(samples: &[Sample]) -> Option<f64> {
    let mut kinds: BTreeMap<&str, (f64, Vec<f64>)> = BTreeMap::new();
    for s in samples.iter().filter(|s| s.work > 0.0) {
        let (work, spw) = kinds.entry(s.kind).or_default();
        *work += s.work;
        spw.push(s.secs / s.work);
    }
    let total: f64 = kinds.values().map(|(w, _)| w).sum();
    let time: f64 = kinds
        .values()
        .map(|(w, spw)| w * median(spw).expect("every kind has a sample"))
        .sum();
    (total > 0.0).then(|| total / time)
}

/// Per kind, the summary of `work / secs` over its samples.
pub fn rates_by_kind(samples: &[Sample]) -> BTreeMap<&'static str, Summary> {
    let mut kinds: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for s in samples.iter().filter(|s| s.work > 0.0) {
        kinds.entry(s.kind).or_default().push(s.work / s.secs);
    }
    kinds
        .into_iter()
        .map(|(k, v)| (k, Summary::of(&v).expect("nonempty")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.99), Some(99.0));
        assert_eq!(quantile(&v, 0.0), Some(0.0));
        assert_eq!(quantile(&v, 1.0), Some(100.0));
        assert_eq!(quantile(&[0.0, 10.0], 0.25), Some(2.5));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // p99 needs 1000 samples, p90 needs 100, the median needs 20.
        assert!(!reportable(999, 0.99));
        assert!(reportable(1000, 0.99));
        assert!(!reportable(99, 0.9));
        assert!(reportable(100, 0.9));
        assert!(!reportable(19, 0.5));
        assert!(reportable(20, 0.5));
        let v: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(tail_quantile(&v, 0.99), None);
        assert!(tail_quantile(&v, 0.95).is_some());
    }

    #[test]
    fn summary_picks_the_highest_supported_percentile() {
        let v: Vec<f64> = (0..250).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!(s.n, 250);
        assert_eq!(s.median, 124.5);
        assert_eq!(s.tail.map(|t| t.0), Some(0.95));
        assert_eq!(highest_reportable(99), None);
        assert_eq!(highest_reportable(100), Some(0.9));
        assert_eq!(highest_reportable(10_000), Some(0.999));
        assert!(Summary::of(&[1.0; 5]).unwrap().tail.is_none());
    }

    fn sample(kind: &'static str, work: f64, secs: f64) -> Sample {
        Sample { kind, work, secs }
    }

    #[test]
    fn mix_rate_weights_kind_medians_by_work() {
        // One kind: the median rate (the 9 s outlier does not move it).
        let one = [
            sample("a", 10.0, 1.0),
            sample("a", 10.0, 2.0),
            sample("a", 10.0, 9.0),
        ];
        assert_eq!(mix_rate(&one), Some(5.0));
        // Two kinds: a (10 units at a median 0.1 s/unit) and b (30 units
        // at a median 0.5 s/unit) take 1 + 15 s for 40 units.
        let two = [
            sample("a", 5.0, 0.5),
            sample("b", 10.0, 5.0),
            sample("a", 5.0, 0.5),
            sample("b", 20.0, 10.0),
        ];
        assert_eq!(mix_rate(&two), Some(40.0 / 16.0));
        // Failed calls (no work) are skipped.
        assert_eq!(mix_rate(&[sample("a", 0.0, 1.0)]), None);
        let by_kind = rates_by_kind(&two);
        assert_eq!(by_kind["a"].median, 10.0);
        assert_eq!(by_kind["b"].n, 2);
    }
}
