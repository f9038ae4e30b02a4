//! Regression metrics, most importantly the Q-error used throughout the
//! paper's evaluation.

use serde::{Deserialize, Serialize};

/// Q-error of a runtime (or cardinality) prediction: the factor by which
/// the prediction deviates from the truth,
/// `max(pred / actual, actual / pred) ≥ 1`.
///
/// Both values are clamped to a small positive floor so that degenerate
/// predictions produce large-but-finite errors.
pub fn q_error(predicted: f64, actual: f64) -> f64 {
    let floor = 1e-9;
    let p = predicted.max(floor);
    let a = actual.max(floor);
    (p / a).max(a / p)
}

/// Median of a sample (averaging the two middle elements for even sizes).
/// Returns `NaN` for empty input.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The `p`-th percentile (0–100) of a sample using linear interpolation
/// between closest ranks.  Returns `NaN` for empty input.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    percentile_of_sorted(&sorted, p)
}

/// [`percentile`] of an already-sorted sample, without the clone and the
/// sort.  Returns `NaN` for empty input.
pub fn percentile_of_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Summary of a Q-error distribution in the format of the paper's Table 1:
/// median, 95th percentile and maximum.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QErrorSummary {
    /// Median Q-error.
    pub median: f64,
    /// 95th-percentile Q-error.
    pub p95: f64,
    /// Maximum Q-error.
    pub max: f64,
    /// Number of predictions summarised.
    pub count: usize,
}

impl QErrorSummary {
    /// Summarise `(predicted, actual)` pairs.
    pub fn from_predictions(pairs: &[(f64, f64)]) -> Self {
        let q: Vec<f64> = pairs.iter().map(|(p, a)| q_error(*p, *a)).collect();
        QErrorSummary {
            median: median(&q),
            p95: percentile(&q, 95.0),
            max: q.iter().copied().fold(f64::NAN, f64::max),
            count: q.len(),
        }
    }
}

impl std::fmt::Display for QErrorSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "median {:.2}  p95 {:.2}  max {:.2}  (n={})",
            self.median, self.p95, self.max, self.count
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q_error_is_symmetric_and_at_least_one() {
        assert_eq!(q_error(2.0, 2.0), 1.0);
        assert_eq!(q_error(4.0, 2.0), 2.0);
        assert_eq!(q_error(2.0, 4.0), 2.0);
        assert!(q_error(0.0, 5.0) > 1e6);
    }

    #[test]
    fn median_and_percentiles() {
        let values = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(median(&values), 3.0);
        assert_eq!(percentile(&values, 0.0), 1.0);
        assert_eq!(percentile(&values, 100.0), 5.0);
        let even = [1.0, 2.0, 3.0, 4.0];
        assert!((median(&even) - 2.5).abs() < 1e-12);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn q_error_exact_match_is_exactly_one() {
        for v in [1e-6, 0.5, 1.0, 3.5, 1e9] {
            assert_eq!(q_error(v, v), 1.0, "q_error({v}, {v})");
        }
    }

    #[test]
    fn q_error_guards_zero_and_negative_inputs() {
        // Zero and negative values are clamped to the positive floor, so
        // the metric stays finite and ≥ 1 instead of dividing by zero.
        assert!(q_error(0.0, 1.0).is_finite());
        assert!(q_error(1.0, 0.0).is_finite());
        assert!(q_error(-5.0, 2.0).is_finite());
        assert!(q_error(2.0, -5.0).is_finite());
        assert!(q_error(0.0, 0.0) >= 1.0);
        assert_eq!(q_error(0.0, 0.0), 1.0); // both clamp to the same floor
        assert_eq!(q_error(-1.0, -2.0), 1.0);
        assert!(q_error(0.0, 1.0) >= 1e8); // floor makes the error huge, not infinite
    }

    #[test]
    fn percentile_clamps_out_of_range_p() {
        let values = [3.0, 1.0, 2.0];
        assert_eq!(percentile(&values, -10.0), 1.0);
        assert_eq!(percentile(&values, 150.0), 3.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn percentile_single_element_is_constant() {
        for p in [0.0, 25.0, 50.0, 99.0, 100.0] {
            assert_eq!(percentile(&[7.5], p), 7.5);
        }
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let values = [0.0, 10.0];
        assert!((percentile(&values, 25.0) - 2.5).abs() < 1e-12);
        assert!((percentile(&values, 75.0) - 7.5).abs() < 1e-12);
    }

    #[test]
    fn summary_matches_hand_computation() {
        let pairs = [(1.0, 1.0), (2.0, 1.0), (1.0, 4.0), (8.0, 1.0)];
        let s = QErrorSummary::from_predictions(&pairs);
        assert_eq!(s.count, 4);
        assert_eq!(s.max, 8.0);
        assert!((s.median - 3.0).abs() < 1e-12); // q-errors 1,2,4,8 → median 3
    }

    #[test]
    fn summary_display_is_readable() {
        let s = QErrorSummary {
            median: 1.2,
            p95: 2.5,
            max: 10.0,
            count: 3,
        };
        assert_eq!(s.to_string(), "median 1.20  p95 2.50  max 10.00  (n=3)");
    }
}
