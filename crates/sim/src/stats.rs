//! Descriptive statistics for load-distribution figures.
//!
//! The paper's distribution plots show per-node load curves; in a text
//! harness we summarize each curve by its Gini coefficient, the load share
//! of the most-loaded nodes, percentiles and utilization (fraction of nodes
//! that carry any load at all).

/// Gini coefficient of a non-negative sample (0 = perfectly even,
/// → 1 = concentrated on one node). Returns 0 for empty or all-zero input.
pub fn gini(values: &[f64]) -> f64 {
    let n = values.len();
    if n == 0 {
        return 0.0;
    }
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let total: f64 = sorted.iter().sum();
    if total <= 0.0 {
        return 0.0;
    }
    // G = (2 * sum_i i*x_i) / (n * total) - (n + 1) / n, with 1-based i
    let weighted: f64 = sorted
        .iter()
        .enumerate()
        .map(|(i, x)| (i + 1) as f64 * x)
        .sum();
    (2.0 * weighted) / (n as f64 * total) - (n as f64 + 1.0) / n as f64
}

/// The values sorted in descending order.
pub fn sorted_desc(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| f64::total_cmp(b, a));
    v
}

/// Share of the total carried by the most-loaded `frac` of the population
/// (e.g. `top_share(loads, 0.01)` = load fraction on the top 1% of nodes).
pub fn top_share(values: &[f64], frac: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let sorted = sorted_desc(values);
    let total: f64 = sorted.iter().sum();
    if total <= 0.0 {
        return 0.0;
    }
    let k = ((values.len() as f64 * frac).ceil() as usize).clamp(1, values.len());
    sorted[..k].iter().sum::<f64>() / total
}

/// `p`-th percentile (0..=100) of the sorted data, by **rounded
/// linear-interpolation rank**: the element at 0-based index
/// `round((p/100) · (n − 1))`. Note this is *not* textbook nearest-rank
/// `⌈(p/100) · n⌉` — for `n = 5`, `p = 20` this picks the second element
/// where nearest-rank picks the first. The golden files pin this behavior;
/// changing the formula would shift every percentile column.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * (v.len() as f64 - 1.0)).round() as usize;
    v[rank.min(v.len() - 1)]
}

/// Arithmetic mean (0 for empty input).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Maximum (0 for empty input).
pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(0.0, f64::max)
}

/// Fraction of entries that are strictly positive — the paper's "network
/// utilization" (percentage of nodes participating in query processing).
pub fn utilization(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().filter(|&&v| v > 0.0).count() as f64 / values.len() as f64
}

/// Summary of one load-distribution curve.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DistributionSummary {
    /// Gini coefficient.
    pub gini: f64,
    /// Maximum per-node load.
    pub max: f64,
    /// Mean per-node load.
    pub mean: f64,
    /// Load share of the top 1% of nodes.
    pub top1: f64,
    /// Load share of the top 10% of nodes.
    pub top10: f64,
    /// Fraction of nodes with any load.
    pub utilization: f64,
}

impl DistributionSummary {
    /// Computes the summary of a curve.
    ///
    /// Loads are produced by counting, so non-finite values always indicate
    /// an upstream bug — flagged here (the aggregation entry point) in debug
    /// builds. The individual statistics below use `f64::total_cmp` and
    /// therefore never panic on NaN in release sweeps; NaN merely sorts
    /// after +∞ and poisons sums, which the debug assertion surfaces early.
    pub fn of(values: &[f64]) -> Self {
        debug_assert!(
            values.iter().all(|v| v.is_finite()),
            "non-finite load in distribution input"
        );
        DistributionSummary {
            gini: gini(values),
            max: max(values),
            mean: mean(values),
            top1: top_share(values, 0.01),
            top10: top_share(values, 0.10),
            utilization: utilization(values),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gini_of_uniform_is_zero() {
        assert!(gini(&[5.0, 5.0, 5.0, 5.0]).abs() < 1e-9);
    }

    #[test]
    fn gini_of_concentrated_approaches_one() {
        let mut v = vec![0.0; 100];
        v[0] = 100.0;
        assert!(gini(&v) > 0.98);
    }

    #[test]
    fn gini_is_scale_invariant() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [10.0, 20.0, 30.0, 40.0];
        assert!((gini(&a) - gini(&b)).abs() < 1e-12);
    }

    #[test]
    fn gini_handles_degenerate_input() {
        assert_eq!(gini(&[]), 0.0);
        assert_eq!(gini(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn top_share_concentration() {
        let mut v = vec![1.0; 100];
        v[0] = 901.0; // total 1000, top node has 90.1%
        assert!((top_share(&v, 0.01) - 0.901).abs() < 1e-9);
        assert!(top_share(&v, 1.0) > 0.999);
    }

    #[test]
    fn percentile_rounded_interpolation_rank() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        // Discriminating cases pinning the documented formula
        // round((p/100)·(n−1)) against textbook nearest-rank ⌈(p/100)·n⌉:
        // p=20 → round(0.8) = index 1 → 2.0 (nearest-rank would give 1.0);
        // p=40 → round(1.6) = index 2 → 3.0 (nearest-rank would give 2.0).
        assert_eq!(percentile(&v, 20.0), 2.0);
        assert_eq!(percentile(&v, 40.0), 3.0);
    }

    #[test]
    fn percentile_boundaries() {
        // n = 1: every percentile is the single element.
        assert_eq!(percentile(&[7.0], 0.0), 7.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
        assert_eq!(percentile(&[7.0], 100.0), 7.0);
        // Empty input.
        assert_eq!(percentile(&[], 50.0), 0.0);
        // Repeated values collapse to the same answer at every rank.
        let v = [4.0, 4.0, 4.0, 4.0];
        for p in [0.0, 25.0, 50.0, 75.0, 100.0] {
            assert_eq!(percentile(&v, p), 4.0);
        }
        // Unsorted input is sorted internally.
        assert_eq!(percentile(&[5.0, 1.0, 3.0], 100.0), 5.0);
    }

    #[test]
    fn nan_input_does_not_panic() {
        // Before the switch to `f64::total_cmp`, any NaN load aborted the
        // whole experiment sweep via `partial_cmp().expect(...)` inside
        // sort. Now NaN sorts deterministically (after +∞) and the
        // functions return without panicking.
        let v = [1.0, f64::NAN, 3.0];
        let g = gini(&v);
        assert!(g.is_nan() || g.is_finite()); // no panic is the contract
        let d = sorted_desc(&v);
        assert_eq!(d.len(), 3);
        assert!(d[0].is_nan()); // total order: NaN above +inf descending
        let t = top_share(&v, 0.5);
        assert!(t.is_nan() || t.is_finite());
        let p = percentile(&v, 100.0);
        assert!(p.is_nan()); // NaN sorts last ascending
        assert_eq!(percentile(&v, 0.0), 1.0);
    }

    #[test]
    fn utilization_counts_positive() {
        assert!((utilization(&[0.0, 1.0, 2.0, 0.0]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn summary_fields_consistent() {
        let v = [0.0, 10.0, 10.0, 0.0];
        let s = DistributionSummary::of(&v);
        assert_eq!(s.max, 10.0);
        assert_eq!(s.mean, 5.0);
        assert!((s.utilization - 0.5).abs() < 1e-12);
    }
}
