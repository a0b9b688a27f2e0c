//! Order statistics and the quiet-path reduction.
//!
//! A shared machine adds noise only upward, and every round replays the
//! identical op list, so op *i* does identical work in every round: its
//! latency is estimated by the minimum of its timings across rounds, and
//! every timed end-to-end metric is computed over those per-op minima.

/// The per-op minimum across rounds. Rounds are equally long by
/// construction (the determinism gate checks it).
pub fn per_op_min(rounds: &[Vec<u64>]) -> Vec<u64> {
    let Some(first) = rounds.first() else {
        return Vec::new();
    };
    let mut out = first.clone();
    for r in &rounds[1..] {
        assert_eq!(r.len(), out.len(), "rounds replay the same op list");
        for (m, &v) in out.iter_mut().zip(r) {
            *m = (*m).min(v);
        }
    }
    out
}

/// Nearest-rank position (1-based) of the `permille`-quantile in `n` samples.
fn rank(n: usize, permille: usize) -> usize {
    (n * permille).div_ceil(1000).clamp(1, n)
}

/// The `permille`-quantile (500 = median, 990 = p99) of an ascending slice
/// by nearest rank.
pub fn percentile(sorted: &[u64], permille: usize) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), permille) - 1]
}

/// How many of `n` samples lie beyond the `permille`-quantile.
pub fn samples_beyond(n: usize, permille: usize) -> usize {
    n - rank(n, permille)
}

/// The highest of p99 / p95 / p90 / p75 (in per-mille) that still has at
/// least ten samples beyond it in a sample of `n`; the median when even p75
/// has fewer.
pub fn tail_permille(n: usize) -> usize {
    [990, 950, 900, 750]
        .into_iter()
        .find(|p| n > 0 && samples_beyond(n, *p) >= 10)
        .unwrap_or(500)
}

/// Median of a float sample (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metrics are finite"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Distance between the first and third quartile as a share of the median,
/// with the quartiles of Python's `statistics.quantiles(values, n=4)`
/// (the exclusive method) — the spread the benchmark's bounds are judged by.
pub fn quartile_spread(values: &[f64]) -> f64 {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metrics are finite"));
    let n = v.len() as i64;
    let quartile = |k: i64| {
        // position k(n+1)/4 on a 1-based scale; the index is clamped into
        // the sample and the offset is not, so the ends extrapolate
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1) - j * 4) as f64;
        let (lo, hi) = (v[j as usize - 1], v[j as usize]);
        (lo * (4.0 - delta) + hi * delta) / 4.0
    };
    let m = median(&v);
    if m == 0.0 {
        return 0.0;
    }
    (quartile(3) - quartile(1)) / m.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_op_min_takes_each_ops_best_round() {
        let rounds = vec![vec![5, 9, 7], vec![6, 2, 7], vec![4, 8, 9]];
        assert_eq!(per_op_min(&rounds), vec![4, 2, 7]);
        assert_eq!(per_op_min(&[vec![3, 1]]), vec![3, 1]);
        assert!(per_op_min(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "same op list")]
    fn per_op_min_rejects_ragged_rounds() {
        per_op_min(&[vec![1, 2], vec![1]]);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 500), 50);
        assert_eq!(percentile(&v, 990), 99);
        assert_eq!(percentile(&v, 1000), 100);
        assert_eq!(percentile(&v, 0), 1);
        assert_eq!(percentile(&[7], 990), 7);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        // p99 of 1000 leaves exactly 10 beyond; of 999 only 9
        assert_eq!(samples_beyond(1000, 990), 10);
        assert_eq!(tail_permille(1000), 990);
        assert_eq!(samples_beyond(999, 990), 9);
        assert_eq!(tail_permille(999), 950);
        assert_eq!(tail_permille(200), 950);
        assert_eq!(tail_permille(199), 900);
        assert_eq!(tail_permille(50), 750);
        assert_eq!(tail_permille(39), 500);
        assert_eq!(tail_permille(0), 500);
    }

    #[test]
    fn median_and_quartile_spread_match_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // exclusive method extrapolates past both ends of a two-sample set
        assert!((quartile_spread(&[1.0, 2.0]) - (2.25 - 0.75) / 1.5).abs() < 1e-12);
        assert_eq!(quartile_spread(&[5.0, 5.0, 5.0]), 0.0);
    }
}
