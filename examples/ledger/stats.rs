//! Order statistics over the samples one run collects.

/// Sorted copy, NaNs last (a NaN sample is a failed operation upstream;
/// here it must merely not panic the sort).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear-interpolation quantile, `q` in `[0, 1]`. Empty input reads 0.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(v.len() - 1);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Smallest sample; empty input reads 0.
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Largest sample; empty input reads 0.
pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().reduce(f64::max).unwrap_or(0.0)
}

/// Distance between the first and third quartile as a share of the
/// median — quartiles by the exclusive method, the one Python's
/// `statistics.quantiles(values, n=4)` uses, so this is the same spread
/// the acceptance procedure computes over ten runs. `None` below two
/// samples or for a zero median.
pub fn iqr_share(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    let med = median(&v);
    (med != 0.0).then(|| (cut(3) - cut(1)).abs() / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let share = iqr_share(&xs).unwrap();
        assert!((share - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(median(&xs), 5.5);
        assert_eq!(quantile(&xs, 1.0), 10.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
