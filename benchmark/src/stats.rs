//! Order statistics over a run's samples.

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every metric has at least one sample.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        f64::midpoint(v[mid - 1], v[mid])
    }
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, the rule the spread of repeated
/// runs is judged by. Needs at least two samples.
#[must_use]
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let v = sorted(values);
    let n = 4i64;
    let m = v.len() as i64 + 1;
    let cut = |i: i64| {
        let j = (i * m / n).clamp(1, v.len() as i64 - 1);
        let delta = (i * m - j * n) as f64;
        let j = j as usize;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median; 0 with fewer than two
/// samples.
#[must_use]
pub fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some((q1, q3)) if median(values) != 0.0 => (q3 - q1) / median(values).abs(),
        _ => 0.0,
    }
}

/// Nearest-rank percentile `q` (0–100).
#[must_use]
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    let rank = ((q / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(percentile(&v, 99.0), 10.0);
        assert_eq!(percentile(&v, 50.0), 5.0);
    }
}
