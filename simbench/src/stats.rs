//! Order statistics over per-repetition samples.

/// The median of `xs` (mean of the middle two for an even count); 0
/// for no samples.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Samples beyond the tail percentile: the highest percentile that is
/// still backed by this many larger samples is the reported tail.
pub const TAIL_BEYOND: usize = 10;

/// The tail of `xs`: the highest percentile with at least
/// [`TAIL_BEYOND`] samples above it, as `(value, percentile)`. With too
/// few samples for such a percentile the maximum is returned, at
/// percentile 100.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let s = sorted(xs);
    let n = s.len();
    if n <= TAIL_BEYOND {
        return (s.last().copied().unwrap_or(0.0), 100.0);
    }
    let k = n - 1 - TAIL_BEYOND;
    (s[k], 100.0 * k as f64 / (n - 1) as f64)
}

/// `num / den`, or 0 when the denominator is not positive, so a ratio
/// over an empty layer never prints as NaN or infinity.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (0..21).map(f64::from).collect();
        // 21 samples: index 10 has exactly ten above it, the median.
        assert_eq!(tail(&xs), (10.0, 50.0));
        let xs: Vec<f64> = (0..101).map(f64::from).collect();
        assert_eq!(tail(&xs), (90.0, 90.0));
        assert_eq!(tail(&[1.0, 5.0]), (5.0, 100.0));
    }

    #[test]
    fn ratio_guards_zero() {
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
