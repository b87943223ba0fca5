//! Order statistics for latency samples.

/// Median of a sample (mean of the middle two for even counts); 0 for
/// an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// A tail latency: the highest percentile that still has at least
/// [`TAIL_BEYOND`] samples above it.
#[derive(Debug, Clone, PartialEq)]
pub struct Tail {
    pub value: f64,
    /// Share of the samples at or below `value`, in percent.
    pub percentile: f64,
    pub samples: usize,
}

/// Samples that must lie strictly beyond the reported tail.
pub const TAIL_BEYOND: usize = 10;

/// The tail of a sample, or `None` when it has too few samples for any
/// percentile to leave [`TAIL_BEYOND`] beyond it.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let k = n - TAIL_BEYOND - 1;
    Some(Tail {
        value: v[k],
        percentile: 100.0 * (k + 1) as f64 / n as f64,
        samples: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!(t.value, 990.0);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
        assert!((t.percentile - 99.0).abs() < 1e-12);
        assert_eq!(t.samples, 1000);

        // The smallest sample that has a tail: its minimum, with ten above.
        let xs: Vec<f64> = (0..11).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!(t.value, 0.0);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);

        // Any higher percentile would leave fewer than ten beyond it.
        for n in 11..300 {
            let xs: Vec<f64> = (0..n).map(f64::from).collect();
            let t = tail(&xs).unwrap();
            let beyond = xs.iter().filter(|&&x| x > t.value).count();
            assert_eq!(beyond, TAIL_BEYOND, "n = {n}");
        }
    }

    #[test]
    fn too_few_samples_have_no_tail() {
        assert_eq!(tail(&[1.0; 10]), None);
        assert_eq!(tail(&[]), None);
    }
}
