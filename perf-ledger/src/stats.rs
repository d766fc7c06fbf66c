//! The benchmark's summary statistics: medians, quartiles, the tail
//! percentile and geometric means. Every reported number goes through here.

/// The finite values of `values`, sorted ascending.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    v.sort_by(f64::total_cmp);
    v
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) by linear interpolation between the
/// closest ranks, or `None` for no samples.
fn quantile(values: &[f64], q: f64) -> Option<f64> {
    let v = sorted(values);
    if v.is_empty() {
        return None;
    }
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// The median; an even count averages the two middle samples.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// The first and third quartiles.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    Some((quantile(values, 0.25)?, quantile(values, 0.75)?))
}

/// A tail latency together with the percentile it stands for and the
/// number of samples it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Nearest-rank percentile of `value`, in `(0, 100]`.
    pub percentile: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// How many samples the percentile was taken over.
    pub samples: usize,
}

/// The highest nearest-rank percentile with at least `beyond` samples above
/// it. With `beyond` or fewer samples no percentile qualifies, and the
/// maximum (p100) is returned so the tail is still reported, named as such.
pub fn tail(values: &[f64], beyond: usize) -> Option<Tail> {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return None;
    }
    let rank = if n > beyond { n - beyond } else { n };
    Some(Tail {
        percentile: 100.0 * rank as f64 / n as f64,
        value: v[rank - 1],
        samples: n,
    })
}

/// The geometric mean, or `None` when there are no samples or one is not
/// a positive finite number.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| !(v.is_finite() && *v > 0.0)) {
        return None;
    }
    Some((values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_has_no_statistics() {
        assert_eq!(median(&[]), None);
        assert_eq!(quartiles(&[]), None);
        assert_eq!(tail(&[], 10), None);
        assert_eq!(geomean(&[]), None);
    }

    #[test]
    fn single_sample_is_every_statistic() {
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(quartiles(&[3.0]), Some((3.0, 3.0)));
        assert_eq!(
            tail(&[3.0], 10),
            Some(Tail {
                percentile: 100.0,
                value: 3.0,
                samples: 1
            })
        );
        assert!((geomean(&[3.0]).unwrap() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn even_count_interpolates_between_the_middle_samples() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), Some(2.5));
        assert_eq!(quartiles(&v), Some((1.75, 3.25)));
        assert!((geomean(&[1.0, 4.0]).unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn tail_leaves_the_requested_samples_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v, 10).unwrap();
        assert_eq!((t.percentile, t.value, t.samples), (90.0, 90.0, 100));
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), 10);
        let t = tail(&v[..32], 10).unwrap();
        assert_eq!((t.percentile, t.value), (68.75, 22.0));
    }

    #[test]
    fn non_positive_or_non_finite_samples_have_no_geomean() {
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[1.0, f64::NAN]), None);
        assert_eq!(median(&[f64::NAN, 2.0]), Some(2.0));
    }
}
