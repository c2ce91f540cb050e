//! Order statistics for latency samples.

/// Nearest-rank percentile (`p` in 0..=100) of unsorted samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median (mean of the two middle samples for an even count).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A run's tail latency, with the percentile and sample counts that say
/// how it was chosen.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    pub value: f64,
    pub percentile: f64,
    pub samples: usize,
    pub beyond: usize,
}

/// The tail a run can support: the highest percentile that still leaves
/// at least ten samples beyond it. Below twenty samples that percentile
/// would fall under the median, so such runs report their median, with
/// `beyond` saying how few samples lie above it. The rule is continuous
/// in the sample count, so a time-bounded run whose op count drifts
/// across twenty moves its tail by one rank. (A fixed high percentile of
/// a short run is nearly its maximum, which moved by a quarter between
/// runs on a 2-vCPU shared VM.)
pub fn tail(samples: &[f64]) -> Tail {
    let n = samples.len();
    if n == 0 {
        return Tail {
            value: 0.0,
            percentile: 50.0,
            samples: 0,
            beyond: 0,
        };
    }
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    // 1-based: rank n-10 has exactly ten samples above it; rank
    // ceil(n/2) is the nearest-rank median.
    let rank = n.saturating_sub(10).max(n.div_ceil(2));
    let value = v[rank - 1];
    Tail {
        value,
        percentile: (rank as f64 / n as f64 * 1000.0).floor() / 10.0,
        samples: n,
        beyond: v.iter().filter(|&&x| x > value).count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_leaves_ten_beyond() {
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.value, 30.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.percentile, 75.0);
        assert_eq!(tail(&v[..20]).value, 10.0);
        assert_eq!(tail(&v[..19]).value, 10.0);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), 10);
    }

    #[test]
    fn short_runs_report_the_median() {
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!((t.value, t.beyond, t.percentile), (10.0, 9, 52.6));
        assert_eq!(tail(&[5.0, 9.0, 7.0]).value, 7.0);
        assert_eq!(tail(&[]).samples, 0);
        // Continuous across twenty samples: one rank per added sample.
        let w: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(tail(&w[..20]).value, 10.0);
        assert_eq!(tail(&w).value, 11.0);
    }

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
    }
}
