//! Order statistics over op samples.

/// The median of `xs` (mean of the two middle values for an even
/// count); `NaN` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A tail latency: the highest percentile of p99 and p90 that has at
/// least [`MIN_BEYOND`] samples above its rank in every round of a run,
/// taken per round; the value is the median of the rounds' values.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    pub value: f64,
    /// The percentile used (99 or 90).
    pub percentile: u32,
    /// Samples ranked above it, in the round with the fewest.
    pub beyond: usize,
}

/// Samples a tail percentile needs above its rank.
pub const MIN_BEYOND: usize = 10;

/// The tail of a run's `rounds` by the nearest-rank method, or `None`
/// when even p90 has fewer than [`MIN_BEYOND`] samples beyond it in some
/// round. A run of several rounds takes the median of their tails, so a
/// host slowdown that covers one round does not set the run's tail.
pub fn tail(rounds: &[&[f64]]) -> Option<Tail> {
    let sorted: Vec<Vec<f64>> = rounds
        .iter()
        .map(|r| {
            let mut v = r.to_vec();
            v.sort_by(f64::total_cmp);
            v
        })
        .collect();
    [99u32, 90].into_iter().find_map(|p| {
        let mut values = Vec::new();
        let mut beyond = usize::MAX;
        for v in &sorted {
            let rank = (p as usize * v.len()).div_ceil(100);
            if rank == 0 || v.len() - rank < MIN_BEYOND {
                return None;
            }
            values.push(v[rank - 1]);
            beyond = beyond.min(v.len() - rank);
        }
        (!values.is_empty()).then(|| Tail {
            value: median(&values),
            percentile: p,
            beyond,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail(&[&xs]), None);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(
            tail(&[&xs]),
            Some(Tail {
                value: 90.0,
                percentile: 90,
                beyond: 10
            })
        );
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&[&xs]).expect("enough samples");
        assert_eq!((t.value, t.percentile, t.beyond), (990.0, 99, 10));
    }

    #[test]
    fn tail_of_rounds_is_the_median_round_tail() {
        let round = |scale: f64| -> Vec<f64> { (1..=1000).map(|x| f64::from(x) * scale).collect() };
        let (a, b, c) = (round(1.0), round(3.0), round(2.0));
        let t = tail(&[&a, &b, &c]).expect("enough samples");
        assert_eq!((t.value, t.percentile), (1980.0, 99));
        // One short round drops every round to p90.
        let short: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&[&a, &short]).expect("enough samples");
        assert_eq!(
            (t.value, t.percentile, t.beyond),
            ((900.0 + 90.0) / 2.0, 90, 10)
        );
    }
}
