//! Order statistics and the round/pass aggregation rule.
//!
//! Every timing the harness reports is a median of per-round values
//! (percentiles are taken inside a round first), and the driver takes
//! the median of those across passes — so one noisy window, which this
//! 2-core box produces regularly, cannot move a reported number.

/// The median; the mean of the two middle values for an even count.
/// `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of unsorted samples: the
/// smallest sample with at least `p`% of the samples at or below it. On
/// fewer than 100 samples p99 is therefore the largest one.
pub fn percentile(samples: &[u64], p: f64) -> u64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut v = samples.to_vec();
    v.sort_unstable();
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Full range as a share of the median — the spread of a handful of
/// passes, where quartiles mean nothing.
pub fn range_share(values: &[f64]) -> f64 {
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (hi - lo) / median(values)
}

/// How one metric combines across rounds of a run and passes of the
/// driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Combine {
    /// Timings and rates: the median.
    Median,
    /// Counts the program determines: every value must be identical.
    Exact,
}

/// Combines per-round (or per-pass) values; `Err` names the disagreeing
/// values of an exact count.
pub fn combine(values: &[f64], how: Combine) -> Result<f64, String> {
    match how {
        Combine::Median => Ok(median(values)),
        Combine::Exact => {
            let first = *values.first().ok_or("no values")?;
            if values.iter().all(|v| *v == first) {
                Ok(first)
            } else {
                Err(format!("exact count differs between repeats: {values:?}"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        // small rounds: p50 of six is the third, p99 the largest
        assert_eq!(percentile(&[60, 10, 50, 20, 40, 30], 50.0), 30);
        assert_eq!(percentile(&[60, 10, 50, 20, 40, 30], 99.0), 60);
        assert_eq!(percentile(&[7], 50.0), 7);
    }

    #[test]
    fn one_noisy_pass_cannot_move_a_median() {
        assert_eq!(
            combine(&[100.0, 134.0, 101.0], Combine::Median).unwrap(),
            101.0
        );
    }

    #[test]
    fn exact_counts_must_agree() {
        assert_eq!(combine(&[7.0, 7.0, 7.0], Combine::Exact).unwrap(), 7.0);
        assert!(combine(&[7.0, 8.0, 7.0], Combine::Exact).is_err());
    }
}
