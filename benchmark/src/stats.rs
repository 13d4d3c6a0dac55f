//! Order statistics: medians, the quartile spread the acceptance rule
//! uses, and the tail-percentile selection rule.

/// Median of `values` (mean of the middle pair for an even count).
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// The first decile by nearest lower rank: the value a tenth of the way
/// up the sorted samples (the minimum below eleven samples). `None` for
/// an empty slice.
///
/// Host interference only ever adds time, and on a shared host it comes
/// in phases that can cover most of a 10 s run: within one run the
/// repetition times of a two-image kernel are bimodal (undisturbed, or
/// 40 % longer with an image preempted), and the share of disturbed
/// repetitions moves the median by ±17 % between runs while the first
/// decile stays within ±6 %. So timings that are gated are reported as
/// their first decile — what the operation costs when the host leaves
/// it alone — and the median and tail are reported beside them.
pub fn first_decile(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v.get(v.len().checked_sub(1)? / 10).copied()
}

/// First and third quartile as Python's
/// `statistics.quantiles(values, n=4)` (the default *exclusive* method)
/// gives them. `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        // j, delta = divmod(i * (n + 1), 4), j clamped to [1, n - 1].
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Run-to-run spread: the distance between the first and third quartile
/// as a share of the median. `None` below two values or for a zero
/// median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values)?;
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// The tail of a timing distribution: the highest percentile that still
/// has at least ten samples beyond it. Up to twenty samples that
/// percentile would sit at or under the median and say nothing about
/// the tail, so the maximum is reported instead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile chosen: `100 · (samples − 10) / samples`, or 100
    /// (the maximum) when there are twenty samples or fewer.
    pub percentile: f64,
    /// Its value.
    pub value: f64,
    /// Samples strictly beyond it: ten, or none for the maximum.
    pub beyond: usize,
    /// Samples in all.
    pub samples: usize,
}

/// Select and evaluate the tail percentile of `values`; `None` when
/// empty.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let beyond = if n > 20 { 10 } else { 0 };
    Some(Tail {
        percentile: 100.0 * (n - beyond) as f64 / n as f64,
        value: *v.get(n.checked_sub(beyond + 1)?)?,
        beyond,
        samples: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn first_decile_is_a_tenth_of_the_way_up() {
        let ramp = |n: usize| -> Vec<f64> { (1..=n).rev().map(|i| i as f64).collect() };
        assert_eq!(first_decile(&[]), None);
        assert_eq!(first_decile(&ramp(1)), Some(1.0));
        assert_eq!(first_decile(&ramp(10)), Some(1.0));
        assert_eq!(first_decile(&ramp(11)), Some(2.0));
        assert_eq!(first_decile(&ramp(80)), Some(8.0));
        assert_eq!(first_decile(&ramp(101)), Some(11.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), Some((1.0, 4.0)));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), Some((0.5, 3.5)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&v), Some(1.0));
    }

    #[test]
    fn tail_is_highest_percentile_with_ten_samples_beyond() {
        let ramp = |n: usize| -> Vec<f64> { (1..=n).rev().map(|i| i as f64).collect() };
        // Twenty samples or fewer: the maximum.
        let t = tail(&ramp(20)).unwrap();
        assert_eq!(
            (t.percentile, t.value, t.beyond, t.samples),
            (100.0, 20.0, 0, 20)
        );
        // Twenty-one: the eleventh value (the median) has ten beyond it.
        let t = tail(&ramp(21)).unwrap();
        assert_eq!((t.value, t.beyond), (11.0, 10));
        assert!((t.percentile - 1100.0 / 21.0).abs() < 1e-12);
        // 100 samples: p90 is the 90th value; 1000 samples: p99.
        let t = tail(&ramp(100)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (90.0, 90.0, 10));
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!((t.percentile, t.value, t.samples), (99.0, 990.0, 1000));
        assert_eq!(tail(&[]), None);
    }
}
