//! Order statistics and the metric-name grammar.

/// A percentile of a sample together with the sample count it came from,
/// so no reported figure hides how many measurements stand behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The value at the requested quantile.
    pub value: f64,
    /// Samples the value was taken from.
    pub count: usize,
}

/// The nearest-rank percentile `q` (in `0.0..=1.0`) of `samples`: the
/// smallest sample with at least `q * n` samples at or below it. Returns
/// `None` for an empty sample or a `q` outside `0..=1`.
pub fn percentile(samples: &[f64], q: f64) -> Option<Percentile> {
    if samples.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(Percentile {
        value: sorted[rank - 1],
        count: n,
    })
}

/// The median of `samples` as the mean of the two middle values for an
/// even count (the convention of Python's `statistics.median`); `None` when
/// empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// Whether `name` is a valid metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank_and_reports_its_count() {
        let xs: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        let p50 = percentile(&xs, 0.5).expect("non-empty");
        assert_eq!((p50.value, p50.count), (5.0, 10));
        assert_eq!(percentile(&xs, 0.9).expect("non-empty").value, 9.0);
        assert_eq!(percentile(&xs, 1.0).expect("non-empty").value, 10.0);
        assert_eq!(percentile(&xs, 0.0).expect("non-empty").value, 1.0);
        let one = percentile(&[3.5], 0.9).expect("non-empty");
        assert_eq!((one.value, one.count), (3.5, 1));
    }

    #[test]
    fn percentile_rejects_empty_samples_and_bad_quantiles() {
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[1.0], 1.5), None);
        assert_eq!(percentile(&[1.0], f64::NAN), None);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn metric_names_follow_the_grammar() {
        for ok in [
            "wall_s",
            "pdr.system.reconfigure.ms_p50",
            "dma.bursts",
            "a-b",
            "9x",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", ".x", "_x", "op ms", "p/50", "µs", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }
}
