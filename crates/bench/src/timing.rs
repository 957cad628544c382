//! Wall-clock timing helpers for the sweep runner and `exp_churn`.
//!
//! [`median`] skips non-finite samples with a warning on stderr instead of
//! panicking, so one broken clock reading cannot kill a long sweep.

use std::time::Instant;

/// Median / spread of one cell's timed repetitions, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingSummary {
    /// Finite samples that went into the summary.
    pub reps: usize,
    /// Non-finite samples that were skipped (0 on healthy clocks).
    pub skipped: usize,
    /// Median over the finite samples (mean of the two middles when even).
    pub median_ms: f64,
    /// Fastest finite sample.
    pub min_ms: f64,
    /// Slowest finite sample.
    pub max_ms: f64,
}

/// Wall-clock each of `reps` calls to `f`, in milliseconds, and return the
/// first call's output with the samples. Later outputs are dropped after
/// their sample is taken.
///
/// # Panics
/// Panics if `reps` is 0: there would be no output to return.
pub fn time_reps_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut first = None;
    let samples = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            let out = f();
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            first.get_or_insert(out);
            ms
        })
        .collect();
    let first = first.expect("time_reps_ms: reps must be at least 1");
    (first, samples)
}

/// Median of the finite entries of `xs`: middle element for odd counts,
/// mean of the two middle elements for even counts. Non-finite entries are
/// skipped with a warning on stderr; returns `None` when no finite entry
/// remains.
pub fn median(xs: &[f64]) -> Option<f64> {
    let mut finite: Vec<f64> = xs.iter().copied().filter(|x| x.is_finite()).collect();
    if finite.len() < xs.len() {
        eprintln!(
            "warning: skipping {} non-finite timing sample(s) of {}",
            xs.len() - finite.len(),
            xs.len()
        );
    }
    if finite.is_empty() {
        return None;
    }
    finite.sort_by(|a, b| a.partial_cmp(b).expect("finite by construction"));
    let mid = finite.len() / 2;
    Some(if finite.len() % 2 == 1 {
        finite[mid]
    } else {
        (finite[mid - 1] + finite[mid]) / 2.0
    })
}

/// Summarize one cell's samples; `None` when no finite sample remains.
pub fn summarize(samples: &[f64]) -> Option<TimingSummary> {
    let median_ms = median(samples)?;
    let finite = samples.iter().copied().filter(|x| x.is_finite());
    Some(TimingSummary {
        reps: finite.clone().count(),
        skipped: samples.len() - finite.clone().count(),
        median_ms,
        min_ms: finite.clone().fold(f64::INFINITY, f64::min),
        max_ms: finite.fold(f64::NEG_INFINITY, f64::max),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_is_middle_element() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[2.0]), Some(2.0));
    }

    #[test]
    fn median_even_is_mean_of_middles() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[1.0, 2.0]), Some(1.5));
    }

    #[test]
    fn median_skips_nan_without_panicking() {
        // A `partial_cmp(..).expect(..)` sort would panic here.
        assert_eq!(median(&[f64::NAN, 2.0, 1.0, f64::INFINITY]), Some(1.5));
        assert_eq!(median(&[f64::NAN, f64::NAN]), None);
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn summarize_reports_spread_and_skips() {
        let s = summarize(&[3.0, f64::NAN, 1.0, 2.0]).unwrap();
        assert_eq!(s.reps, 3);
        assert_eq!(s.skipped, 1);
        assert_eq!(s.median_ms, 2.0);
        assert_eq!(s.min_ms, 1.0);
        assert_eq!(s.max_ms, 3.0);
        assert_eq!(summarize(&[f64::NAN]), None);
    }

    #[test]
    fn time_reps_counts_calls() {
        let mut calls = 0usize;
        let ((), times) = time_reps_ms(4, || calls += 1);
        assert_eq!(calls, 4);
        assert_eq!(times.len(), 4);
        assert!(times.iter().all(|t| t.is_finite() && *t >= 0.0));
    }

    #[test]
    fn time_reps_returns_the_first_reps_output() {
        let mut calls = 0usize;
        let (first, times) = time_reps_ms(3, || {
            calls += 1;
            calls
        });
        assert_eq!(first, 1);
        assert_eq!((calls, times.len()), (3, 3));
    }

    #[test]
    #[should_panic(expected = "reps must be at least 1")]
    fn time_reps_rejects_zero_reps() {
        time_reps_ms(0, || ());
    }
}
