//! Sample summaries: median plus the highest percentile that still has at
//! least ten samples beyond it, always reported with the sample count.

/// Percentile ladder the tail is chosen from, highest first.
const LADDER: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// A latency (or any other) sample set reduced to what the report prints.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// Percentile level of [`Summary::tail`] (e.g. `99.0`); 0 when `n == 0`.
    pub tail_pct: f64,
    pub tail: f64,
    pub max: f64,
}

impl Summary {
    /// `p50 1.23 ms, p99 4.56 ms, max 7.89 ms (n=1234)`.
    pub fn describe(&self, unit: &str) -> String {
        format!(
            "p50 {:.4} {unit}, p{} {:.4} {unit}, max {:.4} {unit} (n={})",
            self.p50,
            pct_label(self.tail_pct),
            self.tail,
            self.max,
            self.n
        )
    }
}

/// `99.0` → `"99"`, `99.9` → `"99.9"`.
pub fn pct_label(p: f64) -> String {
    if p.fract() == 0.0 {
        format!("{p:.0}")
    } else {
        format!("{p}")
    }
}

/// Nearest-rank percentile of an ascending slice: the value at 1-based rank
/// `ceil(p/100 · n)`. Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p) - 1]
}

fn rank(n: usize, p: f64) -> usize {
    // p·n/100 computed in thousandths of a percent, so that 99.9 % of
    // 10 000 is exactly rank 9 990 and not one more after rounding error.
    let milli = (p * 1000.0).round() as usize;
    (milli * n).div_ceil(100_000).clamp(1, n)
}

/// Samples of `n` ranked above the `p`-th percentile.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The highest ladder percentile with at least [`TAIL_MIN_BEYOND`] samples
/// ranked above it, or `None` when even the median has fewer.
pub fn tail_level(n: usize) -> Option<f64> {
    LADDER
        .into_iter()
        .find(|&p| n > 0 && beyond(n, p) >= TAIL_MIN_BEYOND)
}

/// Into how many equal windows `n` samples can be cut, at most `max`, so
/// that even the smallest window has [`TAIL_MIN_BEYOND`] samples beyond
/// its `p`-th percentile; 1 when even the whole set has fewer.
pub fn window_count(n: usize, p: f64, max: usize) -> usize {
    (1..=max)
        .rev()
        .find(|&k| beyond(n / k, p) >= TAIL_MIN_BEYOND)
        .unwrap_or(1)
}

/// Summarize samples (any order). With too few samples for the median to
/// have ten beyond it, the tail is the maximum and `tail_pct` is 100.
pub fn summarize(samples: &[f64]) -> Summary {
    if samples.is_empty() {
        return Summary::default();
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let max = v[v.len() - 1];
    let (tail_pct, tail) = match tail_level(v.len()) {
        Some(p) => (p, percentile(&v, p)),
        None => (100.0, max),
    };
    Summary {
        n: v.len(),
        p50: percentile(&v, 50.0),
        tail_pct,
        tail,
        max,
    }
}

/// Median of a non-empty sample set.
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).p50
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
