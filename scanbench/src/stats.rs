//! Order statistics, the host-speed witness, and peak-memory probes.

use std::hint::black_box;
use std::time::Instant;

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A tail latency with the percentile it sits at and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample value.
    pub value: f64,
    /// Nearest-rank percentile of `value` among the samples.
    pub percentile: f64,
    /// Number of samples.
    pub samples: usize,
}

/// The highest nearest-rank percentile that leaves at least ten samples
/// beyond it, and never lower than p75: a run too short to leave ten
/// samples beyond p75 (fewer than 40 samples) reports p75 instead, which
/// stays a tail without resting on the single slowest sample.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn tail(xs: &[f64]) -> Tail {
    assert!(!xs.is_empty(), "tail of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let p75 = (3 * n).div_ceil(4);
    let rank = n.saturating_sub(10).max(p75);
    Tail {
        value: v[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        samples: n,
    }
}

/// Runs `f` until `budget_s` seconds have passed (at least `min_calls`
/// times) and returns the median wall time per call in microseconds.
pub fn per_call_us(budget_s: f64, min_calls: usize, mut f: impl FnMut()) -> f64 {
    f();
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_calls || start.elapsed().as_secs_f64() < budget_s {
        let t0 = Instant::now();
        f();
        samples.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    median(&samples)
}

/// Milliseconds of a frozen scalar loop: a naive 96×96 f32 matrix product
/// with every load through `black_box`, so no program change and no
/// vectoriser can move it. It is the host-speed witness; the median of
/// seven repeats is reported.
pub fn calib_ms() -> f64 {
    const N: usize = 96;
    let a: Vec<f32> = (0..N * N).map(|i| (i % 17) as f32 * 0.01).collect();
    let b: Vec<f32> = (0..N * N).map(|i| (i % 13) as f32 * 0.02).collect();
    let mut c = vec![0f32; N * N];
    let mut reps = Vec::with_capacity(7);
    for _ in 0..7 {
        let t0 = Instant::now();
        for _ in 0..4 {
            for i in 0..N {
                for j in 0..N {
                    let mut s = 0f32;
                    for k in 0..N {
                        s += black_box(a[i * N + k]) * b[k * N + j];
                    }
                    c[i * N + j] = s;
                }
            }
        }
        black_box(&c);
        reps.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    median(&reps)
}

fn status_kb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Resets the kernel's peak-RSS mark so [`peak_rss_mb`] covers only what
/// follows. Returns `false` where the kernel does not support it.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident memory of this process in MiB (`VmHWM`), or the current
/// resident size when no peak is available.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:")
        .or_else(|| status_kb("VmRSS:"))
        .map_or(0.0, |kb| kb / 1024.0)
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
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(t.value, 30.0);
        assert_eq!(t.percentile, 75.0);
        assert_eq!(t.samples, 40);
        let long: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&long).value, 90.0);
        let few = tail(&[1.0, 5.0, 3.0, 4.0]);
        assert_eq!((few.value, few.percentile), (4.0, 75.0));
    }
}
