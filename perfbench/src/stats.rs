//! Order statistics over timing samples.

/// Nearest-rank percentile `p` (0–100) of `samples`; sorts in place.
/// Returns 0 for an empty sample.
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Median (nearest-rank p50).
pub fn median(samples: &mut [f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Seconds a fixed memory-bound loop (4 passes over 8 MiB) takes; it runs
/// none of the library's code.  Provenance only: a record of how fast the
/// machine was, never used to adjust a metric.
pub fn machine_probe_s() -> f64 {
    let mut buf = vec![1.0f64; 1 << 20];
    let t = std::time::Instant::now();
    let mut sum = 0.0;
    for _ in 0..4 {
        for (i, v) in buf.iter_mut().enumerate() {
            *v += i as f64;
            sum += *v;
        }
    }
    std::hint::black_box(sum);
    t.elapsed().as_secs_f64()
}

/// Runs `f` until `budget` seconds have passed and it has run at least
/// `min` times, returning each run's wall time in seconds.
pub fn repeat_for(budget: f64, min: usize, mut f: impl FnMut()) -> Vec<f64> {
    let start = std::time::Instant::now();
    let mut out = Vec::new();
    while out.len() < min || start.elapsed().as_secs_f64() < budget {
        let t = std::time::Instant::now();
        f();
        out.push(t.elapsed().as_secs_f64());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let mut v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 75.0), 30.0);
        let mut w: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&mut w, 99.0), 990.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
    }
}
