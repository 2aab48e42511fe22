//! The streaming smoother's backend option and its dispatch counter.
//!
//! The odd-even plan ([`crate::SmoothPlan`]) is the only engine the
//! streaming and serving layers execute; the associative scan
//! (`kalman-associative`) remains the batch paper baseline.  Both names
//! below survive only so existing callers keep compiling (the benchmark
//! harness under `perfbench/` sets `StreamOptions::backend` and reads the
//! four-slot counter tuple); neither selects anything.

use std::sync::atomic::{AtomicU64, Ordering};

/// Per-stream smoother selection (`StreamOptions::backend`).
///
/// Has a single variant: the odd-even smoother serves every window.  Kept
/// as a type so callers that name it keep compiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendPolicy {
    /// The paper's odd-even QR smoother.
    #[default]
    OddEven,
}

static DISPATCH_ODD_EVEN: AtomicU64 = AtomicU64::new(0);

/// Counts one window flush executed on the odd-even plan (process-wide,
/// all streams).
pub fn record_backend_dispatch() {
    DISPATCH_ODD_EVEN.fetch_add(1, Ordering::Relaxed); // Relaxed: monotonic gauge counter.
}

/// Cumulative dispatch counts `(odd_even, scan, rts, fallback)`.
///
/// Only the odd-even count moves; the last three are always 0.  The
/// four-slot shape is kept so existing callers that destructure it keep
/// compiling.
pub fn backend_dispatch_counts() -> (u64, u64, u64, u64) {
    // Relaxed: monotonic gauge read, no ordering needed.
    (DISPATCH_ODD_EVEN.load(Ordering::Relaxed), 0, 0, 0)
}

/// Registers the flush counter as the `dense.backend.dispatch.odd_even`
/// sampled gauge in the `kalman-obs` registry, next to the
/// `dense.kernel.dispatch.*` ladder.  Idempotent.
pub fn register_backend_dispatch_gauges() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        kalman_obs::register_sampler("dense.backend.dispatch.odd_even", || {
            backend_dispatch_counts().0 as f64
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_counters_accumulate() {
        let before = backend_dispatch_counts();
        record_backend_dispatch();
        let after = backend_dispatch_counts();
        assert!(after.0 > before.0);
        assert_eq!((after.1, after.2, after.3), (0, 0, 0));
        register_backend_dispatch_gauges();
        register_backend_dispatch_gauges(); // idempotent
    }
}
