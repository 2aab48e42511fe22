//! Configuration and output types of the streaming smoother.

use kalman_dense::Matrix;
use kalman_odd_even::BackendPolicy;
use kalman_par::ExecPolicy;

/// How a [`crate::StreamingSmoother`] picks its finalization lag.
///
/// The right lag depends on how fast information mixes through the model:
/// the influence of data `d` steps past a state decays like `ρ^d`, where
/// the per-step decay rate `ρ` is a property of the dynamics and
/// observation noise (strongly observed, fast-mixing chains forget in a
/// few steps; weakly observed chains need long hindsight).  `Fixed` pins
/// the lag by hand; `Auto` *measures* `ρ` while serving — from the
/// revisions successive window re-smooths apply to overlapping states —
/// and sizes the lag so the revision a finalized estimate would still
/// receive stays below a tolerance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LagPolicy {
    /// Always exactly this lag (≥ 1).
    Fixed(usize),
    /// Adapt the lag to the measured information-decay rate.
    Auto {
        /// Smallest lag the policy may pick (≥ 1).
        min: usize,
        /// Largest lag the policy may pick (also the initial lag, so early
        /// finalizations are conservative while `ρ` is still unmeasured);
        /// bounds the window size.
        max: usize,
        /// Target bound on the absolute revision a state would still
        /// receive from data beyond the lag.
        tol: f64,
    },
}

impl LagPolicy {
    /// A reasonable `Auto` configuration: lags in `[4, 128]`, revisions
    /// bounded by `1e-9`.
    pub fn auto() -> LagPolicy {
        LagPolicy::Auto {
            min: 4,
            max: 128,
            tol: 1e-9,
        }
    }

    /// The lag a fresh stream starts from.
    pub fn initial_lag(&self) -> usize {
        match *self {
            LagPolicy::Fixed(lag) => lag,
            LagPolicy::Auto { max, .. } => max,
        }
    }

    /// The largest lag the policy can ever pick (sizes the window bound).
    pub fn max_lag(&self) -> usize {
        match *self {
            LagPolicy::Fixed(lag) => lag,
            LagPolicy::Auto { max, .. } => max,
        }
    }
}

/// Configuration of a [`crate::StreamingSmoother`].
#[derive(Debug, Clone, Copy)]
pub struct StreamOptions {
    /// Finalization lag `L` (≥ 1): a step is finalized once at least `L`
    /// newer steps exist.  Larger lags track the hindsight batch solution
    /// more closely (influence of post-window data decays geometrically)
    /// at the cost of latency and window size.  Overridden by
    /// [`StreamOptions::lag_policy`] when one is set.
    pub lag: usize,
    /// Adaptive lag selection; `None` (the default) behaves as
    /// `LagPolicy::Fixed(self.lag)`.
    pub lag_policy: Option<LagPolicy>,
    /// Flush hysteresis (≥ 1): how many finalizable steps accumulate before
    /// the window is re-smoothed.  The window holds at most
    /// `lag + flush_every` steps; each flush finalizes `flush_every` of
    /// them, so re-smoothing cost is amortized `(lag / flush_every + 1)`
    /// window-steps per stream step.
    pub flush_every: usize,
    /// Emit `cov(û_i)` with every finalized step (runs the SelInv phase on
    /// each window).
    pub covariances: bool,
    /// Execution policy for the per-window factorization/solve.  Use
    /// [`ExecPolicy::Seq`] for streams served through a
    /// [`crate::SmootherPool`], which parallelizes *across* streams.
    pub policy: ExecPolicy,
    /// Flush automatically when [`crate::StreamingSmoother::evolve`] finds
    /// a full window.  Disabled by pooled streams, whose flushes are
    /// batched by [`crate::SmootherPool::poll`].
    pub auto_flush: bool,
    /// The smoother that executes each window flush.  Its only value is
    /// [`BackendPolicy::OddEven`]; the field is kept so code that sets it
    /// keeps compiling.
    pub backend: BackendPolicy,
}

impl Default for StreamOptions {
    fn default() -> Self {
        StreamOptions {
            lag: 32,
            lag_policy: None,
            flush_every: 32,
            covariances: false,
            policy: ExecPolicy::par(),
            auto_flush: true,
            backend: BackendPolicy::OddEven,
        }
    }
}

impl StreamOptions {
    /// Options with the given lag (other fields default).
    pub fn with_lag(lag: usize) -> Self {
        StreamOptions {
            lag,
            ..StreamOptions::default()
        }
    }

    /// The lag policy in effect ([`StreamOptions::lag_policy`], or
    /// `Fixed(self.lag)` when none is set).
    pub fn effective_lag_policy(&self) -> LagPolicy {
        self.lag_policy.unwrap_or(LagPolicy::Fixed(self.lag))
    }

    /// The maximum number of buffered steps: the largest lag the policy
    /// can pick plus `flush_every`.
    pub fn window_capacity(&self) -> usize {
        self.effective_lag_policy().max_lag() + self.flush_every
    }
}

/// A finalized estimate leaving the lag window.  Once emitted it never
/// changes: the stream has condensed the step away and will not revisit it.
#[derive(Debug, Clone)]
pub struct FinalizedStep {
    /// Global step index within the stream (0-based).
    pub index: u64,
    /// Smoothed state estimate `û_i`.
    pub mean: Vec<f64>,
    /// `cov(û_i)`, when [`StreamOptions::covariances`] is set.
    pub covariance: Option<Matrix>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let o = StreamOptions::default();
        assert!(o.lag >= 1 && o.flush_every >= 1);
        assert_eq!(o.window_capacity(), o.lag + o.flush_every);
        assert!(o.auto_flush);
        assert_eq!(o.effective_lag_policy(), LagPolicy::Fixed(o.lag));
        let l = StreamOptions::with_lag(5);
        assert_eq!(l.lag, 5);
    }

    #[test]
    fn lag_policy_bounds_capacity_and_start() {
        let auto = LagPolicy::Auto {
            min: 2,
            max: 64,
            tol: 1e-8,
        };
        assert_eq!(auto.initial_lag(), 64);
        assert_eq!(auto.max_lag(), 64);
        assert_eq!(LagPolicy::Fixed(7).initial_lag(), 7);
        let o = StreamOptions {
            lag: 8,
            lag_policy: Some(auto),
            flush_every: 4,
            ..StreamOptions::default()
        };
        assert_eq!(o.effective_lag_policy(), auto);
        assert_eq!(o.window_capacity(), 64 + 4);
    }
}
