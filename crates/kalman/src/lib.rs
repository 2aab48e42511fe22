//! Parallel-in-time Kalman smoothing using orthogonal transformations.
//!
//! Umbrella crate re-exporting the full public API of the reproduction of
//! Gargir & Toledo, *"Parallel-in-Time Kalman Smoothing Using Orthogonal
//! Transformations"* (IPDPS 2025):
//!
//! | Module | Contents |
//! |---|---|
//! | [`model`] | Problem definition: [`model::LinearModel`], covariance specs, generators, dense oracle |
//! | [`odd_even`] | **The paper's contribution**: odd-even parallel QR smoother + parallel SelInv |
//! | [`seq`] | Sequential baselines: RTS smoother, Paige–Saunders QR smoother |
//! | [`associative`] | Särkkä & García-Fernández parallel-scan smoother |
//! | [`tridiag`] | Normal-equations cyclic-reduction smoother (unstable; for the stability study) |
//! | [`stream`] | Online serving: streaming fixed-lag smoother, R-factor forgetting, multi-stream pool |
//! | [`serve`] | Serving front-end: sharded pools, bounded-queue ingestion with backpressure, metrics |
//! | [`wire`] | Versioned self-describing binary codec + CRC-framed protocol for serving state |
//! | [`cluster`] | Cross-process serving: shard worker processes under a crash-recovering supervisor |
//! | [`obs`] | Observability: lock-free metric registry, phase spans, event journal, exporters |
//! | [`dense`] | Dense kernels (QR, LU, Cholesky, GEMM, triangular solves) |
//! | [`par`] | TBB-like parallel primitives (`parallel_for` with grain) |
//!
//! The production paths are instrumented with [`obs`] phase spans and
//! counters (see `docs/OBSERVABILITY.md` for the metric catalog); the
//! `obs-off` cargo feature compiles all instrumentation to no-ops.
//!
//! # Quickstart
//!
//! ```
//! use kalman::prelude::*;
//! use rand::SeedableRng;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
//! let problem = kalman::model::generators::tracking_2d(&mut rng, 200, 0.1, 0.5, 0.25);
//!
//! // Smooth with the parallel odd-even algorithm…
//! let est = odd_even_smooth(&problem.model, OddEvenOptions::default()).unwrap();
//! // …and cross-check against the conventional RTS smoother.
//! let rts = rts_smooth(&problem.model).unwrap();
//! assert!(est.max_mean_diff(&rts) < 1e-6);
//! ```
//!
//! # Streaming quickstart
//!
//! When measurements arrive continuously instead of as a complete model,
//! feed them through a [`stream::StreamingSmoother`]: estimates are
//! finalized a fixed lag behind the newest data, and finalized history is
//! condensed away so memory stays bounded no matter how long the stream
//! runs (serve many streams at once with a [`stream::SmootherPool`]):
//!
//! ```
//! use kalman::prelude::*;
//! use kalman::dense::Matrix;
//!
//! let opts = StreamOptions { lag: 8, flush_every: 4, ..StreamOptions::default() };
//! let mut stream = StreamingSmoother::with_prior(
//!     vec![0.0], CovarianceSpec::Identity(1), opts).unwrap();
//! let mut finalized = Vec::new();
//! for i in 0..100 {
//!     if i > 0 {
//!         finalized.extend(stream.evolve(Evolution::random_walk(1)).unwrap());
//!     }
//!     stream.observe(Observation {
//!         g: Matrix::identity(1),
//!         o: vec![(i as f64 * 0.2).sin()],
//!         noise: CovarianceSpec::Identity(1),
//!     }).unwrap();
//!     assert!(stream.buffered_len() <= opts.window_capacity());
//! }
//! let (tail, _checkpoint) = stream.finish().unwrap();
//! finalized.extend(tail);
//! assert_eq!(finalized.len(), 100);
//! ```
//!
//! To serve *many* streams behind a bounded-memory front-end, put them in
//! a [`serve::ShardedPool`]: producers submit through cloneable
//! [`serve::Ingress`] handles (backpressured — a full shard queue makes
//! `try_submit` fail fast and the async `submit` wait), and a periodic
//! [`serve::ShardedPool::drain`] batch-flushes every full window with zero
//! steady-state allocations.  See `docs/GUIDE.md` for the full
//! walkthrough, and `examples/serving.rs` for a runnable tour.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

/// Scalable thread-caching allocator, standing in for the TBB scalable
/// allocator (`libtbbmalloc_proxy`) the paper's test programs link against
/// (§5.1).  The parallel smoothers allocate many small matrix blocks from
/// many threads; the system allocator's arena handling dominates the running
/// time without this (see DESIGN.md).
#[global_allocator]
static GLOBAL: tikv_jemallocator::Jemalloc = tikv_jemallocator::Jemalloc;

/// Allocator instrumentation (per-thread allocation counting) exposed by
/// the global allocator.  The `alloc_steady_state` integration test and the
/// benchmark harness use it to prove the smoothing hot loops are
/// allocation-free after the workspace pool warms up.
pub mod alloc_stats {
    pub use tikv_jemallocator::{
        thread_alloc_count, thread_recent_alloc_sizes, trap_next_alloc_of_size,
    };

    /// Registers the allocator's per-thread allocation counter as the
    /// sampled gauge `alloc.thread_total` in the [`crate::obs`] registry
    /// (the reading is taken on the thread running the exporter).
    /// Idempotent.
    pub fn register_alloc_gauges() {
        kalman_obs::register_sampler("alloc.thread_total", || thread_alloc_count() as f64);
    }
}

// Compile and run the user guide's snippets with the crate's doctests, so
// docs/GUIDE.md can promise that every snippet works.
#[cfg(doctest)]
#[doc = include_str!("../../../docs/GUIDE.md")]
mod guide_doctests {}

// Same deal for the observability guide.
#[cfg(doctest)]
#[doc = include_str!("../../../docs/OBSERVABILITY.md")]
mod observability_doctests {}

pub use kalman_associative as associative;
pub use kalman_cluster as cluster;
pub use kalman_dense as dense;
pub use kalman_model as model;
pub use kalman_nonlinear as nonlinear;
pub use kalman_obs as obs;
pub use kalman_odd_even as odd_even;
pub use kalman_par as par;
pub use kalman_seq as seq;
pub use kalman_serve as serve;
pub use kalman_stream as stream;
pub use kalman_tridiag as tridiag;
pub use kalman_wire as wire;

/// The most common imports in one place.
pub mod prelude {
    pub use kalman_associative::{
        associative_smooth, AssociativeOptions, ScanOptions, ScanPlan, ScanSchedule,
    };
    pub use kalman_dense::Matrix;
    pub use kalman_model::{
        solve_dense, CovarianceSpec, Evolution, KalmanError, LinearModel, LinearStep, Observation,
        Smoothed,
    };
    pub use kalman_nonlinear::{gauss_newton_smooth, GaussNewtonOptions, NonlinearModel};
    pub use kalman_odd_even::{
        odd_even_smooth, BackendPolicy, OddEvenOptions, PlanSchedule, SmoothPlan,
    };
    pub use kalman_par::{run_with_threads, ExecPolicy};
    pub use kalman_seq::{paige_saunders_smooth, rts_smooth, SmootherOptions};
    pub use kalman_serve::{Ingress, ServeConfig, ShardedPool, SubmitError, TrySubmitError};
    pub use kalman_stream::{
        Checkpoint, FinalizedStep, LagPolicy, PollBatch, SmootherPool, StreamId, StreamOptions,
        StreamingSmoother,
    };
    pub use kalman_tridiag::{normal_equations_smooth, TridiagMethod};
}
