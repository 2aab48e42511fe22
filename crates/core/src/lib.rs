//! The Odd-Even parallel-in-time Kalman smoother — the paper's contribution.
//!
//! The smoother computes the generalized least-squares estimate
//! `û = argmin ‖U(Au − b)‖₂` via a specialized sparse QR factorization of a
//! *column permutation* of `U·A` (§3 of the paper).  A recursive odd-even
//! permutation of block columns — inspired by block cyclic reduction —
//! exposes parallelism: at every level all even block columns are eliminated
//! concurrently by small Householder QR factorizations, the odd columns form
//! the next level's chain, and the recursion bottoms out at a single column.
//!
//! * Work: `Θ(k n³)` — same asymptotic work as the sequential
//!   Paige–Saunders algorithm, with a small constant-factor overhead
//!   (measured at 1.8–2.5× in the paper and in this reproduction's
//!   benchmarks).
//! * Critical path: `Θ(log k · n log n)` versus `Θ(k · n log n)`
//!   sequentially.
//!
//! Covariances `cov(û_i)` are the diagonal blocks of `(RᵀR)⁻¹`, computed by
//! a parallel adaptation of the SelInv selected-inversion algorithm
//! specialized to the odd-even structure (the paper's Algorithm 2, §4);
//! this phase is separable and can be skipped (the "NC" variant).
//!
//! The engine is built as a plan/execute split in the style of sparse
//! direct solvers: a symbolic [`PlanSchedule`] captures everything that
//! depends only on the problem *shape* (the odd-even level schedule, block
//! dimensions, chain neighbours), and a [`SmoothPlan`] executes the numeric
//! pipeline against it through plan-owned scratch — build once, execute
//! many, bitwise identical to the one-shot entry points below (which are
//! thin wrappers building a transient plan).  See DESIGN.md §"Plan/execute
//! lifecycle".
//!
//! # Example
//!
//! ```
//! use kalman_odd_even::{odd_even_smooth, OddEvenOptions};
//! use kalman_model::generators;
//! use rand::SeedableRng;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! let model = generators::paper_benchmark(&mut rng, 4, 100, false);
//! let smoothed = odd_even_smooth(&model, OddEvenOptions::default()).unwrap();
//! assert_eq!(smoothed.len(), 101);
//! assert!(smoothed.covariances.is_some());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod backend;
mod factor;
mod plan;
mod rfactor;
mod selinv;
mod smoother;

pub use backend::{
    backend_dispatch_counts, record_backend_dispatch, register_backend_dispatch_gauges,
    BackendPolicy,
};
pub use factor::{factor_odd_even, factor_odd_even_into, factor_odd_even_owned, FactorScratch};
pub use plan::{signature_of_dims, PlanCache, PlanSchedule, SmoothPlan};
pub use rfactor::{OddEvenR, RRow, SolveScratch};
pub use selinv::{selinv_diag, selinv_diag_into, selinv_diag_into_with, SelinvScratch};
pub use smoother::{odd_even_smooth, OddEvenOptions};
