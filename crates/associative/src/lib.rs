//! The Särkkä & García-Fernández (2021) parallel-in-time Kalman smoother.
//!
//! The paper's "Associative" comparison algorithm: the forward (filtering)
//! and backward (smoothing) sweeps of a conventional RTS smoother are
//! restructured as *prefix sums* under custom associative operations, then
//! evaluated with a parallel scan, giving a `Θ(log k)` critical path in
//! the number of combine operations.
//!
//! Characteristics relative to the odd-even QR smoother (paper §6):
//!
//! * requires a prior on the initial state and a uniform model
//!   (`H_i = I`, square `F_i`);
//! * states and covariances are computed *together* — there is no cheaper
//!   no-covariance variant;
//! * can handle singular input covariances (like RTS), but nothing is known
//!   about its numerical stability, whereas the QR smoothers are
//!   conditionally backward stable.
//!
//! The smoother runs on a plan/execute engine: [`ScanPlan`] executes a
//! symbolic [`ScanSchedule`] against whitened step data
//! with plan-owned scratch.  Its fixed Brent–Kung combine tree makes
//! `Seq ≡ Par` **bitwise**.  [`associative_smooth`] is a thin one-shot
//! wrapper over a transient plan.  This crate is the batch paper baseline
//! (`fig2`); the streaming and serving layers run only the odd-even
//! smoother, which is faster on every shape they serve.
//!
//! # Example
//!
//! ```
//! use kalman_associative::{associative_smooth, AssociativeOptions};
//! use kalman_model::generators;
//! use rand::SeedableRng;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
//! let model = generators::paper_benchmark(&mut rng, 4, 50, true);
//! let smoothed = associative_smooth(&model, AssociativeOptions::default()).unwrap();
//! assert_eq!(smoothed.len(), 51);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod elements;
mod plan;
mod scan;
mod smoother;

pub use elements::{FilterElement, SmoothElement};
pub use plan::{ScanOptions, ScanPlan};
pub use scan::{ScanLevel, ScanSchedule};
pub use smoother::{associative_smooth, AssociativeOptions};
