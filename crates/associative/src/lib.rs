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
//! * like every smoother here, it accepts only SPD noise covariances
//!   (`LinearModel::validate` rejects singular or indefinite ones), and
//!   nothing is known about its numerical stability, whereas the QR
//!   smoothers are conditionally backward stable.
//!
//! [`associative_smooth`] builds the elements straight from the model
//! ([`FilterElement::for_state`], [`SmoothElement::for_state`]) and runs
//! both sweeps over one fixed Brent–Kung combine tree, so `Seq ≡ Par`
//! **bitwise**.  This crate is the batch paper baseline (`fig2`); the
//! streaming and serving layers run only the odd-even smoother, which is
//! faster on every shape they serve.
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
mod scan;
mod smoother;

pub use elements::{FilterElement, SmoothElement};
pub use smoother::{associative_smooth, AssociativeOptions};
