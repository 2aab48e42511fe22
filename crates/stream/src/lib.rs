//! Streaming fixed-lag smoothing on top of the odd-even machinery.
//!
//! The batch smoothers of this workspace consume a complete
//! [`kalman_model::LinearModel`].  Production serving is different:
//! measurements arrive *incrementally*, per user, and estimates must come
//! back with bounded latency and bounded memory.  This crate provides that
//! online layer (in the spirit of Toledo's UltimateKalman rolling
//! evolve/observe/forget API, reformulated around the paper's orthogonal
//! transformations):
//!
//! * [`StreamingSmoother`] — ingests steps through
//!   [`StreamingSmoother::evolve`] / [`StreamingSmoother::observe`] (with
//!   missing observations, multiple observations per step, streams with no
//!   prior, and [`StreamingSmoother::drop_last`] rollback), buffers them in
//!   a window, re-smooths the window with the odd-even factorization, and
//!   emits **finalized** estimates for steps falling a fixed lag `L` behind
//!   the newest data;
//! * **forgetting** — the finalized prefix is condensed into a single
//!   whitened block row (the R-factor head, [`kalman_model::InfoHead`]) by
//!   orthogonal transformations, so memory stays `O(L·n²)` no matter how
//!   long the stream runs, and [`Checkpoint`]s make streams suspendable and
//!   resumable ([`StreamingSmoother::finish`] /
//!   [`StreamingSmoother::resume`]);
//! * [`SmootherPool`] — multiplexes many independent streams over the
//!   workspace scheduler, batching every ready window per
//!   [`SmootherPool::poll`] — the serving story for many concurrent users.
//!
//! Finalized estimates match the batch smoother run over all data seen so
//! far *exactly* (the condensation is an orthogonal transformation, not an
//! approximation); they differ from a hindsight batch run over the *whole*
//! stream only through data newer than the lag window, whose influence
//! decays geometrically — pick the lag so that decay is below the accuracy
//! you need (see DESIGN.md §"Streaming").
//!
//! # Example
//!
//! ```
//! use kalman_stream::{StreamingSmoother, StreamOptions};
//! use kalman_model::{CovarianceSpec, Evolution, Observation};
//! use kalman_dense::Matrix;
//!
//! let opts = StreamOptions { lag: 8, flush_every: 4, covariances: true, ..StreamOptions::default() };
//! let mut stream = StreamingSmoother::new(1, opts).unwrap();
//! let mut finalized = Vec::new();
//! for i in 0..40 {
//!     if i > 0 {
//!         finalized.extend(stream.evolve(Evolution::random_walk(1)).unwrap());
//!     }
//!     stream.observe(Observation {
//!         g: Matrix::identity(1),
//!         o: vec![i as f64 * 0.1],
//!         noise: CovarianceSpec::Identity(1),
//!     }).unwrap();
//! }
//! let (tail, checkpoint) = stream.finish().unwrap();
//! finalized.extend(tail);
//! assert_eq!(finalized.len(), 40);
//! assert_eq!(checkpoint.index, 39);
//! assert!(finalized[20].covariance.is_some());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod checkpoint;
mod options;
mod pool;
mod smoother;

pub use checkpoint::{Checkpoint, WindowSnapshot};
// Re-exported because it is part of `StreamOptions`' public surface.
pub use kalman_odd_even::BackendPolicy;
pub use options::{FinalizedStep, LagPolicy, StreamOptions};
pub use pool::{PollBatch, PollEntry, SmootherPool, StreamId};
pub use smoother::StreamingSmoother;
