//! TBB-like parallel primitives for the parallel-in-time Kalman smoothers.
//!
//! The paper's C implementation uses Intel Threading Building Blocks: a
//! work-stealing scheduler plus `tbb::parallel_for` (with an explicit *block
//! size* — the number of iterations executed sequentially per task).  This
//! crate reproduces that layer on top of [rayon], whose Cilk-lineage
//! work-stealing scheduler offers the same theoretical guarantees the paper
//! cites, and adds the *compiled sequential twin* the paper benchmarks
//! against: every primitive takes an [`ExecPolicy`], and
//! [`ExecPolicy::Seq`] replaces the parallel template with a plain loop that
//! never touches the scheduler (mirroring the paper's separately compiled
//! sequential builds, §5.1).
//!
//! # Example
//!
//! ```
//! use kalman_par::{ExecPolicy, for_each_mut};
//!
//! let mut v: Vec<u64> = (1..=100).collect();
//! for_each_mut(ExecPolicy::par(), &mut v, |_, x| *x *= 2);
//! assert_eq!(v.iter().sum::<u64>(), 100 * 101); // 2 * (1 + ... + 100)
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod pfor;
mod policy;

pub use pfor::{for_each_index, for_each_mut, map_collect, map_collect_into};
pub use policy::{
    available_parallelism, current_pool_threads, run_with_threads, ExecPolicy, DEFAULT_GRAIN,
};
