//! The streaming fixed-lag smoother.

use crate::{Checkpoint, FinalizedStep, LagPolicy, StreamOptions, WindowSnapshot};
use kalman_dense::Matrix;
use kalman_model::{
    whiten_window, whiten_window_into, Evolution, InfoHead, KalmanError, LinearStep, Observation,
    Prior, Result, Smoothed, StreamEvent, WhitenedEvo, WhitenedStep,
};
use kalman_odd_even::{
    factor_odd_even_owned, record_backend_dispatch, register_backend_dispatch_gauges, selinv_diag,
    OddEvenOptions, PlanCache, SmoothPlan,
};

/// Upper bound on the window plans one stream keeps warm (see
/// [`FlushScratch::plans`]).  Sized for serving regimes whose window
/// length oscillates within a small band (a backpressured pool applies a
/// varying number of steps between flushes); past the bound, the
/// least-recently-used plan is repurposed in place.
const MAX_STREAM_PLANS: usize = 8;

/// Per-stream reusable storage for the flush pipeline: the whitened window,
/// the cached [`SmoothPlan`]s (symbolic schedule + numeric scratch + the
/// odd-even factor), and the solved estimates all live here between
/// flushes.  A plan is built only for a window *shape* the stream does not
/// have warm — up to [`MAX_STREAM_PLANS`] shapes stay cached, most
/// recently used first — so a steady-state flush, including serving
/// regimes where the window length oscillates among a few values,
/// re-executes a ready-made plan and performs **zero heap allocations**:
/// containers keep their capacity and matrices cycle through the
/// `kalman-dense` workspace pool.  Verified by the `alloc_steady_state`
/// integration test (standalone, pooled, and saturated-sharded cases).
///
/// The scratch carries no results between flushes; `Clone` intentionally
/// yields a fresh (cold) scratch, so cloned streams re-warm independently.
#[derive(Debug, Default)]
struct FlushScratch {
    steps: Vec<WhitenedStep>,
    /// Window shape of the pending flush (per-step state dimensions).
    dims: Vec<usize>,
    /// Warm window plans, most recently used first (`plans[0]` is the
    /// plan of the latest flush); empty until the first flush.
    plans: Vec<SmoothPlan>,
    means: Vec<Vec<f64>>,
    covs: Vec<Matrix>,
    /// Previous flush's estimates (`LagPolicy::Auto` only): the revisions
    /// the next re-smooth applies to these measure the information-decay
    /// rate.
    prev_means: Vec<Vec<f64>>,
    /// Global index of `prev_means[0]`.
    prev_base: u64,
}

impl Clone for FlushScratch {
    fn clone(&self) -> Self {
        FlushScratch::default()
    }
}

/// Returns the warm plan for `dims`, moved to the front of the MRU list —
/// building one on miss (through the shared `cache` when pooled, from
/// scratch otherwise) and, at capacity, repurposing the least-recently-used
/// plan *in place* so its containers keep their capacity.  Increments
/// `plan_builds` exactly when a plan had to be (re)built.
fn select_plan<'a>(
    plans: &'a mut Vec<SmoothPlan>,
    dims: &[usize],
    opts: OddEvenOptions,
    plan_builds: &mut u64,
    mut cache: Option<&mut PlanCache>,
) -> &'a mut SmoothPlan {
    if let Some(i) = plans.iter().position(|p| p.dims() == dims) {
        plans[..=i].rotate_right(1);
        return &mut plans[0];
    }
    *plan_builds += 1;
    kalman_obs::event("stream.plan_build", dims.len() as u64, *plan_builds);
    if plans.len() >= MAX_STREAM_PLANS {
        // lint: allow(panic, "infallible: len >= MAX_STREAM_PLANS >= 1, so last_mut() is Some")
        let evictee = plans.last_mut().expect("at capacity, non-empty");
        match cache.as_deref_mut() {
            Some(c) => evictee.set_schedule(c.get_or_build(dims)),
            None => {
                evictee.ensure_shape(dims);
            }
        }
        plans.rotate_right(1);
    } else {
        let plan = match cache {
            Some(c) => SmoothPlan::new(c.get_or_build(dims), opts),
            None => SmoothPlan::for_dims(dims, opts),
        };
        plans.insert(0, plan);
    }
    &mut plans[0]
}

/// An online smoother over one stream of steps.
///
/// The smoother holds a bounded buffer of recent steps plus an
/// [`InfoHead`] condensing everything older.  Ingestion is cheap
/// (validation and buffering only); the odd-even re-smooth runs when the
/// window fills ([`StreamOptions::auto_flush`]) or when
/// [`StreamingSmoother::flush`] is called (e.g. by a
/// [`crate::SmootherPool`]).
///
/// Invariants maintained between calls:
///
/// * the buffer is never empty, `buffer[0]` carries no evolution (its
///   incoming evolution, if any, lives in the head), and every later step
///   carries exactly one;
/// * the head constrains `buffer[0]`'s state and summarizes every forgotten
///   step *plus* the evolution into `buffer[0]`, but not `buffer[0]`'s own
///   observations;
/// * `buffer.len() ≤ current_lag + flush_every` whenever auto-flush is on
///   (and `current_lag ≤` the lag policy's maximum).
#[derive(Debug, Clone)]
pub struct StreamingSmoother {
    opts: StreamOptions,
    head: InfoHead,
    buffer: Vec<LinearStep>,
    /// Global index of `buffer[0]`.
    base_index: u64,
    /// `buffer[0]` was already emitted (it is the anchor state of a resumed
    /// checkpoint) and must not be emitted again.
    base_emitted: bool,
    /// The lag currently in effect ([`LagPolicy::Auto`] adapts it between
    /// flushes; fixed policies never change it).
    cur_lag: usize,
    /// Times the window plan's schedule was (re)built or swapped — stays at
    /// 1 for a shape-stable stream, counting how well plan caching works.
    plan_builds: u64,
    /// Reused flush-pipeline storage (see `FlushScratch`).
    scratch: FlushScratch,
}

fn check_options(opts: &StreamOptions) -> Result<()> {
    // Every constructor funnels through here, making it the one spot to
    // hook up the flush-count gauge (Once-guarded, so cheap).
    register_backend_dispatch_gauges();
    if opts.flush_every == 0 {
        return Err(KalmanError::Stream("flush_every must be at least 1".into()));
    }
    match opts.effective_lag_policy() {
        LagPolicy::Fixed(0) => Err(KalmanError::Stream("lag must be at least 1".into())),
        LagPolicy::Auto { min, max, tol }
            if min == 0 || max < min || !(tol.is_finite() && tol > 0.0) =>
        {
            Err(KalmanError::Stream(
                "auto lag policy needs 1 <= min <= max and a positive finite tol".into(),
            ))
        }
        _ => Ok(()),
    }
}

impl StreamingSmoother {
    /// A fresh stream with no prior on its initial state (dimension `n`).
    /// Estimates become available once observations determine the chain.
    ///
    /// # Errors
    ///
    /// [`KalmanError::Stream`] on degenerate options or `n == 0`.
    pub fn new(n: usize, opts: StreamOptions) -> Result<Self> {
        check_options(&opts)?;
        if n == 0 {
            return Err(KalmanError::Stream(
                "state dimension must be positive".into(),
            ));
        }
        Ok(StreamingSmoother {
            cur_lag: opts.effective_lag_policy().initial_lag(),
            opts,
            head: InfoHead::empty(n),
            buffer: vec![LinearStep::initial(n)],
            base_index: 0,
            base_emitted: false,
            plan_builds: 0,
            scratch: FlushScratch::default(),
        })
    }

    /// A fresh stream whose initial state has a Gaussian prior.
    ///
    /// # Errors
    ///
    /// [`KalmanError::Stream`] on degenerate options, and covariance
    /// failures whitening the prior.
    pub fn with_prior(
        mean: Vec<f64>,
        cov: kalman_model::CovarianceSpec,
        opts: StreamOptions,
    ) -> Result<Self> {
        check_options(&opts)?;
        if mean.is_empty() {
            return Err(KalmanError::Stream(
                "state dimension must be positive".into(),
            ));
        }
        if cov.dim() != mean.len() {
            return Err(KalmanError::InvalidModel(
                "prior covariance dimension does not match prior mean".into(),
            ));
        }
        let n = mean.len();
        let head = InfoHead::from_prior(&Prior { mean, cov })?;
        Ok(StreamingSmoother {
            cur_lag: opts.effective_lag_policy().initial_lag(),
            opts,
            head,
            buffer: vec![LinearStep::initial(n)],
            base_index: 0,
            base_emitted: false,
            plan_builds: 0,
            scratch: FlushScratch::default(),
        })
    }

    /// Continues a stream from a [`Checkpoint`] produced by
    /// [`StreamingSmoother::finish`].  The checkpointed state itself is not
    /// re-emitted; the first [`StreamingSmoother::evolve`] appends state
    /// `checkpoint.index + 1`.
    ///
    /// # Errors
    ///
    /// [`KalmanError::Stream`] on degenerate options.
    pub fn resume(checkpoint: Checkpoint, opts: StreamOptions) -> Result<Self> {
        check_options(&opts)?;
        let n = checkpoint.state_dim();
        Ok(StreamingSmoother {
            cur_lag: opts.effective_lag_policy().initial_lag(),
            opts,
            head: checkpoint.head,
            buffer: vec![LinearStep::initial(n)],
            base_index: checkpoint.index,
            base_emitted: true,
            plan_builds: 0,
            scratch: FlushScratch::default(),
        })
    }

    /// Captures the stream's complete live state *without* disturbing it:
    /// the condensed head plus the buffered window as replayable events.
    ///
    /// Unlike [`StreamingSmoother::finish`] — which finalizes the window
    /// early, so a resumed stream condensed those steps with less
    /// hindsight than an uninterrupted one — a snapshot is transparent:
    /// [`StreamingSmoother::restore`] yields a smoother whose every
    /// future output is **bitwise identical** to this one's.  This is the
    /// crash-recovery primitive for cross-process serving.
    ///
    /// # Errors
    ///
    /// [`KalmanError::Stream`] under [`LagPolicy::Auto`]: the adapted lag
    /// is driven by scratch state (the previous flush's estimates) that a
    /// snapshot cannot capture, so a restored auto-lag stream could adapt
    /// differently and break the bitwise contract.  Use a fixed lag for
    /// snapshot-based recovery.
    pub fn snapshot(&self) -> Result<WindowSnapshot> {
        if matches!(self.opts.effective_lag_policy(), LagPolicy::Auto { .. }) {
            return Err(KalmanError::Stream(
                "auto-lag streams cannot be snapshotted: the adapted lag depends on \
                 unsnapshottable scratch state; use a fixed lag"
                    .into(),
            ));
        }
        let mut events = Vec::with_capacity(2 * self.buffer.len());
        if let Some(obs) = &self.buffer[0].observation {
            events.push(StreamEvent::Observe(obs.clone()));
        }
        for (j, step) in self.buffer.iter().enumerate().skip(1) {
            let evo = step.evolution.clone().ok_or_else(|| {
                // lint: allow(alloc, "error path: a non-base step without an evolution violates a maintained invariant")
                KalmanError::Stream(format!(
                    "buffered step {} is missing its evolution",
                    self.base_index + j as u64
                ))
            })?;
            events.push(StreamEvent::Evolve(evo));
            if let Some(obs) = &step.observation {
                events.push(StreamEvent::Observe(obs.clone()));
            }
        }
        Ok(WindowSnapshot {
            index: self.base_index,
            head: self.head.clone(),
            base_emitted: self.base_emitted,
            events,
        })
    }

    /// Rebuilds a stream from a [`WindowSnapshot`], reproducing the
    /// snapshotted stream exactly: every output the restored stream emits
    /// from here on is bitwise identical to what the original would have
    /// emitted.  `opts` must use a fixed lag (see
    /// [`StreamingSmoother::snapshot`]) and should equal the original's
    /// options — differing options change future outputs, though the
    /// restore itself still succeeds when the window fits.
    ///
    /// # Errors
    ///
    /// [`KalmanError::Stream`] on degenerate options, an auto lag policy,
    /// or a zero-dimensional head; [`KalmanError::InvalidModel`] when the
    /// replayed events are inconsistent (possible only for snapshots not
    /// produced by [`StreamingSmoother::snapshot`]).
    pub fn restore(snapshot: WindowSnapshot, opts: StreamOptions) -> Result<Self> {
        check_options(&opts)?;
        if matches!(opts.effective_lag_policy(), LagPolicy::Auto { .. }) {
            return Err(KalmanError::Stream(
                "auto-lag streams cannot be restored from a snapshot; use a fixed lag".into(),
            ));
        }
        let n = snapshot.head.state_dim();
        if n == 0 {
            return Err(KalmanError::Stream(
                "snapshot head has zero state dimension".into(),
            ));
        }
        let auto_flush = opts.auto_flush;
        let mut stream = StreamingSmoother {
            cur_lag: opts.effective_lag_policy().initial_lag(),
            opts: StreamOptions {
                auto_flush: false,
                ..opts
            },
            head: snapshot.head,
            buffer: vec![LinearStep::initial(n)],
            base_index: snapshot.index,
            base_emitted: snapshot.base_emitted,
            plan_builds: 0,
            scratch: FlushScratch::default(),
        };
        // Replay with auto-flush off: the window must be rebuilt as-is,
        // not re-finalized (the original already emitted its prefix).
        for event in snapshot.events {
            stream.ingest(event)?;
        }
        stream.opts.auto_flush = auto_flush;
        Ok(stream)
    }

    /// The stream's options.
    pub fn options(&self) -> &StreamOptions {
        &self.opts
    }

    /// Turns automatic flushing on evolve on or off (pools turn it off).
    pub fn set_auto_flush(&mut self, auto_flush: bool) {
        self.opts.auto_flush = auto_flush;
    }

    /// Number of steps currently buffered (bounded by
    /// [`StreamOptions::window_capacity`] under auto-flush).
    pub fn buffered_len(&self) -> usize {
        self.buffer.len()
    }

    /// Index the next [`StreamingSmoother::evolve`] will assign.
    pub fn next_index(&self) -> u64 {
        self.base_index + self.buffer.len() as u64
    }

    /// Dimension of the newest state.
    pub fn state_dim(&self) -> usize {
        // lint: allow(panic, "infallible: the constructor seeds one step and flush never drains below one")
        self.buffer.last().expect("buffer is never empty").state_dim
    }

    /// `true` when a [`StreamingSmoother::flush`] would finalize a full
    /// batch of `flush_every` steps.
    pub fn ready(&self) -> bool {
        self.buffer.len() >= self.cur_lag + self.opts.flush_every
    }

    /// The finalization lag currently in effect: the configured lag for
    /// fixed policies, the adapted one under [`LagPolicy::Auto`].
    pub fn current_lag(&self) -> usize {
        self.cur_lag
    }

    /// How many times a window plan's schedule has been (re)built or
    /// swapped.  A shape-stable stream reports `1` after its first flush no
    /// matter how many flushes ran — the cached-plan serving pattern — and
    /// a stream whose window length merely *oscillates* among a few values
    /// (a backpressured serving pool) stops counting once every recurring
    /// shape has a warm plan; a growing count means genuinely novel window
    /// shapes keep appearing (plan-cache invalidation).
    pub fn plan_builds(&self) -> u64 {
        self.plan_builds
    }

    /// Shape signature of the current (most recently used) window plan
    /// (`None` before the first flush); pooled streams with equal
    /// signatures share one symbolic schedule.
    pub fn plan_signature(&self) -> Option<u64> {
        self.scratch.plans.first().map(|p| p.signature())
    }

    /// Appends a new state evolving from the newest one.  Returns the steps
    /// finalized by an automatic flush (empty unless the window was full
    /// and [`StreamOptions::auto_flush`] is set).
    ///
    /// # Errors
    ///
    /// [`KalmanError::InvalidModel`] on dimension mismatches against the
    /// newest state or a non-finite entry in `F`, `H` or `c` (a rejected
    /// evolution leaves the stream unchanged), plus any flush error (see
    /// [`StreamingSmoother::flush`]).
    pub fn evolve(&mut self, evolution: Evolution) -> Result<Vec<FinalizedStep>> {
        let prev_dim = self.state_dim();
        let index = self.next_index();
        check_evolution(&evolution, prev_dim, index)?;
        let finalized = if self.opts.auto_flush && self.ready() {
            self.flush()?
        } else {
            Vec::new()
        };
        self.buffer.push(LinearStep::evolving(evolution));
        Ok(finalized)
    }

    /// Attaches an observation to the newest state.  Several observations
    /// of the same state stack (their noises combine block-diagonally).
    ///
    /// # Errors
    ///
    /// [`KalmanError::InvalidModel`] on dimension mismatches or a
    /// non-finite entry in `G` or `o`; a rejected observation leaves the
    /// stream unchanged.
    pub fn observe(&mut self, observation: Observation) -> Result<()> {
        let index = self.base_index + (self.buffer.len() - 1) as u64;
        // lint: allow(panic, "infallible: the constructor seeds one step and flush never drains below one")
        let step = self.buffer.last_mut().expect("buffer is never empty");
        if observation.g.cols() != step.state_dim {
            return Err(KalmanError::InvalidModel(format!(
                "step {index}: G has {} columns but state dimension is {}",
                observation.g.cols(),
                step.state_dim
            )));
        }
        if observation.o.len() != observation.dim() {
            return Err(KalmanError::InvalidModel(format!(
                "step {index}: o has length {} but G has {} rows",
                observation.o.len(),
                observation.dim()
            )));
        }
        if observation.noise.dim() != observation.dim() {
            return Err(KalmanError::InvalidModel(format!(
                "step {index}: L has dimension {} but G has {} rows",
                observation.noise.dim(),
                observation.dim()
            )));
        }
        check_finite(observation.g.as_slice(), index, "G")?;
        check_finite(&observation.o, index, "o")?;
        observation.noise.validate(index as usize)?;
        step.observation = Some(match step.observation.take() {
            None => observation,
            Some(existing) => Observation::stacked(&existing, &observation),
        });
        Ok(())
    }

    /// Feeds one [`StreamEvent`] (the replay bridge from batch models).
    ///
    /// # Errors
    ///
    /// As [`StreamingSmoother::evolve`] / [`StreamingSmoother::observe`].
    pub fn ingest(&mut self, event: StreamEvent) -> Result<Vec<FinalizedStep>> {
        match event {
            StreamEvent::Evolve(evo) => self.evolve(evo),
            StreamEvent::Observe(obs) => {
                self.observe(obs)?;
                Ok(Vec::new())
            }
        }
    }

    /// Rolls back the newest state (and its observations) — for ingestion
    /// pipelines that discover late that a step was malformed.  Returns the
    /// dropped step.
    ///
    /// # Errors
    ///
    /// [`KalmanError::Stream`] when only the window's base step remains
    /// (finalized history cannot be rolled back).
    pub fn drop_last(&mut self) -> Result<LinearStep> {
        if self.buffer.len() <= 1 {
            return Err(KalmanError::Stream(
                "cannot drop the window's base step: older data is already condensed".into(),
            ));
        }
        // lint: allow(panic, "infallible: the len > 1 guard above means pop() is Some")
        Ok(self.buffer.pop().expect("length checked"))
    }

    /// Smooths the current window *without* finalizing anything: estimates
    /// for every buffered step, newest included (a real-time read of the
    /// stream's present).  Index `i` of the result is global step
    /// `next_index() - buffered_len() + i`.
    ///
    /// # Errors
    ///
    /// [`KalmanError::RankDeficient`] while the data seen so far does not
    /// determine the window (e.g. a no-prior stream before its first
    /// observations), plus covariance failures.
    pub fn smoothed(&self) -> Result<Smoothed> {
        self.smooth_window()
    }

    /// Re-smooths the window and finalizes every step more than `lag`
    /// behind the newest, condensing them into the head.  No-op (empty
    /// result) when nothing is finalizable.
    ///
    /// # Errors
    ///
    /// [`KalmanError::RankDeficient`] when the data seen so far does not
    /// determine the window — enlarge the lag, provide a prior, or observe
    /// more states.  The stream is left unchanged on error.
    pub fn flush(&mut self) -> Result<Vec<FinalizedStep>> {
        let mut out = Vec::new();
        self.flush_into(&mut out)?;
        Ok(out)
    }

    /// [`StreamingSmoother::flush`] into a reused output buffer: `out` is
    /// overwritten in place (existing [`FinalizedStep`] slots keep their
    /// mean/covariance storage) and truncated to the number of finalized
    /// steps, which is returned.
    ///
    /// In steady state — auto-flush cadence or a fixed manual cadence, so
    /// every flush finalizes the same number of steps from a same-shaped
    /// window — a flush performs **zero heap allocations** after the first
    /// few warmup flushes: every container involved retains capacity (here
    /// and in `FlushScratch`) and all matrix temporaries cycle through
    /// the `kalman-dense` workspace pool.
    ///
    /// # Errors
    ///
    /// As [`StreamingSmoother::flush`]; on error the stream is unchanged
    /// and `out`'s contents are unspecified.
    pub fn flush_into(&mut self, out: &mut Vec<FinalizedStep>) -> Result<usize> {
        let count = self.buffer.len().saturating_sub(self.cur_lag);
        if count == 0 {
            out.truncate(0);
            return Ok(0);
        }
        let _span = kalman_obs::span!("stream.flush");
        self.smooth_window_scratch()?;
        self.adapt_lag();
        let emitted = self.emit_into(count, out);
        self.forget(count)?;
        Ok(emitted)
    }

    /// Ends the stream: smooths the window once more, finalizes **all**
    /// buffered steps (the lag does not apply to a closing stream), and
    /// condenses the stream into a resumable [`Checkpoint`].
    ///
    /// # Errors
    ///
    /// As [`StreamingSmoother::flush`].
    pub fn finish(mut self) -> Result<(Vec<FinalizedStep>, Checkpoint)> {
        self.smooth_window_scratch()?;
        let mut finalized = Vec::new();
        self.emit_into(self.buffer.len(), &mut finalized);
        // Condense every remaining step, then the final state's own
        // observations, leaving the head on the final state.
        let last = self.buffer.len() - 1;
        self.forget(last)?;
        let final_index = self.base_index;
        if let Some(obs) = &self.buffer[0].observation {
            self.head.absorb_observation(obs, final_index as usize)?;
        }
        Ok((
            finalized,
            Checkpoint {
                index: final_index,
                head: self.head,
            },
        ))
    }

    /// Writes estimates for the first `count` buffered steps into `out`
    /// (reusing its slots; truncated to the emitted count), skipping a
    /// resumed base step that was already emitted.  Reads the estimates
    /// from the scratch filled by `smooth_window_scratch`.
    fn emit_into(&self, count: usize, out: &mut Vec<FinalizedStep>) -> usize {
        let mut emitted = 0;
        for j in 0..count {
            if j == 0 && self.base_emitted {
                continue;
            }
            let index = self.base_index + j as u64;
            let mean = &self.scratch.means[j];
            let cov = if self.opts.covariances {
                Some(&self.scratch.covs[j])
            } else {
                None
            };
            if let Some(slot) = out.get_mut(emitted) {
                slot.index = index;
                slot.mean.clear();
                slot.mean.extend_from_slice(mean);
                match (&mut slot.covariance, cov) {
                    (Some(dst), Some(src)) => dst.clone_from(src),
                    (dst, Some(src)) => *dst = Some(src.clone()), // lint: allow(alloc, "first covariance for a reused slot; later emits clone_from into it in place")
                    (dst, None) => *dst = None,
                }
            } else {
                // lint: allow(alloc, "grows the reused output to the emit high-water mark once; later emits hit the slot-reuse branch above")
                out.push(FinalizedStep {
                    index,
                    mean: mean.clone(), // lint: allow(alloc, "first fill of a new output slot; reused thereafter")
                    covariance: cov.cloned(),
                });
            }
            emitted += 1;
        }
        out.truncate(emitted);
        emitted
    }

    /// Condenses the first `count` buffered steps into the head: absorb
    /// each step's observations, then marginalize it out through the
    /// whitened evolution into its successor.
    fn forget(&mut self, count: usize) -> Result<()> {
        debug_assert!(count < self.buffer.len(), "must keep the boundary step");
        for j in 0..count {
            let index = (self.base_index + j as u64) as usize;
            if let Some(obs) = &self.buffer[j].observation {
                self.head.absorb_observation(obs, index)?;
            }
            let evo = whiten_evolution(&self.buffer[j + 1], index + 1)?;
            self.head = self.head.advance(&evo);
        }
        if count > 0 {
            self.buffer.drain(0..count);
            self.buffer[0].evolution = None;
            self.base_index += count as u64;
            self.base_emitted = false;
        }
        Ok(())
    }

    /// Allocating window smooth for `&self` callers
    /// ([`StreamingSmoother::smoothed`]); the flush path uses
    /// `smooth_window_scratch` instead.
    fn smooth_window(&self) -> Result<Smoothed> {
        let steps = whiten_window(&self.head, &self.buffer)?;
        let r = factor_odd_even_owned(steps, self.opts.policy, true)?;
        let means = r.solve(self.opts.policy)?;
        let covariances = if self.opts.covariances {
            Some(selinv_diag(&r, self.opts.policy)?)
        } else {
            None
        };
        Ok(Smoothed { means, covariances })
    }

    /// The [`OddEvenOptions`] this stream's window plans execute under.
    fn plan_options(&self) -> OddEvenOptions {
        OddEvenOptions {
            covariances: self.opts.covariances,
            policy: self.opts.policy,
            compress_odd: true,
        }
    }

    /// Re-smooths the window through the cached plan: whiten → (re-plan if
    /// the window shape changed) → execute → solve → (optionally) SelInv,
    /// leaving the estimates in `self.scratch.means` / `self.scratch.covs`.
    fn smooth_window_scratch(&mut self) -> Result<()> {
        let plan_opts = self.plan_options();
        let Self {
            opts,
            head,
            buffer,
            scratch,
            plan_builds,
            ..
        } = self;
        whiten_window_into(head, buffer, &mut scratch.steps)?;
        scratch.dims.clear();
        scratch
            .dims
            .extend(scratch.steps.iter().map(|s| s.state_dim)); // lint: allow(alloc, "extend into cleared scratch that retains capacity across flushes; amortized, steady-state alloc-free")
        let plan = select_plan(
            &mut scratch.plans,
            &scratch.dims,
            plan_opts,
            plan_builds,
            None,
        );
        plan.execute(&mut scratch.steps)?;
        plan.solve_into(&mut scratch.means)?;
        if opts.covariances {
            plan.selinv_into(&mut scratch.covs)?;
        }
        record_backend_dispatch();
        Ok(())
    }

    /// Installs a pool-shared symbolic schedule for the *current* window
    /// shape before a batched flush, so every same-shaped stream in a
    /// [`crate::SmootherPool`] executes one schedule instead of planning
    /// its own.  No-op (beyond an MRU bump) when a warm plan already
    /// covers the shape.
    pub(crate) fn prepare_pooled_plan(&mut self, cache: &mut PlanCache) {
        let plan_opts = self.plan_options();
        let Self {
            buffer,
            scratch,
            plan_builds,
            ..
        } = self;
        scratch.dims.clear();
        scratch.dims.extend(buffer.iter().map(|s| s.state_dim)); // lint: allow(alloc, "extend into cleared scratch that retains capacity across flushes; amortized, steady-state alloc-free")
        select_plan(
            &mut scratch.plans,
            &scratch.dims,
            plan_opts,
            plan_builds,
            Some(cache),
        );
    }

    /// Measures the information-decay rate and re-sizes the lag
    /// ([`LagPolicy::Auto`] only).  Runs right after a window re-smooth:
    /// the revisions this smooth applied to states it shares with the
    /// previous smooth decay geometrically with depth, and fitting that
    /// decay tells us how far back data newer than the lag can still move
    /// an estimate by more than the tolerance.
    fn adapt_lag(&mut self) {
        let LagPolicy::Auto { min, max, tol } = self.opts.effective_lag_policy() else {
            return;
        };
        let scratch = &mut self.scratch;
        let cur_base = self.base_index;
        let cur_len = scratch.means.len();
        let prev_len = scratch.prev_means.len();
        'fit: {
            if prev_len == 0 {
                break 'fit; // first smooth: nothing to compare against yet
            }
            let start = cur_base.max(scratch.prev_base);
            let end = (cur_base + cur_len as u64).min(scratch.prev_base + prev_len as u64);
            if end <= start + 1 {
                break 'fit;
            }
            // Max-abs revision of the state at global index g.
            let rev = |g: u64| -> f64 {
                let a = &scratch.means[(g - cur_base) as usize];
                let b = &scratch.prev_means[(g - scratch.prev_base) as usize];
                a.iter()
                    .zip(b)
                    .map(|(x, y)| (x - y).abs())
                    .fold(0.0, f64::max)
            };
            let newest = cur_base + cur_len as u64 - 1;
            // Shallowest and deepest shared states; depths are distances
            // from the current window's newest state (the reference the
            // finalization lag is measured against).
            let d_shallow = (newest - (end - 1)) as usize;
            let shallow = rev(end - 1);
            let deep = rev(start);
            let gap = (end - 1 - start) as usize;
            let target = if shallow <= tol {
                // Even the freshest shared state no longer moves.  The
                // measurement proves a lag of `d_shallow` suffices —
                // shallower depths are unmeasured, so do not shrink past
                // what the evidence covers.
                d_shallow.clamp(min, max)
            } else if deep >= shallow {
                // No measurable decay across the window — stay maximal.
                max
            } else if deep <= 0.0 {
                // Revisions vanish somewhere inside the window: the depth
                // of the oldest shared state is certainly lag enough.
                ((newest - start) as usize).clamp(min, max)
            } else {
                // rev(d) ≈ shallow · ρ^(d − d_shallow) with
                // ρ = (deep/shallow)^(1/gap); solve rev(L) = tol for L.
                let ln_rho = (deep / shallow).ln() / gap as f64;
                let need = d_shallow as f64 + (tol / shallow).ln() / ln_rho;
                need.ceil().clamp(min as f64, max as f64) as usize
            };
            // Rate-limit to one halving/doubling per flush so a noisy fit
            // cannot whipsaw the window size.
            let floor = (self.cur_lag / 2).max(min);
            let ceil = (self.cur_lag * 2).min(max);
            self.cur_lag = target.clamp(floor, ceil);
        }
        // Record this smooth as the next comparison baseline.
        scratch.prev_base = cur_base;
        scratch.prev_means.truncate(cur_len);
        while scratch.prev_means.len() < cur_len {
            scratch.prev_means.push(Vec::new()); // lint: allow(alloc, "grows the reused lag buffer to window length once; repeat windows reuse the slots")
        }
        for (dst, src) in scratch.prev_means.iter_mut().zip(&scratch.means) {
            dst.clear();
            dst.extend_from_slice(src);
        }
    }
}

/// Whitens the evolution of a buffered step (which is guaranteed present
/// for every non-base step).
fn whiten_evolution(step: &LinearStep, index: usize) -> Result<WhitenedEvo> {
    let whitened = WhitenedStep::from_step(step, index)?;
    whitened.evo.ok_or_else(|| {
        // lint: allow(alloc, "error path: allocates only on a malformed step")
        KalmanError::InvalidModel(format!("step {index} is missing its evolution equation"))
    })
}

/// Rejects an ingested field holding a NaN or infinity, naming the step and
/// the field: one such value would otherwise poison every estimate of the
/// window and, through the condensed head, the rest of the stream.
fn check_finite(values: &[f64], index: u64, field: &str) -> Result<()> {
    if values.iter().all(|v| v.is_finite()) {
        Ok(())
    } else {
        // lint: allow(alloc, "error path: allocates only when rejecting a non-finite event")
        Err(KalmanError::InvalidModel(format!(
            "step {index}: {field} has a non-finite entry"
        )))
    }
}

/// Structural and finiteness validation of an incoming evolution against
/// the newest state.
fn check_evolution(evo: &Evolution, prev_dim: usize, index: u64) -> Result<()> {
    if evo.f.cols() != prev_dim {
        return Err(KalmanError::InvalidModel(format!(
            "step {index}: F has {} columns but previous state dimension is {prev_dim}",
            evo.f.cols()
        )));
    }
    let l = evo.row_dim();
    if let Some(h) = &evo.h {
        if h.rows() != l {
            return Err(KalmanError::InvalidModel(format!(
                "step {index}: H has {} rows but F has {l}",
                h.rows()
            )));
        }
        if h.cols() == 0 {
            return Err(KalmanError::InvalidModel(format!(
                "step {index} has zero state dimension"
            )));
        }
    }
    if evo.c.len() != l {
        return Err(KalmanError::InvalidModel(format!(
            "step {index}: c has length {} but F has {l} rows",
            evo.c.len()
        )));
    }
    if evo.noise.dim() != l {
        return Err(KalmanError::InvalidModel(format!(
            "step {index}: K has dimension {} but F has {l} rows",
            evo.noise.dim()
        )));
    }
    check_finite(evo.f.as_slice(), index, "F")?;
    if let Some(h) = &evo.h {
        check_finite(h.as_slice(), index, "H")?;
    }
    check_finite(&evo.c, index, "c")?;
    evo.noise.validate(index as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kalman_dense::Matrix;
    use kalman_model::{events_of, generators, CovarianceSpec};
    use kalman_odd_even::{odd_even_smooth, OddEvenOptions};
    use kalman_par::ExecPolicy;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn identity_obs(n: usize, o: Vec<f64>) -> Observation {
        Observation {
            g: Matrix::identity(n),
            o,
            noise: CovarianceSpec::Identity(n),
        }
    }

    /// Feeds a batch model through streaming ingestion and returns every
    /// finalized step (flushes + finish).
    fn stream_model(
        model: &kalman_model::LinearModel,
        opts: StreamOptions,
    ) -> (Vec<FinalizedStep>, Checkpoint) {
        let n0 = model.steps[0].state_dim;
        let mut stream = match &model.prior {
            Some(p) => StreamingSmoother::with_prior(p.mean.clone(), p.cov.clone(), opts).unwrap(),
            None => StreamingSmoother::new(n0, opts).unwrap(),
        };
        let mut finalized = Vec::new();
        let mut max_buffered = 0;
        for event in events_of(model) {
            finalized.extend(stream.ingest(event).unwrap());
            max_buffered = max_buffered.max(stream.buffered_len());
        }
        assert!(
            max_buffered <= opts.window_capacity() + 1,
            "window overflowed: {max_buffered}"
        );
        let (tail, ckpt) = stream.finish().unwrap();
        finalized.extend(tail);
        (finalized, ckpt)
    }

    #[test]
    fn finalizes_every_step_exactly_once() {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let model = generators::paper_benchmark(&mut rng, 2, 120, true);
        let opts = StreamOptions {
            lag: 10,
            flush_every: 7,
            covariances: false,
            ..StreamOptions::default()
        };
        let (finalized, ckpt) = stream_model(&model, opts);
        assert_eq!(finalized.len(), 121);
        for (i, f) in finalized.iter().enumerate() {
            assert_eq!(f.index, i as u64);
        }
        assert_eq!(ckpt.index, 120);
    }

    #[test]
    fn matches_batch_exactly_when_lag_covers_stream() {
        // With the lag beyond the stream length, everything finalizes at
        // finish() and must match the batch solution to rounding.
        let mut rng = ChaCha8Rng::seed_from_u64(22);
        let model = generators::paper_benchmark(&mut rng, 3, 40, false);
        let opts = StreamOptions {
            lag: 64,
            flush_every: 8,
            covariances: true,
            ..StreamOptions::default()
        };
        let (finalized, _) = stream_model(&model, opts);
        let batch = odd_even_smooth(&model, OddEvenOptions::default()).unwrap();
        for f in &finalized {
            let i = f.index as usize;
            let diff = f
                .mean
                .iter()
                .zip(batch.mean(i))
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max);
            assert!(diff < 1e-9, "state {i}: diff {diff}");
            let cdiff = f
                .covariance
                .as_ref()
                .unwrap()
                .max_abs_diff(batch.covariance(i).unwrap());
            assert!(cdiff < 1e-9, "state {i}: cov diff {cdiff}");
        }
    }

    #[test]
    fn memory_stays_bounded_over_long_streams() {
        let opts = StreamOptions {
            lag: 4,
            flush_every: 4,
            covariances: false,
            ..StreamOptions::default()
        };
        let mut stream =
            StreamingSmoother::with_prior(vec![0.0], CovarianceSpec::Identity(1), opts).unwrap();
        let mut total = 0;
        for i in 0..500 {
            if i > 0 {
                total += stream.evolve(Evolution::random_walk(1)).unwrap().len();
            }
            stream.observe(identity_obs(1, vec![i as f64])).unwrap();
            assert!(stream.buffered_len() <= opts.window_capacity());
        }
        let (tail, _) = stream.finish().unwrap();
        total += tail.len();
        assert_eq!(total, 500);
    }

    #[test]
    fn missing_observations_and_multi_observe_stack() {
        let opts = StreamOptions {
            lag: 6,
            flush_every: 2,
            covariances: false,
            ..StreamOptions::default()
        };
        let mut stream =
            StreamingSmoother::with_prior(vec![0.0, 0.0], CovarianceSpec::Identity(2), opts)
                .unwrap();
        let mut finalized = Vec::new();
        for i in 0..30u64 {
            if i > 0 {
                finalized.extend(stream.evolve(Evolution::random_walk(2)).unwrap());
            }
            if i % 3 == 0 {
                // Two sensors for the same step.
                stream
                    .observe(identity_obs(2, vec![i as f64, 0.0]))
                    .unwrap();
                stream
                    .observe(Observation {
                        g: Matrix::from_rows(&[&[1.0, 1.0]]),
                        o: vec![i as f64],
                        noise: CovarianceSpec::ScaledIdentity(1, 2.0),
                    })
                    .unwrap();
            }
        }
        let (tail, _) = stream.finish().unwrap();
        finalized.extend(tail);
        assert_eq!(finalized.len(), 30);
    }

    #[test]
    fn drop_last_rolls_back_ingestion() {
        let opts = StreamOptions::with_lag(4);
        let mut stream =
            StreamingSmoother::with_prior(vec![0.0], CovarianceSpec::Identity(1), opts).unwrap();
        stream.observe(identity_obs(1, vec![0.0])).unwrap();
        // A bogus step arrives…
        stream.evolve(Evolution::random_walk(1)).unwrap();
        stream.observe(identity_obs(1, vec![999.0])).unwrap();
        // …and is rolled back and replaced.
        let dropped = stream.drop_last().unwrap();
        assert_eq!(dropped.observation.unwrap().o, vec![999.0]);
        stream.evolve(Evolution::random_walk(1)).unwrap();
        stream.observe(identity_obs(1, vec![1.0])).unwrap();
        assert_eq!(stream.next_index(), 2);
        let (finalized, _) = stream.finish().unwrap();
        assert_eq!(finalized.len(), 2);
        assert!((finalized[1].mean[0] - 1.0).abs() < 1.0);
        // The base step itself cannot be dropped.
        let mut fresh = StreamingSmoother::new(1, StreamOptions::default()).unwrap();
        assert!(matches!(fresh.drop_last(), Err(KalmanError::Stream(_))));
    }

    #[test]
    fn checkpoint_resume_continues_exactly() {
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        let model = generators::paper_benchmark(&mut rng, 2, 60, true);
        let opts = StreamOptions {
            lag: 16,
            flush_every: 4,
            covariances: false,
            ..StreamOptions::default()
        };

        // Uninterrupted reference.
        let (reference, _) = stream_model(&model, opts);

        // Interrupted at step 30: finish, then resume and replay the rest.
        let p = model.prior.as_ref().unwrap();
        let mut first = StreamingSmoother::with_prior(p.mean.clone(), p.cov.clone(), opts).unwrap();
        for (i, step) in model.steps.iter().enumerate().take(31) {
            if i > 0 {
                first.evolve(step.evolution.clone().unwrap()).unwrap();
            }
            if let Some(obs) = &step.observation {
                first.observe(obs.clone()).unwrap();
            }
        }
        let (_, ckpt) = first.finish().unwrap();
        assert_eq!(ckpt.index, 30);

        let mut second = StreamingSmoother::resume(ckpt, opts).unwrap();
        let mut resumed = Vec::new();
        for step in model.steps.iter().skip(31) {
            resumed.extend(second.evolve(step.evolution.clone().unwrap()).unwrap());
            if let Some(obs) = &step.observation {
                second.observe(obs.clone()).unwrap();
            }
        }
        let (tail, _) = second.finish().unwrap();
        resumed.extend(tail);

        // States 31.. must match the uninterrupted stream.  The resumed
        // stream condensed steps ≤ 30 with shorter hindsight (data up to 30
        // only), so allow the geometric tail, not exact equality.
        assert_eq!(resumed.first().unwrap().index, 31);
        for f in &resumed {
            let r = &reference[f.index as usize];
            assert_eq!(r.index, f.index);
            let diff = f
                .mean
                .iter()
                .zip(&r.mean)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max);
            // The two streams flush on different phases, so hindsight
            // differs by up to flush_every steps; that influence decays
            // geometrically through the ≥ lag-step gap (≈ 0.38^16 here).
            assert!(diff < 1e-5, "state {}: diff {diff}", f.index);
        }
    }

    /// A snapshot taken mid-stream must be transparent: the restored
    /// stream's future outputs are bitwise identical to the original's —
    /// the property crash recovery is built on.  Exercised at several cut
    /// points so the snapshot lands on different flush phases (window
    /// lengths, pending observations, multi-observation steps).
    #[test]
    fn snapshot_restore_is_bitwise_transparent() {
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        let model = generators::paper_benchmark(&mut rng, 2, 80, true);
        let opts = StreamOptions {
            lag: 9,
            flush_every: 4,
            covariances: true,
            ..StreamOptions::default()
        };
        for cut in [1usize, 13, 27, 40] {
            let p = model.prior.as_ref().unwrap();
            let mut original =
                StreamingSmoother::with_prior(p.mean.clone(), p.cov.clone(), opts).unwrap();
            let mut before = Vec::new();
            for (i, step) in model.steps.iter().enumerate().take(cut + 1) {
                if i > 0 {
                    before.extend(original.evolve(step.evolution.clone().unwrap()).unwrap());
                }
                if let Some(obs) = &step.observation {
                    original.observe(obs.clone()).unwrap();
                }
            }

            let snap = original.snapshot().unwrap();
            let mut restored = StreamingSmoother::restore(snap, opts).unwrap();
            assert_eq!(restored.next_index(), original.next_index());
            assert_eq!(restored.buffered_len(), original.buffered_len());

            // Drive both over the remaining steps and demand bitwise
            // equality of every finalized estimate.
            let mut a = Vec::new();
            let mut b = Vec::new();
            for step in model.steps.iter().skip(cut + 1) {
                a.extend(original.evolve(step.evolution.clone().unwrap()).unwrap());
                b.extend(restored.evolve(step.evolution.clone().unwrap()).unwrap());
                if let Some(obs) = &step.observation {
                    original.observe(obs.clone()).unwrap();
                    restored.observe(obs.clone()).unwrap();
                }
            }
            let (ta, _) = original.finish().unwrap();
            let (tb, _) = restored.finish().unwrap();
            a.extend(ta);
            b.extend(tb);
            assert_eq!(a.len(), b.len(), "cut {cut}");
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.index, y.index, "cut {cut}");
                let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&x.mean), bits(&y.mean), "cut {cut} state {}", x.index);
                match (&x.covariance, &y.covariance) {
                    (Some(cx), Some(cy)) => {
                        assert_eq!(bits(cx.as_slice()), bits(cy.as_slice()), "cut {cut}");
                    }
                    (None, None) => {}
                    _ => panic!("cut {cut}: covariance presence diverged"),
                }
            }
        }
    }

    #[test]
    fn snapshot_rejects_auto_lag() {
        let opts = StreamOptions {
            lag_policy: Some(LagPolicy::auto()),
            ..StreamOptions::default()
        };
        let stream = StreamingSmoother::new(1, opts).unwrap();
        assert!(matches!(stream.snapshot(), Err(KalmanError::Stream(_))));
        let fixed = StreamingSmoother::new(1, StreamOptions::default()).unwrap();
        let snap = fixed.snapshot().unwrap();
        assert!(matches!(
            StreamingSmoother::restore(snap, opts),
            Err(KalmanError::Stream(_))
        ));
    }

    #[test]
    fn no_prior_stream_is_underdetermined_until_observed() {
        let opts = StreamOptions::with_lag(4);
        let mut stream = StreamingSmoother::new(2, opts).unwrap();
        assert!(matches!(
            stream.smoothed(),
            Err(KalmanError::RankDeficient { .. })
        ));
        stream.observe(identity_obs(2, vec![1.0, 2.0])).unwrap();
        let est = stream.smoothed().unwrap();
        assert!((est.mean(0)[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_malformed_ingestion() {
        let opts = StreamOptions::default();
        assert!(StreamingSmoother::new(0, opts).is_err());
        assert!(StreamingSmoother::new(
            1,
            StreamOptions {
                lag: 0,
                ..StreamOptions::default()
            }
        )
        .is_err());

        let mut stream = StreamingSmoother::new(2, opts).unwrap();
        // F column mismatch.
        assert!(stream.evolve(Evolution::random_walk(3)).is_err());
        // c length mismatch.
        let mut evo = Evolution::random_walk(2);
        evo.c = vec![0.0; 5];
        assert!(stream.evolve(evo).is_err());
        // Bad noise.
        let mut evo = Evolution::random_walk(2);
        evo.noise = CovarianceSpec::ScaledIdentity(2, -1.0);
        assert!(stream.evolve(evo).is_err());
        // Observation dimension mismatches.
        assert!(stream.observe(identity_obs(3, vec![0.0; 3])).is_err());
        let mut bad = identity_obs(2, vec![0.0; 2]);
        bad.o = vec![0.0; 4];
        assert!(stream.observe(bad).is_err());
        // Stream is still usable after rejected events.
        stream.observe(identity_obs(2, vec![0.0, 0.0])).unwrap();
        assert_eq!(stream.next_index(), 1);
    }

    /// Drives an auto-lag stream over a scalar random walk with the given
    /// observation noise variance and returns the adapted lag.
    fn adapted_lag(obs_var: f64, steps: usize) -> usize {
        let opts = StreamOptions {
            lag: 0, // ignored: the policy overrides it
            lag_policy: Some(LagPolicy::Auto {
                min: 2,
                max: 64,
                tol: 1e-6,
            }),
            flush_every: 4,
            covariances: false,
            policy: ExecPolicy::Seq,
            auto_flush: true,
            ..StreamOptions::default()
        };
        let mut stream =
            StreamingSmoother::with_prior(vec![0.0], CovarianceSpec::Identity(1), opts).unwrap();
        assert_eq!(stream.current_lag(), 64);
        for i in 0..steps {
            if i > 0 {
                stream.evolve(Evolution::random_walk(1)).unwrap();
            }
            stream
                .observe(Observation {
                    g: Matrix::identity(1),
                    o: vec![(i as f64 * 0.37).sin() * 3.0],
                    noise: CovarianceSpec::ScaledIdentity(1, obs_var),
                })
                .unwrap();
        }
        stream.current_lag()
    }

    /// `LagPolicy::Auto` must size the lag to the measured mixing rate: a
    /// strongly observed random walk (information decays in a couple of
    /// steps) gets a short lag, a weakly observed one (correlation length
    /// ~sqrt(r/q) steps) keeps a long one.
    #[test]
    fn auto_lag_tracks_information_decay_rate() {
        let fast = adapted_lag(0.01, 600);
        let slow = adapted_lag(400.0, 600);
        assert!(
            fast + 4 <= slow,
            "fast-mixing lag {fast} should be well below slow-mixing lag {slow}"
        );
        assert!((2..=64).contains(&fast));
        assert!((2..=64).contains(&slow));
        // The strongly observed chain should get close to the floor.
        assert!(fast <= 8, "fast-mixing lag {fast} stayed large");
    }

    /// Auto-lag streams still finalize every step exactly once, and agree
    /// with the batch smoother wherever the adapted lag covers the
    /// remaining hindsight.
    #[test]
    fn auto_lag_stream_finalizes_exactly_once() {
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        let model = generators::paper_benchmark(&mut rng, 2, 150, true);
        let opts = StreamOptions {
            lag: 0,
            lag_policy: Some(LagPolicy::Auto {
                min: 4,
                max: 32,
                tol: 1e-9,
            }),
            flush_every: 5,
            covariances: false,
            policy: ExecPolicy::Seq,
            auto_flush: true,
            ..StreamOptions::default()
        };
        let (finalized, ckpt) = stream_model(&model, opts);
        assert_eq!(finalized.len(), 151);
        for (i, f) in finalized.iter().enumerate() {
            assert_eq!(f.index, i as u64);
        }
        assert_eq!(ckpt.index, 150);
    }

    #[test]
    fn rejects_degenerate_lag_policies() {
        let bad = |p: LagPolicy| StreamOptions {
            lag_policy: Some(p),
            ..StreamOptions::default()
        };
        assert!(StreamingSmoother::new(1, bad(LagPolicy::Fixed(0))).is_err());
        assert!(StreamingSmoother::new(
            1,
            bad(LagPolicy::Auto {
                min: 0,
                max: 4,
                tol: 1e-9
            })
        )
        .is_err());
        assert!(StreamingSmoother::new(
            1,
            bad(LagPolicy::Auto {
                min: 8,
                max: 4,
                tol: 1e-9
            })
        )
        .is_err());
        assert!(StreamingSmoother::new(
            1,
            bad(LagPolicy::Auto {
                min: 2,
                max: 4,
                tol: 0.0
            })
        )
        .is_err());
        assert!(StreamingSmoother::new(1, bad(LagPolicy::auto())).is_ok());
    }

    /// A shape-stable stream plans its window once and re-executes it for
    /// every subsequent flush; the wind-down at `finish()` (a shorter
    /// window) re-plans once more.
    #[test]
    fn steady_stream_builds_its_window_plan_once() {
        let opts = StreamOptions {
            lag: 6,
            flush_every: 3,
            covariances: false,
            policy: ExecPolicy::Seq,
            ..StreamOptions::default()
        };
        let mut stream =
            StreamingSmoother::with_prior(vec![0.0], CovarianceSpec::Identity(1), opts).unwrap();
        assert_eq!(stream.plan_builds(), 0);
        assert!(stream.plan_signature().is_none());
        for i in 0..40 {
            if i > 0 {
                stream.evolve(Evolution::random_walk(1)).unwrap();
            }
            stream.observe(identity_obs(1, vec![i as f64])).unwrap();
        }
        assert_eq!(
            stream.plan_builds(),
            1,
            "steady flush cadence must reuse one plan"
        );
        let sig = stream.plan_signature().unwrap();
        assert_eq!(
            sig,
            kalman_odd_even::signature_of_dims(vec![1; 9]),
            "window plan covers the full lag+flush window"
        );
        let builds_before_finish = stream.plan_builds();
        let (_, _) = stream.finish().unwrap();
        let _ = builds_before_finish;
    }

    #[test]
    fn dimension_changes_cross_the_window_boundary() {
        // Rectangular-H dimension changes must survive condensation.
        let mut rng = ChaCha8Rng::seed_from_u64(24);
        let model = generators::dimension_change(&mut rng, 3, 24);
        let opts = StreamOptions {
            lag: 6,
            flush_every: 3,
            covariances: false,
            ..StreamOptions::default()
        };
        let (finalized, _) = stream_model(&model, opts);
        assert_eq!(finalized.len(), 25);
        // Dims alternate 3, 4, 3, 4, …
        assert_eq!(finalized[0].mean.len(), 3);
        assert_eq!(finalized[1].mean.len(), 4);
        assert_eq!(finalized[2].mean.len(), 3);
    }
}
