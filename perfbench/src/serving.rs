//! The serving workloads: `serve_uniform`, `serve_mixed` (in process,
//! through a 2-shard `ShardedPool` driven from one thread) and
//! `cluster_uniform` (the identical schedule and driver through a
//! `Supervisor` with 2 worker processes).
//!
//! The event schedule runs in rounds: in each round every stream, in key
//! order, receives its next state's evolution (after state 0) and then its
//! observation (unless that observation is missing).  Stream `k` joins
//! `phase = k mod flush_every` rounds late, so flushes spread evenly over
//! rounds instead of all landing in the same one.  The schedule is cut into
//! blocks generated from the seed just before they are offered, so input
//! generation never lands in a timed region:
//!
//! * block 0 warms up: enough states that every stream flushes once;
//! * closed-loop blocks each offer every event as soon as the program
//!   accepts it (throughput);
//! * open-loop blocks offer event `j` of the block when it falls due at
//!   `j / rate` seconds, whatever the program's state (latency).
//!
//! After set-up the run cycles through [`ROUNDS`] rounds, each made of
//! closed-loop blocks, one open-loop block, and a replay of the round's
//! blocks through standalone smoothers of the sampled streams (the flush
//! times and the bitwise check).

use crate::batch::{factor_flops, wire_metrics};
use crate::report::{dispatch_counts, Report};
use crate::stats::{median, percentile};
use crate::trace::{req, Name, Tracer, NO_REQ};
use crate::{Args, POOL_THREADS};
use kalman::cluster::{ClusterConfig, StreamInit, StreamSpec, Supervisor};
use kalman::dense::{random, Matrix};
use kalman::model::StreamEvent;
use kalman::obs::HistogramSnapshot;
use kalman::prelude::*;
use kalman::serve::Stats;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

/// Offered rate of the open loop on `serve_uniform` and `cluster_uniform`,
/// fixed here and never recomputed at run time.  On a 2-CPU x86-64
/// container the 2-worker cluster's closed loop reached 10k-23k events/s,
/// but its open loop, which polls both workers after every offer round,
/// already built a backlog at 8000 events/s; 4000 it sustains.
const UNIFORM_RATE_EPS: f64 = 4_000.0;
/// Offered rate of the open loop on `serve_mixed`: about a quarter of its
/// saturated in-process capacity (44k-50k events/s on the same container,
/// down to 39k while the shared machine is slow).  At half of it, runs in
/// slow periods built a backlog and read a p99 10-20 times the usual.
const MIXED_RATE_EPS: f64 = 10_000.0;
const STREAMS: usize = 64;
const SHARDS: usize = 2;
const QUEUE_CAPACITY: usize = 256;
/// Streams replayed through standalone smoothers for the bitwise check.
const SAMPLED: usize = 16;
/// Share of `--seconds` spent in closed-loop passes; the open loop takes
/// the rest.
const CLOSED_SHARE: f64 = 0.3;
/// Closed-loop passes of a traced run: half untraced, half traced.
const TRACED_PASSES: usize = 8;
/// Rounds of an untraced run.  Each serves closed-loop passes, an
/// open-loop segment and a replay, so that every metric samples the whole
/// run: a shared machine can switch between a fast and a slow state (1.6x
/// apart on a 2-CPU x86-64 container) every few seconds, and a phase run
/// once, for a few seconds, would fall wholly into one of them.
const ROUNDS: usize = 10;
/// Nearest-rank percentile reported as `latency_p99_ms` (over every
/// open-loop step) and `smooth_tail_s` (over every replayed warm flush).
const TAIL_PERCENTILE: f64 = 99.0;

/// One stream's model and options.
#[derive(Clone)]
struct StreamShape {
    n: usize,
    g: Matrix,
    lag: usize,
    flush_every: usize,
    covariances: bool,
    /// Probability that a state (after the first) has no observation.
    missing: f64,
    /// Rounds the stream waits before its first state.
    phase: u64,
}

impl StreamShape {
    fn opts(&self) -> StreamOptions {
        StreamOptions {
            lag: self.lag,
            flush_every: self.flush_every,
            covariances: self.covariances,
            policy: ExecPolicy::Seq,
            backend: BackendPolicy::OddEven,
            ..StreamOptions::default()
        }
    }

    fn stream(&self, policy: ExecPolicy) -> StreamingSmoother {
        let opts = StreamOptions {
            policy,
            ..self.opts()
        };
        StreamingSmoother::with_prior(vec![0.0; self.n], CovarianceSpec::Identity(self.n), opts)
            .expect("valid stream options")
    }

    /// The state whose evolution releases finalized step `index` under
    /// the canonical cadence: a flush runs when an evolution arrives on a
    /// full window of `lag + flush_every` states and finalizes the oldest
    /// `flush_every` of them.
    fn release_state(&self, index: u64) -> u64 {
        release_state(
            (self.lag + self.flush_every) as u64,
            self.flush_every as u64,
            index,
        )
    }
}

/// [`StreamShape::release_state`] for a window of `cap` states flushing
/// every `f`.
fn release_state(cap: u64, f: u64, index: u64) -> u64 {
    cap + (index / f) * f
}

/// A workload's fixed parameters.
struct Workload {
    shapes: Vec<StreamShape>,
    rate_eps: f64,
    cluster: bool,
    /// Rounds per closed-loop block.
    block_rounds: u64,
    /// Rounds of the warm-up block.
    warm_rounds: u64,
}

/// The workload's streams.  Their shapes depend on the key alone, so every
/// seed serves the same mix; the seed draws the numbers.
fn workload(args: &Args) -> Workload {
    let mut rng = ChaCha8Rng::seed_from_u64(args.seed ^ 0x5eed_5eed_5eed_5eed);
    let mixed = args.workload == "serve_mixed";
    let shapes: Vec<StreamShape> = (0..STREAMS)
        .map(|i| {
            if !mixed {
                return StreamShape {
                    n: 4,
                    g: Matrix::identity(4),
                    lag: 12,
                    flush_every: 6,
                    covariances: false,
                    missing: 0.0,
                    phase: (i % 6) as u64,
                };
            }
            let n = [2, 3, 5, 6, 12][i % 5];
            // Every other stream observes fewer rows than it has states
            // (the trapezoidal elimination path).
            let m = if i % 2 == 1 { 1 + (i / 2) % (n - 1) } else { n };
            let lag = [8, 12, 24][(i / 5) % 3];
            StreamShape {
                n,
                g: random::gaussian(&mut rng, m, n),
                lag,
                flush_every: lag / 2,
                covariances: true,
                missing: 0.1,
                phase: (i % (lag / 2)) as u64,
            }
        })
        .collect();
    let warm_rounds = shapes
        .iter()
        .map(|s| (s.lag + s.flush_every + 2) as u64 + s.phase)
        .max()
        .unwrap_or(0);
    Workload {
        shapes,
        rate_eps: if mixed {
            MIXED_RATE_EPS
        } else {
            UNIFORM_RATE_EPS
        },
        cluster: args.workload == "cluster_uniform",
        // A multiple of every flush_every (4, 6, 12), so that every block
        // holds the same flushes.
        block_rounds: if args.smoke { 24 } else { 120 },
        warm_rounds,
    }
}

/// One scheduled event.
struct Ev {
    key: u64,
    state: u64,
    event: StreamEvent,
}

/// Events of rounds `first..first + count` for every stream, generated
/// from the seed and the block number alone.
fn block(w: &Workload, seed: u64, number: u64, first: u64, count: u64) -> Vec<Ev> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ number);
    let mut out = Vec::with_capacity(2 * w.shapes.len() * count as usize);
    for round in first..first + count {
        for (key, s) in w.shapes.iter().enumerate() {
            let key = key as u64;
            let Some(state) = round.checked_sub(s.phase) else {
                continue;
            };
            if state > 0 {
                out.push(Ev {
                    key,
                    state,
                    event: StreamEvent::Evolve(Evolution::random_walk(s.n)),
                });
            }
            let missing = state > 0 && s.missing > 0.0 && rng.random::<f64>() < s.missing;
            let o = random::gaussian_vec(&mut rng, s.g.rows());
            if !missing {
                out.push(Ev {
                    key,
                    state,
                    event: StreamEvent::Observe(Observation {
                        g: s.g.clone(),
                        o,
                        noise: CovarianceSpec::Identity(s.g.rows()),
                    }),
                });
            }
        }
    }
    out
}

/// The block sequence of a run, appended as it is served: the warm-up,
/// then closed-loop and open-loop blocks.
struct Plan {
    /// `(number, first round, round count)` of every block, in order.
    blocks: Vec<(u64, u64, u64)>,
}

impl Plan {
    fn new(w: &Workload) -> Plan {
        Plan {
            blocks: vec![(0, 0, w.warm_rounds)],
        }
    }

    /// Appends the next block, of `count` rounds.
    fn next(&mut self, count: u64) -> (u64, u64, u64) {
        let &(number, first, last) = self.blocks.last().expect("the warm-up block");
        let b = (number + 1, first + last, count);
        self.blocks.push(b);
        b
    }

    /// States stream `s` receives over the whole run.
    fn total_states(&self, s: &StreamShape) -> u64 {
        self.blocks.iter().map(|b| b.2).sum::<u64>() - s.phase
    }
}

/// Per-stream delivery bookkeeping: exactly-once order, an output digest
/// and release latencies.  Preallocated; recording never allocates.
struct Book {
    epoch: Instant,
    next_index: Vec<u64>,
    digest: Vec<u64>,
    /// Steps delivered out of order, twice, or with a gap.
    disorder: u64,
    /// `(lag + flush_every, flush_every, phase)` per stream.
    cadence: Vec<(u64, u64, u64)>,
    /// First round of the open loop.
    open_round: u64,
    /// Due time (ns since `epoch`) of each open-loop evolution, per stream,
    /// indexed by state minus the stream's first open-loop state.
    due: Vec<Vec<u64>>,
    /// Release latencies (seconds) of steps delivered in the open loop.
    latencies: Vec<f64>,
    delivered_ns: u64,
}

const UNSET: u64 = u64::MAX;

fn mix(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x0000_0100_0000_01b3)
}

fn digest_step(h: u64, step: &FinalizedStep) -> u64 {
    let mut h = mix(h, step.index);
    for v in &step.mean {
        h = mix(h, v.to_bits());
    }
    if let Some(c) = &step.covariance {
        for v in c.as_slice() {
            h = mix(h, v.to_bits());
        }
    }
    h
}

impl Book {
    fn new(w: &Workload) -> Book {
        Book {
            epoch: Instant::now(),
            next_index: vec![0; w.shapes.len()],
            digest: vec![0xcbf2_9ce4_8422_2325; w.shapes.len()],
            disorder: 0,
            cadence: w
                .shapes
                .iter()
                .map(|s| {
                    (
                        (s.lag + s.flush_every) as u64,
                        s.flush_every as u64,
                        s.phase,
                    )
                })
                .collect(),
            open_round: UNSET,
            due: Vec::new(),
            latencies: Vec::new(),
            delivered_ns: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Prepares the due table for an open-loop block of `rounds` rounds
    /// starting at round `first`.
    fn open(&mut self, first: u64, rounds: u64) {
        self.open_round = first;
        self.due = vec![vec![UNSET; rounds as usize]; self.next_index.len()];
    }

    /// Slot of `state` of stream `k` in the due table.
    fn due_slot(&mut self, k: usize, state: u64) -> Option<&mut u64> {
        let first = self.open_round.checked_sub(self.cadence[k].2)?;
        let i = state.checked_sub(first)?;
        self.due[k].get_mut(i as usize)
    }

    /// Records when the evolution creating `state` of stream `key` fell due.
    fn set_due(&mut self, key: u64, state: u64, due_ns: u64) {
        if let Some(slot) = self.due_slot(key as usize, state) {
            *slot = due_ns;
        }
    }

    /// Marks the moment the current delivery call returned.
    fn delivered(&mut self) {
        self.delivered_ns = self.now_ns();
    }

    /// Records one finalized step; `timed` steps count a release latency
    /// when their releasing evolution was offered in the open loop.
    fn step(&mut self, key: u64, step: &FinalizedStep, timed: bool) {
        let k = key as usize;
        if step.index != self.next_index[k] {
            self.disorder += 1;
        }
        self.next_index[k] = step.index + 1;
        self.digest[k] = digest_step(self.digest[k], step);
        if timed && self.open_round != UNSET {
            let (cap, f, _) = self.cadence[k];
            let delivered = self.delivered_ns;
            let due = self
                .due_slot(k, release_state(cap, f, step.index))
                .map(|d| *d);
            if let Some(due) = due.filter(|&d| d != UNSET) {
                if self.latencies.len() < self.latencies.capacity() {
                    self.latencies
                        .push(delivered.saturating_sub(due) as f64 * 1e-9);
                }
            }
        }
    }
}

enum Offer {
    Accepted,
    Refused(StreamEvent),
    Failed,
}

/// What the driver talks to: the in-process pool or the cluster.
enum Target {
    InProcess {
        pool: Box<ShardedPool>,
        ingress: Ingress,
    },
    Cluster {
        sup: Box<Supervisor>,
        wal_depth_max: usize,
    },
}

impl Target {
    fn in_process(w: &Workload) -> Target {
        let (mut pool, ingress) = ShardedPool::new(ServeConfig {
            shards: SHARDS,
            queue_capacity: QUEUE_CAPACITY,
            policy: ExecPolicy::Seq,
        });
        for (key, s) in w.shapes.iter().enumerate() {
            pool.insert(key as u64, s.stream(ExecPolicy::Seq))
                .expect("fresh key");
        }
        Target::InProcess {
            pool: Box::new(pool),
            ingress,
        }
    }

    /// Spawns the workers (timed into `spawn`) and registers the streams.
    /// A worker that fails to connect fails the run: no retry.
    fn cluster(w: &Workload, tr: &mut Tracer, spawn: &mut Vec<f64>) -> Result<Target, String> {
        let t = Instant::now();
        let sup = tr.time(Name::ClusterSpawn, NO_REQ, || {
            Supervisor::new(ClusterConfig {
                workers: SHARDS,
                queue_capacity: QUEUE_CAPACITY,
                // This binary's `main` turns into a worker when the
                // supervisor re-executes it.
                worker_args: Vec::new(),
                ..ClusterConfig::default()
            })
        });
        spawn.push(t.elapsed().as_secs_f64());
        let mut sup = sup.map_err(|e| format!("cluster spawn failed: {e}"))?;
        for (key, s) in w.shapes.iter().enumerate() {
            let spec = StreamSpec {
                init: StreamInit::WithPrior {
                    mean: vec![0.0; s.n],
                    cov: CovarianceSpec::Identity(s.n),
                },
                opts: s.opts(),
            };
            sup.insert(key as u64, spec)
                .map_err(|e| format!("cluster insert failed: {e}"))?;
        }
        Ok(Target::Cluster {
            sup: Box::new(sup),
            wal_depth_max: 0,
        })
    }

    #[inline]
    fn offer(&mut self, tr: &mut Tracer, key: u64, state: u64, event: StreamEvent) -> Offer {
        match self {
            Target::InProcess { ingress, .. } => {
                let span = tr.begin(Name::ServeSubmit, req(key, state));
                let r = ingress.try_submit(key, event);
                tr.end(span);
                match r {
                    Ok(()) => Offer::Accepted,
                    Err(e) if e.is_would_block() => Offer::Refused(e.into_event()),
                    Err(_) => Offer::Failed,
                }
            }
            Target::Cluster { sup, .. } => {
                let span = tr.begin(Name::ClusterSend, req(key, state));
                let r = sup.send(key, event);
                tr.end(span);
                if r.is_ok() {
                    Offer::Accepted
                } else {
                    Offer::Failed
                }
            }
        }
    }

    /// Applies everything offered so far and books every step it
    /// finalized.  Returns the number of errors reported.
    fn deliver(&mut self, tr: &mut Tracer, book: &mut Book, timed: bool) -> u64 {
        let mut errors = 0;
        match self {
            Target::InProcess { pool, .. } => {
                tr.time(Name::ServeDrain, NO_REQ, || pool.drain());
                book.delivered();
                let span = tr.begin(Name::DriverCollect, NO_REQ);
                for (key, entry) in pool.outputs() {
                    match entry.result() {
                        Ok(steps) => {
                            for s in steps {
                                book.step(key, s, timed);
                            }
                        }
                        Err(_) => errors += 1,
                    }
                }
                errors += pool.last_errors().count() as u64;
                tr.end(span);
            }
            Target::Cluster { sup, wal_depth_max } => {
                let poll = tr.begin(Name::ClusterPoll, NO_REQ);
                let polled = sup.poll();
                let outputs = sup.take_outputs();
                tr.end(poll);
                book.delivered();
                let span = tr.begin(Name::DriverCollect, NO_REQ);
                if polled.is_err() {
                    errors += 1;
                }
                for (key, steps) in &outputs {
                    for s in steps {
                        book.step(*key, s, timed);
                    }
                }
                errors += sup.take_stream_errors().len() as u64;
                tr.end(span);
                if tr.on() {
                    let depth = sup.stats().wal_depth.iter().copied().max().unwrap_or(0);
                    *wal_depth_max = (*wal_depth_max).max(depth);
                }
            }
        }
        errors
    }

    /// Ends every stream, booking the tails (not timed).  Returns the
    /// number of streams whose finish failed.
    fn finish(&mut self, tr: &mut Tracer, book: &mut Book, streams: usize) -> u64 {
        let mut errors = self.deliver(tr, book, false);
        for key in 0..streams as u64 {
            let tail = match self {
                Target::InProcess { pool, .. } => pool.finish(key).map(|(t, _)| t).ok(),
                Target::Cluster { sup, .. } => sup.finish(key).map(|(t, _)| t).ok(),
            };
            match tail {
                Some(steps) => steps.iter().for_each(|s| book.step(key, s, false)),
                None => errors += 1,
            }
        }
        errors
    }

    /// The in-process pool's serving statistics (none for the cluster).
    fn pool_stats(&self) -> Option<Stats> {
        match self {
            Target::InProcess { pool, .. } => Some(pool.stats()),
            Target::Cluster { .. } => None,
        }
    }

    fn shutdown(self) {
        if let Target::Cluster { sup, .. } = self {
            sup.shutdown();
        }
    }
}

/// One set-up: builds the target (for the cluster, spawning the workers,
/// timed into `spawn`), registers the streams and serves the warm-up block.
/// Returns the target, its book, the warm-up's counts and the wall time.
fn set_up(
    w: &Workload,
    seed: u64,
    tr: &mut Tracer,
    spawn: &mut Vec<f64>,
) -> Result<(Target, Book, Counts, f64), String> {
    let events = block(w, seed, 0, 0, w.warm_rounds);
    let mut book = Book::new(w);
    let mut c = Counts::default();
    let t = Instant::now();
    let mut target = if w.cluster {
        Target::cluster(w, tr, spawn)?
    } else {
        Target::in_process(w)
    };
    closed_pass(&mut target, events, tr, &mut book, &mut c);
    Ok((target, book, c, t.elapsed().as_secs_f64()))
}

/// Outcome counts of a pass.
#[derive(Default)]
struct Counts {
    offered: u64,
    failed: u64,
}

/// Offers every event as soon as the program accepts it, delivering when
/// a queue refuses and after every `SHARDS * QUEUE_CAPACITY` offers.
/// Returns the wall time in seconds.
fn closed_pass(
    target: &mut Target,
    events: Vec<Ev>,
    tr: &mut Tracer,
    book: &mut Book,
    c: &mut Counts,
) -> f64 {
    let start = Instant::now();
    let mut since = 0;
    for Ev { key, state, event } in events {
        let mut event = event;
        loop {
            match target.offer(tr, key, state, event) {
                Offer::Accepted => break,
                Offer::Refused(back) => {
                    event = back;
                    c.failed += target.deliver(tr, book, false);
                    since = 0;
                }
                Offer::Failed => {
                    c.failed += 1;
                    break;
                }
            }
        }
        c.offered += 1;
        since += 1;
        if since == SHARDS * QUEUE_CAPACITY {
            c.failed += target.deliver(tr, book, false);
            since = 0;
        }
    }
    c.failed += target.deliver(tr, book, false);
    start.elapsed().as_secs_f64()
}

/// What the open loop measured about its own generator.
struct OpenStats {
    wall: f64,
    /// How late each event was offered (seconds past its due time).
    late: Vec<f64>,
    /// Most events already due, beyond the next one, that the driver
    /// found waiting when it came round.
    backlog_max: u64,
}

/// Offers event `j` once `j / rate` seconds have passed, delivering after
/// every round that offered something or met a refusal.
fn open_pass(
    target: &mut Target,
    events: Vec<Ev>,
    rate: f64,
    tr: &mut Tracer,
    book: &mut Book,
    c: &mut Counts,
) -> OpenStats {
    let total = events.len();
    let interval_ns = 1e9 / rate;
    let mut late = Vec::with_capacity(total);
    let mut backlog_max = 0u64;
    let mut it = events.into_iter();
    let mut pending: Option<Ev> = None;
    let mut j = 0usize;
    let start_ns = book.now_ns();
    loop {
        let now = book.now_ns() - start_ns;
        let due_now = ((now as f64 / interval_ns) as u64 + 1).min(total as u64);
        backlog_max = backlog_max.max(due_now.saturating_sub(j as u64 + 1));
        let mut progressed = false;
        while j < total {
            let due = (j as f64 * interval_ns) as u64;
            if due > now {
                break;
            }
            let ev = pending.take().or_else(|| it.next()).expect("j < total");
            let Ev { key, state, event } = ev;
            if matches!(event, StreamEvent::Evolve(_)) {
                book.set_due(key, state, start_ns + due);
            }
            progressed = true;
            match target.offer(tr, key, state, event) {
                Offer::Accepted => {}
                Offer::Refused(back) => {
                    pending = Some(Ev {
                        key,
                        state,
                        event: back,
                    });
                    break;
                }
                Offer::Failed => c.failed += 1,
            }
            late.push((now - due) as f64 * 1e-9);
            c.offered += 1;
            j += 1;
        }
        if progressed {
            c.failed += target.deliver(tr, book, true);
        } else if j == total {
            break;
        } else {
            std::thread::yield_now();
        }
    }
    OpenStats {
        wall: (book.now_ns() - start_ns) as f64 * 1e-9,
        late,
        backlog_max,
    }
}

/// Standalone smoothers of the sampled streams under one execution
/// policy, fed every block after it is served: they time every warm window
/// flush and hold the outputs the served streams must equal bitwise.
struct Replayer {
    keys: Vec<u64>,
    streams: Vec<StreamingSmoother>,
    /// Warm flush times (seconds) per sampled stream.
    flushes: Vec<Vec<f64>>,
    /// Every sampled stream's warm flush times together (for the tail).
    pooled: Vec<f64>,
    digests: Vec<u64>,
    counts: Vec<u64>,
    release_mismatches: u64,
    errors: u64,
}

/// Keys of the replayed streams: spread over the key space, alternating
/// even and odd keys (on `serve_mixed`, full and short observations).
fn sampled_keys() -> Vec<u64> {
    (0..SAMPLED)
        .map(|i| (i * (STREAMS / SAMPLED) + i % 2) as u64)
        .collect()
}

impl Replayer {
    fn new(w: &Workload, policy: ExecPolicy) -> Replayer {
        let keys = sampled_keys();
        let n = keys.len();
        Replayer {
            streams: keys
                .iter()
                .map(|&k| w.shapes[k as usize].stream(policy))
                .collect(),
            keys,
            flushes: vec![Vec::new(); n],
            pooled: Vec::new(),
            digests: vec![0xcbf2_9ce4_8422_2325; n],
            counts: vec![0; n],
            release_mismatches: 0,
            errors: 0,
        }
    }

    /// Replays the sampled streams' events of one block.  The first flush
    /// of every stream is cold (it builds the window's plan) and untimed.
    fn ingest(&mut self, w: &Workload, events: &[Ev]) {
        for ev in events {
            let Ok(i) = self.keys.binary_search(&ev.key) else {
                continue;
            };
            let t = Instant::now();
            let result = self.streams[i].ingest(ev.event.clone());
            let secs = t.elapsed().as_secs_f64();
            match result {
                Ok(steps) if !steps.is_empty() => {
                    if self.counts[i] > 0 {
                        self.flushes[i].push(secs);
                        self.pooled.push(secs);
                    }
                    for s in &steps {
                        if w.shapes[ev.key as usize].release_state(s.index) != ev.state {
                            self.release_mismatches += 1;
                        }
                        self.digests[i] = digest_step(self.digests[i], s);
                        self.counts[i] += 1;
                    }
                }
                Ok(_) => {}
                Err(_) => self.errors += 1,
            }
        }
    }

    /// Ends every stream; returns `(key, digest, finalized steps)` per
    /// sampled stream.
    fn finish(&mut self) -> Vec<(u64, u64, u64)> {
        let streams = std::mem::take(&mut self.streams);
        let mut out = Vec::new();
        for (i, stream) in streams.into_iter().enumerate() {
            match stream.finish() {
                Ok((tail, _)) => {
                    for s in &tail {
                        self.digests[i] = digest_step(self.digests[i], s);
                        self.counts[i] += 1;
                    }
                }
                Err(_) => self.errors += 1,
            }
            out.push((self.keys[i], self.digests[i], self.counts[i]));
        }
        out
    }

    /// Mean over the streams of each stream's median flush time: streams
    /// of different shapes flush in different times, so the mix weighs the
    /// same in every run.
    fn mean_median(&self) -> f64 {
        let per_stream = self.flushes.iter().map(|f| median(&mut f.clone()));
        per_stream.sum::<f64>() / self.flushes.len() as f64
    }
}

/// The whole schedule served through an in-process pool (untimed): what
/// the cluster's outputs must equal.  Returns its book and its errors.
fn serve_in_process(w: &Workload, plan: &Plan, seed: u64) -> (Book, u64) {
    let mut target = Target::in_process(w);
    let mut book = Book::new(w);
    let mut off = Tracer::new(false, 0);
    let mut c = Counts::default();
    for &(number, first, count) in &plan.blocks {
        closed_pass(
            &mut target,
            block(w, seed, number, first, count),
            &mut off,
            &mut book,
            &mut c,
        );
    }
    c.failed += target.finish(&mut off, &mut book, w.shapes.len());
    (book, c.failed)
}

/// Registry histogram snapshot (for deltas across a timed region).
fn hist(name: &str) -> HistogramSnapshot {
    kalman::obs::histogram(name).snapshot()
}

/// Seconds → microseconds of a nanosecond-valued histogram quantile.
fn hist_us(h: &HistogramSnapshot, q: f64) -> f64 {
    h.quantile(q) * 1e-3
}

pub fn run(args: &Args, report: &mut Report, tr: &mut Tracer) {
    let w = workload(args);
    let streams = w.shapes.len();
    let open_seconds = (1.0 - CLOSED_SHARE) * args.seconds;
    let events_per_round = w.shapes.iter().map(|s| 2.0 - s.missing).sum::<f64>();
    let open_rounds = ((w.rate_eps * open_seconds) / events_per_round)
        .ceil()
        .max(1.0) as u64;
    report.note("streams", streams);
    report.note("shards_or_workers", SHARDS);
    report.note("queue_capacity", QUEUE_CAPACITY);
    report.note("offered_rate_eps", w.rate_eps);
    report.note("tail_percentile", format!("p{TAIL_PERCENTILE}"));

    // Set-up: construction, registration and the warm-up block, which
    // flushes every stream's window shape once.  The cluster repeats it
    // here (one supervisor per process at a time; the last one serves the
    // run).  In process it runs once here and once more in every round, on
    // a pool that is then dropped, so that its samples span the run like
    // the other metrics'.
    let setups = match (w.cluster, args.smoke) {
        (false, _) => 1,
        (true, true) => 2,
        (true, false) => 5,
    };
    let mut setup = Vec::new();
    let mut spawn = Vec::new();
    let mut current: Option<(Target, Book, Counts)> = None;
    for _ in 0..setups {
        if let Some((old, _, _)) = current.take() {
            old.shutdown();
        }
        match set_up(&w, args.seed, tr, &mut spawn) {
            Ok((target, book, c, secs)) => {
                setup.push(secs);
                current = Some((target, book, c));
            }
            Err(e) => {
                report.check("cluster_spawn", false, e);
                report.failed += 1;
                return;
            }
        }
    }
    let (mut target, mut book, mut counts) = current.expect("at least one set-up");
    counts.offered += streams as u64; // registrations

    // The sampled streams' standalone replays, fed each block after it is
    // served (the parallel one on the benchmark's 2-thread pool).
    let mut seq = Replayer::new(&w, ExecPolicy::Seq);
    let mut par = Replayer::new(&w, ExecPolicy::par());
    let mut plan = Plan::new(&w);
    let warm = block(&w, args.seed, 0, 0, w.warm_rounds);
    seq.ingest(&w, &warm);
    kalman::par::run_with_threads(POOL_THREADS, || par.ingest(&w, &warm));

    let rounds = if args.trace || args.smoke { 1 } else { ROUNDS };
    let open_block = open_rounds.div_ceil(rounds as u64);
    book.latencies = Vec::with_capacity(streams * (rounds * open_block as usize + 64));
    let stats0 = target.pool_stats();
    let flush0 = hist("stream.flush");
    let factor0 = hist("oe.factor");
    let solve0 = hist("oe.solve");
    let selinv0 = hist("oe.selinv");
    let dispatch0 = dispatch_counts();
    let mut end_of_closed = None;
    let (mut closed_events, mut closed_busy) = (0.0, 0.0);
    let mut untraced_secs = Vec::new();
    let mut traced_secs = Vec::new();
    let mut traced_wall = 0.0;
    let mut attributed = 0.0;
    let mut traced_mark = None;
    let mut allocs = 0u64;
    let mut alloc_events = 0u64;
    let closed_budget = CLOSED_SHARE * args.seconds / rounds as f64;
    let mut closed = 0u64;
    let mut closed_seconds = 0.0;
    let mut closed_steps = 0u64;
    let mut open = OpenStats {
        wall: 0.0,
        late: Vec::new(),
        backlog_max: 0,
    };
    for _ in 0..rounds {
        let first_block = plan.blocks.len();
        if !w.cluster {
            let (_, _, c, secs) =
                set_up(&w, args.seed, tr, &mut spawn).expect("an in-process set-up cannot fail");
            setup.push(secs);
            counts.offered += c.offered + streams as u64;
            counts.failed += c.failed;
        }

        // Closed loop.
        let closed_start = Instant::now();
        let finalized_before = book.next_index.iter().sum::<u64>();
        let mut passes = 0;
        loop {
            let done = if args.trace {
                passes >= TRACED_PASSES
            } else if args.smoke {
                // A fixed schedule, so that outputs compare across workloads.
                passes >= 3
            } else {
                passes >= 1 && closed_start.elapsed().as_secs_f64() >= closed_budget
            };
            if done {
                break;
            }
            passes += 1;
            closed += 1;
            let (number, first, count) = plan.next(w.block_rounds);
            let events = block(&w, args.seed, number, first, count);
            let n_events = events.len() as f64;
            let traced = args.trace && passes > TRACED_PASSES / 2;
            tr.set_on(traced);
            let mark = tr.mark();
            if traced && traced_mark.is_none() {
                traced_mark = Some(mark);
            }
            let a0 = kalman::alloc_stats::thread_alloc_count();
            let secs = closed_pass(&mut target, events, tr, &mut book, &mut counts);
            let a1 = kalman::alloc_stats::thread_alloc_count();
            if closed > 1 {
                allocs += a1 - a0;
                alloc_events += n_events as u64;
            }
            closed_events += n_events;
            closed_busy += secs;
            if traced {
                traced_secs.push(secs);
                traced_wall += secs;
                attributed += tr.attributed_since(mark);
            } else {
                untraced_secs.push(secs);
            }
        }
        tr.set_on(false);
        closed_seconds += closed_start.elapsed().as_secs_f64();
        closed_steps += book.next_index.iter().sum::<u64>() - finalized_before;
        end_of_closed = Some((
            target.pool_stats(),
            hist("stream.flush"),
            hist("oe.factor"),
            hist("oe.solve"),
            hist("oe.selinv"),
            dispatch_counts(),
        ));

        // Open loop.
        let (number, first, count) = plan.next(open_block);
        let events = block(&w, args.seed, number, first, count);
        book.open(first, count);
        let segment = open_pass(&mut target, events, w.rate_eps, tr, &mut book, &mut counts);
        open.wall += segment.wall;
        open.late.extend(segment.late);
        open.backlog_max = open.backlog_max.max(segment.backlog_max);

        // Replay of the round's blocks.
        for &(number, first, count) in &plan.blocks[first_block..] {
            let events = block(&w, args.seed, number, first, count);
            seq.ingest(&w, &events);
            kalman::par::run_with_threads(POOL_THREADS, || par.ingest(&w, &events));
        }
    }
    let (stats1, flush1, factor1, solve1, selinv1, dispatch1) =
        end_of_closed.expect("at least one round");

    // Tails, then the cluster's own health.
    counts.failed += target.finish(tr, &mut book, streams);
    counts.offered += streams as u64; // finishes
    let mut restarts = 0u64;
    let mut wal_max = 0usize;
    if let Target::Cluster { sup, wal_depth_max } = &target {
        let stats = sup.stats();
        restarts = stats.restarts.iter().map(|&r| u64::from(r)).sum();
        wal_max = *wal_depth_max;
        report.check(
            "cluster_no_restarts",
            restarts == 0 && !stats.degraded.iter().any(|&d| d),
            format!("restarts {restarts}, degraded {:?}", stats.degraded),
        );
    }
    target.shutdown();

    // Correctness: no step finalized twice, out of order or beyond the
    // schedule.  Steps never finalized (after an operation failed) are
    // failures and lower `ok_frac`; they do not fail the run by themselves.
    let (mut unfinalized, mut extra) = (0u64, 0u64);
    for (s, &n) in w.shapes.iter().zip(&book.next_index) {
        let total = plan.total_states(s);
        unfinalized += total.saturating_sub(n);
        extra += n.saturating_sub(total);
    }
    report.check(
        "no_step_finalized_twice_or_out_of_order",
        extra == 0 && book.disorder == 0,
        format!(
            "{} finalized steps, {unfinalized} never finalized, {extra} beyond the schedule, {} out of order",
            book.next_index.iter().sum::<u64>(),
            book.disorder
        ),
    );
    report.attempted += counts.offered;
    report.failed += counts.failed + unfinalized;

    // Correctness: sampled streams bitwise-equal to standalone replays
    // (and, for the cluster, every stream equal to in-process serving).
    let keys = sampled_keys();
    let rep = seq.finish();
    let par_digests = kalman::par::run_with_threads(POOL_THREADS, || par.finish());
    let mismatched: Vec<u64> = rep
        .iter()
        .filter(|(k, d, n)| book.digest[*k as usize] != *d || book.next_index[*k as usize] != *n)
        .map(|(k, _, _)| *k)
        .collect();
    report.check(
        "sampled_streams_bitwise_equal_to_standalone_replay",
        mismatched.is_empty() && seq.errors + par.errors == 0,
        format!(
            "streams {keys:?}, mismatched {mismatched:?}, replay errors {}",
            seq.errors + par.errors
        ),
    );
    let par_mismatched = par_digests.iter().zip(&rep).filter(|(a, b)| a != b).count();
    report.check(
        "parallel_replay_bitwise_equal_to_sequential",
        par_mismatched == 0,
        format!("{par_mismatched} of {} streams differ", keys.len()),
    );
    report.check(
        "release_state_matches_canonical_cadence",
        seq.release_mismatches + par.release_mismatches == 0,
        format!(
            "{} finalized steps released off-cadence",
            seq.release_mismatches + par.release_mismatches
        ),
    );
    if w.cluster {
        let (pool_book, errors) = serve_in_process(&w, &plan, args.seed);
        let differ = (0..streams)
            .filter(|&k| {
                pool_book.digest[k] != book.digest[k]
                    || pool_book.next_index[k] != book.next_index[k]
            })
            .count();
        report.check(
            "cluster_bitwise_equal_to_in_process",
            differ == 0 && errors == 0,
            format!("{differ} of {streams} streams differ, in-process errors {errors}"),
        );
    }
    let combined = book.digest.iter().fold(0u64, |h, &d| mix(h, d));
    report.note("output_digest", format!("{combined:016x}"));
    report.note("closed_passes", closed);
    report.note("rounds", rounds);
    report.note("open_rounds", rounds as u64 * open_block);
    report.note("latency_samples", book.latencies.len());
    report.note("flush_samples", seq.pooled.len());

    if !args.trace {
        report.note("closed_seconds", closed_seconds);
        report.note("open_seconds", open.wall);
        let mut lat_ms: Vec<f64> = book.latencies.iter().map(|l| l * 1e3).collect();
        report.set("setup_s", median(&mut setup));
        report.set("throughput_eps", closed_events / closed_busy);
        report.set("latency_p50_ms", median(&mut lat_ms));
        report.set("latency_p99_ms", percentile(&mut lat_ms, TAIL_PERCENTILE));
        report.set(
            "ok_frac",
            1.0 - report.failed as f64 / report.attempted.max(1) as f64,
        );
        report.set(
            "smooth_tail_s",
            percentile(&mut seq.pooled.clone(), TAIL_PERCENTILE),
        );
        report.set("smooth_s", seq.mean_median());
        report.set("smooth_par_s", par.mean_median());
        return;
    }

    // Per-layer metrics from the traced closed-loop passes and the
    // exported counters' deltas across the closed loop.
    let mark = traced_mark.unwrap_or(0);
    let steps = closed_steps.max(1) as f64;
    let flush = flush1.since(&flush0);
    let per_call = |a: &HistogramSnapshot, b: &HistogramSnapshot| {
        let d = b.since(a);
        if d.count == 0 {
            0.0
        } else {
            d.sum as f64 * 1e-9 / d.count as f64
        }
    };
    let factor_s = per_call(&factor0, &factor1);
    report.set("model.whiten_s", 0.0);
    report.set("odd_even.factor_s", factor_s);
    report.set("odd_even.solve_s", per_call(&solve0, &solve1));
    report.set("odd_even.selinv_s", per_call(&selinv0, &selinv1));
    // A window flush factors `lag + flush_every` states; the first carries
    // the condensed history as n prior rows.  Streams flush in proportion
    // to 1 / flush_every.
    let (flops, weight) = w.shapes.iter().fold((0.0, 0.0), |(f, wt), s| {
        let mut obs = vec![s.g.rows() as f64; s.lag + s.flush_every];
        obs[0] += s.n as f64;
        let rate = 1.0 / s.flush_every as f64;
        (f + rate * factor_flops(s.n, obs), wt + rate)
    });
    let flops = flops / weight;
    report.set("odd_even.factor_flops", flops);
    report.set(
        "odd_even.factor_gflops",
        if factor_s > 0.0 {
            flops / factor_s * 1e-9
        } else {
            0.0
        },
    );
    report.set_dispatch(dispatch0, dispatch1, steps);
    plan_build_metric(&w, report, tr);
    for layer in ["par", "seq", "associative"] {
        report.zero_layer(layer);
    }
    match (&stats0, &stats1) {
        (Some(s0), Some(s1)) => {
            serve_metrics(report, tr, mark, s0, s1, traced_wall, &flush, closed_steps)
        }
        _ => {
            report.zero_layer("stream");
            report.zero_layer("serve");
        }
    }
    if w.cluster {
        let mut send = tr.durations(Name::ClusterSend, mark);
        let send_total: f64 = send.iter().sum();
        report.set("cluster.send_p50_us", median(&mut send) * 1e6);
        report.set("cluster.send_p99_us", percentile(&mut send, 99.0) * 1e6);
        report.set("cluster.send_busy_frac", send_total / traced_wall);
        report.set(
            "cluster.poll_busy_frac",
            tr.total(Name::ClusterPoll, mark) / traced_wall,
        );
        report.set("cluster.wal_depth_max", wal_max as f64);
        report.set("cluster.restarts", restarts as f64);
        report.set("cluster.spawn_s", median(&mut spawn));
    }
    report.set(
        "alloc.per_event",
        allocs as f64 / alloc_events.max(1) as f64,
    );
    report.set("driver.offered_eps", open.late.len() as f64 / open.wall);
    let mut late = open.late;
    report.set("driver.late_p99_ms", percentile(&mut late, 99.0) * 1e3);
    report.set("driver.backlog_max", open.backlog_max as f64);
    report.set(
        "driver.unattributed_frac",
        (traced_wall - attributed) / traced_wall,
    );
    report.set(
        "trace.overhead_frac",
        median(&mut traced_secs) / median(&mut untraced_secs) - 1.0,
    );
    let sample: Vec<StreamEvent> = block(&w, args.seed, 0, 0, w.warm_rounds)
        .into_iter()
        .map(|e| e.event)
        .collect();
    wire_metrics(&sample, report, tr, args.seconds, 3);
}

/// `odd_even.plan_build_s`: `PlanSchedule::build` over the workload's
/// window shapes (the state dimensions of one full window per distinct
/// stream shape), summed.
fn plan_build_metric(w: &Workload, report: &mut Report, tr: &mut Tracer) {
    let mut shapes: Vec<Vec<usize>> = w
        .shapes
        .iter()
        .map(|s| vec![s.n; s.lag + s.flush_every + 1])
        .collect();
    shapes.sort();
    shapes.dedup();
    tr.set_on(true);
    let mark = tr.mark();
    for _ in 0..20 {
        for dims in &shapes {
            let schedule = tr.time(Name::OddEvenPlanBuild, 0, || PlanSchedule::build(dims));
            std::hint::black_box(schedule);
        }
    }
    report.set(
        "odd_even.plan_build_s",
        tr.total(Name::OddEvenPlanBuild, mark) / 20.0,
    );
}

#[allow(clippy::too_many_arguments)]
fn serve_metrics(
    report: &mut Report,
    tr: &mut Tracer,
    mark: usize,
    s0: &Stats,
    s1: &Stats,
    traced_wall: f64,
    flush: &HistogramSnapshot,
    closed_steps: u64,
) {
    let a0 = s0.aggregate();
    let a1 = s1.aggregate();
    let lookups = a1.plan_hits + a1.plan_misses;
    report.set("stream.plan_misses", a1.plan_misses as f64);
    report.set(
        "stream.plan_hit_ratio",
        a1.plan_hits as f64 / lookups.max(1) as f64,
    );
    report.set("stream.flushes", flush.count as f64);
    report.set("stream.finalized_steps", closed_steps as f64);
    report.set("stream.flush_p50_us", hist_us(flush, 0.5));
    report.set("stream.flush_p99_us", hist_us(flush, 0.99));
    let mut submit = tr.durations(Name::ServeSubmit, mark);
    let mut drains = tr.durations(Name::ServeDrain, mark);
    let drain_total: f64 = drains.iter().sum();
    let drained = a1.drained - a0.drained;
    let submitted = a1.submitted - a0.submitted;
    report.set("serve.submit_p50_us", median(&mut submit) * 1e6);
    report.set("serve.submit_p99_us", percentile(&mut submit, 99.0) * 1e6);
    report.set(
        "serve.throttled_frac",
        (a1.throttled - a0.throttled) as f64 / submitted.max(1) as f64,
    );
    report.set("serve.drain_busy_frac", drain_total / traced_wall);
    let n_drains = (s1.drain_latency.count - s0.drain_latency.count).max(1);
    report.set("serve.drain_p99_us", percentile(&mut drains, 99.0) * 1e6);
    report.set("serve.ops_per_drain", drained as f64 / n_drains as f64);
    let wait = a1.queue_wait.since(&a0.queue_wait);
    report.set("serve.queue_wait_p99_us", hist_us(&wait, 0.99));
}
