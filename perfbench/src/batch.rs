//! `batch_paper`: the paper's own benchmark problem (random orthonormal
//! evolution and observation, n = 8, k = 20000, with a prior) smoothed
//! with means and covariances.

use crate::report::{dispatch_counts, Report};
use crate::stats::{median, percentile, repeat_for};
use crate::trace::{Name, Tracer};
use crate::{Args, POOL_THREADS};
use kalman::dense::Matrix;
use kalman::model::{generators, whiten_model, LinearModel};
use kalman::prelude::*;
use rand::SeedableRng;
use std::time::Instant;

/// Nearest-rank percentile reported as `smooth_tail_s`: over at least
/// [`MIN_SEQ`] samples it leaves at least 10 beyond it.
pub const TAIL_PERCENTILE: f64 = 75.0;
const MIN_SEQ: usize = 40;
const MIN_PAR: usize = 20;
/// Rounds of samples (two sequential smooths and a parallel one) between
/// two set-ups.
const SETUP_EVERY: usize = 4;
/// Largest mean/covariance difference from the RTS reference accepted.
const TOLERANCE: f64 = 1e-8;

pub fn run(args: &Args, report: &mut Report, tr: &mut Tracer) {
    let (n, k) = if args.smoke { (8, 400) } else { (8, 20_000) };
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(args.seed);
    let model = generators::paper_benchmark(&mut rng, n, k, true);
    report.note("n", n);
    report.note("k", k);
    kalman::par::run_with_threads(POOL_THREADS, || {
        report.note("pool_threads_measured", kalman::par::current_pool_threads());
        if args.trace {
            traced(args, &model, report, tr);
        } else {
            untraced(args, &model, report);
        }
    });
}

fn empty() -> Smoothed {
    Smoothed {
        means: Vec::new(),
        covariances: None,
    }
}

/// Stream events the model holds: one observation per state plus one
/// evolution per state after the first.
fn events(model: &LinearModel) -> usize {
    2 * model.num_states() - 1
}

/// Checks an estimate against the sequential RTS smoother.
fn check_against(report: &mut Report, name: &str, est: &Smoothed, reference: &Smoothed) {
    let mean = est.max_mean_diff(reference);
    let cov = est.max_cov_diff(reference).unwrap_or(f64::INFINITY);
    report.check(
        name,
        mean <= TOLERANCE && cov <= TOLERANCE,
        format!("max |mean diff| {mean:.2e}, max |cov diff| {cov:.2e}, tolerance {TOLERANCE:.0e}"),
    );
}

fn smooth(plan: &mut SmoothPlan, model: &LinearModel, out: &mut Smoothed, report: &mut Report) {
    report.attempted += 1;
    if plan.smooth_model_into(model, out).is_err() {
        report.failed += 1;
    }
}

fn untraced(args: &Args, model: &LinearModel, report: &mut Report) {
    let timed = |f: &mut dyn FnMut(), samples: &mut Vec<f64>| {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64());
    };
    // Set-up (plan build and the first, cold smooth) runs once here and
    // again after every SETUP_EVERY-th round of samples, so that its
    // samples span the run like the others.
    let set_up = |out: &mut Smoothed, report: &mut Report, setup: &mut Vec<f64>| {
        let t = Instant::now();
        let mut p = SmoothPlan::for_model(model, OddEvenOptions::with_policy(ExecPolicy::Seq))
            .expect("the paper benchmark is a valid model");
        smooth(&mut p, model, out, report);
        setup.push(t.elapsed().as_secs_f64());
        p
    };
    let mut setup = Vec::new();
    let mut out = empty();
    let mut plan = set_up(&mut out, report, &mut setup);
    let mut par_plan = SmoothPlan::for_model(model, OddEvenOptions::with_policy(ExecPolicy::par()))
        .expect("the paper benchmark is a valid model");
    let mut par_out = empty();
    smooth(&mut par_plan, model, &mut par_out, report);

    // Two sequential smooths per parallel one, interleaved so that drift
    // in the machine's load reaches both alike.
    let (min_seq, min_par) = if args.smoke {
        (4, 2)
    } else {
        (MIN_SEQ, MIN_PAR)
    };
    let (mut seq, mut par) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut rounds = 0;
    while seq.len() < min_seq || par.len() < min_par || start.elapsed().as_secs_f64() < args.seconds
    {
        rounds += 1;
        if rounds % SETUP_EVERY == 0 {
            plan = set_up(&mut out, report, &mut setup);
        }
        for _ in 0..2 {
            timed(&mut || smooth(&mut plan, model, &mut out, report), &mut seq);
        }
        timed(
            &mut || smooth(&mut par_plan, model, &mut par_out, report),
            &mut par,
        );
    }

    let reference = rts_smooth(model).expect("RTS reference");
    check_against(report, "seq_smooth_vs_rts", &out, &reference);
    check_against(report, "par_smooth_vs_rts", &par_out, &reference);

    report.note("smooth_samples_seq", seq.len());
    report.note("smooth_samples_par", par.len());
    report.note("smooth_tail_percentile", format!("p{TAIL_PERCENTILE}"));
    report.note("setups", setup.len());
    let smooth_s = median(&mut seq);
    let tail = percentile(&mut seq, TAIL_PERCENTILE);
    let events = events(model) as f64;
    report.set("setup_s", median(&mut setup));
    report.set("smooth_s", smooth_s);
    report.set("smooth_tail_s", tail);
    report.set("smooth_par_s", median(&mut par));
    report.set("throughput_eps", events / smooth_s);
    report.set("latency_p50_ms", smooth_s * 1e3);
    report.set("latency_p99_ms", tail * 1e3);
    report.set(
        "ok_frac",
        1.0 - report.failed as f64 / report.attempted as f64,
    );
}

/// One sequential pipeline through the phases' public entry points.
fn phases(
    model: &LinearModel,
    plan: &mut SmoothPlan,
    means: &mut Vec<Vec<f64>>,
    covs: &mut Vec<Matrix>,
    tr: &mut Tracer,
    req: u64,
) -> kalman::model::Result<()> {
    let mut steps = tr.time(Name::ModelWhiten, req, || whiten_model(model))?;
    tr.time(Name::OddEvenFactor, req, || plan.execute(&mut steps))?;
    tr.time(Name::OddEvenSolve, req, || plan.solve_into(means))?;
    tr.time(Name::OddEvenSelinv, req, || plan.selinv_into(covs))
}

fn traced(args: &Args, model: &LinearModel, report: &mut Report, tr: &mut Tracer) {
    let budget = args.seconds;
    let min = if args.smoke { 2 } else { 3 };
    let dims: Vec<usize> = model.steps.iter().map(|s| s.state_dim).collect();
    let states = dims.len() as f64;
    let events = events(model) as f64;

    let mark = tr.mark();
    repeat_for(0.02 * budget, min, || {
        let schedule = tr.time(Name::OddEvenPlanBuild, 0, || PlanSchedule::build(&dims));
        std::hint::black_box(schedule);
    });
    report.set(
        "odd_even.plan_build_s",
        median(&mut tr.durations(Name::OddEvenPlanBuild, mark)),
    );

    let mut plan = SmoothPlan::for_model(model, OddEvenOptions::with_policy(ExecPolicy::Seq))
        .expect("valid model");
    let mut means = Vec::new();
    let mut covs = Vec::new();
    let mut out = empty();
    smooth(&mut plan, model, &mut out, report);

    // The same pipeline untraced, then traced: the wall-time difference is
    // the recorder's overhead.
    let mut fail = 0u64;
    let mut idx = 0u64;
    tr.set_on(false);
    let mut untraced = repeat_for(0.2 * budget, min, || {
        idx += 1;
        fail += u64::from(phases(model, &mut plan, &mut means, &mut covs, tr, idx).is_err());
    });
    tr.set_on(true);
    let dispatch0 = dispatch_counts();
    let mark = tr.mark();
    let t = Instant::now();
    let mut traced = repeat_for(0.2 * budget, min, || {
        idx += 1;
        fail += u64::from(phases(model, &mut plan, &mut means, &mut covs, tr, idx).is_err());
    });
    let traced_wall = t.elapsed().as_secs_f64();
    let dispatch1 = dispatch_counts();
    report.attempted += (untraced.len() + traced.len()) as u64;
    report.failed += fail;
    let reps = traced.len() as f64;

    let factor_s = median(&mut tr.durations(Name::OddEvenFactor, mark));
    let selinv_s = median(&mut tr.durations(Name::OddEvenSelinv, mark));
    let flops = model_flops(model);
    report.set(
        "model.whiten_s",
        median(&mut tr.durations(Name::ModelWhiten, mark)),
    );
    report.set("odd_even.factor_s", factor_s);
    report.set(
        "odd_even.solve_s",
        median(&mut tr.durations(Name::OddEvenSolve, mark)),
    );
    report.set("odd_even.selinv_s", selinv_s);
    report.set("odd_even.factor_flops", flops);
    report.set("odd_even.factor_gflops", flops / factor_s * 1e-9);
    report.set_dispatch(dispatch0, dispatch1, reps * states);
    report.set(
        "driver.unattributed_frac",
        (traced_wall - tr.attributed_since(mark)) / traced_wall,
    );
    report.set("driver.offered_eps", reps * events / traced_wall);
    let untraced_s = median(&mut untraced);
    report.set(
        "trace.overhead_frac",
        median(&mut traced) / untraced_s - 1.0,
    );

    // Allocations of the production path (plan-owned whitening).
    let a0 = kalman::alloc_stats::thread_alloc_count();
    let allocs_reps = 2;
    for _ in 0..allocs_reps {
        smooth(&mut plan, model, &mut out, report);
    }
    let a1 = kalman::alloc_stats::thread_alloc_count();
    report.set(
        "alloc.per_event",
        (a1 - a0) as f64 / (allocs_reps as f64 * events),
    );

    // Two-thread speedups of the parallel phases.
    let mut par_plan = SmoothPlan::for_model(model, OddEvenOptions::with_policy(ExecPolicy::par()))
        .expect("valid model");
    let mut par_out = empty();
    smooth(&mut par_plan, model, &mut par_out, report);
    let mut par_factor = Vec::new();
    let mut par_selinv = Vec::new();
    let mut par_covs = Vec::new();
    let reps = repeat_for(0.2 * budget, min, || {
        let mut steps = whiten_model(model).expect("valid model");
        let t = Instant::now();
        let ok = tr
            .time(Name::OddEvenFactor, idx, || par_plan.execute(&mut steps))
            .is_ok();
        par_factor.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let ok = ok
            && tr
                .time(Name::OddEvenSelinv, idx, || {
                    par_plan.selinv_into(&mut par_covs)
                })
                .is_ok();
        par_selinv.push(t.elapsed().as_secs_f64());
        report.attempted += 1;
        report.failed += u64::from(!ok);
    });
    report.note("par_reps", reps.len());
    report.set("par.factor_speedup_p2", factor_s / median(&mut par_factor));
    report.set("par.selinv_speedup_p2", selinv_s / median(&mut par_selinv));

    // The paper's single-core baselines.
    let mut reference = None;
    let mark = tr.mark();
    repeat_for(0.1 * budget, min, || {
        reference = Some(tr.time(Name::SeqRts, 0, || rts_smooth(model)));
    });
    let rts_s = median(&mut tr.durations(Name::SeqRts, mark));
    report.set("seq.rts_s", rts_s);
    report.set("seq.odd_even_over_rts", untraced_s / rts_s);
    let mut assoc = None;
    let seq_assoc = AssociativeOptions {
        policy: ExecPolicy::Seq,
    };
    repeat_for(0.1 * budget, min, || {
        assoc = Some(tr.time(Name::AssociativeSmooth, 0, || {
            associative_smooth(model, seq_assoc)
        }));
    });
    report.set(
        "associative.smooth_s",
        median(&mut tr.durations(Name::AssociativeSmooth, mark)),
    );
    let reference = reference.expect("ran").expect("RTS reference");
    let phased = Smoothed {
        means,
        covariances: Some(covs),
    };
    check_against(report, "traced_phases_vs_rts", &phased, &reference);
    check_against(report, "production_smooth_vs_rts", &out, &reference);
    let assoc = assoc.expect("ran").expect("associative smoother");
    let diff = assoc.max_mean_diff(&reference);
    report.check(
        "associative_vs_rts",
        diff <= TOLERANCE,
        format!("max |mean diff| {diff:.2e}"),
    );

    wire_metrics(&kalman::model::events_of(model), report, tr, budget, min);

    for layer in ["stream", "serve"] {
        report.zero_layer(layer);
    }
    report.set("driver.late_p99_ms", 0.0);
    report.set("driver.backlog_max", 0.0);
}

/// Payload-only codec cost of `events` (framing excluded): bytes, encode
/// and decode nanoseconds per event, through the public `kalman::wire`
/// codec.  Also checks the round trip.
pub fn wire_metrics(
    events: &[kalman::model::StreamEvent],
    report: &mut Report,
    tr: &mut Tracer,
    budget: f64,
    min: usize,
) {
    use kalman::wire::{codec, Reader, Writer};
    let count = events.len() as f64;
    let mut w = Writer::new();
    let mark = tr.mark();
    repeat_for(0.05 * budget, min, || {
        w.clear();
        tr.time(Name::WireEncode, 0, || {
            for e in events {
                codec::encode_event(&mut w, e);
            }
        });
    });
    let mut decoded = 0usize;
    let mut round_trip = true;
    repeat_for(0.05 * budget, min, || {
        let mut r = Reader::new(w.as_slice());
        decoded = 0;
        tr.time(Name::WireDecode, 0, || {
            while r.remaining() > 0 {
                match codec::decode_event(&mut r) {
                    Ok(e) => {
                        decoded += 1;
                        std::hint::black_box(e);
                    }
                    Err(_) => {
                        round_trip = false;
                        break;
                    }
                }
            }
        });
    });
    report.check(
        "wire_round_trip",
        round_trip && decoded == events.len(),
        format!("{decoded} of {} events decoded", events.len()),
    );
    report.set("wire.bytes_per_event", w.len() as f64 / count);
    report.set(
        "wire.encode_ns_per_event",
        median(&mut tr.durations(Name::WireEncode, mark)) * 1e9 / count,
    );
    report.set(
        "wire.decode_ns_per_event",
        median(&mut tr.durations(Name::WireDecode, mark)) * 1e9 / count,
    );
}

/// Floating-point operations of one odd-even factorization of a chain of
/// states of dimension `n` whose observation-like rows (prior included)
/// number `obs[i]`, *computed* from these block shapes (not counted):
/// Householder QR of an `r × c` block costs `2rc² − 2c³/3` and applying
/// its reflectors to `w` further columns `4rwc − 2wc²`, summed over the
/// three QR batches of every elimination level (see
/// `crates/core/src/factor.rs`).
pub fn factor_flops(n: usize, mut obs: Vec<f64>) -> f64 {
    fn qr(r: f64, c: f64, w: f64) -> f64 {
        let k = r.min(c);
        let factor = if r >= c {
            2.0 * r * c * c - 2.0 * c * c * c / 3.0
        } else {
            2.0 * c * r * r - 2.0 * r * r * r / 3.0
        };
        factor + 4.0 * r * w * k - 2.0 * w * k * k
    }
    let n = n as f64;
    let mut flops = 0.0;
    while obs.len() > 1 {
        let len = obs.len();
        for (t, &rows) in obs.iter().enumerate() {
            let next = if t + 1 < len { n } else { 0.0 };
            if t % 2 == 0 {
                // Step 1: [C_t; E_{t+1}] against column t, applied to
                // D_{t+1} and the right-hand side.
                flops += qr(rows + next, n, next + 1.0);
                if t > 0 {
                    // Step 2: [D_t; R̂_t], applied to the left neighbour's
                    // block, the fill and the right-hand side.
                    flops += qr(2.0 * n, n, n + next + 1.0);
                }
            } else {
                // Step 3: compress the odd column's stack to n rows.
                flops += qr(n + rows, n, 1.0);
            }
        }
        obs = vec![n; len / 2];
    }
    flops + qr(obs[0], n, 1.0)
}

/// [`factor_flops`] of a whole model (one state dimension throughout,
/// which holds for the paper's benchmark).
fn model_flops(model: &LinearModel) -> f64 {
    let n = model.steps[0].state_dim;
    let obs = model
        .steps
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let prior = if i == 0 && model.prior.is_some() {
                n
            } else {
                0
            };
            (prior + s.observation.as_ref().map_or(0, |o| o.dim())) as f64
        })
        .collect();
    factor_flops(n, obs)
}
