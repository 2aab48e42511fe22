//! Bitwise determinism of the parallel paths under the real work-stealing
//! pool.
//!
//! The odd-even pipeline's parallel primitives are index-stable: every
//! per-step computation depends only on its inputs, and ordered collects
//! write pre-assigned slots.  So `ExecPolicy::par()` must produce results
//! **bitwise identical** to `ExecPolicy::Seq` — for any thread count, any
//! grain, and any steal interleaving.  These tests pin that contract now
//! that scheduling is genuinely concurrent; a data race or a
//! reduction-order change regresses loudly here.

use kalman::model::{generators, LinearModel};
use kalman::par::{run_with_threads, ExecPolicy};
use kalman::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const THREADS: [usize; 4] = [1, 2, 4, 8];
const GRAINS: [usize; 3] = [1, 10, 1000];

/// Asserts two smoother outputs are bitwise identical (no tolerance).
fn assert_bitwise(seq: &Smoothed, par: &Smoothed, what: &str) {
    assert_eq!(seq.len(), par.len(), "{what}: length");
    for i in 0..seq.len() {
        assert!(
            seq.mean(i) == par.mean(i),
            "{what}: state {i} means differ bitwise"
        );
        match (seq.covariance(i), par.covariance(i)) {
            (None, None) => {}
            (Some(a), Some(b)) => assert!(
                a.max_abs_diff(b) == 0.0,
                "{what}: state {i} covariances differ bitwise"
            ),
            _ => panic!("{what}: state {i} covariance presence differs"),
        }
    }
}

/// Odd-even smoother + SelInv covariances across the thread × grain matrix.
#[test]
fn odd_even_and_selinv_are_bitwise_equal_to_sequential() {
    let mut rng = ChaCha8Rng::seed_from_u64(4100);
    let model = generators::paper_benchmark(&mut rng, 3, 400, true);
    let seq = odd_even_smooth(
        &model,
        OddEvenOptions {
            covariances: true,
            policy: ExecPolicy::Seq,
            ..OddEvenOptions::default()
        },
    )
    .unwrap();
    for threads in THREADS {
        for grain in GRAINS {
            let par = run_with_threads(threads, || {
                odd_even_smooth(
                    &model,
                    OddEvenOptions {
                        covariances: true,
                        policy: ExecPolicy::par_with_grain(grain),
                        ..OddEvenOptions::default()
                    },
                )
                .unwrap()
            });
            assert_bitwise(&seq, &par, &format!("threads={threads} grain={grain}"));
        }
    }
}

/// The blocked dense kernels (packed GEMM microkernel, short-reflector
/// triangular-pentagonal eliminations) must not disturb the bitwise
/// Seq-vs-Par contract: at n = 16 the SelInv products run through the
/// blocked GEMM path, so this pins that the blocked kernels perform
/// identical arithmetic regardless of scheduling.
#[test]
fn blocked_kernels_stay_bitwise_equal_across_policies() {
    let mut rng = ChaCha8Rng::seed_from_u64(4101);
    let model = generators::paper_benchmark(&mut rng, 16, 60, true);
    let seq = odd_even_smooth(
        &model,
        OddEvenOptions {
            covariances: true,
            policy: ExecPolicy::Seq,
            ..OddEvenOptions::default()
        },
    )
    .unwrap();
    for threads in THREADS {
        for grain in [1usize, 10] {
            let par = run_with_threads(threads, || {
                odd_even_smooth(
                    &model,
                    OddEvenOptions {
                        covariances: true,
                        policy: ExecPolicy::par_with_grain(grain),
                        ..OddEvenOptions::default()
                    },
                )
                .unwrap()
            });
            assert_bitwise(
                &par,
                &seq,
                &format!("blocked kernels, threads={threads} grain={grain}"),
            );
        }
    }
}

/// The SIMD-width-aware and const-generic monomorphized kernels are pure
/// functions of their inputs — lane width changes *which* arithmetic runs,
/// never the order it runs in across tasks — so with SIMD active and the
/// plan selecting `Mono4`/`Mono8`/`Mono16`, `ExecPolicy::par()` must stay
/// bitwise identical to `ExecPolicy::Seq` at every monomorphized width.
#[test]
fn simd_and_mono_kernels_stay_bitwise_equal_across_policies() {
    for (n, k, seed) in [(4usize, 90usize, 4400u64), (8, 70, 4401), (16, 50, 4402)] {
        // The plan must actually be selecting the monomorphic kernel here,
        // otherwise this pin silently degrades to the blocked-kernel test.
        let dims = vec![n; k + 1];
        let schedule = PlanSchedule::build(&dims);
        assert_eq!(
            schedule.kernels(),
            kalman::dense::KernelKind::for_dim(n),
            "uniform n={n} plan should monomorphize"
        );

        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let model = generators::paper_benchmark(&mut rng, n, k, true);
        let seq = odd_even_smooth(
            &model,
            OddEvenOptions {
                covariances: true,
                policy: ExecPolicy::Seq,
                ..OddEvenOptions::default()
            },
        )
        .unwrap();
        for threads in [2usize, 8] {
            for grain in [1usize, 10] {
                let par = run_with_threads(threads, || {
                    odd_even_smooth(
                        &model,
                        OddEvenOptions {
                            covariances: true,
                            policy: ExecPolicy::par_with_grain(grain),
                            ..OddEvenOptions::default()
                        },
                    )
                    .unwrap()
                });
                assert_bitwise(
                    &seq,
                    &par,
                    &format!("mono n={n}, threads={threads} grain={grain}"),
                );
            }
        }
    }
}

/// The associative-scan backend's combine tree is fixed by its
/// `ScanSchedule`, and parallel execution writes pre-assigned slots — so
/// the scan must satisfy the same bitwise Seq≡Par contract the odd-even
/// backend does, across the full thread × grain matrix.
#[test]
fn associative_scan_is_bitwise_equal_to_sequential() {
    let mut rng = ChaCha8Rng::seed_from_u64(4500);
    let model = generators::paper_benchmark(&mut rng, 3, 400, true);
    let seq = associative_smooth(
        &model,
        AssociativeOptions {
            policy: ExecPolicy::Seq,
        },
    )
    .unwrap();
    for threads in THREADS {
        for grain in GRAINS {
            let par = run_with_threads(threads, || {
                associative_smooth(
                    &model,
                    AssociativeOptions {
                        policy: ExecPolicy::par_with_grain(grain),
                    },
                )
                .unwrap()
            });
            assert_bitwise(&seq, &par, &format!("scan threads={threads} grain={grain}"));
        }
    }
}

/// Drives `models` through a pool under `policy`, returning each stream's
/// finalized means in order.
fn drive_pool(models: &[LinearModel], policy: ExecPolicy) -> Vec<Vec<Vec<f64>>> {
    let opts = StreamOptions {
        lag: 16,
        flush_every: 4,
        covariances: false,
        policy: ExecPolicy::Seq, // within-window; the pool batches across
        ..StreamOptions::default()
    };
    let mut pool = SmootherPool::new(policy);
    let ids: Vec<StreamId> = models
        .iter()
        .map(|m| {
            let p = m.prior.as_ref().unwrap();
            pool.insert(StreamingSmoother::with_prior(p.mean.clone(), p.cov.clone(), opts).unwrap())
        })
        .collect();
    let mut out: Vec<Vec<Vec<f64>>> = vec![Vec::new(); models.len()];
    let rounds = models.iter().map(|m| m.num_states()).max().unwrap();
    for si in 0..rounds {
        for (k, model) in models.iter().enumerate() {
            let Some(step) = model.steps.get(si) else {
                continue;
            };
            if si > 0 {
                pool.evolve(ids[k], step.evolution.clone().unwrap())
                    .unwrap();
            }
            if let Some(obs) = &step.observation {
                pool.observe(ids[k], obs.clone()).unwrap();
            }
        }
        for (id, steps) in pool.poll() {
            let k = ids.iter().position(|x| *x == id).unwrap();
            out[k].extend(steps.unwrap().into_iter().map(|f| f.mean));
        }
    }
    for (k, id) in ids.iter().enumerate() {
        let (tail, _) = pool.finish(*id).unwrap();
        out[k].extend(tail.into_iter().map(|f| f.mean));
    }
    out
}

/// `SmootherPool::poll` batches across streams with `for_each_mut`; under
/// any pool size and grain the per-stream outputs must be bitwise those of
/// the sequential batch loop.
#[test]
fn smoother_pool_poll_is_bitwise_deterministic() {
    let mut rng = ChaCha8Rng::seed_from_u64(4200);
    let models: Vec<LinearModel> = (0..6)
        .map(|_| generators::paper_benchmark(&mut rng, 2, 120, true))
        .collect();
    let reference = drive_pool(&models, ExecPolicy::Seq);
    assert_eq!(reference.iter().map(Vec::len).sum::<usize>(), 6 * 121);
    for threads in THREADS {
        for grain in GRAINS {
            let got = run_with_threads(threads, || {
                drive_pool(&models, ExecPolicy::par_with_grain(grain))
            });
            assert!(
                got == reference,
                "pool output changed under threads={threads} grain={grain}"
            );
        }
    }
}

/// Pooled polls route every same-shaped stream through one shared
/// symbolic `PlanSchedule` (the pool's plan cache) and flush via the
/// allocation-free `poll_into` batch.  Neither sharing a schedule across
/// concurrently flushing streams nor the slot-reusing batch may perturb a
/// single bit relative to the sequential loop.
#[test]
fn pooled_polls_through_the_shared_plan_cache_are_bitwise_deterministic() {
    let mut rng = ChaCha8Rng::seed_from_u64(4300);
    let models: Vec<LinearModel> = (0..6)
        .map(|_| generators::paper_benchmark(&mut rng, 2, 120, true))
        .collect();
    let opts = StreamOptions {
        lag: 16,
        flush_every: 4,
        covariances: false,
        policy: ExecPolicy::Seq,
        ..StreamOptions::default()
    };

    type PoolRun = (Vec<Vec<Vec<f64>>>, (usize, u64, u64));
    let drive = |policy: ExecPolicy| -> PoolRun {
        let mut pool = SmootherPool::new(policy);
        let ids: Vec<StreamId> = models
            .iter()
            .map(|m| {
                let p = m.prior.as_ref().unwrap();
                pool.insert(
                    StreamingSmoother::with_prior(p.mean.clone(), p.cov.clone(), opts).unwrap(),
                )
            })
            .collect();
        let mut out: Vec<Vec<Vec<f64>>> = vec![Vec::new(); models.len()];
        let mut batch = PollBatch::new();
        for si in 0..models[0].num_states() {
            for (k, model) in models.iter().enumerate() {
                let step = &model.steps[si];
                if si > 0 {
                    pool.evolve(ids[k], step.evolution.clone().unwrap())
                        .unwrap();
                }
                if let Some(obs) = &step.observation {
                    pool.observe(ids[k], obs.clone()).unwrap();
                }
            }
            pool.poll_into(&mut batch);
            for entry in batch.entries() {
                let k = ids.iter().position(|x| *x == entry.id()).unwrap();
                out[k].extend(entry.result().unwrap().iter().map(|f| f.mean.clone()));
            }
        }
        for (k, id) in ids.iter().enumerate() {
            let (tail, _) = pool.finish(*id).unwrap();
            out[k].extend(tail.into_iter().map(|f| f.mean));
        }
        (out, pool.plan_cache_stats())
    };

    let (reference, (shapes, _, misses)) = drive(ExecPolicy::Seq);
    assert_eq!(shapes, 1, "six identical streams share one schedule");
    assert_eq!(misses, 1);
    assert_eq!(reference.iter().map(Vec::len).sum::<usize>(), 6 * 121);
    for threads in THREADS {
        for grain in GRAINS {
            let (got, (got_shapes, _, _)) =
                run_with_threads(threads, || drive(ExecPolicy::par_with_grain(grain)));
            assert_eq!(got_shapes, 1);
            assert!(
                got == reference,
                "shared-plan pool output changed under threads={threads} grain={grain}"
            );
        }
    }
}

/// Scheduler stress: `join` nested inside `install`, recursing deep enough
/// to guarantee stealing, while several OS threads run their own pools
/// (plus the global one) concurrently.
#[test]
fn nested_joins_and_concurrent_pools_stress() {
    fn pairwise_sum(range: std::ops::Range<u64>) -> u64 {
        let len = range.end - range.start;
        if len <= 5 {
            range.sum()
        } else {
            let mid = range.start + len / 2;
            let (a, b) = rayon::join(
                || pairwise_sum(range.start..mid),
                || pairwise_sum(mid..range.end),
            );
            a + b
        }
    }

    let handles: Vec<_> = (0..4)
        .map(|t| {
            std::thread::spawn(move || {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(1 + t)
                    .build()
                    .unwrap();
                for _ in 0..10 {
                    let n = 20_000u64;
                    assert_eq!(pool.install(|| pairwise_sum(0..n)), n * (n - 1) / 2);
                }
            })
        })
        .collect();
    // The calling thread hammers the global pool at the same time.
    for _ in 0..10 {
        let n = 10_000u64;
        assert_eq!(pairwise_sum(0..n), n * (n - 1) / 2);
    }
    for h in handles {
        h.join().unwrap();
    }
}
