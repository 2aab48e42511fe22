//! The metric catalogue and the result line.
//!
//! `BENCHMARK.json` at the repository root lists the same names and units;
//! `perfbench/smoke.py` checks that the two agree.

use std::collections::BTreeMap;

/// End-to-end metrics: printed by every untraced run (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_eps", "events/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("ok_frac", "frac"),
    ("smooth_s", "s"),
    ("smooth_tail_s", "s"),
    ("smooth_par_s", "s"),
];

/// Per-layer metrics: printed by every traced run (`--trace 1`).  A layer
/// a workload does not exercise reports 0.  The `cluster` layer's metrics
/// are apart, in [`CLUSTER_LAYER`].
pub const PER_LAYER: &[(&str, &str)] = &[
    ("model.whiten_s", "s"),
    ("odd_even.factor_s", "s"),
    ("odd_even.solve_s", "s"),
    ("odd_even.selinv_s", "s"),
    ("odd_even.plan_build_s", "s"),
    ("odd_even.factor_flops", "flop"),
    ("odd_even.factor_gflops", "GFLOP/s"),
    ("odd_even.dispatch.odd_even", "1/step"),
    ("odd_even.dispatch.scan", "1/step"),
    ("odd_even.dispatch.rts", "1/step"),
    ("odd_even.dispatch.fallback", "1/step"),
    ("dense.dispatch.scalar", "1/step"),
    ("dense.dispatch.simd", "1/step"),
    ("dense.dispatch.mono", "1/step"),
    ("par.factor_speedup_p2", "x"),
    ("par.selinv_speedup_p2", "x"),
    ("seq.rts_s", "s"),
    ("seq.odd_even_over_rts", "x"),
    ("associative.smooth_s", "s"),
    ("stream.plan_misses", "count"),
    ("stream.plan_hit_ratio", "frac"),
    ("stream.flushes", "count"),
    ("stream.finalized_steps", "count"),
    ("stream.flush_p50_us", "us"),
    ("stream.flush_p99_us", "us"),
    ("serve.submit_p50_us", "us"),
    ("serve.submit_p99_us", "us"),
    ("serve.throttled_frac", "frac"),
    ("serve.drain_busy_frac", "frac"),
    ("serve.drain_p99_us", "us"),
    ("serve.ops_per_drain", "count"),
    ("serve.queue_wait_p99_us", "us"),
    ("wire.bytes_per_event", "B"),
    ("wire.encode_ns_per_event", "ns"),
    ("wire.decode_ns_per_event", "ns"),
    ("alloc.per_event", "1/event"),
    ("driver.offered_eps", "events/s"),
    ("driver.late_p99_ms", "ms"),
    ("driver.backlog_max", "count"),
    ("driver.unattributed_frac", "frac"),
    ("trace.overhead_frac", "frac"),
];

/// Per-layer metrics of the `cluster` layer, printed by traced runs of
/// `cluster_uniform` only: that workload is not in `BENCHMARK.json`, which
/// therefore does not list them (on its workloads they would read 0).
pub const CLUSTER_LAYER: &[(&str, &str)] = &[
    ("cluster.send_p50_us", "us"),
    ("cluster.send_p99_us", "us"),
    ("cluster.send_busy_frac", "frac"),
    ("cluster.poll_busy_frac", "frac"),
    ("cluster.wal_depth_max", "count"),
    ("cluster.restarts", "count"),
    ("cluster.spawn_s", "s"),
];

/// The per-layer dispatch metrics, in [`dispatch_counts`] order.
const DISPATCH: [&str; 7] = [
    "odd_even.dispatch.odd_even",
    "odd_even.dispatch.scan",
    "odd_even.dispatch.rts",
    "odd_even.dispatch.fallback",
    "dense.dispatch.scalar",
    "dense.dispatch.simd",
    "dense.dispatch.mono",
];

/// The process-wide smoother-backend and dense-kernel dispatch counters.
pub fn dispatch_counts() -> [u64; 7] {
    let (odd_even, scan, rts, fallback) = kalman::odd_even::backend_dispatch_counts();
    let (scalar, simd, mono) = kalman::dense::kernel_dispatch_counts();
    [odd_even, scan, rts, fallback, scalar, simd, mono]
}

/// One run's findings: metric values, correctness checks, operation
/// counts and provenance.
#[derive(Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    checks: Vec<(String, bool, String)>,
    provenance: Vec<(String, String)>,
    /// Operations attempted (smooth calls, or events offered plus stream
    /// finishes).
    pub attempted: u64,
    /// Operations that returned an error, plus steps never finalized.
    pub failed: u64,
}

impl Report {
    /// Records a metric; the name must be in the catalogue.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END
                .iter()
                .chain(PER_LAYER)
                .chain(CLUSTER_LAYER)
                .any(|(n, _)| *n == name),
            "metric {name} is not in the catalogue"
        );
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(
            self.values.insert(name, value).is_none(),
            "metric {name} set twice"
        );
    }

    /// Reports 0 for every per-layer metric named `<layer>.*`: the layer is
    /// not exercised (or not visible) on this workload.
    pub fn zero_layer(&mut self, layer: &str) {
        for (name, _) in PER_LAYER {
            if name.split('.').next() == Some(layer) {
                self.set(name, 0.0);
            }
        }
    }

    /// Records the dispatch counters' deltas between two
    /// [`dispatch_counts`] readings, per unit of `per`.
    pub fn set_dispatch(&mut self, before: [u64; 7], after: [u64; 7], per: f64) {
        for (name, (a, b)) in DISPATCH.iter().zip(before.iter().zip(after)) {
            self.set(name, (b - a) as f64 / per);
        }
    }

    /// Records a correctness check.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push((name.to_string(), ok, detail.into()));
    }

    /// Records a provenance entry (printed, and written with the trace).
    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.provenance.push((key.to_string(), value.to_string()));
    }

    /// The provenance entries so far.
    pub fn provenance(&self) -> &[(String, String)] {
        &self.provenance
    }

    /// `true` when every check passed.  Failed operations do not make a
    /// run incorrect: they are counted in `failed` and lower `ok_frac`.
    pub fn correct(&self) -> bool {
        !self.checks.is_empty() && self.checks.iter().all(|c| c.1)
    }

    /// Prints provenance, checks and metrics (one per line, with units),
    /// then the result line.  Returns the process exit code: 0 only when
    /// the run was correct.  A failed run prints no metric values.
    pub fn finish(&self, traced: bool) -> i32 {
        for (k, v) in &self.provenance {
            println!("provenance {k} = {v}");
        }
        for (name, ok, detail) in &self.checks {
            let verdict = if *ok { "ok" } else { "FAILED" };
            println!("check {name}: {verdict} ({detail})");
        }
        let catalogue: Vec<_> = if traced {
            let cluster = CLUSTER_LAYER
                .iter()
                .filter(|(n, _)| self.values.contains_key(n));
            PER_LAYER.iter().chain(cluster).collect()
        } else {
            END_TO_END.iter().collect()
        };
        let correct = self.correct();
        let mut metrics = Vec::new();
        if correct {
            for (name, unit) in catalogue {
                let value = *self
                    .values
                    .get(name)
                    .unwrap_or_else(|| panic!("metric {name} was not measured"));
                println!("metric {name} = {value:?} {unit}");
                metrics.push(format!(
                    "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
                ));
            }
        }
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
        if correct {
            0
        } else {
            1
        }
    }
}
