//! The repository's benchmark: one paper-scale batch workload and three
//! serving workloads, driven through the public `kalman` API.
//!
//! ```text
//! kalman-perfbench --workload <batch_paper|serve_uniform|serve_mixed|cluster_uniform>
//!                  --seed <n> --seconds <s> --trace <0|1> [--smoke] [--out <dir>]
//! ```
//!
//! An untraced run (`--trace 0`) prints the end-to-end metrics; a traced
//! run (`--trace 1`) records spans around calls into each layer and prints
//! the per-layer metrics.  Every run checks its outputs and ends with one
//! JSON result line.  `--smoke` shrinks every workload to a tiny size.
//! See `perfbench/README.md` for the workloads and the metric map.

mod batch;
mod report;
mod serving;
mod stats;
mod trace;

use report::Report;
use std::path::PathBuf;

/// Environment variables that silently select a different program.
const PINNED_ENV: &[&str] = &[
    "KALMAN_BACKEND",
    "KALMAN_REF_KERNELS",
    "KALMAN_WS_DISABLE",
    "RAYON_NUM_THREADS",
];

/// Worker threads of the pool the benchmark builds for parallel runs.
pub const POOL_THREADS: usize = 2;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut out = PathBuf::from(".bench_out");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => seconds = Some(value()?.parse::<f64>().map_err(|e| e.to_string())?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--out" => out = PathBuf::from(value()?),
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds must be positive, not {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        smoke,
        out,
    })
}

fn main() {
    // A cluster worker is a re-exec of this binary: become one before
    // anything else runs (never returns in that case).
    kalman::cluster::worker_entry_from_env();

    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let pinned: Vec<&str> = PINNED_ENV
        .iter()
        .copied()
        .filter(|v| std::env::var_os(v).is_some())
        .collect();
    if !pinned.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set: each selects a different program",
            pinned.join(", ")
        );
        std::process::exit(2);
    }
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("perfbench: cannot create {}: {e}", args.out.display());
        std::process::exit(2);
    }

    let mut report = Report::default();
    report.note("workload", &args.workload);
    report.note("seed", args.seed);
    report.note("seconds", args.seconds);
    report.note("trace", u8::from(args.trace));
    report.note("smoke", args.smoke);
    report.note("simd_backend", kalman::dense::simd_backend());
    report.note("nproc", kalman::par::available_parallelism());
    report.note("pool_threads", POOL_THREADS);
    report.note("obs_enabled", kalman::obs::enabled());
    report.note("machine_probe_s", format!("{:?}", stats::machine_probe_s()));

    let mut tracer = trace::Tracer::new(args.trace, 1 << 20);
    match args.workload.as_str() {
        "batch_paper" => batch::run(&args, &mut report, &mut tracer),
        "serve_uniform" | "serve_mixed" | "cluster_uniform" => {
            serving::run(&args, &mut report, &mut tracer)
        }
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    }
    report.note(
        "machine_probe_end_s",
        format!("{:?}", stats::machine_probe_s()),
    );
    if args.trace {
        report.note("trace_dropped_spans", tracer.dropped());
        // One file per workload, replaced by each traced run (the header
        // records the seed), so repeated runs do not fill the disk.
        let path = args.out.join(format!("trace-{}.tsv", args.workload));
        if let Err(e) = tracer.write(&path, report.provenance()) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            std::process::exit(2);
        }
        for (layer, secs) in tracer.layer_self_times() {
            println!("layer_self_s {layer} = {secs:?}");
        }
        println!("trace written to {}", path.display());
    }
    std::process::exit(report.finish(args.trace));
}
