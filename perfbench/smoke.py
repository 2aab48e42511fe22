#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at a tiny size.

    python3 perfbench/smoke.py

Run from anywhere; it works on the checkout that holds it.  For each
workload BENCHMARK.json names, and for serve_uniform and cluster_uniform
(runnable, but not in BENCHMARK.json), untraced and traced, it asserts that the run exits 0 with a correct result, that every
metric BENCHMARK.json names prints exactly once with its unit (and no other
metric prints, but for the cluster layer's on cluster_uniform), and that
every correctness check of the workload ran and passed.  It also checks that the cluster's outputs equal in-process serving
at the same seed, that a pinned environment variable is refused, and that a
directory holding only BENCHMARK.json and perfbench/ fails without printing
a result.
"""

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]

CHECKS = {
    ("batch_paper", "0"): ["seq_smooth_vs_rts", "par_smooth_vs_rts"],
    ("batch_paper", "1"): ["traced_phases_vs_rts", "production_smooth_vs_rts",
                           "associative_vs_rts", "wire_round_trip"],
}
SERVING = ["no_step_finalized_twice_or_out_of_order",
           "sampled_streams_bitwise_equal_to_standalone_replay",
           "parallel_replay_bitwise_equal_to_sequential",
           "release_state_matches_canonical_cadence"]
CLUSTER = ["cluster_no_restarts", "cluster_bitwise_equal_to_in_process"]
# cluster_uniform's traced run prints the cluster layer's metrics besides
# BENCHMARK.json's.
CLUSTER_METRICS = {"cluster.send_p50_us": "us", "cluster.send_p99_us": "us",
                   "cluster.send_busy_frac": "frac", "cluster.poll_busy_frac": "frac",
                   "cluster.wal_depth_max": "count", "cluster.restarts": "count",
                   "cluster.spawn_s": "s"}
for w in ["serve_uniform", "serve_mixed", "cluster_uniform"]:
    extra = CLUSTER if w == "cluster_uniform" else []
    CHECKS[(w, "0")] = SERVING + extra
    CHECKS[(w, "1")] = SERVING + extra + ["wire_round_trip"]


def run(args, cwd=ROOT, env=None):
    return subprocess.run(RUN + args, cwd=cwd, capture_output=True, text=True,
                          env=env, timeout=600)


def fail(msg):
    print(f"FAIL: {msg}")
    sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    digests = {}
    for w in [x["name"] for x in bench["workloads"]] + ["serve_uniform", "cluster_uniform"]:
        for trace, key in [("0", "end_to_end"), ("1", "per_layer")]:
            p = run(["--workload", w, "--seed", "7", "--seconds", "1",
                     "--trace", trace, "--smoke"])
            out = p.stdout.splitlines()
            if p.returncode != 0 or not out:
                fail(f"{w} trace {trace}: exit {p.returncode}\n{p.stdout}\n{p.stderr}")
            result = json.loads(out[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{w}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                fail(f"{w} trace {trace}: result {out[-1]}")
            want = {m["name"]: m["unit"] for m in bench[key]}
            if w == "cluster_uniform" and trace == "1":
                want.update(CLUSTER_METRICS)
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            if got != want:
                fail(f"{w} trace {trace}: metrics differ from BENCHMARK.json: "
                     f"missing {sorted(set(want) - set(got))}, "
                     f"extra {sorted(set(got) - set(want))}")
            printed = [re.match(r"metric (\S+) = (\S+) (\S+)$", line)
                       for line in out if line.startswith("metric ")]
            names = [m.group(1) for m in printed if m]
            if sorted(names) != sorted(want) or len(names) != len(set(names)):
                fail(f"{w} trace {trace}: printed metrics {names}")
            for m in printed:
                if m.group(3) != want[m.group(1)]:
                    fail(f"{w}: {m.group(1)} printed with unit {m.group(3)}")
            check_lines = [line for line in out if line.startswith("check ")]
            checks = [line.split(":")[0][len("check "):] for line in check_lines]
            for c in CHECKS[(w, trace)]:
                if checks.count(c) != 1:
                    fail(f"{w} trace {trace}: check {c} ran {checks.count(c)} times")
            if any(": ok" not in line for line in check_lines):
                fail(f"{w} trace {trace}: a check failed")
            for line in out:
                if line.startswith("provenance output_digest = ") and trace == "0":
                    digests.setdefault(w, set()).add(line.split(" = ")[1])
            print(f"ok: {w} trace {trace} ({len(names)} metrics, {len(checks)} checks)")
    if len(digests["serve_uniform"]) != 1 or digests["serve_uniform"] != digests["cluster_uniform"]:
        fail(f"cluster outputs differ from in-process serving: {digests}")
    print("ok: cluster_uniform outputs equal serve_uniform at the same seed")

    env = dict(os.environ, KALMAN_BACKEND="scan")
    p = run(["--workload", "serve_uniform", "--seed", "1", "--seconds", "1",
             "--trace", "0", "--smoke"], env=env)
    if p.returncode == 0 or '"correct"' in p.stdout:
        fail("a pinned environment variable was not refused")
    print("ok: a pinned environment variable is refused")

    bare = os.path.join(ROOT, ".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("target", "__pycache__"))
    p = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"),
                        "--workload", "batch_paper", "--seed", "1", "--seconds", "1",
                        "--trace", "0"], cwd=bare, capture_output=True, text=True,
                       timeout=180)
    shutil.rmtree(bare)
    if p.returncode == 0 or '"correct"' in p.stdout:
        fail("a directory without the repository's sources printed a result")
    print("ok: without the repository's sources the benchmark fails without a result")
    print("smoke test passed")


if __name__ == "__main__":
    main()
