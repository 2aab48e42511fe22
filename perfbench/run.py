#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]

Run from the root of a checkout.  The benchmark is a package of its own
(perfbench/Cargo.toml) depending on the repository's crates by path; it is
built with `cargo build --release --offline` into $CARGO_TARGET_DIR
(default `.bench_build`).  Spans and scratch files go to `.bench_out/`.
The last line of standard output is the JSON result; build output goes to
standard error.  The exit code is the benchmark's (0 only for a correct
run), or 2 when the repository's sources are missing or the build fails.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Longest a run may take before it is killed (a run must end within 180 s).
RUN_TIMEOUT_S = 170


def run_binary(exe, args, scratch, timeout):
    """Runs the benchmark binary; returns (exit code, stdout)."""
    proc = subprocess.Popen(
        [exe, *args, "--out", ".bench_out"], cwd=ROOT, stdout=subprocess.PIPE,
        text=True, env=dict(os.environ, TMPDIR=scratch), start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        # The session holds the benchmark and any cluster workers.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"perfbench: run exceeded {timeout:.0f} s", file=sys.stderr)
        return 3, ""


def main():
    if not os.path.isfile(os.path.join(ROOT, "crates", "kalman", "Cargo.toml")):
        print("perfbench: the repository's crates are missing; nothing to build",
              file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target) if not os.path.isabs(target) else target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, stdout=sys.stderr, env=dict(os.environ, CARGO_TARGET_DIR=target))
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    # A relative TMPDIR keeps the cluster's Unix socket paths inside the
    # checkout and short (socket paths are limited to ~108 bytes).
    scratch = os.path.join(".bench_out", "tmp")
    os.makedirs(os.path.join(ROOT, scratch), exist_ok=True)
    exe = os.path.join(target, "release", "kalman-perfbench")
    code, out = run_binary(exe, sys.argv[1:], scratch, RUN_TIMEOUT_S)
    print(out, end="")
    return code


if __name__ == "__main__":
    sys.exit(main())
