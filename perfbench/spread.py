#!/usr/bin/env python3
"""Runs workloads over several seeds and reports each metric's spread.

    python3 perfbench/spread.py [--seeds 1,2,3,4,5] [--seconds N] [--trace 0|1] workload...

For every metric it prints the median over the seeds and the distance
between the first and third quartiles (statistics.quantiles, n=4) as a
share of the median -- the spread a metric's bound in BENCHMARK.json has
to cover.  `--seconds` defaults to BENCHMARK.json's run_seconds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1,2,3,4,5")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", default="0")
    ap.add_argument("workloads", nargs="+")
    a = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    ok = True
    for w in a.workloads:
        values = {}
        for seed in a.seeds.split(","):
            t = time.time()
            p = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                 "--seed", seed, "--seconds", str(a.seconds), "--trace", a.trace],
                cwd=ROOT, capture_output=True, text=True)
            last = p.stdout.strip().splitlines()[-1] if p.stdout.strip() else "{}"
            r = json.loads(last) if last.startswith("{") else {}
            print(f"{w} seed {seed}: exit {p.returncode}, correct {r.get('correct')}, "
                  f"{time.time() - t:.1f} s", flush=True)
            if p.returncode != 0 or not r.get("correct"):
                ok = False
                sys.stderr.write(p.stderr[-2000:])
                continue
            for name, m in r["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, vs in values.items():
            med = statistics.median(vs)
            if len(vs) >= 2 and med != 0:
                q = statistics.quantiles(vs, n=4)
                spread = (q[2] - q[0]) / abs(med)
            else:
                spread = 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = "  <-- above a third of its bound" if spread <= bound else "  <-- ABOVE BOUND"
            print(f"  {w:16s} {name:28s} median {med:<14.6g} spread {spread:6.3f}"
                  f" bound {bound}{flag}")
            print("      values " + " ".join(f"{v:.4g}" for v in vs))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
