#!/usr/bin/env python3
"""Compare two sets of benchmark results (files written by run.py --out).

    python3 perfbench/compare.py --base A1.json A2.json ... \
                                 --change B1.json B2.json ...

Both sets must come from the same context: core count, arena threads,
effective build type, compiler, machine, workload, run length and trace
mode. Results whose contexts differ are refused (exit 2), as are sets run
on different seeds. The git sha and source digest may differ; they name
what each side measured.

For every metric BENCHMARK.json lists for the trace mode, prints each
side's median and quartiles and a verdict against the metric's bound:
"worse" when the change's median is worse than the base median by more
than the bound, "unresolved" when the base's own spread (IQR / median)
exceeds the bound, otherwise "ok". Exit status 1 when any metric is
worse. A gain claim must also hold on the held-out seed below, which no
change may be tuned on.
"""

import argparse
import json
import os
import statistics
import sys

HELD_OUT_SEED = 7919
CONTEXT_KEYS = ("nproc", "arena_threads", "build_type", "compiler",
                "machine", "workload", "seconds", "trace")


def load(paths):
    runs = []
    for p in paths:
        with open(p) as f:
            runs.append(json.load(f))
    return runs


def context_of(run):
    return {k: run["context"].get(k) for k in CONTEXT_KEYS}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--change", nargs="+", required=True)
    args = ap.parse_args()

    base, change = load(args.base), load(args.change)
    ref = context_of(base[0])
    for run, path in zip(base + change, args.base + args.change):
        ctx = context_of(run)
        if ctx != ref:
            diff = {k: (ref[k], ctx[k]) for k in CONTEXT_KEYS if ref[k] != ctx[k]}
            print("refusing to compare: %s has a different context: %s"
                  % (path, diff), file=sys.stderr)
            return 2
    base_seeds = sorted(r["seed"] for r in base)
    change_seeds = sorted(r["seed"] for r in change)
    if base_seeds != change_seeds:
        print("refusing to compare: seeds differ (%s vs %s)"
              % (base_seeds, change_seeds), file=sys.stderr)
        return 2
    if any(not r["correct"] for r in base + change):
        print("warning: some runs are not correct", file=sys.stderr)
    for side, runs in (("base", base), ("change", change)):
        steal = max(r["context"].get("steal_share") or 0.0 for r in runs)
        if steal > 0.02:
            print("warning: %s runs saw up to %.1f%% CPU steal; wall-clock "
                  "metrics are noisy" % (side, 100 * steal), file=sys.stderr)

    spec_path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                             "BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    metrics = spec["per_layer" if ref["trace"] else "end_to_end"]

    print("workload %s, %d base / %d change runs, held-out seed %d %s"
          % (ref["workload"], len(base), len(change), HELD_OUT_SEED,
             "included" if HELD_OUT_SEED in base_seeds else "NOT included"))
    worse = False
    for m in metrics:
        name = m["name"]
        b = [r["metrics"][name]["value"] for r in base]
        c = [r["metrics"][name]["value"] for r in change]
        bq, cq = quartiles(b), quartiles(c)
        bound = m.get("bound")
        verdict = ""
        if bound is not None and bq[1] != 0:
            rel = (cq[1] - bq[1]) / abs(bq[1])
            if m["better"] == "higher":
                rel = -rel
            spread = (bq[2] - bq[0]) / abs(bq[1])
            if rel > bound:
                verdict = "worse (%+.1f%% > %.0f%%)" % (100 * rel, 100 * bound)
                worse = True
            elif spread > bound:
                verdict = "unresolved (base spread %.1f%%)" % (100 * spread)
            else:
                verdict = "ok (%+.1f%%)" % (100 * rel)
        print("  %-34s base %.6g [%.6g, %.6g]  change %.6g [%.6g, %.6g] %s  %s"
              % (name, bq[1], bq[0], bq[2], cq[1], cq[0], cq[2], m["unit"],
                 verdict))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
