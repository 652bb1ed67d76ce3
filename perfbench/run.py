#!/usr/bin/env python3
"""libanr benchmark: build the runner from source, run one workload, print
one JSON result line.

    python3 perfbench/run.py --workload plan_10k|serve_zipf|mission_terrain
                             --seed N --seconds S --trace 0|1
                             [--out FILE] [--inject-violation]

Run from the repository root. The runner and libanr are built (Release)
into $CARGO_TARGET_DIR, default .bench_build, on first use; later runs
only re-check the build. --trace 0 reports every end-to-end metric in
BENCHMARK.json, --trace 1 every per-layer metric. The last stdout line is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

and the line before it is the full result (context stamp, sample counts,
tail percentiles, reconciliation details), which --out also writes to FILE
for perfbench/compare.py. The exit status is nonzero when a plan broke the
contract, a repeat was not byte-identical, or the workload could not run.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configures (once) and builds the runner; returns its path. The
    compiler's scratch files go to the build directory, not the system
    temporary directory."""
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", build_dir, "--target", "anr_perfbench",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                      env=env).returncode:
        fail("build failed")
    return os.path.join(build_dir, "anr_perfbench")


def source_digest():
    """sha256 over libanr's sources and the benchmark's own files: names
    the code measured when the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".pyc",)):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def cpu_jiffies():
    """(steal, total) jiffies over all CPUs from /proc/stat, or None."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        return None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--out")
    ap.add_argument("--inject-violation", action="store_true")
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(spec_path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)
    wanted = spec["per_layer" if args.trace == "1" else "end_to_end"]

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    binary = build(build_dir)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.inject_violation:
        cmd.append("--inject-violation")
    before = cpu_jiffies()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    after = cpu_jiffies()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail("runner exited %d without a result" % proc.returncode)
    result = json.loads(lines[-1])

    result["context"] = dict(result["detail"].pop("context"))
    result["context"].update({
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": int(args.trace),
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        # Share of all CPU time the hypervisor gave to other guests while
        # the runner ran: a noisy-neighbour flag for wall-clock numbers.
        "steal_share": (after[0] - before[0]) / max(1, after[1] - before[1])
                       if before and after else None,
    })

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            fail("runner did not report metric %s" % m["name"])
        if got["unit"] != m["unit"]:
            fail("metric %s has unit %s, BENCHMARK.json says %s"
                 % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = got
    result["metrics"] = metrics

    if args.out:
        with open(args.out, "w") as f:
            json.dump(result, f, indent=1, sort_keys=True)
            f.write("\n")
    print(json.dumps(result, sort_keys=True))
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    sys.exit(0 if result["correct"] and proc.returncode == 0 else 1)


if __name__ == "__main__":
    main()
