#!/usr/bin/env python3
"""Self-test of the benchmark's own checks.

    python3 perfbench/test_perfbench.py

For every workload: a short clean run must exit 0 with a well-formed
result line, and a run with --inject-violation (a keep-out entry on
mission_terrain, a corrupted repeat on plan_10k, a corrupted served plan
on serve_zipf) must exit nonzero with "correct": false. A copy holding
only BENCHMARK.json and perfbench/ must fail without printing a result.
Takes about two minutes after the first build.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(workload, *extra, cwd=ROOT):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
           workload, "--seed", "3", "--seconds", "2", "--trace", "0"]
    return subprocess.run(cmd + list(extra), cwd=cwd, capture_output=True,
                          text=True, timeout=600)


def last_json(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {m["name"] for m in spec["end_to_end"]}
    failures = []

    for w in spec["workloads"]:
        name = w["name"]
        clean = run(name)
        result = last_json(clean.stdout)
        if clean.returncode != 0 or result is None:
            failures.append("%s: clean run exited %d" % (name, clean.returncode))
        elif set(result) != RESULT_KEYS or set(result["metrics"]) != wanted:
            failures.append("%s: malformed result %s" % (name, sorted(result)))
        elif not result["correct"] or result["failed"] != 0:
            failures.append("%s: clean run not correct" % name)

        bad = run(name, "--inject-violation")
        result = last_json(bad.stdout)
        if bad.returncode == 0 or result is None or result["correct"]:
            failures.append("%s: injected violation not caught (exit %d)"
                            % (name, bad.returncode))
        print("%s: clean exit %d, injected exit %d"
              % (name, clean.returncode, bad.returncode))

    # Only BENCHMARK.json and the benchmark's own files: the build cannot
    # find libanr's sources, so the command must fail without a result.
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    os.makedirs(build_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=build_dir) as d:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
        shutil.copytree(HERE, os.path.join(d, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(d, ".bench_build"))
        bare = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             spec["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
             "--trace", "0"], cwd=d, env=env, capture_output=True, text=True,
            timeout=180)
        if bare.returncode == 0 or bare.stdout.strip():
            failures.append("bare copy: exit %d, stdout %r"
                            % (bare.returncode, bare.stdout[:80]))
        print("bare copy: exit %d" % bare.returncode)

    for f in failures:
        print("FAIL: " + f)
    print("OK" if not failures else "%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
