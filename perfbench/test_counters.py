#!/usr/bin/env python3
"""Self-test of the benchmark. Run from the repository root:

    python3 perfbench/test_counters.py

1. For every workload, two traced runs with the same seed print identical
   deterministic counters (statements, rows read / written / renumbered,
   plan-cache hits and misses, catalog bumps, WAL bytes, appends, fsyncs and
   replayed statements), so a change can claim a count.
2. Every run's result names exactly the metrics BENCHMARK.json declares:
   end_to_end with --trace 0, per_layer with --trace 1.
3. In a directory holding only BENCHMARK.json and the benchmark's own files,
   the command fails without printing a result.

Exits non-zero on the first failure.
"""

import json
import os
import shutil
import subprocess
import sys

SEED = 7
SECONDS = 2
BARE = os.path.join(".bench_build", "bare")


def run(workload, trace, cwd="."):
    cmd = ["python3", "perfbench/run.py", "--workload", workload,
           "--seed", str(SEED), "--seconds", str(SECONDS),
           "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def result(proc, what):
    if proc.returncode != 0:
        sys.exit(f"FAIL {what}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    if not res["correct"] or res["failed"] != 0:
        sys.exit(f"FAIL {what}: {res['failed']} failed checks")
    return lines, res


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    declared = {0: [m["name"] for m in bench["end_to_end"]],
                1: [m["name"] for m in bench["per_layer"]]}
    for w in [w["name"] for w in bench["workloads"]]:
        counters = []
        for attempt in range(2):
            lines, res = result(run(w, 1), f"{w} --trace 1")
            if list(res["metrics"]) != declared[1]:
                sys.exit(f"FAIL {w}: per-layer metrics differ from BENCHMARK.json")
            counters.append([l for l in lines if l.startswith("# counters")])
        if not counters[0] or counters[0] != counters[1]:
            sys.exit(f"FAIL {w}: counters differ between same-seed runs:\n"
                     + "\n".join(counters[0]) + "\n--\n" + "\n".join(counters[1]))
        print(f"ok {w}: {len(counters[0])} counter lines repeat exactly")
        _, res = result(run(w, 0), f"{w} --trace 0")
        if list(res["metrics"]) != declared[0]:
            sys.exit(f"FAIL {w}: end-to-end metrics differ from BENCHMARK.json")
        print(f"ok {w}: end-to-end metrics match BENCHMARK.json")

    shutil.rmtree(BARE, ignore_errors=True)
    os.makedirs(BARE)
    shutil.copy("BENCHMARK.json", BARE)
    for path in bench["paths"]:
        shutil.copytree(path, os.path.join(BARE, path))
    proc = run(bench["workloads"][0]["name"], 0, cwd=BARE)
    shutil.rmtree(BARE, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        sys.exit("FAIL: the benchmark succeeded without the repository")
    print("ok: fails without the repository")


if __name__ == "__main__":
    main()
