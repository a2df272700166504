#!/usr/bin/env python3
"""Record the benchmark into a BENCH file, or check its counters against one.

    python3 bench/record.py BENCH_<n>.json   # record (make bench-record)
    python3 bench/record.py                  # check (make bench-smoke)

Run it from the repository root. Recording runs every workload of
BENCHMARK.json through perfbench/run.py twice: untraced for the benchmark's
run_seconds, and traced at a fixed seed and length. The file keeps both
result lines, the traced run's `# counters` lines, the line count of lib/
and the commit the tree is based on (git rev-parse HEAD).

Checking re-runs only the traced runs, with the seed and length of the
highest-numbered BENCH_*.json, and fails unless every `# counters` line
equals the file's. The counters (statements, rows read, written and
renumbered, plan-cache hits and misses, catalog bumps, WAL traffic) repeat
exactly for a seed, so any difference is a change in the work a query or
update does. Timing is not checked.
"""

import difflib
import glob
import json
import re
import subprocess
import sys

SEED = 1
SECONDS = 4


def run(workload, seed, seconds, trace):
    cmd = ["python3", "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"bench: {' '.join(cmd)} exited {proc.returncode}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), [l for l in lines if l.startswith("# counters")]


def lib_lines():
    files = (glob.glob("lib/**/*.ml", recursive=True)
             + glob.glob("lib/**/*.mli", recursive=True))
    return sum(open(f, "rb").read().count(b"\n") for f in files)


def record(path, workloads, run_seconds):
    head = subprocess.run(["git", "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                          text=True, check=True).stdout.strip()
    out = {"commit": head, "lib_lines": lib_lines(),
           "seed": SEED, "seconds": SECONDS, "workloads": {}}
    for w in workloads:
        result, _ = run(w, SEED, run_seconds, 0)
        traced, counters = run(w, SEED, SECONDS, 1)
        out["workloads"][w] = {"result": result, "traced": traced,
                               "counters": counters}
    with open(path, "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")
    print(f"bench: wrote {path}")


def check(workloads):
    numbered = {int(m.group(1)): p for p in glob.glob("BENCH_*.json")
                if (m := re.fullmatch(r"BENCH_(\d+)\.json", p))}
    if not numbered:
        sys.exit("bench: no BENCH_<n>.json to check against")
    path = numbered[max(numbered)]
    with open(path) as f:
        bench = json.load(f)
    failed = False
    for w in workloads:
        want = bench["workloads"].get(w, {}).get("counters", [])
        _, got = run(w, bench["seed"], bench["seconds"], 1)
        if got != want:
            failed = True
            print(f"bench: {w} counters differ from {path}:")
            for l in difflib.unified_diff(want, got, path, "this tree",
                                          lineterm=""):
                print(l)
    if failed:
        sys.exit("bench: FAIL. If the change in work is intended, record it: "
                 f"make bench-record OUT=BENCH_<n>.json (newest is {path})")
    print(f"bench: counters of {', '.join(workloads)} match {path}")


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    if len(sys.argv) > 1:
        record(sys.argv[1], workloads, spec["run_seconds"])
    else:
        check(workloads)


if __name__ == "__main__":
    main()
