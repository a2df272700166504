#!/usr/bin/env python3
"""Build and run the repository benchmark (described in BENCHMARK.json).

    python3 perfbench/run.py --workload browse --seed 1 --seconds 10 --trace 0

Run it from the root of the repository. It builds perfbench/bench.exe from
source with dune (release profile, build directory .bench_build/dune, no
shared cache), then runs it with the same arguments. The benchmark's last
line of standard output is its JSON result. The exit code is non-zero if the
build fails, a check fails or a step runs out of time.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ["browse", "edit", "durable-edit"]
BUILD_DIR = os.path.join(".bench_build", "dune")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def find_dune():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    opam = shutil.which("opam")
    if opam:
        return [opam, "exec", "--", "dune"]
    return None


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    if not os.path.isfile("dune-project"):
        print("perfbench: no dune-project here; run from the repository root",
              file=sys.stderr)
        return 2
    dune = find_dune()
    if dune is None:
        print("perfbench: dune not found", file=sys.stderr)
        return 2

    os.makedirs(os.path.dirname(BUILD_DIR), exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = dune + ["build", "--root", ".",
                    "--build-dir", os.path.abspath(BUILD_DIR),
                    "--profile", "release", "--cache", "disabled", "-j", "2",
                    "--display", "quiet", "./perfbench/bench.exe"]
    try:
        # build output goes to stderr: stdout carries only the result
        built = subprocess.run(build, stdout=sys.stderr, env=env,
                               timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 2
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    exe = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    sys.stdout.flush()
    try:
        ran = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 2
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
