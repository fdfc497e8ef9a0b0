#!/usr/bin/env python3
"""Build the benchmark program and run one workload.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload sweep --seed 2026 --seconds 25 --trace 0

bench.exe is built with dune into .bench_build/ (the dune cache is
disabled so nothing is written outside the checkout). With --trace 1 the
spans are written to .bench_build/trace-WORKLOAD.json. The last line of
standard output is the result object; see perfbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("report", "sweep", "fuzz", "translate")
BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.exit("run.py: dune-project and lib/ not found; run from the repository root")
    dune = shutil.which("dune")
    if dune is None:
        sys.exit("run.py: dune is not on PATH")
    build = subprocess.run(
        [dune, "build", "--root", ".", "--build-dir", BUILD_DIR, "--cache=disabled",
         "./perfbench/bench.exe"],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit("run.py: building perfbench/bench.exe failed")

    cmd = [EXE, args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.trace:
        cmd += ["--trace", os.path.join(BUILD_DIR, "trace-%s.json" % args.workload)]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
