#!/usr/bin/env python3
"""Builds the benchmark and the step executable from source, then runs it.

Run from the root of the repository:

    python3 perfbench/run.py --workload exact-heavy --seed 1 --seconds 20 --trace 0

Workloads: exact-heavy, certified-sweep, serve-mixed. The build goes to
stderr; stdout carries the benchmark's report, whose last line is the
JSON result. See perfbench/README.md.
"""

import os
import subprocess
import sys


def main():
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled",
         "./perfbench/bench.exe", "./bin/step.exe"],
        stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        sys.exit(build.returncode or 1)
    exe = os.path.join("_build", "default", "perfbench", "bench.exe")
    step = os.path.join("_build", "default", "bin", "step.exe")
    sys.stdout.flush()
    os.execv(exe, [exe, "--step", step] + sys.argv[1:])


if __name__ == "__main__":
    main()
