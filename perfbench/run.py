#!/usr/bin/env python3
"""Build and run the Wasabi end-to-end benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/main.exe with dune (the repository's own libraries are
compiled from source on the first run), then runs it with the same
arguments. The benchmark's standard output passes through unchanged; its
last line is the JSON result. Build output goes to standard error.
"""

import os
import subprocess
import sys


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def main():
    for needed in ("dune-project", "lib", "bench"):
        if not os.path.exists(needed):
            fail("run from the root of a source checkout (missing %s)" % needed)
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if build.returncode != 0:
        fail("build failed")
    cmd = [os.path.join("_build", "default", "perfbench", "main.exe")] + sys.argv[1:]
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
