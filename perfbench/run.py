#!/usr/bin/env python3
"""Builds perfbench, the anole benchmark, from the checkout and runs it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload elect --seed 1 --seconds 25 --trace 0

The build goes to .bench_build (Release, reused across runs). Build output
goes to stderr, so the JSON result stays the last line of stdout.
Exits non-zero without a result when the library cannot be built.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    subprocess.run(
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        stdout=sys.stderr, env=env, check=True)
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "perfbench", "-j",
         str(min(4, os.cpu_count() or 1))],
        stdout=sys.stderr, env=env, check=True)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    scratch = os.path.join(BUILD, "run")
    cmd = [BINARY, *sys.argv[1:], "--scratch", scratch]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
