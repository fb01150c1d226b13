#!/usr/bin/env python3
"""Build the Komodo benchmark from source and run it.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The build goes to _perfbench_build/ at the repository root (release
profile, dune's shared cache off), so it never disturbs a dev build in
_build/. Build output goes to stderr; stdout carries only the
benchmark's own report, whose last line is the JSON result. Exits 2
without a result if the build fails.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = "_perfbench_build"


def main(argv):
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--profile", "release", "./perfbench/main.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "main.exe")
    args = ["selftest"] if argv == ["--selftest"] else argv
    print("host: nproc %d" % len(os.sched_getaffinity(0)), flush=True)
    return subprocess.run([exe] + args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
