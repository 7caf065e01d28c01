#!/usr/bin/env python3
"""Build the ccsim benchmark program from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The program is configured and built with CMake into .bench_build/perfbench-<tag>
(or $CARGO_TARGET_DIR/perfbench-<tag> when that variable names a directory),
in Release mode; an up-to-date build is a no-op. Build output goes to stderr,
so the program's last stdout line stays its JSON result. Exits non-zero,
without a result, when the build fails (for example when the ccsim sources
next to this directory are missing).
"""

import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    # One tree per source checkout, in case several share a target directory.
    tag = hashlib.sha1(SOURCE.encode()).hexdigest()[:10]
    return os.path.join(target, "perfbench-" + tag)


def build(out):
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", SOURCE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    # An existing tree re-runs its own configure step when a CMake file changed.
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "--target", "ccsim_perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def main():
    out = build_dir()
    if not build(out):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(out, "ccsim_perfbench")
    return subprocess.run([exe] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
