#!/usr/bin/env python3
"""Entry point of the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload table1_batch --seed 2025 --seconds 30 --trace 0

The first run configures and builds the library and the perfbench binary
from source into .bench_build/ (CMake, Release); later runs rebuild only what
changed. Every flag is passed on to the perfbench binary, whose last stdout
line is the JSON result. With --trace 1 the run's spans are written to
.bench_build/spans/<workload>-<seed>.json unless --spans names a path.

Other modes: --describe prints BENCHMARK.json (redirect it there to
regenerate the file), --self-test checks every correctness gate against
corrupted outputs. The benchmark's own tests: python3 perfbench/test_perfbench.py
"""

import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "perfbench")


def build():
    """Configures (once) and builds perfbench; build output goes to stderr."""
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return os.path.exists(BINARY)


def git_sha():
    """Commit of the checkout, or "" when it is not a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return ""
    return out.stdout.strip() if out.returncode == 0 else ""


def flag(args, name, default):
    return args[args.index(name) + 1] if name in args[:-1] else default


def main():
    args = sys.argv[1:]
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if flag(args, "--trace", "0") == "1" and "--spans" not in args:
        spans_dir = os.path.join(BUILD_DIR, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        name = "%s-%s.json" % (flag(args, "--workload", "run"), flag(args, "--seed", "default"))
        args += ["--spans", os.path.join(spans_dir, name)]
    sha = git_sha()
    if sha and "--workload" in args:
        args += ["--git-sha", sha]
    return subprocess.run([BINARY] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
