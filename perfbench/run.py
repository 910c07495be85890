#!/usr/bin/env python3
"""archline benchmark entry point.

Builds archline (Release) and the benchmark runner from source, then runs
one workload and relays the runner's output. The last line of standard
output is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage (from the repository root):

    python3 perfbench/run.py --workload hot-replay --seed 1 --seconds 10 --trace 0

Build trees go to $CARGO_TARGET_DIR (default .bench_build) under the
repository root. Build output is kept in <build>/build.log, never on
stdout. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("hot-replay", "cold-open", "paper-fit")
# Library targets the runner links, plus the daemon it drives.
ARCHLINE_TARGETS = ("archline_serverd", "archline_experiments")


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def run_logged(cmd, log):
    log.write("$ " + " ".join(cmd) + "\n")
    log.flush()
    return subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode == 0


def build(bdir):
    """Configures (once) and builds both trees; returns the runner path."""
    os.makedirs(bdir, exist_ok=True)
    arch = os.path.join(bdir, "archline")
    bench = os.path.join(bdir, "perfbench")
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    with open(os.path.join(bdir, "build.log"), "w") as log:
        if not os.path.exists(os.path.join(arch, "CMakeCache.txt")):
            if not run_logged(["cmake", "-S", ROOT, "-B", arch, *gen,
                               "-DCMAKE_BUILD_TYPE=Release",
                               "-DBUILD_TESTING=OFF"], log):
                return None
        if not run_logged(["cmake", "--build", arch, "-j", str(os.cpu_count() or 1),
                           "--target", *ARCHLINE_TARGETS], log):
            return None
        if not os.path.exists(os.path.join(bench, "CMakeCache.txt")):
            if not run_logged(["cmake", "-S", HERE, "-B", bench, *gen,
                               "-DCMAKE_BUILD_TYPE=Release",
                               "-DARCHLINE_SOURCE_DIR=" + ROOT,
                               "-DARCHLINE_BUILD_DIR=" + arch], log):
                return None
        if not run_logged(["cmake", "--build", bench, "-j",
                           str(os.cpu_count() or 1)], log):
            return None
    return (os.path.join(bench, "perfbench_runner"),
            os.path.join(arch, "tools", "archline_serverd"), cached_build_type(arch))


def cached_build_type(tree):
    """CMAKE_BUILD_TYPE recorded in a build tree's CMakeCache.txt."""
    try:
        with open(os.path.join(tree, "CMakeCache.txt")) as cache:
            for line in cache:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip() or "none"
    except OSError:
        pass
    return "unknown"


def commit_id():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for required in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, required)):
            print(f"perfbench: {required} missing from {ROOT}; nothing to build",
                  file=sys.stderr)
            return 2
    bdir = build_dir()
    built = build(bdir)
    if built is None:
        print(f"perfbench: build failed, see {os.path.join(bdir, 'build.log')}",
              file=sys.stderr)
        return 2
    runner, serverd, archline_build_type = built
    out_dir = os.path.join(bdir, "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [runner, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--server", serverd, "--spec", os.path.join(HERE, "spec.json"),
           "--out-dir", out_dir, "--commit", commit_id(),
           "--archline-build-type", archline_build_type]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
