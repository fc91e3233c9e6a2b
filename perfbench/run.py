#!/usr/bin/env python3
"""Builds and runs the SmartFlux repository benchmark (see README.md).

    python3 perfbench/run.py --workload paper_lrb --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run it from the repository root. It configures and builds perfbench/ (which
compiles ../src) with CMake into the directory named by CARGO_TARGET_DIR, or
.bench_build when that is unset, then runs one workload. The workload's
result is the last line of standard output; the exit code is non-zero when
a check failed or nothing could be built.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_lrb", "serve_aqhi", "read_mix")
# A run must end well inside the caller's 180 s limit.
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def source_digest():
    """sha256 over src/ and perfbench/ sources: identifies the code measured
    when no git metadata is available."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_rev():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def build(target):
    """Configures (once) and builds `target`; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no SmartFlux sources next to perfbench/ (expected src/CMakeLists.txt)")
        return None
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(["ninja", "--version"], capture_output=True).returncode == 0:
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("cmake configure failed")
            return None
    if subprocess.run(["cmake", "--build", out, "--target", target, "-j", "4"],
                      stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        log(f"building {target} failed")
        return None
    return os.path.join(out, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the unit tests of the measurement code")
    args = parser.parse_args()

    if args.selftest:
        binary = build("sfbench_tests")
        return 2 if binary is None else subprocess.run([binary]).returncode
    if args.workload is None:
        parser.error("--workload is required")

    binary = build("sfbench")
    if binary is None:
        return 2
    print(f"meta: src_sha256={source_digest()}", flush=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", os.path.join(build_dir(), "out"), "--git-rev", git_rev()]
    try:
        return subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 3


if __name__ == "__main__":
    sys.exit(main())
