#!/usr/bin/env python3
"""Entry point of the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and builds the
clustagg library and the `perfbench` harness from source (CMake, Release)
under $CARGO_TARGET_DIR, or `.bench_build` when that is unset; later calls
only rebuild what changed. The harness's standard output is passed through:
its last line is the result object. Build logs go to standard error.
"""

import argparse
import os
import shutil
import subprocess
import sys
import time

WORKLOADS = ("mushrooms-dense", "census-fold", "gaussian-1m", "stream-serve")
# Configure + build + run stay under 900 s on a cold checkout, and a run
# alone under 180 s.
CONFIGURE_TIMEOUT_S = 60
BUILD_TIMEOUT_S = 660
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_logged(cmd, cwd, timeout):
    """Runs a build step with its output on stderr; waits for it to end."""
    try:
        result = subprocess.run(cmd, cwd=cwd, stdout=sys.stderr,
                                stderr=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    if result.returncode != 0:
        fail(f"failed ({result.returncode}): {' '.join(cmd)}")


def build(root, build_dir):
    if not os.path.isfile(os.path.join(root, "CMakeLists.txt")) or \
            not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail(f"no clustagg sources under {root}; run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            cmd += ["-G", "Ninja"]
        run_logged(cmd, root, CONFIGURE_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_logged(["cmake", "--build", build_dir, "--target", "perfbench",
                "-j", jobs], root, BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    root = os.getcwd()
    out_root = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or
                            ".bench_build")
    binary = build(root, os.path.join(out_root, "perfbench"))

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(out_root, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--spans-out", os.path.join(
            traces, f"{args.workload}.seed{args.seed}.spans.jsonl")]
    start = time.monotonic()
    try:
        result = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if result.returncode != 0:
        fail(f"{args.workload} exited with {result.returncode}")
    lines = result.stdout.decode().strip().splitlines()
    if not lines or not lines[-1].startswith('{"correct"'):
        fail("the harness printed no result")
    print(f"perfbench: {args.workload} ran {time.monotonic() - start:.1f} s",
          file=sys.stderr)
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
