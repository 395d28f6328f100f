#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 pnbench/run.py --workload explore-cold --seed 1 --seconds 25 --trace 0
    python3 pnbench/run.py --self-test

The first call configures and builds pnut and the pnbench binary (pnbench/src)
with CMake into $CARGO_TARGET_DIR, or .bench_build when that is unset.
The binary's last stdout line is the JSON result; build output goes to
stderr. Exits nonzero, printing no result, if the sources are missing or
anything fails.
"""
import argparse
import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("pnbench: " + message, file=sys.stderr)
    sys.exit(2)


def run_group(argv, timeout, stdout=None):
    """Run argv in its own process group; on timeout kill the whole group
    (pnbench and any server it started) and wait for it."""
    proc = subprocess.Popen(argv, stdout=stdout, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("timed out after %d s: %s" % (timeout, " ".join(argv)))
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def build(build_dir):
    for needed in ("src/cli/session.h", "tools/pnut_main.cpp", "pnbench/CMakeLists.txt"):
        if not os.path.isfile(needed):
            fail("missing %s: run from the root of a pnut checkout" % needed)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        if run_group(["cmake", "-S", "pnbench", "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S,
                     stdout=sys.stderr) != 0:
            fail("cmake configure failed")
    if run_group(["cmake", "--build", build_dir, "-j", jobs], BUILD_TIMEOUT_S,
                 stdout=sys.stderr) != 0:
        fail("build failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build(build_dir)
    binary = os.path.join(build_dir, "pnbench")
    common = ["--models", "examples/models", "--build", build_dir]
    if args.self_test:
        argv = [binary, "self-test"] + common
    else:
        argv = [binary, "run", "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)] + common
    sys.stdout.flush()
    code = run_group(argv, RUN_TIMEOUT_S)
    if code != 0:
        fail("pnbench exited with code %d" % code)


if __name__ == "__main__":
    main()
