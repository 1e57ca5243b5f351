#!/usr/bin/env python3
"""Build the repository from source and run one benchmark workload.

    python3 perfbench/run.py --workload serve_decode --seed 1 \\
        --seconds 10 --trace 0

Run from the root of a checkout.  The build goes to $CARGO_TARGET_DIR
(default .bench_build) under perfbench/; the first run configures and
builds, later runs only check that the build is current.  Standard
output ends with gfp-perfbench's host line and its one-line JSON result;
build chatter and diagnostics go to standard error.  The exit status is
gfp-perfbench's: 0 correct, 1 a wrong output, 2 an invalid run or a
missing source tree (no result line then).
"""

import argparse
import ctypes
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_decode", "serve_aes_open", "engine_direct")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def die_with_parent():
    """Have the kernel kill the child when this script dies."""
    pr_set_pdeathsig = 1
    ctypes.CDLL(None).prctl(pr_set_pdeathsig, signal.SIGKILL)


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "gfp-perfbench"])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        left = deadline - time.monotonic()
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=max(1, left))
        except subprocess.TimeoutExpired:
            print("perfbench: build timed out", file=sys.stderr)
            return False
        if done.returncode != 0:
            print("perfbench: build failed: %s" % " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        print("perfbench: the repository sources are not next to "
              "perfbench/; nothing to build", file=sys.stderr)
        return 2

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    if not build(build_dir):
        return 2

    # Server sockets live in fresh directories under work_dir, named by
    # a relative path so they stay short wherever the checkout is.
    work_dir = os.path.join(build_dir, "run")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "gfp-perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--serve-bin", os.path.join(build_dir, "tools", "gfp-serve"),
           "--work-dir", os.path.relpath(work_dir)]
    if args.trace:
        trace = os.path.join(build_dir, "trace-%s-%d.json" %
                             (args.workload, args.seed))
        cmd += ["--trace-out", trace]
        print("perfbench: trace -> %s" % trace, file=sys.stderr)

    child = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                             preexec_fn=die_with_parent)

    def forward(signum, _frame):
        child.terminate()
        try:
            child.wait(timeout=10)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, forward)
    signal.signal(signal.SIGINT, forward)
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.terminate()
        try:
            child.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            child.kill()
            child.communicate()
        print("perfbench: run timed out", file=sys.stderr)
        return 2
    if child.returncode in (0, 1):
        sys.stdout.write(out.decode())
        sys.stdout.flush()
    return child.returncode if child.returncode in (0, 1) else 2


if __name__ == "__main__":
    sys.exit(main())
