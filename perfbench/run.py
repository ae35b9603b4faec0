#!/usr/bin/env python3
"""Build and run the closed-loop benchmark from the root of a checkout.

    python3 perfbench/run.py --workload fleet|wide-update|batch-mixed \
        --seed N --seconds S --trace 0|1

Builds perfbench/main.exe from source with dune (shared dune cache off,
so the build writes only under _build/ in the checkout), runs it, and
passes its output through; the last line is the JSON result. Exits
non-zero without a result when the checkout cannot be built or the run
fails.
"""

import argparse
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170
WORKLOADS = ("fleet", "wide-update", "batch-mixed")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def run(cmd, timeout, env, stdout):
    # A new process group, so a timeout stops the whole tree.
    proc = subprocess.Popen(cmd, env=env, stdout=stdout, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, 9)
        proc.wait()
        fail("%s timed out after %d s" % (cmd[0], timeout))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a full checkout (dune-project and lib/ are missing)")
    env = dict(os.environ, DUNE_CACHE="disabled")
    code = run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe"],
        BUILD_TIMEOUT_S,
        env,
        sys.stderr,
    )
    if code != 0:
        fail("build failed")
    sys.stdout.flush()
    code = run(
        [
            os.path.join("_build", "default", "perfbench", "main.exe"),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ],
        RUN_TIMEOUT_S,
        env,
        None,
    )
    if code != 0:
        fail("run failed with exit code %d" % code)


if __name__ == "__main__":
    main()
