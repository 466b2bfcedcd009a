#!/usr/bin/env python3
"""Build the end-to-end campaign benchmark from source and run it.

    python3 bench/e2e/run.py --workload NAME --seed S --seconds T --trace 0|1

Builds bench/e2e/e2e.exe with dune (only the libraries it links), then
runs it once with the given options and relays its output; the last
stdout line is the JSON result.  Files the traced mode writes go to
bench/e2e/_out/.  Exits non-zero, without a result
line, when the build fails or the benchmark does not finish in time.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
TARGET = "./bench/e2e/e2e.exe"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def run(cmd, timeout, **kw):
    """Run cmd in its own process group; on timeout kill the whole group
    (dune's compilers, the benchmark's set-up probes) and wait for it.
    Returns the exit code, or None on timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        built = run(["dune", "build", "--root", ROOT, "--display", "quiet",
                     TARGET], BUILD_TIMEOUT_S, env=env, stdout=sys.stderr)
    except OSError as e:
        built = e
    if built != 0:
        print(f"run.py: build failed ({built})", file=sys.stderr)
        return 2

    out = os.path.join(HERE, "_out")
    os.makedirs(out, exist_ok=True)
    exe = os.path.join(ROOT, "_build", "default", "bench", "e2e", "e2e.exe")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out]
    code = run(cmd, RUN_TIMEOUT_S)
    if code is None:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
