#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The benchmark executable is built with
dune into the directory named by CARGO_TARGET_DIR (default .bench_build),
then run; its last line of standard output is the result object. Exits
non-zero without a result when the program cannot be built (for example
in a directory that holds only the benchmark's own files).
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ["train-paper", "train-dwell-stream", "serve-mixed"]
TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a psm-repro checkout (no dune-project or lib/ here)")
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        [dune, "build", "--root", ".", "--build-dir", build_dir,
         "--profile", "release", "./perfbench/main.exe"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        fail("build failed")

    nproc = len(os.sched_getaffinity(0))
    if args.workload == "serve-mixed":
        # The client and the daemon it spawns share one CPU. On a shared
        # VM, a request's wake-up that crosses CPUs waits whenever the host
        # has descheduled the other CPU, and those waits, not the server,
        # then set the tail latency.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    exe = os.path.join(build_dir, "default", "perfbench", "main.exe")
    command = [exe, "run", "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--nproc", str(nproc)]
    # Own process group, so a timeout stops the daemon child as well.
    proc = subprocess.Popen(command, start_new_session=True)
    try:
        code = proc.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("timed out after %d s" % TIMEOUT_S)
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    sys.exit(code)


if __name__ == "__main__":
    main()
