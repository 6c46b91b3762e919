#!/usr/bin/env python3
"""Run one perfbench workload from the root of a dynspread checkout.

    python3 perfbench/run.py --workload fresh-flood --seed 1 --seconds 30 --trace 0

Builds the benchmark and the dynspread CLI from source (release
profile, build directory .bench_build), writes the workload's seeded
inputs into a fresh directory under .bench_tmp, measures there, and
prints the benchmark's JSON result as the last line of stdout.  Any
failure exits non-zero without printing a result.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ["fresh-flood", "trace-unicast", "serve-mix"]
BUILD_DIR = ".bench_build"
TMP_ROOT = ".bench_tmp"
# A run must end within 180 s of its build; keep a margin for clean-up.
RUN_BUDGET_S = 170.0


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def run_step(argv, cwd, timeout, capture):
    """Run one step in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(
        argv,
        cwd=cwd,
        stdout=subprocess.PIPE if capture else sys.stderr,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("%s timed out" % " ".join(argv[:2]))
    finally:
        # The measuring step spawns a daemon in its group; never leave
        # one behind.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        fail("%s exited %d" % (" ".join(argv[:2]), proc.returncode))
    return out.decode() if capture else ""


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--profile", "release", "--display", "quiet",
         "./perfbench/bench.exe", "./bin/dynspread_cli.exe"],
        cwd=root, stdout=sys.stderr)
    if build.returncode != 0:
        fail("build failed")
    bench = os.path.join(root, BUILD_DIR, "default", "perfbench", "bench.exe")
    cli = os.path.join(root, BUILD_DIR, "default", "bin", "dynspread_cli.exe")
    if not (os.path.isfile(bench) and os.path.isfile(cli)):
        fail("build produced no executables")
    # The first build in a checkout may take minutes; the run's own
    # budget starts after it.
    started = time.monotonic()

    # Inputs and the daemon's socket live in a fresh directory; a short
    # relative name keeps the socket path within the OS limit.
    os.makedirs(os.path.join(root, TMP_ROOT), exist_ok=True)
    work = os.path.join(TMP_ROOT, "run-%d" % os.getpid())
    shutil.rmtree(os.path.join(root, work), ignore_errors=True)
    os.makedirs(os.path.join(root, work))
    try:
        run_step([bench, "gen", "--workload", args.workload,
                  "--seed", str(args.seed), "--dir", work],
                 cwd=root, timeout=60, capture=False)
        remaining = RUN_BUDGET_S - (time.monotonic() - started)
        out = run_step([bench, "run", "--workload", args.workload,
                        "--seconds", str(args.seconds),
                        "--trace", str(args.trace),
                        "--dir", work, "--cli", cli],
                       cwd=root, timeout=remaining, capture=True)
    finally:
        shutil.rmtree(os.path.join(root, work), ignore_errors=True)

    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("no JSON result line")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line")
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
