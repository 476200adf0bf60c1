#!/usr/bin/env python3
"""Build and run the host-time benchmark of the Tartan simulator.

Usage, from the repository root:

    python3 perfbench/run.py --workload sweep_replay --seed 1 \
        --seconds 38 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (the simulator library
compiled from src/ plus the benchmark program) into .bench_build/perfbench;
later calls only re-check the build. The program runs with a fresh private
temporary directory for its capture files, removed at exit. Its stdout
is passed through; the last line is the result JSON
({"correct", "attempted", "failed", "metrics"}). The exit code is 0
only when a result was produced.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
REFERENCES = os.path.join(BENCH_DIR, "references.txt")

TMP_PARENT = os.path.join(ROOT, ".bench_build", "tmp")

RUN_LIMIT_S = 170     # whole run, build already present
BUILD_LIMIT_S = 880   # whole run, including a first build


def child_env():
    """The environment of every child: temporary files stay in the checkout."""
    env = dict(os.environ)
    env["TMPDIR"] = TMP_PARENT
    return env


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build(deadline):
    """Configure (once) and build; False on any failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  env=child_env(),
                                  timeout=max(1.0, deadline - time.time()))
        except (OSError, subprocess.TimeoutExpired) as exc:
            log("build step failed: %s" % exc)
            return False
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            log("build step failed: " + " ".join(cmd))
            return False
    return os.path.exists(BINARY)


def git_describe():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        proc = subprocess.run(["git", "describe", "--always", "--dirty"],
                              cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def valid_result(line):
    try:
        res = json.loads(line)
    except ValueError:
        return False
    return (isinstance(res, dict)
            and set(res) == {"correct", "attempted", "failed", "metrics"}
            and isinstance(res["attempted"], int) and res["attempted"] >= 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    # A terminated run still stops its child and removes its scratch.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    start = time.time()
    os.makedirs(TMP_PARENT, exist_ok=True)
    first_build = not os.path.exists(BINARY)
    deadline = start + (BUILD_LIMIT_S if first_build else RUN_LIMIT_S)
    if not build(deadline):
        return 1
    if first_build:
        # The build is not part of the run's own time limit.
        deadline = max(deadline, time.time() + RUN_LIMIT_S)

    work_dir = tempfile.mkdtemp(prefix="run-", dir=TMP_PARENT)
    proc = None
    try:
        cmd = [BINARY, "--workdir", work_dir]
        if args.selftest:
            cmd.append("--selftest")
        else:
            cmd += ["--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", repr(args.seconds),
                    "--trace", str(args.trace),
                    "--references", REFERENCES, "--git", git_describe()]
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                text=True, env=child_env())
        try:
            out, _ = proc.communicate(
                timeout=max(1.0, deadline - time.time()))
        except subprocess.TimeoutExpired:
            log("benchmark exceeded its time limit; no result")
            return 1
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.communicate()
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = out.splitlines()
    if args.selftest:
        sys.stdout.write(out)
        return proc.returncode
    if proc.returncode != 0 or not lines or not valid_result(lines[-1]):
        sys.stdout.write("\n".join(l for l in lines if not valid_result(l)))
        log("benchmark failed (exit %d); no result" % proc.returncode)
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
