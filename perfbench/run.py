#!/usr/bin/env python3
"""Runs one workload of the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload generate|interact|jobs \
        --seed N --seconds S --trace 0|1

Builds the harness and the library from the checkout's sources (CMake, into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench), runs it, and
prints its result line -- {"correct", "attempted", "failed", "metrics"} --
as the last line of standard output. Build logs and the metric table go to
standard error. Exits nonzero when the sources are missing, the build fails,
or an output check fails.
"""

import argparse
import fcntl
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build(out_dir):
    """Configures (once) and builds the harness; serialized by a lock file."""
    out_dir.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(out_dir / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (out_dir / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out_dir),
                          f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
        steps.append(["cmake", "--build", str(out_dir), "-j", jobs])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                fail(f"build step failed: {' '.join(cmd)}")
    binary = out_dir / "perfbench"
    if not binary.exists():
        fail("build produced no perfbench binary")
    return binary


def stop_group(pgid):
    """Kills whatever is left of the run's process group and waits for it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(200):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["generate", "interact", "jobs"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="seconds-scale inputs (the benchmark's own tests)")
    args = parser.parse_args()

    if not (ROOT / "src" / "core" / "interface_generator.h").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    out_dir = build_dir()
    binary = build(out_dir)
    work_dir = out_dir / "work"
    work_dir.mkdir(parents=True, exist_ok=True)

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work_dir)]
    if args.tiny:
        cmd.append("--tiny")
    # Own process group: the jobs workload's worker processes are in it too,
    # so nothing outlives the run.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        stop_group(proc.pid)

    lines = stdout.strip().splitlines()
    if not lines:
        fail(f"harness printed no result (exit code {proc.returncode})")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"harness result is not JSON (exit code {proc.returncode})")
    if set(result) != RESULT_KEYS:
        fail(f"harness result has keys {sorted(result)}")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    sys.exit(0 if proc.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
