#!/usr/bin/env python3
"""FlexCL benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a FlexCL checkout. Builds the `flexcl` CLI and the
benchmark probe from source with dune, runs one workload through the
probe (which starts and stops its own `flexcl serve` processes) and
passes its report through; the last line of standard output is the JSON
result. Workloads: hot-predict, mixed-serve, cold-explore.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

WORKLOADS = ("hot-predict", "mixed-serve", "cold-explore")
WORK_DIR = ".perfbench"
PROBE = os.path.join("_build", "default", "perfbench", "probe.exe")
CLI = os.path.join("_build", "default", "bin", "flexcl_cli.exe")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg, code):
    print(f"perfbench: {msg}", file=sys.stderr)
    return code


def main():
    ap = argparse.ArgumentParser(description="FlexCL benchmark runner")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    start = time.monotonic()
    if not all(os.path.exists(p) for p in ("dune-project", "lib", "bin", "test")):
        return fail("run from the root of a FlexCL checkout", 2)
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./bin/flexcl_cli.exe", "./perfbench/probe.exe"],
            stdout=subprocess.DEVNULL, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        return fail(f"build failed: {e}", 3)
    if build.returncode != 0:
        return fail("build failed", 3)
    # a no-op rebuild leaves the usual 180 s; the run that builds gets more
    budget = 170 if time.monotonic() - start < 60 else 880
    os.makedirs(WORK_DIR, exist_ok=True)
    cmd = [PROBE, "run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--cli", CLI, "--dir", WORK_DIR]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(10, budget - (time.monotonic() - start)))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return fail("probe timed out", 4)
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(out)
        return fail(f"probe exited with status {proc.returncode}", 5)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stdout.write(out)
        return fail("probe printed no result", 6)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
