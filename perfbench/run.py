#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload dashboard --seed 7 --seconds 10 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR
(default: perfbench/target); build output goes to stderr, so the last
line of stdout is the benchmark's JSON result. With --trace 1 the span
dump is written to <target dir>/perfbench-spans/<workload>-seed<seed>.jsonl.
Exits non-zero, without a result, when the build fails or the run does
not finish in time.
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ("ingest", "dashboard", "archive")
# A run must end within 180 s; leave room for the build check and exit.
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    manifest = os.path.join(bench_dir, "Cargo.toml")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(bench_dir, "target")
    target = os.path.abspath(target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)

    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
        stderr=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [
        os.path.join(target, "release", "timecrypt-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.trace:
        dump = os.path.join(target, "perfbench-spans", f"{args.workload}-seed{args.seed}.jsonl")
        cmd += ["--dump", dump]
    # Own process group, so a timeout also stops the set-up children.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, preexec_fn=os.setpgrp)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stdout.write(out.decode())
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
