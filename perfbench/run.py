#!/usr/bin/env python3
"""Build and run the end-to-end receipt-pipeline benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fleet_mem --seed 1 --seconds 10 --trace 0

Builds `perfbench/` (release, offline, against the checkout's crates)
into `$CARGO_TARGET_DIR` (default `.bench_build`), runs one workload and
passes its output through; the last line is the JSON result. With
`--trace 1` the spans of the first traced pass are written to
`perfbench/out/spans-<workload>.tsv`. Exits non-zero, printing no
result, when the build or the run fails, and non-zero with
`"correct": false` when the verdicts differ from the product's own.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fleet_mem", "fleet_tcp", "audit_stream")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def describe(cmd):
    """First line of a command's output, or "unknown"."""
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    line = out.stdout.strip().splitlines()
    return line[0] if out.returncode == 0 and line else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = [
        "cargo", "build", "--release", "--offline", "--locked", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    env["PERFBENCH_RUSTC"] = describe(["rustc", "-V"])
    env["PERFBENCH_COMMIT"] = describe(["git", "rev-parse", "HEAD"])
    binary = os.path.join(ROOT, target, "release", "vpm-perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(out_dir, f"spans-{args.workload}.tsv")]
    try:
        run = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: run failed: {e}", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
