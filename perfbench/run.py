#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload fleet_hot --seed 7 --seconds 25 --trace 0

Run from the repository root. The binary is built with cargo into
$CARGO_TARGET_DIR (default: .bench_build). The last line of standard
output is the result object; see perfbench/README.md. The exit code is
non-zero when the build fails, an output disagrees with the oracle, or
the reported metrics differ from those BENCHMARK.json declares.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
WORKLOADS = ("serve_stream", "fleet_hot", "fleet_churn")


def command_output(cmd, cwd=ROOT):
    try:
        out = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    """SHA-256 over the sources the binary is built from."""
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock", HERE / "Cargo.toml", HERE / "Cargo.lock"]
    for tree in (ROOT / "crates", ROOT / "vendor", HERE / "src"):
        files += [p for p in tree.rglob("*") if p.is_file() and "target" not in p.parts]
    h = hashlib.sha256()
    for p in sorted(set(files)):
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    target = Path.cwd() / os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = [
        "cargo", "build", "--release", "--offline", "--locked", "--quiet",
        "--manifest-path", str(HERE / "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"error: build failed: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("error: build failed", file=sys.stderr)
        return 1

    env["PERFBENCH_RUSTC"] = command_output(["rustc", "-V"]) or "unknown"
    env["PERFBENCH_GIT_REV"] = command_output(["git", "rev-parse", "HEAD"]) or "none (not a git checkout)"
    env["PERFBENCH_SOURCE_DIGEST"] = source_digest()
    binary = target / "release" / "perfbench"
    cmd = [
        str(binary),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    try:
        run = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: {args.workload} did not finish within {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1
    sys.stderr.write(run.stderr)
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0:
        sys.stdout.write(run.stdout)
        return run.returncode
    result = json.loads(lines[-1])
    want = declared_metrics(args.trace == 1)
    got = set(result["metrics"])
    if got != want:
        print(f"error: metrics differ from BENCHMARK.json: missing {sorted(want - got)}, "
              f"extra {sorted(got - want)}", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
