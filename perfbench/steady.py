#!/usr/bin/env python3
"""Measures the benchmark's own steadiness and writes a report.

    python3 perfbench/steady.py                      # 10 seeds, every workload
    python3 perfbench/steady.py --seeds 5 --workloads fleet_churn

For each workload it runs perfbench/run.py untraced on seeds 1..N, then
once on held-out seed 1001, then once traced on the held-out seed. For
every end-to-end metric it reports the median, the quartiles
(statistics.quantiles(values, n=4)), the quartile spread as a share of
the median, and the held-out run's ratio to the median, each judged
against the metric's bound in BENCHMARK.json. The traced run contributes
trace.overhead_pct and the fleet split. Runs one process at a time and
writes the report to perfbench/STEADINESS.md.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FIRST_SEED = 1
HELD_OUT = 1001


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().split("\n")
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed ({out.returncode}):\n{out.stdout}\n{out.stderr}")
    result = json.loads(lines[-1])
    return result, lines


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", type=int, default=10)
    args = ap.parse_args()

    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = [
        "# Benchmark steadiness",
        "",
        f"{args.seeds} untraced runs per workload (seeds {FIRST_SEED}.."
        f"{FIRST_SEED + args.seeds - 1}, {seconds} s each), one untraced run and one traced "
        f"run on held-out seed {HELD_OUT}. Spread = (q3 - q1) / median. "
        "`ok` when the spread is within the metric's bound; `held-out ok` when the held-out "
        "run is within the bound of the median (|held-out / median - 1| <= bound).",
        "",
    ]
    provenance = None
    started = time.time()
    for w in args.workloads:
        values = {}
        for seed in range(FIRST_SEED, FIRST_SEED + args.seeds):
            result, lines = run(w, seed, seconds, 0)
            provenance = provenance or next(l for l in lines if l.startswith('{"provenance"'))
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: " + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)
        held, _ = run(w, HELD_OUT, seconds, 0)
        traced, tlines = run(w, HELD_OUT, seconds, 1)
        report += [f"## {w}", "",
                   "| metric | median | q1 | q3 | spread | bound | ok | held-out / median | held-out ok |",
                   "|---|---|---|---|---|---|---|---|---|"]
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            ok = "yes" if spread <= bounds[name] else "NO"
            ratio = held["metrics"][name]["value"] / med
            held_ok = "yes" if abs(ratio - 1) <= bounds[name] else "NO"
            report.append(f"| {name} | {med:.5g} | {q1:.5g} | {q3:.5g} | {spread:.3f} | {bounds[name]} | {ok} "
                          f"| {ratio:.3f} | {held_ok} |")
        tm = traced["metrics"]
        report += ["", f"Traced run: trace.overhead_pct = {tm['trace.overhead_pct']['value']:.2f}; "
                   f"loadgen.client_us_per_request = {tm['loadgen.client_us_per_request']['value']:.3f}."]
        report += [f"`{l}`" for l in tlines if l.startswith("fleet split")]
        report.append("")
        print("\n".join(report[-(len(values) + 6):]), flush=True)
    report += ["## Provenance", "", f"`{provenance}`", "",
               f"Total wall time: {time.time() - started:.0f} s.", ""]
    out = HERE / "STEADINESS.md"
    out.write_text("\n".join(report))
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
