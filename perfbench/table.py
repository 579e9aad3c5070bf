"""Summarize run records into the baseline tables.

    python3 perfbench/table.py [results directory] > table.md

Reads the records run.py writes (default .perfbench/results/). For each
workload it prints the end-to-end metrics of the untraced runs as median,
quartiles and spread (the distance between the quartiles as a share of
the median) over all seeds run, then the per-layer metrics of the traced
runs as medians, and the tracing overhead: traced minus untraced
time_to_solution_s, both as medians.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv) -> int:
    results = Path(argv[0]) if argv else Path(".perfbench") / "results"
    runs = defaultdict(lambda: {0: [], 1: []})
    for path in sorted(results.glob("*.json")):
        rec = json.loads(path.read_text(encoding="utf-8"))
        runs[rec["workload"]][rec["trace"]].append(rec)

    for workload, by_trace in runs.items():
        plain, traced = by_trace[0], by_trace[1]
        print(f"## {workload}\n")
        if plain:
            env = plain[0]["environment"]
            print(f"{len(plain)} untraced runs, seeds {sorted(r['seed'] for r in plain)}; "
                  f"{sum(r['attempted'] for r in plain)} repetitions, "
                  f"{sum(r['failed'] for r in plain)} failed. "
                  f"nproc {env['nproc']}, {env['cpu']}, Python {env['python']}, "
                  f"numpy {env['numpy']}, scipy {env['scipy']}, "
                  f"BLAS threads {env['blas_threads']['OPENBLAS_NUM_THREADS']}, "
                  f"commit {env['commit'][:12]}.\n")
            print("| metric | unit | median | Q1 | Q3 | spread |")
            print("| --- | --- | --- | --- | --- | --- |")
            for name, first in plain[0]["metrics"].items():
                q1, med, q3 = quartiles([r["metrics"][name]["value"] for r in plain])
                print(f"| {name} | {first['unit']} | {med:.4g} | {q1:.4g} | {q3:.4g} | "
                      f"{(q3 - q1) / med if med else 0.0:.3f} |")
            for key in ("energy_balance_residual", "oracles_failed", "warm_point_s"):
                vals = [r["recorded"][key] for r in plain]
                print(f"| {key} (recorded) | | {statistics.median(vals):.4g} | "
                      f"{min(vals):.4g} (min) | {max(vals):.4g} (max) | |")
            print()
        if traced:
            print(f"Per layer: {len(traced)} traced runs, seeds "
                  f"{sorted(r['seed'] for r in traced)}; medians.\n")
            print("| metric | unit | median |")
            print("| --- | --- | --- |")
            for name, first in traced[0]["metrics"].items():
                med = statistics.median(r["metrics"][name]["value"] for r in traced)
                print(f"| {name} | {first['unit']} | {med:.6g} |")
            if plain:
                t_on = statistics.median(
                    r["metrics"]["trace.time_to_solution_s"]["value"] for r in traced)
                t_off = statistics.median(
                    r["metrics"]["time_to_solution_s"]["value"] for r in plain)
                print(f"\nTracing overhead: {t_on - t_off:.3g} s "
                      f"({(t_on - t_off) / t_off:+.1%} of the untraced {t_off:.3g} s).")
            digests = traced[0].get("digests", {})
            if digests:
                print(f"\nSHA-256 of the blocks, seed {traced[0]['seed']}, "
                      f"identical on every repetition: {all(r['digests_repeat'] for r in traced)}\n")
                for point, blocks in sorted(digests.items()):
                    for name, digest in sorted(blocks.items()):
                        print(f"- point {point} {name}: `{digest}`")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
