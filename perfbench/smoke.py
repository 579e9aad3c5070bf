"""Smoke test of the benchmark itself, at tiny sizes (cube r1, a few seconds).

    python3 perfbench/smoke.py

Run from the root of a checkout. Checks that every metric BENCHMARK.json
names is produced with its unit, traced and untraced, on a case and on a
sweep; that the reference check rejects a perturbed solution; that a
repetition over its wall-clock cap counts as a failed run; and that the
command fails without printing a result where the package source is
missing. Exits non-zero on the first failed check.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run


def reference_for(workload, seed, work):
    import workloads

    mesh_path = workloads.write_mesh(workload, work)
    props = workloads.properties(workload, seed)
    if workload.kind == "case":
        rep = run.run_case_rep(mesh_path, props, work / "ref-out")
    else:
        rep = run.run_sweep_rep(mesh_path, props)
    return [{"sigma_a": p.sigma_a, "sigma_s": p.sigma_s,
             "q": p.state.q.tolist(), "G": p.state.incident.tolist()} for p in rep.points]


def check_names(record, wanted):
    for name, unit in wanted.items():
        got = record["metrics"].get(name)
        assert got is not None, f"{name} not produced"
        assert got["unit"] == unit, f"{name}: unit {got['unit']}, BENCHMARK.json {unit}"
        assert isinstance(got["value"], float), f"{name}: value {got['value']!r}"


def main() -> int:
    root = Path.cwd()
    run.pin_threads()
    run.import_package(root)
    import workloads

    work = root / ".perfbench" / "smoke"
    shutil.rmtree(work, ignore_errors=True)
    tiny = [
        workloads.Workload("smoke-case", "case", "cube", 1, (workloads.PARTICIPATING,), 1e-6),
        workloads.Workload("smoke-sweep", "sweep", "cube", 1,
                           (workloads.PARTICIPATING, workloads.TRANSPARENT,
                            workloads.SCATTERING), 1e-6),
    ]
    try:
        for w in tiny:
            ref = reference_for(w, 5, work / w.name)
            for trace in (False, True):
                record = run.measure(w, 5, 0.5, trace, work / w.name, reference=ref)
                assert record["failed"] == 0, record["failures"]
                check_names(record, run.benchmark_metrics(root, trace))
            print(f"{w.name}: every BENCHMARK.json metric produced with its unit")

            bad = json.loads(json.dumps(ref))
            bad[0]["q"][0] += 10 * w.tolerance * max(abs(v) for v in bad[0]["q"])
            record = run.measure(w, 5, 0.5, False, work / w.name, reference=bad)
            assert record["failed"] == record["attempted"] >= 1, record
            assert "deviates" in record["failures"][0], record["failures"]
            print(f"{w.name}: perturbed reference rejected ({record['failures'][0]})")

        ref = reference_for(tiny[0], 5, work / "cap")
        capped = dataclasses.replace(tiny[0], cap_s=1e-3)
        for trace in (False, True):
            record = run.measure(capped, 5, 0.5, trace, work / "cap", reference=ref)
            assert record["failed"] == record["attempted"] == 1, record
            assert "exceeded" in record["failures"][0], record["failures"]
            check_names(record, run.benchmark_metrics(root, trace))
        print(f"capped repetition counted as failed ({record['failures'][0]})")

        bare = work / "bare"
        shutil.copytree(run.BENCH_DIR, bare / run.BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(root / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, f"{run.BENCH_DIR.name}/run.py", "--workload", "cube-cold",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode != 0 and not proc.stdout.strip(), proc
        print(f"without the package source: exit {proc.returncode}, no result printed")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
