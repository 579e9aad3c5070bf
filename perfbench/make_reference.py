"""Regenerate the stored reference solutions for one or more workloads.

    python3 perfbench/make_reference.py cube-cold cube-sweep dent-shadow
    python3 perfbench/make_reference.py lshape-shadow --indices 0 1

Solves each entry of the workload's property lattice once (all of them
unless --indices names some), untraced, and writes q and G per property
point to perfbench/reference/<workload>.json.
Run it from the root of a checkout, on the commit whose solutions define
"correct"; a later change that moves a solution beyond the workload's
tolerance fails the benchmark until the reference is regenerated on purpose.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

import run


def main(argv) -> int:
    parser = argparse.ArgumentParser(description="Regenerate stored reference solutions.")
    parser.add_argument("workloads", nargs="+")
    parser.add_argument("--indices", type=int, nargs="+", help="lattice entries (default all)")
    args = parser.parse_args(argv)
    root = Path.cwd()
    run.pin_threads()
    run.import_package(root)
    import workloads

    for name in args.workloads:
        workload = workloads.WORKLOADS[name]
        work = root / ".perfbench" / "reference-work"
        mesh_path = workloads.write_mesh(workload, work)
        lattice = {}
        for index in args.indices or range(workloads.LATTICE_SIZE):
            props = workloads.properties(workload, index)
            if workload.kind == "case":
                rep = run.run_case_rep(mesh_path, props, work / "out")
            else:
                rep = run.run_sweep_rep(mesh_path, props)
            lattice[str(index)] = {"points": [
                {"sigma_a": p.sigma_a, "sigma_s": p.sigma_s,
                 "q": [float(v) for v in p.state.q], "G": [float(v) for v in p.state.incident]}
                for p in rep.points
            ]}
            print(f"{name} lattice {index}: {rep.elapsed:.1f} s", flush=True)
        shutil.rmtree(work, ignore_errors=True)
        out = run.BENCH_DIR / "reference" / f"{name}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps({"workload": name, "lattice": lattice}) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
