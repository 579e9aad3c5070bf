"""Time to a verified solution, end to end and by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cube-cold --seed 1 --seconds 45 --trace 0

One process, one client, closed loop: the workload repeats, each
repetition starting when the previous one ends, until --seconds have
passed (at least once). Every repetition is checked: converged, finite,
and within the workload's tolerance of the stored reference for the seed.
Oracle outcomes are recorded, not turned into failures.

--trace 0 reports the end-to-end metrics listed in BENCHMARK.json.
--trace 1 wraps the calls between layers (see spans.py) and reports the
per-layer metrics instead. The last line of standard output is one JSON
object; a full record of the run, with the machine and environment, goes
to .perfbench/results/ and the spans of a traced run to .perfbench/spans/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import signal
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
# Set-up is timed this many times before every repetition and after the
# last, so that its median samples the whole run rather than one stretch of
# machine noise.
SETUP_REPEATS = 3


class RepTimeout(Exception):
    pass


@dataclass
class PointOutcome:
    sigma_a: float
    sigma_s: float
    state: object
    reports: list
    point_s: float          # assemble plus solve, sweep points only


@dataclass
class RepOutcome:
    elapsed: float
    points: list = field(default_factory=list)
    failure: str | None = None
    summary: dict = field(default_factory=dict)   # see oracle_summary


# ---------------------------------------------------------------------------
# Environment


def pin_threads() -> None:
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def import_package(root: Path) -> None:
    """Put the checkout's src/ first on the path; exit 2 if it is missing."""
    src = root / "src"
    if not (src / "ritesolver" / "__init__.py").is_file():
        print(f"error: no package source under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import ritesolver

    if Path(ritesolver.__file__).resolve().parent != (src / "ritesolver").resolve():
        print(f"error: imported ritesolver from {ritesolver.__file__}", file=sys.stderr)
        sys.exit(2)


def environment(root: Path, seed: int) -> dict:
    import numpy
    import scipy

    commit = "unknown"  # an exported checkout has no git metadata
    if (root / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
                timeout=10, check=True,
            ).stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "seed": seed,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


# ---------------------------------------------------------------------------
# One repetition


def run_case_rep(mesh_path: Path, props, out_dir: Path) -> RepOutcome:
    from ritesolver import cli

    (sigma_a, sigma_s), = props
    config = cli.CaseConfig.from_dict(
        {"mesh": str(mesh_path), "sigma_a": sigma_a, "sigma_s": sigma_s, "output": str(out_dir)}
    )
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        result = cli.run_case(config)
    elapsed = time.perf_counter() - start
    point = PointOutcome(sigma_a, sigma_s, result.state, list(result.reports), 0.0)
    return RepOutcome(elapsed, [point])


def run_sweep_rep(mesh_path: Path, props, tracer=None) -> RepOutcome:
    from ritesolver import assembly, geometry, solver, validation
    from ritesolver.kernels import RadiativeProperties

    rep = RepOutcome(0.0)
    start = time.perf_counter()
    mesh, grid = geometry.load_mesh(mesh_path)
    asm = assembly.Assembler(mesh, grid)
    for i, (sigma_a, sigma_s) in enumerate(props):
        if tracer is not None:
            tracer.point = i
        t0 = time.perf_counter()
        rp = RadiativeProperties(sigma_a=sigma_a, sigma_s=sigma_s, domain_diameter=mesh.diameter())
        surface = asm.assemble_surface(rp)
        volume = asm.assemble_volume(rp)
        state = solver.solve_rites(surface, volume, rp, solver.SolverConfig())
        point_s = time.perf_counter() - t0
        reports = validation.standard_suite(mesh, grid, rp, state=state, collocation=asm.collocation)
        rep.points.append(PointOutcome(sigma_a, sigma_s, state, reports, point_s))
    rep.elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.point = 0
    return rep


def check_solution(state, q_ref, g_ref, tolerance: float) -> str | None:
    """None when the state is converged, finite and matches the reference."""
    import numpy as np

    if not state.converged:
        return "did not converge"
    for name, value, ref in (("q", state.q, q_ref), ("G", state.incident, g_ref)):
        value = np.asarray(value, dtype=float)
        ref = np.asarray(ref, dtype=float)
        if not np.all(np.isfinite(value)):
            return f"non-finite {name}"
        if value.shape != ref.shape:
            return f"{name} has shape {value.shape}, reference {ref.shape}"
        scale = float(np.abs(ref).max(initial=0.0)) or 1.0
        dev = float(np.abs(value - ref).max(initial=0.0)) / scale
        if not dev <= tolerance:
            return f"{name} deviates from the reference by {dev:.3g} (tolerance {tolerance:g})"
    return None


def load_reference(workload_name: str, index: int):
    path = BENCH_DIR / "reference" / f"{workload_name}.json"
    if not path.is_file():
        return None
    entry = json.loads(path.read_text(encoding="utf-8"))["lattice"].get(str(index))
    return entry["points"] if entry else None


def verify(rep: RepOutcome, reference, tolerance: float) -> str | None:
    if reference is None:
        return "no stored reference for this seed"
    if len(reference) != len(rep.points):
        return "reference has a different number of property points"
    for i, (pt, ref) in enumerate(zip(rep.points, reference)):
        if (pt.sigma_a, pt.sigma_s) != (ref["sigma_a"], ref["sigma_s"]):
            return f"point {i}: reference was made for other properties"
        failure = check_solution(pt.state, ref["q"], ref["G"], tolerance)
        if failure:
            return f"point {i}: {failure}"
    return None


@contextlib.contextmanager
def wall_clock_cap(seconds: float):
    """Raise RepTimeout inside the block once `seconds` have passed."""

    def fire(signum, frame):
        raise RepTimeout(f"repetition exceeded its cap of {seconds:g} s")

    old = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, old)


# ---------------------------------------------------------------------------
# Metrics


def _median(values, default=0.0) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else default


def oracle_summary(rep: RepOutcome, eps_min: float, diameter: float) -> dict:
    import math

    from ritesolver.kernels import RadiativeProperties
    from ritesolver.solver import contraction_bound

    residual = max((r.value for p in rep.points for r in p.reports if r.name == "energy_balance"),
                   default=0.0)
    failed = sum(not r.passed for p in rep.points for r in p.reports)
    ratio, bound = 0.0, 0.0
    for p in rep.points:
        if math.isfinite(p.state.contraction_ratio) and p.state.contraction_ratio >= ratio:
            ratio = p.state.contraction_ratio
            rp = RadiativeProperties(sigma_a=p.sigma_a, sigma_s=p.sigma_s,
                                     domain_diameter=diameter)
            bound = contraction_bound(rp, eps_min)
    return {
        "energy_balance_residual": residual,
        "oracles_failed": failed,
        "iterations": sum(p.state.iterations for p in rep.points),
        "contraction_ratio": ratio,
        "contraction_bound": bound,
        "warm_point_s": _median(p.point_s for p in rep.points[1:]),
    }


def layer_metrics(tracer, run_id: int, rep: RepOutcome) -> dict:
    """Per-layer metrics of one traced repetition: name -> (value, unit)."""
    summary = rep.summary
    t = tracer.layer_times(run_id)
    c = tracer.counts[run_id]
    warm_points = max(len(rep.points) - 1, 0)
    classify = t["visibility.classify"]
    partial = c["partial"]
    m = {
        "geometry.load_s": (t["geometry.load"]["total"], "s"),
        "geometry.segment_hits.calls": (t["geometry.segment_hits"]["calls"], "count"),
        "geometry.segment_hits_s": (t["geometry.segment_hits"]["total"], "s"),
        "assembly.init_s": (t["assembly.init"]["total"], "s"),
        "visibility.active.calls": (t["visibility.active"]["calls"], "count"),
        "visibility.active_s": (t["visibility.active"]["total"], "s"),
        "visibility.screen.calls": (t["visibility.screen"]["calls"], "count"),
        "visibility.screen_s": (t["visibility.screen"]["total"], "s"),
        "visibility.pairs": (c["pairs"], "count"),
        "visibility.pairs_clear": (c["pairs_clear"], "count"),
        "visibility.pairs_early_blocked": (c["pairs_early_blocked"], "count"),
        "visibility.pairs_listed": (c["pairs_listed"], "count"),
        "visibility.classify.calls": (classify["calls"], "count"),
        "visibility.classify_s": (classify["total"], "s"),
        "visibility.classify_self_s": (classify["self"], "s"),
        "visibility.full": (c["full"], "count"),
        "visibility.blocked": (c["blocked"], "count"),
        "visibility.partial": (partial, "count"),
        "visibility.pieces": (c["pieces"], "count"),
        "visibility.pieces_per_partial": (c["pieces"] / partial if partial else 0.0, "count"),
        "visibility.max_depth": (c["max_depth"], "count"),
        "visibility.warm_calls": (c["warm_calls"], "count"),
        "visibility.total_s": (sum(t[n]["total"] for n in
                                   ("visibility.active", "visibility.screen", "visibility.classify")),
                               "s"),
        "assembly.surface_s": (t["assembly.surface"]["total"], "s"),
        "assembly.volume_s": (t["assembly.volume"]["total"], "s"),
        "assembly.rows": (c["rows"], "count"),
        "assembly.rule.calls": (t["assembly.rule"]["calls"], "count"),
        "assembly.rule_s": (t["assembly.rule"]["total"], "s"),
        "assembly.rule_points": (c["rule_points"], "count"),
        "assembly.projection.calls": (t["assembly.projection"]["calls"], "count"),
        "assembly.projection_s": (t["assembly.projection"]["total"], "s"),
        "assembly.rule.calls_per_warm_point": (
            c["warm_rule_calls"] / warm_points if warm_points else 0.0, "count"),
        "assembly.self_s": (t["assembly.surface"]["self"] + t["assembly.volume"]["self"], "s"),
        "assembly.warm_point_s": (summary["warm_point_s"], "s"),
        "solver.solve_s": (t["solver.solve"]["total"], "s"),
        "solver.iterations": (summary["iterations"], "count"),
        "solver.contraction_ratio": (summary["contraction_ratio"], "ratio"),
        "solver.contraction_bound": (summary["contraction_bound"], "ratio"),
        "validation.oracles_s": (t["validation.oracles"]["total"], "s"),
        "validation.energy_balance_residual": (summary["energy_balance_residual"], "ratio"),
        "validation.oracles_failed": (summary["oracles_failed"], "count"),
        "cli.self_s": (t["cli.run_case"]["self"], "s"),
        "trace.time_to_solution_s": (rep.elapsed, "s"),
        "trace.spans": (sum(v["calls"] for v in t.values()), "count"),
    }
    return {k: (float(v), u) for k, (v, u) in m.items()}


# ---------------------------------------------------------------------------
# The run


def measure(workload, seed: int, seconds: float, trace: bool, work: Path,
            reference=None) -> dict:
    """Run the workload for `seconds` and return the full record of the run.

    reference overrides the stored reference (a list of per-point dicts);
    by default the stored one for the seed's lattice index is used.
    """
    import spans
    import workloads
    from ritesolver import assembly, geometry

    process_start = time.perf_counter()
    mesh_path = workloads.write_mesh(workload, work)
    props = workloads.properties(workload, seed)
    if reference is None:
        reference = load_reference(workload.name, workloads.lattice_index(seed))

    tracer = spans.Tracer() if trace else None
    installed = spans.installed(tracer) if trace else contextlib.nullcontext()
    reps: list[RepOutcome] = []
    setup_times: list[float] = []
    layer_reps: list[dict] = []

    def time_setup(count):
        """Set-up alone, repeated: mesh load plus Assembler construction."""
        if tracer is not None:
            tracer.run_id = -1
        for _ in range(count):
            t0 = time.perf_counter()
            mesh, grid = geometry.load_mesh(mesh_path)
            assembly.Assembler(mesh, grid)
            setup_times.append(time.perf_counter() - t0)
        return mesh

    with installed:
        mesh = time_setup(1)
        eps_min = float(mesh.arrays().emissivities.min())
        diameter = float(mesh.diameter())

        loop_start = time.perf_counter()
        while True:
            time_setup(SETUP_REPEATS)
            cap = workload.cap_s - (time.perf_counter() - process_start)
            if reps and cap <= 0:
                break
            run_id = len(reps)
            if tracer is not None:
                tracer.run_id = run_id
            out_dir = work / f"out-{run_id}"
            t0 = time.perf_counter()
            try:
                with wall_clock_cap(max(cap, 1e-3)):  # the first repetition always starts
                    if workload.kind == "case":
                        rep = run_case_rep(mesh_path, props, out_dir)
                    else:
                        rep = run_sweep_rep(mesh_path, props, tracer)
            except RepTimeout as exc:
                rep = RepOutcome(time.perf_counter() - t0, failure=str(exc))
            except Exception as exc:  # a failed repetition is recorded, not fatal
                traceback.print_exc(file=sys.stderr)
                rep = RepOutcome(time.perf_counter() - t0,
                                 failure=f"{type(exc).__name__}: {exc}")
            shutil.rmtree(out_dir, ignore_errors=True)
            if rep.failure is None:
                rep.failure = verify(rep, reference, workload.tolerance)
            rep.summary = oracle_summary(rep, eps_min, diameter)
            reps.append(rep)
            if tracer is not None:
                layer_reps.append(layer_metrics(tracer, run_id, rep))
            if rep.failure is not None and not rep.points:
                break  # raised or timed out: do not hammer a broken build
            elapsed = time.perf_counter() - loop_start
            typical = _median(r.elapsed for r in reps)
            if elapsed + typical > seconds:
                break
        time_setup(SETUP_REPEATS)

    done = [r for r in reps if r.points]
    summaries = [r.summary for r in done]
    times = [r.elapsed for r in done] or [r.elapsed for r in reps]
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "properties": props,
        "attempted": len(reps),
        "failed": sum(r.failure is not None for r in reps),
        "failures": [f"repetition {i}: {r.failure}" for i, r in enumerate(reps) if r.failure],
        "rep_seconds": [r.elapsed for r in reps],
        "setup_seconds": setup_times,
        "recorded": {
            "energy_balance_residual": max((s["energy_balance_residual"] for s in summaries),
                                           default=0.0),
            "oracles_failed": max((s["oracles_failed"] for s in summaries), default=0),
            "warm_point_s": _median(s["warm_point_s"] for s in summaries),
        },
    }
    if trace:
        record["metrics"] = {
            n: {"value": _median(r[n][0] for r in layer_reps), "unit": unit}
            for n, (_, unit) in layer_reps[0].items()
        }
        record["digests"] = tracer.digests.get(0, {})
        record["digests_repeat"] = all(d == record["digests"] for d in tracer.digests.values())
        record["tracer"] = tracer
    else:
        record["metrics"] = {
            "setup_s": {"value": _median(setup_times), "unit": "s"},
            "time_to_solution_s": {"value": _median(times), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
    return record


def benchmark_metrics(root: Path, trace: bool) -> dict:
    """name -> unit, as BENCHMARK.json lists them for this mode."""
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    pin_threads()
    import_package(root)
    sys.path.insert(0, str(BENCH_DIR))
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wanted = benchmark_metrics(root, bool(args.trace))
    workload = workloads.WORKLOADS[args.workload]

    out_root = root / ".perfbench"
    work = out_root / f"work-{os.getpid()}"
    try:
        record = measure(workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    tracer = record.pop("tracer", None)
    record["environment"] = environment(root, args.seed)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (out_root / "results").mkdir(parents=True, exist_ok=True)
    if tracer is not None:
        (out_root / "spans").mkdir(parents=True, exist_ok=True)
        tracer.dump(out_root / "spans" / f"{tag}.json")
    (out_root / "results" / f"{tag}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    metrics = {}
    for name, unit in wanted.items():
        got = record["metrics"][name]
        if got["unit"] != unit:
            raise SystemExit(f"error: {name} is measured in {got['unit']}, BENCHMARK.json says {unit}")
        metrics[name] = got
    for failure in record["failures"]:
        print(f"failed {failure}", file=sys.stderr)
    for name, got in record["metrics"].items():
        print(f"{name:40s} {got['value']:.6g} {got['unit']}")
    print(f"recorded: {json.dumps(record['recorded'], sort_keys=True)}")
    print(f"environment: {json.dumps(record['environment'], sort_keys=True)}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
