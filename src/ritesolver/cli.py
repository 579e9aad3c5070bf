"""Command-line case runner for enclosure radiation problems.

Three subcommands cover the workflow. `generate` writes a mesh-plus-grid
file for one of the builtin benchmark enclosures. `run` executes a full
case from a JSON config: assembly, solvability screening, the outer
iteration, the oracle suite, and CSV emission of line profiles, the
convergence history, and the oracle table. `validate` runs the
geometry-level oracle checks on a mesh without solving.

Builtin enclosures:

* cube: unit box, black walls, the floor held hot and every other wall
  cold. The classic pure-scattering benchmark runs on this geometry.
* lshape: a 1 x 3 x 3 box with the top of the far arm notched away,
  leaving an L cross-section (full height over the first meter, height 2
  beyond it). Black walls at 500 K around a 1000 K medium.

Profiles sample the nearest collocation entity (boundary flux node for q,
interior cell center for G) with no interpolation, so rerunning a config
reproduces output byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import numbers
import sys
import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from ritesolver.assembly import Assembler, collocation_points
from ritesolver.geometry import (
    GeometryError,
    SurfaceMesh,
    VoxelGrid,
    load_mesh,
    mesh_from_records,
    points_in_mesh,
    write_mesh_file,
)
from ritesolver.kernels import STEFAN_BOLTZMANN, RadiativeProperties, solvability_margin
from ritesolver.solver import SolverConfig, solve_rites
from ritesolver.validation import (
    DEFAULT_ORACLE_SEED,
    report_table,
    standard_suite,
    visibility_report_check,
    write_report_csv,
)
from ritesolver.visibility import Classification, build_active_list

__all__ = [
    "BUILTIN_CASES",
    "CaseConfig",
    "ConfigError",
    "LineOutsideDomain",
    "ProfileSpec",
    "RunResult",
    "builtin_case",
    "generate_case",
    "main",
    "run_case",
]

log = logging.getLogger("ritesolver.cli")


class ConfigError(ValueError):
    """Invalid or inconsistent case configuration."""


class LineOutsideDomain(ValueError):
    """A profile line leaves the region its quantity is defined on."""


# ---------------------------------------------------------------------------
# Builtin enclosures


def _mesh_panels(panels, resolution: int):
    """Mesh axis-aligned rectangular panels into a conforming quad surface.

    Each panel is (axis, value, a_axis, b_axis, a_lo, a_hi, b_lo, b_hi,
    epsilon, temperature) with the in-plane axes ordered so that
    unit(a) x unit(b) points inward. resolution counts elements per unit
    length; panel extents must be integer multiples of 1/resolution for
    neighboring panels to share nodes exactly.
    """
    nodes: list[tuple] = []
    index: dict[tuple, int] = {}

    def node_id(p):
        key = tuple(round(c, 9) for c in p)
        i = index.get(key)
        if i is None:
            i = len(nodes)
            index[key] = i
            nodes.append(key)
        return i

    records = []
    for ax, val, a, b, a_lo, a_hi, b_lo, b_hi, eps, temp in panels:
        na = max(1, round((a_hi - a_lo) * resolution))
        nb = max(1, round((b_hi - b_lo) * resolution))
        da = (a_hi - a_lo) / na
        db = (b_hi - b_lo) / nb
        for i in range(na):
            for j in range(nb):
                quad = []
                for ii, jj in ((i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1)):
                    p = [0.0, 0.0, 0.0]
                    p[ax] = val
                    p[a] = a_lo + ii * da
                    p[b] = b_lo + jj * db
                    quad.append(node_id(tuple(p)))
                records.append({"nodes": quad, "epsilon": eps, "T": temp})
    return np.array(nodes, dtype=float), records


def _cube_case(resolution: int):
    """Unit cube, black walls, hot floor at 1000 K, everything else cold."""
    hot, cold = 1000.0, 0.0
    panels = [
        (2, 0.0, 0, 1, 0.0, 1.0, 0.0, 1.0, 1.0, hot),   # floor, +z inward
        (2, 1.0, 1, 0, 0.0, 1.0, 0.0, 1.0, 1.0, cold),  # ceiling, -z
        (1, 0.0, 2, 0, 0.0, 1.0, 0.0, 1.0, 1.0, cold),  # y = 0, +y
        (1, 1.0, 0, 2, 0.0, 1.0, 0.0, 1.0, 1.0, cold),  # y = 1, -y
        (0, 0.0, 1, 2, 0.0, 1.0, 0.0, 1.0, 1.0, cold),  # x = 0, +x
        (0, 1.0, 2, 1, 0.0, 1.0, 0.0, 1.0, 1.0, cold),  # x = 1, -x
    ]
    nodes, records = _mesh_panels(panels, resolution)
    n = resolution
    grid = {
        "origin": [0.0, 0.0, 0.0],
        "spacing": [1.0 / n] * 3,
        "dims": [n, n, n],
        "T": [0.0] * n**3,
    }
    return nodes, records, grid


def _lshape_case(resolution: int):
    """The L-shaped enclosure: 1 x 3 x 3 with the far arm capped at height 2.

    Cross-section in (y, z): full height 3 over y in [0, 1], height 2 over
    y in [1, 3]. Ten rectangular panels close the surface. Black walls at
    500 K; the grid covers the bounding box and marks the notch cells by
    lying outside the mesh (they carry no unknowns).
    """
    wall, medium = 500.0, 1000.0
    eps = 1.0
    panels = [
        (0, 0.0, 1, 2, 0.0, 1.0, 0.0, 3.0, eps, wall),  # x = 0 tall strip, +x
        (0, 0.0, 1, 2, 1.0, 3.0, 0.0, 2.0, eps, wall),  # x = 0 long strip, +x
        (0, 1.0, 2, 1, 0.0, 3.0, 0.0, 1.0, eps, wall),  # x = 1 tall strip, -x
        (0, 1.0, 2, 1, 0.0, 2.0, 1.0, 3.0, eps, wall),  # x = 1 long strip, -x
        (2, 0.0, 0, 1, 0.0, 1.0, 0.0, 3.0, eps, wall),  # floor, +z
        (2, 3.0, 1, 0, 0.0, 1.0, 0.0, 1.0, eps, wall),  # high ceiling, -z
        (2, 2.0, 1, 0, 1.0, 3.0, 0.0, 1.0, eps, wall),  # low ceiling, -z
        (1, 0.0, 2, 0, 0.0, 3.0, 0.0, 1.0, eps, wall),  # y = 0 end, +y
        (1, 3.0, 0, 2, 0.0, 1.0, 0.0, 2.0, eps, wall),  # y = 3 end, -y
        (1, 1.0, 0, 2, 0.0, 1.0, 2.0, 3.0, eps, wall),  # notch face, -y
    ]
    nodes, records = _mesh_panels(panels, resolution)
    n = resolution
    dims = [n, 3 * n, 3 * n]
    grid = {
        "origin": [0.0, 0.0, 0.0],
        "spacing": [1.0 / n] * 3,
        "dims": dims,
        "T": [medium] * (dims[0] * dims[1] * dims[2]),
    }
    return nodes, records, grid


BUILTIN_CASES = {"cube": _cube_case, "lshape": _lshape_case}


def _builtin_records(kind: str, resolution: int):
    """(nodes, element records, grid record) of a builtin enclosure."""
    if resolution < 1:
        raise ConfigError(f"resolution must be at least 1, got {resolution}")
    try:
        build = BUILTIN_CASES[kind.lower()]
    except KeyError:
        raise ConfigError(
            f"unknown builtin case {kind!r}; choose from {sorted(BUILTIN_CASES)}"
        ) from None
    return build(resolution)


def builtin_case(kind: str, resolution: int) -> tuple[SurfaceMesh, VoxelGrid]:
    """In-memory mesh and grid for a builtin enclosure.

    Goes through the same construction as loading the generated file, so
    library use and file use agree exactly.
    """
    return mesh_from_records(*_builtin_records(kind, resolution))


def generate_case(kind: str, resolution: int, out_dir) -> Path:
    """Write the mesh-plus-grid file for a builtin enclosure; returns its path."""
    nodes, records, grid = _builtin_records(kind, resolution)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{kind.lower()}_r{resolution}.json"
    write_mesh_file(path, nodes, records, grid)
    return path


# ---------------------------------------------------------------------------
# Configuration


# Longest file name, in bytes, that common file systems accept.
_NAME_MAX = 255


@dataclass(frozen=True)
class ProfileSpec:
    """One sampled line: where it runs, how densely, and what it reads.

    Its CSV, profile_<name>.csv, is written after the solve, so a name the
    file system cannot take is refused here, before any work starts.
    """

    name: str
    start: tuple[float, float, float]
    end: tuple[float, float, float]
    samples: int
    quantity: str  # "q" or "G"

    def __post_init__(self):
        # The name becomes part of a file name in the output directory.
        if "/" in self.name or "\0" in self.name or self.name in (".", ".."):
            raise ConfigError(f"profile {self.name!r}: name must not be a path")
        size = len(f"profile_{self.name}.csv".encode())
        if size > _NAME_MAX:
            raise ConfigError(f"profile {self.name[:16]!r}...: file name profile_<name>.csv "
                              f"takes {size} bytes, more than {_NAME_MAX}")
        if not isinstance(self.samples, numbers.Integral) or isinstance(self.samples, bool):
            raise ConfigError(f"profile {self.name!r}: samples must be an integer, "
                              f"got {self.samples!r}")
        if self.samples < 2:
            raise ConfigError(f"profile {self.name!r}: need at least 2 samples, got {self.samples}")
        if len(self.start) != 3 or len(self.end) != 3:
            raise ConfigError(f"profile {self.name!r}: start and end must be 3-vectors")
        if self.quantity not in ("q", "G"):
            raise ConfigError(f"profile {self.name!r}: quantity must be 'q' or 'G', got {self.quantity!r}")
        if not np.all(np.isfinite(self.start)) or not np.all(np.isfinite(self.end)):
            raise ConfigError(f"profile {self.name!r}: endpoints must be finite")


# The type each scalar key must have. bool is an int subclass, so true and
# false are accepted only where a flag is expected.
_CONFIG_TYPES = {
    "sigma_a": (numbers.Real, "a number"),
    "sigma_s": (numbers.Real, "a number"),
    "tolerance": (numbers.Real, "a number"),
    "reference_temperature": (numbers.Real, "a number"),
    "max_iterations": (numbers.Integral, "an integer"),
    "seed": (numbers.Integral, "an integer"),
    "output": (str, "a string"),
    "dump_matrices": (bool, "true or false"),
    "dump_visibility": (bool, "true or false"),
}


@dataclass(frozen=True)
class CaseConfig:
    """Fully resolved case description; the echoed form reruns identically."""

    mesh: str
    sigma_a: float
    sigma_s: float
    tolerance: float = 1e-8
    max_iterations: int = 200
    output: str = "out"
    seed: int = DEFAULT_ORACLE_SEED
    dump_matrices: bool = False
    dump_visibility: bool = False
    reference_temperature: float | None = None
    profiles: tuple[ProfileSpec, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if not Path(self.mesh).is_file():
            raise ConfigError(f"mesh file does not exist: {self.mesh}")
        for key, (kind, noun) in _CONFIG_TYPES.items():
            value = getattr(self, key)
            if value is None and key == "reference_temperature":
                continue
            if not isinstance(value, kind) or (kind is not bool and isinstance(value, bool)):
                raise ConfigError(f"bad config value: {key} must be {noun}, got {value!r}")
        # Profiles are divided by STEFAN_BOLTZMANN T^4 of this temperature.
        temp = self.reference_temperature
        if temp is not None and not (math.isfinite(temp) and temp > 0.0):
            raise ConfigError(
                f"bad config value: reference_temperature must be positive, got {temp!r}")
        # The run builds both from these values; building them here turns a
        # bad value into a ConfigError before any work starts.
        try:
            self.radiative_properties(domain_diameter=1.0)
            self.solver_config()
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad config value: {exc}") from exc

    def radiative_properties(self, domain_diameter: float) -> RadiativeProperties:
        """The configured medium inside an enclosure of the given diameter."""
        return RadiativeProperties(sigma_a=self.sigma_a, sigma_s=self.sigma_s,
                                   domain_diameter=domain_diameter)

    def solver_config(self) -> SolverConfig:
        """The configured outer-iteration controls."""
        return SolverConfig(tolerance=self.tolerance, max_iterations=self.max_iterations)

    @classmethod
    def from_dict(cls, data: dict, base_dir=".") -> "CaseConfig":
        unknown = set(data) - _CONFIG_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key in ("mesh", "sigma_a", "sigma_s"):
            if key not in data:
                raise ConfigError(f"config is missing required key {key!r}")
        data = dict(data)
        mesh = Path(base_dir) / str(data.pop("mesh"))
        raw_profiles = data.pop("profiles", [])
        if not isinstance(raw_profiles, list):
            raise ConfigError(f"bad config value: profiles must be a list, got {raw_profiles!r}")
        profiles = []
        for rec in raw_profiles:
            if not isinstance(rec, dict):
                raise ConfigError(f"profile record must be an object, got {rec!r}")
            extra = set(rec) - {f.name for f in fields(ProfileSpec)}
            if extra:
                raise ConfigError(f"unknown profile keys: {sorted(extra)}")
            try:
                profiles.append(
                    ProfileSpec(
                        name=str(rec["name"]),
                        start=tuple(float(c) for c in rec["start"]),
                        end=tuple(float(c) for c in rec["end"]),
                        samples=rec["samples"],
                        quantity=str(rec["quantity"]),
                    )
                )
            except KeyError as exc:
                raise ConfigError(f"profile record missing key {exc}") from exc
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"profile record has a bad value: {exc}") from exc
        try:
            return cls(mesh=str(mesh.resolve()), profiles=tuple(profiles), **data)
        except TypeError as exc:
            raise ConfigError(f"bad config value: {exc}") from exc

    @classmethod
    def from_file(cls, path) -> "CaseConfig":
        path = Path(path)
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict(data, base_dir=path.parent)

    def to_dict(self) -> dict:
        return asdict(self)


_CONFIG_KEYS = frozenset(f.name for f in fields(CaseConfig))


# ---------------------------------------------------------------------------
# Profile emission


def _nearest(pts, ref):
    """Index of the nearest row of ref (m, 3) to each point (n, 3), and its distance."""
    d2 = ((pts[:, None, :] - ref[None, :, :]) ** 2).sum(-1)
    nearest = d2.argmin(axis=1)
    return nearest, np.sqrt(d2[np.arange(pts.shape[0]), nearest])


def sample_profile(collocation, grid: VoxelGrid, mesh: SurfaceMesh, spec: ProfileSpec):
    """Where a profile line samples and which unknown each sample reads.

    Returns (s, pts, nearest): arc lengths (n,), points (n, 3) and indices
    of the nearest entities. Wall flux reads the nearest boundary
    collocation node and requires the line to stay on the boundary (within
    one element diameter of its nodes); incident energy reads the nearest
    interior cell center and requires the line inside the enclosure.
    Needs no solution, so a bad line is refused before any work starts.
    """
    start = np.asarray(spec.start, dtype=float)
    end = np.asarray(spec.end, dtype=float)
    s = np.linspace(0.0, float(np.linalg.norm(end - start)), spec.samples)
    direction = end - start
    length = np.linalg.norm(direction)
    pts = start[None, :] + (s / length)[:, None] * direction[None, :] if length > 0 else (
        np.repeat(start[None, :], spec.samples, axis=0)
    )

    if spec.quantity == "q":
        # Restrict to walls whose plane carries the whole line, when any do.
        # Corner samples would otherwise tie between adjacent walls and pick
        # a winner by floating-point noise, breaking profile symmetry.
        arr = mesh.arrays()
        tol = 1e-9 * max(1.0, float(np.abs(arr.plane_offsets).max()))
        coplanar = (np.abs(arr.normals @ start - arr.plane_offsets) <= tol) & (
            np.abs(arr.normals @ end - arr.plane_offsets) <= tol
        )
        if coplanar.any():
            cand = np.nonzero(coplanar[collocation.boundary_element])[0]
        else:
            cand = np.arange(collocation.n_boundary)
        nearest, dist = _nearest(pts, collocation.boundary_points[cand])
        nearest = cand[nearest]
        diam = arr.diameters[collocation.boundary_element[nearest]]
        if np.any(dist > diam):
            worst = int(np.argmax(dist - diam))
            raise LineOutsideDomain(
                f"profile {spec.name!r}: sample {worst} at {pts[worst]} is "
                f"{dist[worst]:.3g} m from the nearest wall flux node"
            )
        return s, pts, nearest
    inside = points_in_mesh(mesh, pts)
    if not inside.all():
        worst = int(np.argmin(inside))
        raise LineOutsideDomain(
            f"profile {spec.name!r}: sample {worst} at {pts[worst]} lies outside the enclosure"
        )
    if collocation.n_interior == 0:
        raise LineOutsideDomain(f"profile {spec.name!r}: the grid has no interior cells")
    nearest, dist = _nearest(pts, collocation.interior_points)
    reach = float(np.linalg.norm(grid.spacing))
    if np.any(dist > reach):
        worst = int(np.argmax(dist))
        raise LineOutsideDomain(
            f"profile {spec.name!r}: sample {worst} at {pts[worst]} is "
            f"{dist[worst]:.3g} m from the nearest interior cell center"
        )
    return s, pts, nearest


def _profile_rows(state, spec: ProfileSpec, samples) -> np.ndarray:
    """(n, 5) rows (s, x, y, z, value) of a solved quantity at sample_profile's samples."""
    s, pts, nearest = samples
    values = (state.q if spec.quantity == "q" else state.incident)[nearest]
    return np.column_stack([s, pts, values])


def _write_profile_csv(path, rows, spec: ProfileSpec, reference_temperature):
    scale = 1.0
    unit = "W/m^2"
    if reference_temperature is not None:
        scale = STEFAN_BOLTZMANN * reference_temperature**4
        unit = "-"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["s [m]", "x [m]", "y [m]", "z [m]", f"{spec.quantity} [{unit}]"])
        for s, x, y, z, v in rows:
            writer.writerow([repr(float(c)) for c in (s, x, y, z, v / scale)])


# ---------------------------------------------------------------------------
# Case execution


@dataclass(frozen=True)
class RunResult:
    config: CaseConfig
    state: object
    reports: tuple
    output_dir: Path
    exit_code: int


_VISIBILITY_LABELS = {Classification.FULLY_VISIBLE: "full",
                      Classification.FULLY_BLOCKED: "blocked"}


def _dump_visibility_csv(path, assembler: Assembler) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["point_kind", "point_index", "active_element", "screen", "classification"])
        for (kind, pidx), plan in sorted(assembler.row_plans.items()):
            for k, out, cls in sorted(zip(plan.elements.tolist(), plan.screens, plan.visibility),
                                      key=lambda entry: entry[0]):
                screen = ";".join(str(i) for i in out) if out else "empty"
                label = _VISIBILITY_LABELS.get(cls.classification, f"partial:{cls.fraction:.6f}")
                writer.writerow([kind, pidx, k, screen, label])


def run_case(config: CaseConfig) -> RunResult:
    """Execute one configured case end to end and write all outputs.

    The exit code in the result is zero exactly when the outer iteration
    converged and every mandatory oracle passed.
    """
    out_dir = Path(config.output)
    out_dir.mkdir(parents=True, exist_ok=True)

    mesh, grid = load_mesh(config.mesh)
    props = config.radiative_properties(mesh.diameter())
    assembler = Assembler(mesh, grid)
    samples = [sample_profile(assembler.collocation, grid, mesh, spec) for spec in config.profiles]

    eps_min = float(mesh.arrays().emissivities.min())
    margin, solvable = solvability_margin(props, eps_min)
    log.info("solvability margin %.6f (%s)", margin, "ok" if solvable else "NOT GUARANTEED")

    t0 = time.perf_counter()
    surface = assembler.assemble_surface(props)
    volume = assembler.assemble_volume(props)
    log.info("assembled %d wall rows and %d medium rows in %.1f s",
             surface.gmat.shape[0], volume.umat.shape[0], time.perf_counter() - t0)

    state = solve_rites(surface, volume, props, config.solver_config())
    log.info("solver %s after %d iterations",
             "converged" if state.converged else "DID NOT CONVERGE", state.iterations)

    with open(out_dir / "convergence.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "residual"])
        for i, r in enumerate(state.residual_history, start=1):
            writer.writerow([i, repr(float(r))])

    reports = standard_suite(
        mesh, grid, props, state=state, collocation=assembler.collocation
    )
    table = report_table(reports)
    print(table)
    (out_dir / "oracles.txt").write_text(table + "\n", encoding="utf-8")
    write_report_csv(out_dir / "oracles.csv", reports)

    for spec, at in zip(config.profiles, samples):
        _write_profile_csv(
            out_dir / f"profile_{spec.name}.csv",
            _profile_rows(state, spec, at), spec, config.reference_temperature,
        )

    if config.dump_matrices:
        blocks = {"gmat": surface.gmat, "fmat": surface.fmat, "h": surface.h,
                  "umat": volume.umat, "vmat": volume.vmat, "t": volume.t}
        for name, block in blocks.items():
            np.save(out_dir / f"{name}.npy", block)
    if config.dump_visibility:
        _dump_visibility_csv(out_dir / "visibility.csv", assembler)

    (out_dir / "config.json").write_text(
        json.dumps(config.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    ok = state.converged and all(r.passed for r in reports)
    return RunResult(
        config=config,
        state=state,
        reports=tuple(reports),
        output_dir=out_dir,
        exit_code=0 if ok else 1,
    )


# Pairs the validate subcommand draws for the ray-oracle check.
_VALIDATE_PAIRS = 3


def validate_case(config: CaseConfig) -> int:
    """Geometry-level oracle run: closure identities plus sampled pair checks.

    Picks a few (boundary point, active element) pairs with the configured
    seed and compares the clipped visible fraction against the ray oracle;
    writes the report table and CSV to the output directory.
    """
    out_dir = Path(config.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    mesh, grid = load_mesh(config.mesh)
    props = config.radiative_properties(mesh.diameter())
    col = collocation_points(mesh, grid)
    reports = standard_suite(mesh, grid, props, state=None, collocation=col)

    rng = np.random.default_rng(config.seed)
    for _ in range(_VALIDATE_PAIRS):
        i = int(rng.integers(col.n_boundary))
        p = col.boundary_points[i]
        own = int(col.boundary_element[i])
        active = build_active_list(p, col.boundary_normals[i], mesh, source_element=own)
        if not active.size:
            continue
        k = int(active[int(rng.integers(active.size))])
        reports.append(
            visibility_report_check(p, k, mesh, source_element=own, seed=config.seed)
        )

    table = report_table(reports)
    print(table)
    (out_dir / "oracles.txt").write_text(table + "\n", encoding="utf-8")
    write_report_csv(out_dir / "oracles.csv", reports)
    return 0 if all(r.passed for r in reports) else 1


# ---------------------------------------------------------------------------
# Argument parsing


# Flags that override one config key each: flag -> (key, add_argument options).
_OVERRIDE_FLAGS = {
    "--out": ("output", dict(metavar="DIR", help="output directory (overrides the config)")),
    "--tol": ("tolerance", dict(type=float, metavar="X", help="outer iteration tolerance")),
    "--max-iter": ("max_iterations", dict(type=int, metavar="N", help="outer iteration cap")),
    "--dump-matrices": ("dump_matrices", dict(
        action="store_true", help="write the four operator blocks and load vectors as .npy")),
    "--dump-visibility": ("dump_visibility", dict(
        action="store_true", help="write per-pair screening and classification outcomes")),
    "--seed": ("seed", dict(type=int, metavar="N", help="oracle sampling seed")),
}


def _add_case_flags(parser: argparse.ArgumentParser, flags) -> None:
    """--config plus the override flags a subcommand reads; an omitted flag
    leaves no attribute, so the config value stands."""
    parser.add_argument("--config", required=True, help="JSON case configuration")
    for flag in flags:
        key, options = _OVERRIDE_FLAGS[flag]
        parser.add_argument(flag, dest=key, default=argparse.SUPPRESS, **options)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ritesolve",
        description="Radiative exchange in gray diffuse enclosures with participating media.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a builtin benchmark mesh")
    gen.add_argument("case", choices=sorted(BUILTIN_CASES), help="builtin enclosure")
    gen.add_argument("--resolution", type=int, default=5, metavar="N",
                     help="elements per meter of wall (default 5)")
    gen.add_argument("--out", default=".", help="directory for the mesh file")

    run = sub.add_parser("run", help="solve a configured case")
    _add_case_flags(run, ["--out", "--tol", "--max-iter", "--dump-matrices", "--dump-visibility"])

    val = sub.add_parser("validate", help="oracle checks on a mesh, no solve")
    _add_case_flags(val, ["--out", "--seed"])

    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")

    try:
        if args.command == "generate":
            path = generate_case(args.case, args.resolution, args.out)
            print(path)
            return 0
        overrides = {k: v for k, v in vars(args).items() if k in _CONFIG_KEYS}
        config = replace(CaseConfig.from_file(args.config), **overrides)
        if args.command == "run":
            result = run_case(config)
            print(f"exit status {result.exit_code} "
                  f"({'ok' if result.exit_code == 0 else 'convergence or oracle failure'})")
            return result.exit_code
        return validate_case(config)
    except (ConfigError, LineOutsideDomain, GeometryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
