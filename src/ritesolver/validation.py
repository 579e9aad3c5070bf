"""Independent checks of the identities the solver is built on.

Every oracle here recomputes a quantity by a route the assembly code does
not take. The closure checks integrate the raw geometric kernels with
elevated quadrature and compare against their exact values (pi over a
closed surface seen from a wall point, 4 pi from an interior point). The
visibility oracle replaces the shadow clipper with brute stratified ray
sampling. The energy balance compares the integrated wall load with
the net emission of the medium using the assembly collocation weights, so
the check isolates solver error from discretization error. Results come
back as OracleReport records with both deviations and a pass flag; the
suite runner formats them as a table or CSV for the command line.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

import numpy as np

from ritesolver.assembly import CollocationSet, collocation_points
from ritesolver.geometry import SurfaceMesh, VoxelGrid, as_point, segment_element_hits
from ritesolver.kernels import RadiativeProperties, blackbody_emission
from ritesolver.solver import SolutionState
from ritesolver.visibility import classify_visibility, screen_active_set

__all__ = [
    "DEFAULT_ORACLE_SEED",
    "OracleReport",
    "energy_balance",
    "lemma1_identity",
    "lemma3_interior_identity",
    "report_table",
    "standard_suite",
    "visibility_oracle",
    "visibility_report_check",
    "write_report_csv",
]

DEFAULT_ORACLE_SEED = 1898
_MIN_RAYS = 10_000


@dataclass(frozen=True)
class OracleReport:
    """Outcome of one oracle check.

    passed is true exactly when the governing deviation (relative when the
    reference is nonzero, absolute otherwise) stays within tolerance.
    """

    name: str
    value: float
    reference: float
    abs_deviation: float
    rel_deviation: float
    tolerance: float
    passed: bool
    resolution: Mapping[str, object]

    @classmethod
    def evaluate(cls, name, value, reference, tolerance, resolution) -> "OracleReport":
        value = float(value)
        reference = float(reference)
        abs_dev = abs(value - reference)
        rel_dev = abs_dev / abs(reference) if reference != 0.0 else abs_dev
        return cls(
            name=name,
            value=value,
            reference=reference,
            abs_deviation=abs_dev,
            rel_deviation=rel_dev,
            tolerance=float(tolerance),
            passed=bool(rel_dev <= tolerance),
            resolution=MappingProxyType(dict(resolution)),
        )


@lru_cache(maxsize=16)
def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights, kept apart from assembly's rules."""
    return np.polynomial.legendre.leggauss(order)


def _plain_rule(element, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Fixed tensor-Gauss rule on one element, independent of assembly.

    Quads map the Gauss square through the bilinear chart; triangles use the
    collapsed-square map whose jacobian absorbs the apex degeneracy. No
    distance banding and no subdivision: the rule is the same for every
    receiver point, which keeps the closure error a pure, one-signed
    discretization error that shrinks under uniform refinement.
    """
    x, w = _gauss_legendre(order)
    uu, vv = np.meshgrid(x, x, indexing="ij")
    ww = np.outer(w, w).ravel()
    uu = uu.ravel()
    vv = vv.ravel()
    v = element.vertices
    if element.is_quad:
        s = 0.5 * (uu + 1.0)
        t = 0.5 * (vv + 1.0)
        pts = (
            np.outer((1 - s) * (1 - t), v[0])
            + np.outer(s * (1 - t), v[1])
            + np.outer(s * t, v[2])
            + np.outer((1 - s) * t, v[3])
        )
        xu = 0.5 * (np.outer(1 - t, v[1] - v[0]) + np.outer(t, v[2] - v[3]))
        xv = 0.5 * (np.outer(1 - s, v[3] - v[0]) + np.outer(s, v[2] - v[1]))
        return pts, ww * np.linalg.norm(np.cross(xu, xv), axis=1)
    a = 0.5 * (uu + 1.0)
    b = 0.5 * (vv + 1.0) * a
    pts = np.outer(1.0 - a, v[0]) + np.outer(a - b, v[1]) + np.outer(b, v[2])
    jac = 2.0 * element.area * a * 0.25
    return pts, ww * jac


def _closure_total(mesh: SurfaceMesh, p, normal, skip, beta: float, order: int) -> float:
    """exp(-beta d) cos(phi_p) cos(phi_r) / d^2 integrated over the surface.

    Seen from p, each element but skip takes its plain rule, and points at
    zero distance drop out. A wall receiver passes its normal; an interior
    one passes None and has cos(phi_p) = 1.0, the plain solid angle. The
    kernel is written out here, apart from kernels, so the check shares no
    arithmetic with assembly.
    """
    total = 0.0
    for k, element in enumerate(mesh.elements):
        if k == skip:
            continue
        pts, wq = _plain_rule(element, order)
        diff = pts - p
        dist = np.linalg.norm(diff, axis=1)
        keep = dist > 0.0
        diff, dist, wq = diff[keep], dist[keep], wq[keep]
        cos_p = 1.0 if normal is None else np.clip(diff @ normal / dist, 0.0, None)
        cos_r = np.clip(-diff @ element.normal / dist, 0.0, None)
        total += float((np.exp(-beta * dist) * cos_p * cos_r / dist**2 * wq).sum())
    return total


def lemma1_identity(
    mesh: SurfaceMesh,
    point,
    normal,
    source_element: int | None = None,
    order: int = 6,
    tolerance: float = 0.01,
) -> OracleReport:
    """Closure of the wall exchange kernel over a convex enclosure.

    Integrates cos(phi_p) cos(phi_r) / d^2 over the whole surface as seen
    from a point on it with the given normal, in a transparent medium; on
    any closed convex enclosure the exact value is pi regardless of where
    the point sits. The element carrying the point contributes nothing (its
    receiver cosine vanishes) but is excluded anyway via source_element to
    keep the quadrature clean.
    """
    total = _closure_total(mesh, as_point(point), as_point(normal), source_element, 0.0, order)
    return OracleReport.evaluate(
        name="closure_wall_kernel",
        value=total,
        reference=math.pi,
        tolerance=tolerance,
        resolution={"elements": mesh.n_elements, "order": order},
    )


def lemma3_interior_identity(
    mesh: SurfaceMesh,
    point,
    props: RadiativeProperties | None = None,
    order: int = 6,
    tolerance: float = 0.01,
) -> OracleReport:
    """Solid-angle closure of the interior-receiver kernel.

    The same integral as lemma1_identity with the receiver cosine 1.0: from
    a point strictly inside the enclosure, cos(phi_r) / d^2 integrated over
    the closed surface equals 4 pi exactly. With an attenuating medium
    (props with beta > 0) the e^(-beta d) factor pulls the integral below
    that; the report then still uses 4 pi as the reference so the deviation
    reads as the attenuation deficit.
    """
    beta = props.beta if props is not None else 0.0
    total = _closure_total(mesh, as_point(point), None, None, beta, order)
    return OracleReport.evaluate(
        name="closure_interior_kernel",
        value=total,
        reference=4.0 * math.pi,
        tolerance=tolerance,
        resolution={"elements": mesh.n_elements, "order": order},
    )


def _stratified_points(element, n_rays: int, rng: np.random.Generator) -> np.ndarray:
    """Jittered stratified sample points on an element, roughly n_rays many."""
    side = max(int(math.ceil(math.sqrt(n_rays))), 2)
    jitter_u = rng.uniform(size=(side, side))
    jitter_v = rng.uniform(size=(side, side))
    u = ((np.arange(side)[:, None] + jitter_u) / side).ravel()
    v = ((np.arange(side)[None, :] + jitter_v) / side).ravel()
    verts = element.vertices
    if element.is_quad:
        a = verts[0] + np.outer(u, verts[1] - verts[0])
        b = verts[3] + np.outer(u, verts[2] - verts[3])
        return a + (b - a) * v[:, None]
    # Square-root warp maps the unit square onto the triangle evenly.
    r = np.sqrt(u)
    w0 = 1.0 - r
    w1 = r * (1.0 - v)
    w2 = r * v
    return np.outer(w0, verts[0]) + np.outer(w1, verts[1]) + np.outer(w2, verts[2])


def visibility_oracle(
    point,
    element,
    mesh: SurfaceMesh,
    n_rays: int = 2 * _MIN_RAYS,
    seed: int = DEFAULT_ORACLE_SEED,
) -> float:
    """Brute-force visible fraction of an element from a point.

    Stratified jittered samples cover the element; the fraction of sample
    points with a clear sight line to the point is returned. Serves as
    ground truth for the shadow clipper, at binomial-sampling accuracy.
    Every sight line lies in the bounding box of the point and the element,
    so elements whose own boxes miss it (with a rounding pad) are skipped.
    """
    if n_rays < _MIN_RAYS:
        raise ValueError(f"need at least {_MIN_RAYS} rays for a trustworthy fraction, got {n_rays}")
    p = as_point(point)
    rng = np.random.default_rng(seed)
    pts = _stratified_points(element, n_rays, rng)
    arrays = mesh.arrays()
    pad = 1e-9 * float(arrays.diameters.max())
    box_lo = np.minimum(p, element.vertices.min(axis=0)) - pad
    box_hi = np.maximum(p, element.vertices.max(axis=0)) + pad
    near = np.nonzero(np.all((arrays.vertices.max(axis=1) >= box_lo)
                             & (arrays.vertices.min(axis=1) <= box_hi), axis=1))[0]
    clear = 0
    for lo in range(0, pts.shape[0], 2048):
        chunk = pts[lo : lo + 2048]
        hits = segment_element_hits(
            np.broadcast_to(p, chunk.shape), chunk, arrays, indices=near
        ).any(axis=1)
        clear += int((~hits).sum())
    return clear / pts.shape[0]


def visibility_report_check(
    point,
    active_index: int,
    mesh: SurfaceMesh,
    source_element: int | None = None,
    n_rays: int = 2 * _MIN_RAYS,
    seed: int = DEFAULT_ORACLE_SEED,
    tolerance: float = 0.02,
) -> OracleReport:
    """Clipped visible fraction against the ray oracle for one pair."""
    p = as_point(point)
    blockers = screen_active_set(p, [active_index], mesh, source_element)[0]
    report = classify_visibility(p, active_index, blockers, mesh)
    fraction = report.fraction
    oracle = visibility_oracle(p, mesh.elements[active_index], mesh, n_rays=n_rays, seed=seed)
    return OracleReport(
        name="visibility_fraction",
        value=float(fraction),
        reference=float(oracle),
        abs_deviation=abs(fraction - oracle),
        rel_deviation=abs(fraction - oracle),
        tolerance=float(tolerance),
        passed=bool(abs(fraction - oracle) <= tolerance),
        resolution=MappingProxyType(
            {"active": active_index, "n_rays": n_rays, "seed": seed,
             "shadows": report.depth_reached}
        ),
    )


def _element_mean_temperatures(mesh: SurfaceMesh) -> np.ndarray:
    temps = mesh.node_temperatures
    return np.array([float(np.mean(temps[list(en)])) for en in mesh.element_nodes])


def energy_balance(
    state: SolutionState,
    mesh: SurfaceMesh,
    grid: VoxelGrid,
    props: RadiativeProperties,
    collocation: CollocationSet | None = None,
    tolerance: float = 0.03,
) -> OracleReport:
    """Global balance between wall absorption and medium net emission.

    The wall side integrates the solved flux with the collocation weights;
    the medium side sums sigma_a (4 sigma T^4 - G) over the interior cells.
    Both must agree for any converged solution of a closed enclosure. The
    residual is normalized by the largest energy scale present (net rates,
    gross wall emission, gross medium emission), so a problem where one
    side vanishes identically still grades its discretization error
    against the actual throughput.
    """
    col = collocation if collocation is not None else collocation_points(mesh, grid)
    wall_net = float(state.q @ col.boundary_weights)
    cell_temps = grid.temperatures[col.interior_cells]
    eb_cells = blackbody_emission(cell_temps, props.sigma_sb)
    medium_net = float(
        props.sigma_a * ((4.0 * eb_cells - state.incident) * grid.cell_volume).sum()
    )
    residual = abs(wall_net - medium_net)
    arr = mesh.arrays()
    emission = blackbody_emission(_element_mean_temperatures(mesh), props.sigma_sb)
    wall_gross = float((arr.emissivities * arr.areas * emission).sum())
    medium_gross = float(props.sigma_a * 4.0 * (eb_cells * grid.cell_volume).sum())
    denom = max(abs(wall_net), abs(medium_net), wall_gross, medium_gross)
    if denom <= 0.0:
        denom = 1.0
    return OracleReport.evaluate(
        "energy_balance", residual / denom, 0.0, tolerance,
        {
            "wall_net": wall_net,
            "medium_net": medium_net,
            "cells": int(col.n_interior),
            "boundary_points": int(col.n_boundary),
        },
    )


def standard_suite(
    mesh: SurfaceMesh,
    grid: VoxelGrid,
    props: RadiativeProperties,
    state: SolutionState | None = None,
    collocation: CollocationSet | None = None,
) -> list[OracleReport]:
    """The mandatory checks for a solved case.

    Runs both closure identities at representative points and, when a
    solution is supplied, the global energy balance. The closure checks use
    the transparent-medium kernels, so they probe geometry and quadrature
    only and hold on any correctly assembled enclosure mesh.
    """
    col = collocation if collocation is not None else collocation_points(mesh, grid)
    reports = [
        lemma1_identity(
            mesh,
            col.boundary_points[0],
            col.boundary_normals[0],
            source_element=int(col.boundary_element[0]),
        )
    ]
    if col.n_interior:
        mid = col.interior_points[col.n_interior // 2]
        reports.append(lemma3_interior_identity(mesh, mid))
    if state is not None:
        reports.append(energy_balance(state, mesh, grid, props, collocation=col))
    return reports


def report_table(reports) -> str:
    """Fixed-width table of oracle outcomes for terminal output."""
    header = f"{'check':<26} {'value':>14} {'reference':>14} {'rel.dev':>10} {'tol':>8} {'result':>7}"
    lines = [header, "-" * len(header)]
    for r in reports:
        lines.append(
            f"{r.name:<26} {r.value:>14.6g} {r.reference:>14.6g} "
            f"{r.rel_deviation:>10.3g} {r.tolerance:>8.3g} {'pass' if r.passed else 'FAIL':>7}"
        )
    return "\n".join(lines)


def write_report_csv(path, reports) -> None:
    """CSV emission, one row per check, UTF-8 with '.' decimals."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["check", "value", "reference", "abs_deviation", "rel_deviation", "tolerance", "passed"]
        )
        for r in reports:
            writer.writerow(
                [r.name, repr(r.value), repr(r.reference), repr(r.abs_deviation),
                 repr(r.rel_deviation), repr(r.tolerance), int(r.passed)]
            )
