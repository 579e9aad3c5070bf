"""Independent checks of the identities the solver is built on.

Every oracle here recomputes a quantity by a route the assembly code does
not take. The closure checks integrate the raw geometric kernels in closed
form over the polygons a point sees and compare against their exact values
(pi over a closed surface seen from a wall point, 4 pi from an interior
point); they share no arithmetic with assembly's quadrature or with
kernels, and hold to rounding on any closed enclosure whose visible
polygons do not cross the receiver's tangent plane. They do take the
visible polygons from the shadow clipper, so a shadow cast on the wrong
element with the right area escapes them; the visibility oracle, brute
stratified ray sampling, is the independent check of the clipper. The
energy balance compares the integrated wall load with the net emission of
the medium using the assembly collocation weights, so the check isolates
solver error from discretization error. Results come back as OracleReport
records with both deviations and a pass flag; the suite runner formats
them as a table or CSV for the command line.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

import numpy as np

from ritesolver.assembly import CollocationSet, collocation_points
from ritesolver.geometry import SurfaceMesh, VoxelGrid, as_point, cross3, segment_element_hits
from ritesolver.kernels import RadiativeProperties, blackbody_emission
from ritesolver.solver import SolutionState
from ritesolver.visibility import (
    Classification,
    build_active_list,
    classify_visibility,
    screen_active_set,
)

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
# visibility_report_check's rays and visible-fraction tolerance, and
# energy_balance's tolerance relative to the largest energy scale.
_CHECK_RAYS = 2 * _MIN_RAYS
_VISIBILITY_ATOL = 0.02
_ENERGY_RTOL = 0.03
# Relative tolerance of the closure checks. Their closed forms are exact, so
# only rounding separates them from pi and 4 pi: at most 8.5e-16 relative on
# the builtin enclosures.
_CLOSURE_RTOL = 1e-9


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


def _polygon_closure(p, poly: np.ndarray, normal) -> float:
    """cos(phi_p) cos(phi_r) / d^2 integrated in closed form over a planar
    polygon (k, 3) wound counter-clockwise seen from p.

    A wall receiver (normal given) takes Lambert's contour formula: each
    edge subtends an angle in the plane through p and the edge, weighted by
    that plane's unit normal along the receiver normal. An interior one
    (normal None, cos(phi_p) = 1.0) takes Van Oosterom and Strackee's
    (1983) solid angle of each fan triangle.
    """
    r = poly - p
    r = r / np.linalg.norm(r, axis=1)[:, None]
    if normal is None:
        a, b, c = r[0], r[1:-1], r[2:]
        triple = cross3(b, c) @ a
        denom = 1.0 + b @ a + c @ a + np.einsum("ij,ij->i", b, c)
        return -2.0 * float(np.arctan2(triple, denom).sum())
    s = np.roll(r, -1, axis=0)
    m = cross3(r, s)
    sin = np.linalg.norm(m, axis=1)
    angle = np.arctan2(sin, np.einsum("ij,ij->i", r, s))
    # An edge on a line through p subtends no angle.
    weight = np.divide(m @ normal, sin, out=np.zeros_like(sin), where=sin > 0.0)
    return -0.5 * float((angle * weight).sum())


def _closure_total(mesh: SurfaceMesh, p, normal, skip) -> float:
    """cos(phi_p) cos(phi_r) / d^2 integrated over the surface p sees.

    Each element facing p, except skip, goes through the blocker screen,
    which builds the shadow cones of all of them in one pass, and the
    shadow clipper; a fully visible element contributes its whole polygon,
    a partly visible one its visible triangles, a blocked one nothing. A
    wall receiver passes its normal; an interior one passes None.
    """
    active = build_active_list(p, normal, mesh, source_element=skip)
    screens = screen_active_set(p, active, mesh, skip)
    total = 0.0
    for k, screened in zip(active, screens):
        report = classify_visibility(p, k, screened, mesh)
        full = report.classification is Classification.FULLY_VISIBLE
        polygons = [mesh.elements[k].vertices] if full else report.visible
        total += sum(_polygon_closure(p, poly, normal) for poly in polygons)
    return total


def lemma1_identity(mesh: SurfaceMesh, point, normal, source_element: int | None = None) -> OracleReport:
    """Closure of the wall exchange kernel over a closed enclosure.

    Integrates cos(phi_p) cos(phi_r) / d^2 over the surface visible from a
    point on it with the given normal, in a transparent medium; on any
    closed enclosure, convex or not, the exact value is pi wherever the
    point sits. source_element is the element carrying the point, whose
    receiver cosine vanishes.
    """
    total = _closure_total(mesh, as_point(point), as_point(normal), source_element)
    return OracleReport.evaluate(
        name="closure_wall_kernel",
        value=total,
        reference=math.pi,
        tolerance=_CLOSURE_RTOL,
        resolution={"elements": mesh.n_elements},
    )


def lemma3_interior_identity(mesh: SurfaceMesh, point) -> OracleReport:
    """Solid-angle closure of the interior-receiver kernel.

    The same integral as lemma1_identity with the receiver cosine 1.0: from
    a point strictly inside the enclosure, cos(phi_r) / d^2 integrated over
    the visible surface equals 4 pi exactly.
    """
    total = _closure_total(mesh, as_point(point), None, None)
    return OracleReport.evaluate(
        name="closure_interior_kernel",
        value=total,
        reference=4.0 * math.pi,
        tolerance=_CLOSURE_RTOL,
        resolution={"elements": mesh.n_elements},
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
    n_rays: int = _CHECK_RAYS,
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
    seed: int = DEFAULT_ORACLE_SEED,
) -> OracleReport:
    """Clipped visible fraction against the ray oracle for one pair."""
    p = as_point(point)
    screened = screen_active_set(p, [active_index], mesh, source_element)[0]
    report = classify_visibility(p, active_index, screened, mesh)
    fraction = report.fraction
    oracle = visibility_oracle(p, mesh.elements[active_index], mesh, n_rays=_CHECK_RAYS, seed=seed)
    return OracleReport(
        name="visibility_fraction",
        value=float(fraction),
        reference=float(oracle),
        abs_deviation=abs(fraction - oracle),
        rel_deviation=abs(fraction - oracle),
        tolerance=_VISIBILITY_ATOL,
        passed=bool(abs(fraction - oracle) <= _VISIBILITY_ATOL),
        resolution=MappingProxyType(
            {"active": active_index, "n_rays": _CHECK_RAYS, "seed": seed,
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
    eb_cells = blackbody_emission(cell_temps)
    medium_net = float(
        props.sigma_a * ((4.0 * eb_cells - state.incident) * grid.cell_volume).sum()
    )
    residual = abs(wall_net - medium_net)
    arr = mesh.arrays()
    emission = blackbody_emission(_element_mean_temperatures(mesh))
    wall_gross = float((arr.emissivities * arr.areas * emission).sum())
    medium_gross = float(props.sigma_a * 4.0 * (eb_cells * grid.cell_volume).sum())
    denom = max(abs(wall_net), abs(medium_net), wall_gross, medium_gross)
    if denom <= 0.0:
        denom = 1.0
    return OracleReport.evaluate(
        "energy_balance", residual / denom, 0.0, _ENERGY_RTOL,
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
    the transparent-medium kernels, so they probe geometry and visibility
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
