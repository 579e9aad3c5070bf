"""Reference routes kept for tests only.

Each oracle here computes what a production routine computes, by a route
that does not share the arithmetic under test.
"""

import math
from typing import NamedTuple

import numpy as np

from ritesolver.geometry import cross3
from ritesolver.kernels import blackbody_emission
from ritesolver.validation import _polygon_closure
from ritesolver.visibility import (
    Classification,
    build_active_list,
    classify_visibility,
    screen_active_set,
)

# Voxel breakpoints closer than this, in segment fraction, merge.
_SPAN_MERGE_TOL = 1e-14


class OutsideGrid(ValueError):
    """A segment does not cross the voxel grid box."""


class VoxelSpan(NamedTuple):
    """One traversed cell: index triple plus entry and exit arclengths."""

    cell: tuple[int, int, int]
    s_enter: float
    s_exit: float


def flat_index(grid, ix: int, iy: int, iz: int) -> int:
    """Flat index of cell (ix, iy, iz) in the grid's x-fastest order."""
    nx, ny, _ = grid.dims
    return int(ix + nx * (iy + ny * iz))


def traverse_voxels(start, end, grid) -> list[VoxelSpan]:
    """Decompose the segment start -> end into per-cell spans, one at a time.

    The segment is clipped to the grid box first; OutsideGrid is raised when
    nothing remains. Spans are sorted, disjoint, and telescope to the clipped
    length. A point on a shared cell face belongs to the higher-index cell,
    clamped at the outer boundary.
    """
    start = np.asarray(start, dtype=float)
    d = np.asarray(end, dtype=float) - start
    length = float(np.linalg.norm(d))
    if length <= 0.0:
        raise ValueError("cannot traverse a zero-length segment")
    lo, hi = grid.box()
    scale = float(np.max(hi - lo))

    t0, t1 = 0.0, 1.0
    for a in range(3):
        if d[a] != 0.0:
            with np.errstate(over="ignore"):
                ta = (lo[a] - start[a]) / d[a]
                tb = (hi[a] - start[a]) / d[a]
            if ta > tb:
                ta, tb = tb, ta
            t0 = max(t0, ta)
            t1 = min(t1, tb)
        elif start[a] < lo[a] - 1e-12 * scale or start[a] > hi[a] + 1e-12 * scale:
            raise OutsideGrid("segment lies outside the grid slab")
    if t1 - t0 <= _SPAN_MERGE_TOL:
        raise OutsideGrid("segment does not cross the grid box")

    cuts = [np.array([t0, t1])]
    for a in range(3):
        if d[a] == 0.0 or grid.dims[a] < 2:
            continue
        planes = lo[a] + np.arange(1, grid.dims[a]) * grid.spacing[a]
        with np.errstate(over="ignore"):
            ta = (planes - start[a]) / d[a]
        cuts.append(ta[(ta > t0) & (ta < t1)])
    breaks = np.sort(np.concatenate(cuts))

    kept = [breaks[0]]
    for b in breaks[1:]:
        if b - kept[-1] > _SPAN_MERGE_TOL:
            kept.append(b)
    # The final breakpoint must sit exactly at the clip end.
    if kept[-1] != t1:
        if len(kept) > 1:
            kept[-1] = t1
        else:
            kept.append(t1)

    spans = []
    for ta, tb in zip(kept[:-1], kept[1:]):
        mid = start + (0.5 * (ta + tb)) * d
        cell = tuple(
            int(np.clip(math.floor((mid[a] - lo[a]) / grid.spacing[a]), 0, grid.dims[a] - 1))
            for a in range(3)
        )
        spans.append(VoxelSpan(cell, ta * length, tb * length))
    return spans


def path_factors(receiver, source, grid, beta):
    """Attenuated chord weights per traversed cell, one chord.

    Returns (flat_cells, weights) such that the chord integral of any
    cellwise-constant field f against exp(-beta s), with s measured from the
    receiver, equals sum(weights * f[flat_cells]). Each weight is
    (exp(-beta s_enter) - exp(-beta s_exit)) / beta, the exact integral over
    the span; for beta = 0 it degenerates to the span length.
    """
    spans = traverse_voxels(receiver, source, grid)
    cells = np.array([flat_index(grid, *sp.cell) for sp in spans], dtype=int)
    s0 = np.array([sp.s_enter for sp in spans])
    s1 = np.array([sp.s_exit for sp in spans])
    if beta > 0.0:
        weights = np.exp(-beta * s0) * (-np.expm1(-beta * (s1 - s0))) / beta
    else:
        weights = s1 - s0
    return cells, weights


def padded_chord_factors(grid, p, pts, beta):
    """Per-cell attenuated path weights for chords p -> pts, padded.

    Every chord gets one slot per grid plane plus one, whether it crosses
    the plane or not, so an uncrossed plane leaves a slot of zero length.
    Returns (flat_cells (n, m), weights (n, m)); weights sum per row to the
    exact chord integral of exp(-beta s) with s from p.
    """
    d = pts - p[None, :]
    lengths = np.linalg.norm(d, axis=1)
    lo, _ = grid.box()
    n = pts.shape[0]
    cols = [np.zeros((n, 1)), np.ones((n, 1))]
    for a in range(3):
        if grid.dims[a] < 2:
            continue
        planes = lo[a] + np.arange(1, grid.dims[a]) * grid.spacing[a]
        da = d[:, a][:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (planes[None, :] - p[a]) / da
        t = np.where((t > 0.0) & (t < 1.0), t, 1.0)
        cols.append(t)
    t = np.sort(np.concatenate(cols, axis=1), axis=1)
    dt = np.diff(t, axis=1)
    mids = p[None, None, :] + (t[:, :-1] + 0.5 * dt)[:, :, None] * d[:, None, :]
    ijk = np.floor((mids - lo[None, None, :]) / grid.spacing[None, None, :]).astype(int)
    ijk = np.clip(ijk, 0, (grid.dims - 1)[None, None, :])
    flat = ijk[:, :, 0] + grid.dims[0] * (ijk[:, :, 1] + grid.dims[1] * ijk[:, :, 2])
    s0 = t[:, :-1] * lengths[:, None]
    ds = dt * lengths[:, None]
    if beta > 0.0:
        w = np.exp(-beta * s0) * (-np.expm1(-beta * ds)) / beta
    else:
        w = ds
    return flat, w


def shadow_cuts(p, element, blocker, blocker_normal, tol):
    """One blocker's shadow cone on one element, polygon by polygon: the
    route the blocker screen's cone build (visibility._cones) pads and
    batches over a point's pairs.

    Returns the unit normals m of the half-spaces m . (y - p) >= 0 bounding
    the shadow the blocker polygon (k, 3) casts from p onto the element
    plane, or None.
    """
    from ritesolver.visibility import _split

    base, normal = element.vertices[0], element.normal
    poly, _ = _split(blocker, (blocker - base) @ normal, tol)
    if len(poly) >= 3:
        poly, _ = _split(poly, (p - poly) @ normal, tol)
    if len(poly) < 3:
        return None
    rel = poly - p
    m = cross3(rel, np.roll(rel, -1, axis=0))
    norms = np.linalg.norm(m, axis=1)
    m = m[norms > 0.0] / norms[norms > 0.0, None]
    if len(m) < 3:
        return None
    if float(blocker_normal @ (poly.mean(axis=0) - p)) < 0.0:
        m = -m
    return m


# The unfactored bilinear map of a quad: every point from the four corner
# products, every Jacobian from the tangents' cross product and its norm.


def _vertex_rows(verts4, xi, eta) -> np.ndarray:
    """Vertices (..., 4, 3) as (4, 3, ...), with leading axes of length one
    added so that vertex k's coordinates (3, ...) broadcast with xi and eta."""
    v = np.asarray(verts4)
    lead = max(np.ndim(xi), np.ndim(eta), v.ndim - 2)
    v = v.reshape((1,) * (lead - v.ndim + 2) + v.shape)
    return v.transpose(lead, lead + 1, *range(lead))


def bilinear_points(verts4: np.ndarray, xi, eta) -> np.ndarray:
    """Map intrinsic (xi, eta) in [-1, 1]^2 to physical points, (3, ...).

    Component-major: the result's first axis is x, y, z and the rest is
    the broadcast of verts4's leading axes (verts4 is (..., 4, 3)) with xi
    and eta. Stacked elements map exactly as one at a time.
    """
    v = _vertex_rows(verts4, xi, eta)
    return 0.25 * (
        (1 - xi) * (1 - eta) * v[0]
        + (1 + xi) * (1 - eta) * v[1]
        + (1 + xi) * (1 + eta) * v[2]
        + (1 - xi) * (1 + eta) * v[3]
    )


def bilinear_tangents(verts4: np.ndarray, xi, eta):
    """Tangents (x_xi, x_eta) of the bilinear map, each (3, ...),
    broadcast like bilinear_points."""
    v = _vertex_rows(verts4, xi, eta)
    dxi = 0.25 * (
        -(1 - eta) * v[0] + (1 - eta) * v[1]
        + (1 + eta) * v[2] - (1 + eta) * v[3]
    )
    deta = 0.25 * (
        -(1 - xi) * v[0] - (1 + xi) * v[1]
        + (1 + xi) * v[2] + (1 - xi) * v[3]
    )
    return dxi, deta


def bilinear_jacobian(verts4: np.ndarray, xi, eta) -> np.ndarray:
    """Surface Jacobian |x_xi cross x_eta| at intrinsic points, (...),
    broadcast like bilinear_points."""
    dxi, deta = bilinear_tangents(verts4, xi, eta)
    return np.linalg.norm(cross3(dxi, deta, axis=0), axis=0)


def quad_rule(order: int):
    """Tensor Gauss rule on [-1, 1]^2: (uv (n, 2), weights (n,)), xi along
    the first axis of the order x order grid."""
    x, w = np.polynomial.legendre.leggauss(order)
    uu, vv = np.meshgrid(x, x, indexing="ij")
    return np.column_stack([uu.ravel(), vv.ravel()]), np.outer(w, w).ravel()


def outer_iteration(surface, volume, tolerance, max_sweeps):
    """The paper's two-level iteration, the route the direct solve replaced.

    Starts from the local-equilibrium guess 4 sigma T^4 per cell. Each sweep
    solves the wall system (I - Gmat) q = Fmat G + h with the current G,
    then refreshes G <- Umat G + Vmat q + t. Stops after the first sweep
    whose relative sup-norm change of G is at most tolerance, or after
    max_sweeps. Returns (G, changes), the change of each sweep.
    """
    wall = np.eye(len(surface.h)) - surface.gmat
    g = 4.0 * blackbody_emission(volume.cell_temperatures)
    changes = []
    for _ in range(max_sweeps):
        q = np.linalg.solve(wall, surface.fmat @ g + surface.h)
        g_next = volume.umat @ g + volume.vmat @ q + volume.t
        scale = float(np.abs(g_next).max(initial=0.0))
        change = float(np.abs(g_next - g).max(initial=0.0))
        changes.append(change / scale if scale > 0.0 else change)
        g = g_next
        if changes[-1] <= tolerance:
            break
    return g, changes


def transparent_black_flux(mesh, collocation, emission):
    """Net flux at every wall node of a black enclosure around a transparent
    medium, each element e emitting emission[e] uniformly:

        q(x) = sum_e emission[e] F(x -> visible part of e) - emission at x,

    each view factor F the closed-form contour integral over the element or
    the clipper's visible polygons, over pi."""
    col = collocation
    q = -emission[col.boundary_element]
    for r, (p, normal, own) in enumerate(zip(col.boundary_points, col.boundary_normals,
                                             col.boundary_element.tolist())):
        active = build_active_list(p, normal, mesh, source_element=own)
        for k, screened in zip(active.tolist(), screen_active_set(p, active, mesh, own)):
            report = classify_visibility(p, k, screened, mesh)
            full = report.classification is Classification.FULLY_VISIBLE
            polygons = [mesh.elements[k].vertices] if full else report.visible
            q[r] += emission[k] * sum(_polygon_closure(p, poly, normal) for poly in polygons) / math.pi
    return q
