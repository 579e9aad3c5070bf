"""Reference routes kept for tests only.

Each oracle here computes what a production routine computes, by a route
that does not share the arithmetic under test.
"""

import math
from typing import NamedTuple

import numpy as np

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
