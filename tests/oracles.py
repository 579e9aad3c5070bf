"""Reference routes kept for tests only.

Each oracle here computes what a production routine computes, by a route
that does not share the arithmetic under test.
"""

import numpy as np


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
