"""Line-of-sight classification between collocation points and wall elements.

Occlusion handling runs in three stages. First, the active list keeps only
elements that can exchange radiation with the source point at all: a pair
in one plane, within the planarity tolerance, stops there. Second, one
screen lists the potential blockers of each surviving element, each with
its shadow cone, in three tests: a cylinder cull around the sight line; a
plane-side test that keeps a candidate only when its plane separates the
point from some vertex of the element by more than that tolerance; and the
shadow cone itself, the candidate's part strictly between the point and
the element plane projected centrally onto that plane, listed only when it
overlaps the element (see screen_active_set). An empty list means a fully
visible element; on a convex enclosure every list is empty. Third, listed
pairs go to an exact shadow clipper. Each cone is subtracted from the
element's current convex pieces by half-plane cuts (Sutherland and Hodgman
1974), blocker by blocker, the way Walton's View3D (NISTIR 6925) computes
obstructed view factors. The visible part is the remaining pieces,
triangulated in physical space. Only slivers below a relative area
tolerance are dropped.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from ritesolver.geometry import PLANARITY_RTOL, SurfaceMesh, as_point, cross3

# Not called here: perfbench/spans.py traces segment_element_hits under this
# module's name.
from ritesolver.geometry import segment_element_hits  # noqa: F401

__all__ = [
    "EARLY_BLOCKED",
    "UNOBSTRUCTED",
    "Classification",
    "VisibilityReport",
    "build_active_list",
    "classify_visibility",
    "screen_active_set",
]

# The planarity tolerance of visibility, relative to the point-centroid
# distance in the active list and to the candidate's diameter in the
# plane-side test. Quads warped within PLANARITY_RTOL tilt their neighbors,
# whose vertices then sit up to 4.5 times that off each other's planes
# across a face of cube r4; ten times keeps such cubes' screens empty.
_PLANE_RTOL = 10.0 * PLANARITY_RTOL
# Vertices within this fraction of the element diameter of a cut plane
# count as lying on it, so a grazing shadow does not split a piece.
_CUT_RTOL = 1e-12
# Shadows and pieces below this fraction of the element area are slivers
# of rounding: they neither split nor survive.
_SLIVER_RTOL = 1e-12
# Most (pair, candidate) entries the screen's cylinder cull and plane-side
# test hold at once. An entry past the cull holds about 110 bytes of
# temporaries, most in the plane-side test's gathers, which take the
# target's vertices one at a time, so a block of cube r2 pairs peaks near
# 1.7 MB; a one-point screen on cube r16 (1,280 active elements, 1,536
# candidates) held 66 MB in one block, 0.6 MB in blocks.
_SCREEN_ENTRIES = 16384


# Kept importable for tools that still compare screen outcomes against it;
# no function here returns it.
EARLY_BLOCKED = object()


class Classification(enum.Enum):
    FULLY_VISIBLE = "fully_visible"
    PARTIALLY_VISIBLE = "partially_visible"
    FULLY_BLOCKED = "fully_blocked"


@dataclass(frozen=True, eq=False)
class VisibilityReport:
    """Visible part of one element; depth_reached counts subtracted shadows,
    1 on an element inside one cone, which the screen lists alone.

    visible holds the fully visible triangles in physical coordinates,
    (T, 3, 3), with T = 0 unless the element is partly visible. An array
    field has no truth value, so reports compare and hash by identity.
    """

    classification: Classification
    visible: np.ndarray = field(default_factory=lambda: np.zeros((0, 3, 3)))
    fraction: float = 0.0
    depth_reached: int = 0


# The outcome of a pair no shadow reaches, screened clear or clipped.
UNOBSTRUCTED = VisibilityReport(Classification.FULLY_VISIBLE, fraction=1.0)


def build_active_list(p, n_p, mesh: SurfaceMesh, source_element=None) -> np.ndarray:
    """Indices of all elements mutually facing the point, in mesh order,
    excluding the one it sits on.

    p must lie in front of the element's plane and, for a wall point, the
    centroid in front of p's tangent plane, each by more than _PLANE_RTOL
    times their distance: a pair in one plane has a zero kernel. The test is
    necessary, not sufficient: on non-convex meshes listed elements may
    still turn out blocked.

    p may also be a stack of points (R, 3), with n_p None or one normal per
    point and source_element None or one element per point, so that the
    rows of an equation take one pass. The result is then the (R, E) mask
    whose row i marks point i's list. Each point takes the same bits
    stacked as alone.
    """
    one = np.ndim(p) == 1
    points = as_point(p)[None] if one else np.asarray(p, dtype=float)
    arr = mesh.arrays()
    to_c = arr.centroids - points[:, None]              # (R, E, 3)
    tol = _PLANE_RTOL * np.linalg.norm(to_c, axis=2)
    mask = -np.einsum("ij,rij->ri", arr.normals, to_c) > tol
    if n_p is not None:
        normals = as_point(n_p)[None] if one else np.asarray(n_p, dtype=float)
        mask &= (to_c @ normals[:, :, None])[..., 0] > tol
    if source_element is not None:
        mask[np.arange(len(mask)), source_element] = False
    return np.nonzero(mask[0])[0] if one else mask


def _separates(p, targets: np.ndarray, arrays, cols: np.ndarray) -> np.ndarray:
    """Whether the plane of element cols[i] strictly separates the point
    from some vertex of element targets[i], p being one point or one per
    candidate (P, 3); a candidate failing this cannot cut any open segment
    from the point to the target."""
    normals = arrays.normals[cols]
    offsets = arrays.plane_offsets[cols]
    tol = _PLANE_RTOL * arrays.diameters[cols]
    side_p = np.einsum("pj,pj->p", normals, np.broadcast_to(p, normals.shape)) - offsets
    above, below = side_p > tol, side_p < -tol
    apart = np.zeros(len(cols), dtype=bool)
    for v in range(arrays.vertices.shape[1]):
        side_v = np.einsum("pj,pj->p", arrays.vertices[targets, v], normals) - offsets
        apart |= (above & (side_v < -tol)) | (below & (side_v > tol))
    return apart


def _candidates(p, act: np.ndarray, sources, arr):
    """(pair, candidate) index arrays of the candidates that pass the
    cylinder cull and the plane-side test (see screen_active_set) for the
    pairs of points p (A, 3) and active elements act, row by row; sources
    is None or the element under each point."""
    pairs = np.arange(act.size)
    keep = np.ones((act.size, len(arr)), dtype=bool)
    keep[pairs, act] = False
    if sources is not None:
        keep[pairs, sources] = False
    axis = arr.centroids[act] - p                       # (A, 3)
    h = np.linalg.norm(axis, axis=1)
    unit = axis / h[:, None]
    # Each candidate centroid's offset from the pair's point along the sight
    # axis (tax) and across it (rad2), expanded into products with the
    # centroids, so that any mix of points takes two matrix products and
    # no (A, E, 3) array. The expansion rounds differently from the offsets
    # themselves, within far less than the reach it is compared with.
    cc = np.einsum("ej,ej->e", arr.centroids, arr.centroids)
    pp = np.einsum("aj,aj->a", p, p)
    tax = unit @ arr.centroids.T - np.einsum("aj,aj->a", unit, p)[:, None]   # (A, E)
    rad2 = (cc - 2.0 * (p @ arr.centroids.T)) + pp[:, None] - tax**2
    reach = arr.circumradii[act][:, None] + arr.circumradii[None, :]
    keep &= (tax >= -reach) & (tax <= h[:, None] + reach) & (rad2 <= reach**2)
    rows, cols = np.nonzero(keep)
    apart = _separates(p[rows], act[rows], arr, cols)
    return rows[apart], cols[apart]


def screen_active_set(
    p,
    active_indices,
    mesh: SurfaceMesh,
    source_element=None,
) -> list[tuple[tuple[int, np.ndarray], ...]]:
    """Potential blockers of every element in an active set, each with its
    shadow cone.

    p is the point the whole set is seen from, or one point per active
    element (A, 3), and source_element None, the element under the point,
    or one per active element, so that the pairs of many points take one
    pass; each pair gets the blockers and cones of its point's own call.
    Returns a list parallel to active_indices of (blocker, cone) tuples in
    mesh order, the cones as _cones gives them. Candidates are all elements
    but the active one and the one under the point; a warped quad could
    otherwise list itself. A candidate is listed when it passes three tests
    in turn, the first two over blocks of at most _SCREEN_ENTRIES (pair,
    candidate) entries and the last over all pairs at once:

    - cylinder: its centroid lies within the sum of the two circumradii of
      the sight segment from the point to the active element's centroid
      (tested as a cylinder padded by that radius at both ends; every point
      between them lies within the element's circumradius of that segment)
    - plane side: its plane separates the point from a vertex of the active
      element by more than _PLANE_RTOL, which no candidate in the active
      element's plane does
    - cone: it casts a shadow cone, which a candidate with nothing left in
      the slab between the point and the element plane does not, and no
      separating plane parts that shadow from the element (see _sides); a
      cone that holds the whole element is listed alone, so the clipper's
      first cut leaves nothing
    """
    act = np.asarray(active_indices, dtype=int)
    p = np.broadcast_to(as_point(p) if np.ndim(p) == 1 else np.asarray(p, dtype=float),
                        (act.size, 3))
    sources = None if source_element is None else np.broadcast_to(source_element, act.shape)
    arr = mesh.arrays()
    step = max(_SCREEN_ENTRIES // len(arr), 1)
    rows, cols = [np.zeros(0, dtype=int)], [np.zeros(0, dtype=int)]
    for start in range(0, act.size, step):
        block = slice(start, start + step)
        r, c = _candidates(p[block], act[block], None if sources is None else sources[block], arr)
        rows.append(r + start)
        cols.append(c)
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    screens = [[] for _ in range(act.size)]
    held = set()
    if rows.size:
        cones, inside = _cones(p[rows], act[rows], cols, arr)
        for row, b, cone, whole in zip(rows.tolist(), cols.tolist(), cones, inside.tolist()):
            if cone is None or row in held:
                continue
            if whole:
                held.add(row)
                screens[row] = []
            screens[row].append((b, cone))
    return [tuple(s) for s in screens]


def _polygon_area(poly: np.ndarray, normal: np.ndarray) -> float:
    """Area of a planar convex polygon (k, 3) wound counter-clockwise."""
    rel = poly[1:] - poly[0]
    return 0.5 * float(cross3(rel[:-1], rel[1:]).sum(axis=0) @ normal)


def _split(poly: np.ndarray, g: np.ndarray, tol: float):
    """Sutherland-Hodgman split of a convex polygon by the sign of g.

    g holds a linear function's values at the vertices; returns the parts
    with g >= 0 and g <= 0, vertices within tol of zero going to both.
    """
    inner, outer = [], []
    k = len(poly)
    for i in range(k):
        j = (i + 1) % k
        ga, gb = g[i], g[j]
        if ga >= -tol:
            inner.append(poly[i])
        if ga <= tol:
            outer.append(poly[i])
        if (ga > tol and gb < -tol) or (ga < -tol and gb > tol):
            x = poly[i] + (poly[j] - poly[i]) * (ga / (ga - gb))
            inner.append(x)
            outer.append(x)
    return np.array(inner), np.array(outer)


def _split_inner(poly: np.ndarray, count: np.ndarray, g: np.ndarray, tol: np.ndarray):
    """The g >= 0 parts of a stack of convex polygons, as _split gives them.

    poly (L, K, 3) holds count[i] vertices of polygon i, padded; g (L, K) a
    linear function's values there and tol (L,) each polygon's tolerance.
    Returns the parts (L, W, 3), padded, and their vertex counts. Each
    vertex and edge crossing is computed as _split computes it, in its
    order, so every part equals _split's bit for bit.
    """
    n, k = g.shape
    slot = np.arange(k)
    valid = slot < count[:, None]
    tol = tol[:, None]
    below = g < -tol
    if not (below & valid).any():
        return poly, count  # nothing to cut away
    rows = np.arange(n)[:, None]
    nxt = np.where(slot + 1 < count[:, None], slot + 1, 0)
    gb = g[rows, nxt]
    crossing = valid & (((g > tol) & (gb < -tol)) | (below & (gb > tol)))
    t = np.divide(g, g - gb, out=np.zeros_like(g), where=crossing)
    # Vertex i, then the crossing on edge i, in _split's order.
    candidates = np.empty((n, k, 2, 3))
    candidates[:, :, 0] = poly
    candidates[:, :, 1] = poly + (poly[rows, nxt] - poly) * t[..., None]
    live = np.stack([valid & ~below, crossing], axis=2).reshape(n, 2 * k)
    at, slots = np.nonzero(live)
    counts = live.sum(axis=1)
    parts = np.zeros((n, counts.max(initial=0), 3))
    parts[at, np.cumsum(live, axis=1)[at, slots] - 1] = candidates.reshape(n, 2 * k, 3)[at, slots]
    return parts, counts


def _sides(p, target, outline, count, m, edges, tol):
    """Masks (L,) of the shadows apart from their targets and of the cones
    holding them, each cone's apex p[i] (L, 3).

    Convex polygons with disjoint interiors are parted by a line along an
    edge of one of them (separating axes; Gottschalk, Lin and Manocha 1996),
    here a plane through p. A pair is apart when an edge plane m of the cone
    (where edges) has every target vertex at m . (v - p) <= tol, or a
    nonzero side plane through p and a target edge has every vertex of the
    clipped blocker (outline, count[i] of them) on its outer side, within
    tol times its norm. A cone holds its target when m . (v - p) >= -tol
    for every edge plane and target vertex.
    """
    p = p[:, None]
    rel = target - p
    g = rel @ m.swapaxes(1, 2)                          # (L, vertex, edge)
    tol = tol[:, None]
    apart = ((g <= tol[..., None]).all(axis=1) & edges).any(axis=1)
    inside = ((g >= -tol[..., None]).all(axis=1) | ~edges).all(axis=1)
    # Inward normals of the side planes, unnormalised.
    planes = cross3(rel[:, [1, 2, 3, 0]], rel)
    norms = np.sqrt(np.einsum("lsj,lsj->ls", planes, planes))
    h = (outline - p) @ planes.swapaxes(1, 2)           # (L, outline vertex, side)
    beyond = (h <= (tol * norms)[:, None]) | (np.arange(h.shape[1]) >= count[:, None])[..., None]
    apart |= (beyond.all(axis=1) & (norms > 0.0)).any(axis=1)
    return apart, inside


def _cones(p, targets: np.ndarray, blockers: np.ndarray, arr):
    """Shadow cones of flat (target, blocker) entries, seen from one point p
    or from one point per entry, p (L, 3).

    Returns one entry per pair, the unit normals m (c, 3) of the half-spaces
    m . (y - p) >= 0 bounding the shadow the blocker casts from p onto the
    target's plane or None when it casts none or none on the target, and
    the mask of cones holding their target (see _sides). The blocker is
    clipped to the slab strictly between p and that plane, each clip
    keeping vertices within _CUT_RTOL times the target's diameter; each
    edge of what is left spans a plane through p, and the central
    projection of the polygon is the part of the plane inside all of them.
    All entries go through one padded pass, in which every entry takes the
    bits it takes alone, whichever points the others have.
    """
    p = np.broadcast_to(p, (len(targets), 3))
    cones: list[np.ndarray | None] = [None] * len(targets)
    inside = np.zeros(len(targets), dtype=bool)
    normals = arr.normals[targets, :, None]
    tol = _CUT_RTOL * arr.diameters[targets]
    verts = arr.vertices[blockers]
    g = ((verts - arr.vertices[targets, :1]) @ normals)[..., 0]
    poly, count = _split_inner(verts, arr.n_vertices[blockers], g, tol)
    live = np.flatnonzero(count >= 3)
    if live.size:
        poly, normals, p = poly[live], normals[live], p[live]
        poly, count = _split_inner(poly, count[live], ((p[:, None] - poly) @ normals)[..., 0],
                                   tol[live])
    if not (count >= 3).any():
        return cones, inside
    slot = np.arange(poly.shape[1])
    rel = poly - p[:, None]
    nxt = np.where(slot + 1 < count[:, None], slot + 1, 0)
    m = cross3(rel, rel[np.arange(len(rel))[:, None], nxt])
    norms = np.linalg.norm(m, axis=2)
    edges = (slot < count[:, None]) & (norms > 0.0)
    m = m / np.where(edges, norms, 1.0)[..., None]
    # A polygon wound counter-clockwise about its normal, seen from p on the
    # normal's far side, has every edge plane facing its interior. Whether p
    # is on that side is decided by the blocker's plane, which the screen
    # keeps clear of p.
    cast = blockers[live]
    flip = (arr.normals[cast] * p).sum(axis=1) > arr.plane_offsets[cast]
    m[flip] *= -1.0
    apart, inside[live] = _sides(p, arr.vertices[targets[live]], poly, count, m, edges, tol[live])
    # Fewer than three edge planes leave a point or a segment: no cone with
    # an interior.
    kept = edges.sum(axis=1)
    flat = m[edges]
    ends = np.cumsum(kept).tolist()
    for i, n, end, gone in zip(live.tolist(), kept.tolist(), ends, apart.tolist()):
        if n >= 3 and not gone:
            cones[i] = flat[end - n:end]
    return cones, inside


def _subtract(piece: np.ndarray, p, cuts: np.ndarray, tol: float, min_area: float, normal):
    """Convex parts of a piece outside the shadow, or None when the shadow
    overlaps the piece in no more than a sliver."""
    rest = piece
    outside = []
    for m in cuts:
        g = (rest - p) @ m
        if g.min() >= -tol:
            continue
        if g.max() <= tol:
            return None
        rest, out = _split(rest, g, tol)
        outside.append(out)
    if len(rest) < 3 or _polygon_area(rest, normal) < min_area:
        return None
    return [q for q in outside if len(q) >= 3 and _polygon_area(q, normal) >= min_area]


def classify_visibility(p, active_index: int, screened, mesh: SurfaceMesh) -> VisibilityReport:
    """Exact visible part of an active element behind its listed blockers.

    screened is the element's entry in screen_active_set, its (blocker,
    cone) pairs. Each cone is the convex shadow its blocker casts on the
    element plane, which is cut away from the current convex pieces,
    blocker by blocker. An element no shadow reaches is fully visible, one
    with no pieces left fully blocked; otherwise the pieces are
    fan-triangulated.
    """
    p = as_point(p)
    element = mesh.elements[active_index]
    normal = element.normal
    tol = _CUT_RTOL * element.diameter
    min_area = _SLIVER_RTOL * element.area

    pieces = [element.vertices]
    shadows = 0
    for _, cuts in screened:
        # A piece the shadow misses (None) stays whole.
        parts = [_subtract(piece, p, cuts, tol, min_area, normal) for piece in pieces]
        shadows += any(q is not None for q in parts)
        pieces = [r for piece, q in zip(pieces, parts) for r in ([piece] if q is None else q)]

    if shadows == 0:
        return UNOBSTRUCTED
    tris = np.array([[piece[0], piece[i], piece[i + 1]]
                     for piece in pieces for i in range(1, len(piece) - 1)]).reshape(-1, 3, 3)
    # Each triangle's area as _polygon_area takes it: one dot per triangle.
    rel = tris[:, 1:] - tris[:, :1]
    areas = 0.5 * (cross3(rel[:, 0], rel[:, 1])[:, None, :] @ normal[:, None])[:, 0, 0]
    kept = areas >= min_area
    if not kept.any():
        return VisibilityReport(Classification.FULLY_BLOCKED, depth_reached=shadows)
    fraction = min(sum(areas[kept].tolist()) / element.area, 1.0)
    return VisibilityReport(Classification.PARTIALLY_VISIBLE, tris[kept], fraction, shadows)
