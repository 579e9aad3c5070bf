"""Line-of-sight classification between collocation points and wall elements.

Occlusion handling runs in three stages. First, the active list keeps only
elements that can exchange radiation with the source point at all: a pair
in one plane, within the planarity tolerance, stops there. Second, one
screen lists the potential blockers of each surviving element: a cylinder
cull around the sight line, then a plane-side test that keeps a candidate
only when its plane separates the point from some vertex of the element by
more than that tolerance. Both conditions are necessary for any occlusion,
so an empty list means a fully visible element; on a convex enclosure every
list is empty. Third, listed pairs go to an exact shadow clipper. Each
candidate is clipped to the slab strictly between the point and the element
plane and projected centrally from the point onto that plane, which keeps
it convex; the projection is subtracted from the element's current convex
pieces by half-plane cuts (Sutherland and Hodgman 1974), the way Walton's
View3D (NISTIR 6925) computes obstructed view factors. The visible part is
the remaining pieces, triangulated in physical space. Only slivers below a
relative area tolerance are dropped.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from ritesolver.geometry import PLANARITY_RTOL, SurfaceElement, SurfaceMesh, as_point, cross3

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


# Kept importable for tools that still compare screen outcomes against it;
# no function here returns it.
EARLY_BLOCKED = object()


class Classification(enum.Enum):
    FULLY_VISIBLE = "fully_visible"
    PARTIALLY_VISIBLE = "partially_visible"
    FULLY_BLOCKED = "fully_blocked"


@dataclass(frozen=True, eq=False)
class VisibilityReport:
    """Visible part of one element; depth_reached counts subtracted shadows.

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


def build_active_list(p, n_p, mesh: SurfaceMesh, source_element: int | None = None) -> np.ndarray:
    """Indices of all elements mutually facing the point, in mesh order,
    excluding the one it sits on.

    p must lie in front of the element's plane and, for a wall point, the
    centroid in front of p's tangent plane, each by more than _PLANE_RTOL
    times their distance: a pair in one plane has a zero kernel. The test is
    necessary, not sufficient: on non-convex meshes listed elements may
    still turn out blocked.
    """
    p = as_point(p)
    arr = mesh.arrays()
    to_c = arr.centroids - p
    tol = _PLANE_RTOL * np.linalg.norm(to_c, axis=1)
    mask = -np.einsum("ij,ij->i", arr.normals, to_c) > tol
    if n_p is not None:
        n_p = as_point(n_p)
        mask &= to_c @ n_p > tol
    if source_element is not None:
        mask[source_element] = False
    return np.nonzero(mask)[0]


def _separates(p, vertices: np.ndarray, arrays, cols: np.ndarray) -> np.ndarray:
    """Whether the plane of element cols[i] strictly separates p from some
    vertex in vertices[i] (P, V, 3); a candidate failing this cannot cut any
    open segment from p to the target."""
    normals = arrays.normals[cols]
    offsets = arrays.plane_offsets[cols]
    tol = _PLANE_RTOL * arrays.diameters[cols]
    side_p = normals @ p - offsets
    side_v = np.einsum("pvj,pj->pv", vertices, normals) - offsets[:, None]
    above = (side_p > tol)[:, None] & (side_v < -tol[:, None])
    below = (side_p < -tol)[:, None] & (side_v > tol[:, None])
    return (above | below).any(axis=1)


def screen_active_set(
    p,
    active_indices,
    mesh: SurfaceMesh,
    source_element: int | None = None,
) -> list[tuple[int, ...]]:
    """Potential blockers of every element in the active set of one point.

    Returns a list parallel to active_indices of blocker index tuples in
    mesh order. Candidates are all elements but the active one and the one
    under p; a warped quad could otherwise list itself. A candidate is kept
    when its centroid lies within the sum of the two circumradii of the
    sight segment from p to the active element's centroid (tested as a
    cylinder padded by that radius at both ends; every point between p and
    the element lies within the element's circumradius of that segment) and
    its plane separates p from a vertex of the active element by more than
    _PLANE_RTOL, which no candidate in the active element's plane does.
    """
    p = as_point(p)
    arr = mesh.arrays()
    act = np.asarray(active_indices, dtype=int)
    if act.size == 0:
        return []

    keep = np.ones((act.size, len(arr)), dtype=bool)
    keep[np.arange(act.size), act] = False
    if source_element is not None:
        keep[:, source_element] = False

    axis = arr.centroids[act] - p                       # (A, 3)
    h = np.linalg.norm(axis, axis=1)
    rel = arr.centroids - p                             # (E, 3)
    tax = (axis / h[:, None]) @ rel.T                   # (A, E)
    rad2 = np.einsum("ej,ej->e", rel, rel)[None, :] - tax**2
    reach = arr.circumradii[act][:, None] + arr.circumradii[None, :]
    keep &= (tax >= -reach) & (tax <= h[:, None] + reach) & (rad2 <= reach**2)

    rows, cols = np.nonzero(keep)
    keep[rows, cols] = _separates(p, arr.vertices[act[rows]], arr, cols)
    return [tuple(int(i) for i in np.nonzero(row)[0]) for row in keep]


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


def _shadow_cuts(p, element: SurfaceElement, blocker: np.ndarray, blocker_normal, tol):
    """Unit normals m of the half-spaces m . (y - p) >= 0 bounding the shadow
    a blocker polygon casts from p onto the element plane, or None.

    The blocker is clipped to the slab strictly between p and the element
    plane; each edge of what is left spans a plane through p, and the
    central projection of the polygon is the part of the element plane
    inside all of them.
    """
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
        return None  # no cone with an interior: a point or a segment
    # A polygon wound counter-clockwise about its normal, seen from p on the
    # normal's far side, has every edge plane facing its interior.
    if float(blocker_normal @ (poly.mean(axis=0) - p)) < 0.0:
        m = -m
    return m


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


def classify_visibility(p, active_index: int, blockers, mesh: SurfaceMesh) -> VisibilityReport:
    """Exact visible part of an active element behind its listed blockers.

    blockers is the element's entry in screen_active_set. Each listed
    blocker whose plane separates p from the element casts a convex shadow
    on the element plane, which is cut away from the current convex pieces.
    An element no shadow reaches is fully visible, one with no pieces left
    fully blocked; otherwise the pieces are fan-triangulated.
    """
    p = as_point(p)
    element = mesh.elements[active_index]
    arrays = mesh.arrays()
    normal = element.normal
    tol = _CUT_RTOL * element.diameter
    min_area = _SLIVER_RTOL * element.area

    pieces = [element.vertices]
    shadows = 0
    for b in blockers:
        if not pieces:
            break
        blocker = arrays.vertices[b, : arrays.n_vertices[b]]
        cuts = _shadow_cuts(p, element, blocker, arrays.normals[b], tol)
        if cuts is None:
            continue
        cut_any = False
        kept = []
        for piece in pieces:
            parts = _subtract(piece, p, cuts, tol, min_area, normal)
            if parts is None:
                kept.append(piece)
            else:
                kept.extend(parts)
                cut_any = True
        shadows += cut_any
        pieces = kept

    if shadows == 0:
        return UNOBSTRUCTED
    visible, areas = [], []
    for piece in pieces:
        for i in range(1, len(piece) - 1):
            tri = np.array([piece[0], piece[i], piece[i + 1]])
            area = _polygon_area(tri, normal)
            if area >= min_area:
                visible.append(tri)
                areas.append(area)
    if not visible:
        return VisibilityReport(Classification.FULLY_BLOCKED, depth_reached=shadows)
    fraction = min(sum(areas) / element.area, 1.0)
    return VisibilityReport(Classification.PARTIALLY_VISIBLE, np.array(visible), fraction, shadows)
