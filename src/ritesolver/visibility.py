"""Line-of-sight classification between collocation points and wall elements.

Occlusion handling runs in three stages. First, a facing test keeps only
elements that can exchange radiation with the source point at all. Second,
one screen lists the potential blockers of each surviving element: a
conservative cylinder cull around the sight line, a view-window vertex test
(a candidate vertex inside the open pyramid spanned by the point and the
element), and ray casts from the point to the element's center and corners.
A candidate that cuts the center sight line without a vertex in the window
is taken to cover the view, and so is a list that hides every corner ray;
either rejects the pair outright. Third, pairs with a nonempty blocker list
are subdivided quadtree-style. Each piece runs the same screen against its
parent's list, where a center hit only lists the blocker, until it is fully
visible, fully covered, or small enough to classify by a single centroid
ray.

The subdivision converges to the exact shadow boundary as the minimum
sub-element area goes to zero; the default budget resolves fractions to
about one percent of the element area. The screen probes occluders through
their vertices, the center sight line, and the corner sight lines, which is
exhaustive for compact occluders; a long thin occluder that slices a view
window while keeping every vertex outside it and dodging all probe rays can
escape listing. Conversely, both blocking rules can hide a view that is
partly open: an edge that cuts the center sight line leaves the view on
its far side open, and separate occluders that hide the corners can leave
a gap between them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from ritesolver.geometry import (
    EDGE_INCLUSION_RTOL,
    ElementArrays,
    SurfaceElement,
    SurfaceMesh,
    as_point,
    cross3,
    full_patch,
    segment_element_hits,
    split_patch,
    subdivide4,
)

__all__ = [
    "EARLY_BLOCKED",
    "ActiveList",
    "BlockingList",
    "Classification",
    "SubElement",
    "SubdivisionBudget",
    "VisibilityReport",
    "build_active_list",
    "build_blocking_list",
    "chi_point",
    "classify_visibility",
    "facing_test",
    "screen_active_set",
]

# A candidate vertex counts as inside the view window only when it lies
# strictly nearer than the element plane along its sight ray, by this
# relative margin; vertices in the plane (shared corners of wall neighbors
# on a convex enclosure) stay out.
_PYRAMID_TAU_MARGIN = 1e-9
# Two elements count as coplanar when their normals are parallel to this
# tolerance and their centroid offset along the normal stays below it times
# the larger diameter.
_COPLANAR_RTOL = 1e-9
# The view-window test runs over at most this many (node, candidate) pairs
# at a time, which bounds the memory of its (pairs, 4, 3) landing points.
_PAIR_CHUNK = 1 << 18


class _EarlyBlockedType:
    """Sentinel: the whole element is provably hidden, no list needed."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "EarlyBlocked"


EARLY_BLOCKED = _EarlyBlockedType()


class Classification(enum.Enum):
    FULLY_VISIBLE = "fully_visible"
    PARTIALLY_VISIBLE = "partially_visible"
    FULLY_BLOCKED = "fully_blocked"


@dataclass(frozen=True)
class SubdivisionBudget:
    """Stop rules for the quadtree stage.

    min_area is an absolute floor in m^2; when None it defaults to
    min_area_fraction of the element under classification. Subdivision also
    stops at max_depth levels below the original element.
    """

    min_area: float | None = None
    max_depth: int = 8
    min_area_fraction: float = 1e-4

    def __post_init__(self):
        if self.min_area is not None and self.min_area <= 0:
            raise ValueError(f"min_area must be positive, got {self.min_area}")
        if self.max_depth < 1:
            raise ValueError(f"max_depth must be at least 1, got {self.max_depth}")
        if self.min_area_fraction <= 0:
            raise ValueError(
                f"min_area_fraction must be positive, got {self.min_area_fraction}"
            )

    def resolve_min_area(self, element: SurfaceElement) -> float:
        if self.min_area is not None:
            return self.min_area
        return self.min_area_fraction * element.area


@dataclass(frozen=True)
class ActiveList:
    """Elements passing the facing test for one source point."""

    point: np.ndarray
    normal: np.ndarray | None
    indices: tuple[int, ...]


@dataclass(frozen=True)
class BlockingList:
    """Potential occluders for one (point, active element) pair."""

    point: np.ndarray
    active_index: int
    blockers: tuple[int, ...]


@dataclass(frozen=True)
class SubElement:
    """A fully visible piece of an element, with its intrinsic patch."""

    element: SurfaceElement
    patch: object

    @property
    def area(self) -> float:
        return self.element.area


@dataclass(frozen=True)
class VisibilityReport:
    classification: Classification
    visible: tuple[SubElement, ...] = field(default=())
    fraction: float = 0.0
    depth_reached: int = 0


def facing_test(p, n_p, element: SurfaceElement) -> bool:
    """Mutual orientation test with strict positivity.

    With inward normals, the element centroid must lie in front of the
    source plane (when a source normal exists) and the source point in front
    of the element plane. Tangent configurations carry zero kernel weight
    and are classified not facing.
    """
    p = as_point(p)
    to_c = element.centroid - p
    d2 = float(element.normal @ (-to_c))
    if d2 <= 0.0:
        return False
    if n_p is None:
        return True
    return float(as_point(n_p) @ to_c) > 0.0


def build_active_list(p, n_p, mesh: SurfaceMesh, source_element: int | None = None) -> ActiveList:
    """All elements mutually facing the point, excluding the one it sits on.

    The facing test is necessary but not sufficient: on non-convex meshes
    listed elements may still turn out blocked.
    """
    p = as_point(p)
    arr = mesh.arrays()
    to_c = arr.centroids - p
    d2 = -np.einsum("ij,ij->i", arr.normals, to_c)
    mask = d2 > 0.0
    if n_p is not None:
        n_p = as_point(n_p)
        mask &= to_c @ n_p > 0.0
    if source_element is not None:
        mask[source_element] = False
    return ActiveList(point=p, normal=n_p, indices=tuple(int(i) for i in np.nonzero(mask)[0]))


def _screen_nodes(p, nodes: ElementArrays, cols: np.ndarray, cand: np.ndarray,
                  arrays: ElementArrays, center_blocks: bool) -> list:
    """Cylinder cull, view-window vertex test, and ray casts for A nodes.

    nodes holds the A nodes under test (mesh elements or quadtree pieces);
    cand (A, m) marks which of the mesh elements cols (m,) are candidate
    blockers of each node. Returns one entry per node: EARLY_BLOCKED, or the
    kept blocker indices in candidate order.

    A candidate is kept when a vertex lies in the node's view window or when
    it cuts the sight line to the node's center or to one of its corners.
    With center_blocks (the rule for whole elements), a candidate that cuts
    the center sight line without reaching a vertex into the view window is
    taken as covering the whole window and blocks the node outright; for
    quadtree pieces it merely joins the list. Either way the union rule
    blocks a node whose every corner ray is hidden behind a kept blocker.
    """
    axis = nodes.centroids - p                          # (A, 3)
    h = np.linalg.norm(axis, axis=1)
    axhat = axis / h[:, None]

    # Cylinder window around each sight line, padded with the circumradii so
    # that no candidate able to reach any later probe is dropped.
    rel = arrays.centroids[cols] - p                    # (m, 3)
    tax = axhat @ rel.T                                 # (A, m)
    rad2 = np.einsum("mj,mj->m", rel, rel)[None, :] - tax**2
    reach = arrays.circumradii[cols][None, :]
    r_cyl = nodes.circumradii[:, None] + reach
    pool = cand & (tax >= -reach) & (tax <= h[:, None] + reach) & (rad2 <= r_cyl**2)

    # View window: the open pyramid of sight rays from p through the node
    # interior. A candidate vertex lies inside it exactly when its ray from
    # p crosses the node plane strictly beyond the vertex (parameter above
    # one) at a point strictly interior to the node; both margins keep
    # plane-sharing neighbors and rim grazes out, so a convex enclosure
    # yields no vertex captures at all. Only pooled pairs are tested.
    gaps = np.einsum("aj,aj->a", nodes.normals, axis)
    tols = EDGE_INCLUSION_RTOL * nodes.diameters**2
    window = np.zeros_like(pool)
    rows_idx, cols_idx = np.nonzero(pool)
    for lo in range(0, rows_idx.size, _PAIR_CHUNK):
        rows = rows_idx[lo : lo + _PAIR_CHUNK]
        cc = cols_idx[lo : lo + _PAIR_CHUNK]
        nr = nodes.normals[rows]                        # (P, 3)
        rv = arrays.vertices[cols[cc]] - p              # (P, 4, 3)
        denom = np.einsum("pj,pvj->pv", nr, rv)
        with np.errstate(divide="ignore", invalid="ignore"):
            tau = gaps[rows][:, None] / denom
        valid = np.isfinite(tau) & (tau > 1.0 + _PYRAMID_TAU_MARGIN)
        tau = np.where(valid, tau, 0.0)
        land = p + tau[..., None] * rv                  # (P, 4, 3)
        pverts = nodes.vertices[rows]
        ptols = tols[rows][:, None]
        inside = valid
        for i in range(4):
            a = pverts[:, i]
            b = pverts[:, (i + 1) % 4]
            edge = b - a
            degenerate = (np.einsum("pj,pj->p", edge, edge) == 0.0)[:, None]
            # (edge x w) . n == w . (n x edge), keeping the cross product small.
            en = cross3(nr, edge)                       # (P, 3)
            side = np.einsum("pvj,pj->pv", land - a[:, None, :], en)
            inside = inside & (degenerate | (side > ptols))
        window[rows, cc] = inside.any(axis=1)

    # Only columns pooled by some node can matter to any ray cast.
    cols_any = np.nonzero(pool.any(axis=0))[0]
    colpos = np.full(cols.size, -1, dtype=int)
    colpos[cols_any] = np.arange(cols_any.size)

    center = np.zeros_like(pool)
    if cols_any.size:
        center[:, cols_any] = segment_element_hits(
            np.broadcast_to(p, axis.shape), nodes.centroids, arrays, indices=cols[cols_any]
        )
        center &= pool & ~window
    early = center.any(axis=1) if center_blocks else np.zeros(len(nodes), dtype=bool)

    # Corner rays pick up occluders that intrude without covering the center.
    # Neighboring nodes share corners, so each distinct corner is cast once.
    alive = np.nonzero(~early & pool.any(axis=1))[0]
    corner_rows = np.zeros((len(nodes), 4), dtype=int)
    if alive.size:
        corners, inverse = np.unique(
            nodes.vertices[alive].reshape(-1, 3), axis=0, return_inverse=True
        )
        corner_rows[alive] = inverse.reshape(-1, 4)
        corner_hits = segment_element_hits(
            np.broadcast_to(p, corners.shape), corners, arrays, indices=cols[cols_any]
        )                                               # (S, |cols_any|)

    results = []
    for row in range(len(nodes)):
        if early[row]:
            results.append(EARLY_BLOCKED)
            continue
        pool_i = np.nonzero(pool[row])[0]
        if pool_i.size == 0:
            results.append(cols[pool_i])
            continue
        ray_hits = corner_hits[corner_rows[row][:, None], colpos[pool_i]]
        kept_mask = window[row, pool_i] | center[row, pool_i] | ray_hits.any(axis=0)
        # Union rule: every corner hidden behind some kept blocker.
        if kept_mask.any() and ray_hits[:, kept_mask].any(axis=1).all():
            results.append(EARLY_BLOCKED)
            continue
        results.append(cols[pool_i[kept_mask]])
    return results


def build_blocking_list(
    p,
    active_index: int,
    mesh: SurfaceMesh,
    source_element: int | None = None,
):
    """Potential occluders of one active element, or EARLY_BLOCKED."""
    p = as_point(p)
    (outcome,) = screen_active_set(p, [active_index], mesh, source_element)
    if outcome is EARLY_BLOCKED:
        return outcome
    return BlockingList(point=p, active_index=active_index, blockers=outcome)


def screen_active_set(
    p,
    active_indices,
    mesh: SurfaceMesh,
    source_element: int | None = None,
):
    """Blocking-list outcomes for the whole active set of one source point.

    Returns a list parallel to active_indices whose entries are either
    EARLY_BLOCKED or the tuple of kept blocker indices. Candidates are all
    elements but the active one, the one under p, and those coplanar with
    the active one.
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
    n_a = arr.normals[act]                              # (A, 3)
    parallel = (
        np.linalg.norm(cross3(n_a[:, None, :], arr.normals[None, :, :]), axis=-1)
        <= _COPLANAR_RTOL
    )
    offset = np.abs(
        np.einsum("aj,ej->ae", n_a, arr.centroids)
        - np.einsum("aj,aj->a", n_a, arr.centroids[act])[:, None]
    )
    scale = np.maximum(arr.diameters[None, :], arr.diameters[act][:, None])
    keep &= ~(parallel & (offset <= _COPLANAR_RTOL * scale))

    outcomes = _screen_nodes(p, arr.take(act), np.arange(len(arr)), keep, arr,
                             center_blocks=True)
    return [out if out is EARLY_BLOCKED else tuple(int(i) for i in out) for out in outcomes]


def classify_visibility(
    p,
    blockers: BlockingList,
    mesh: SurfaceMesh,
    budget: SubdivisionBudget | None = None,
) -> VisibilityReport:
    """Quadtree classification of the visible part of an active element.

    Every node, the root included, is re-screened against its inherited
    candidate list; an empty list makes the node fully visible, a covered
    view makes it fully blocked, anything else subdivides until the area or
    depth budget runs out and the residual leaf is classified by its
    centroid ray.
    """
    p = as_point(p)
    budget = budget if budget is not None else SubdivisionBudget()
    element = mesh.elements[blockers.active_index]
    min_area = budget.resolve_min_area(element)
    arrays = mesh.arrays()

    def screen(node: SurfaceElement, cands: np.ndarray, center_blocks: bool):
        return _screen_nodes(p, ElementArrays.from_elements([node]), cands,
                             np.ones((1, cands.size), dtype=bool), arrays, center_blocks)[0]

    kept = screen(element, np.asarray(blockers.blockers, dtype=int), center_blocks=True)
    if kept is EARLY_BLOCKED:
        return VisibilityReport(Classification.FULLY_BLOCKED, (), 0.0, 0)
    if kept.size == 0:
        return VisibilityReport(Classification.FULLY_VISIBLE, (), 1.0, 0)

    visible: list[SubElement] = []
    visible_area = 0.0
    depth_reached = 0
    stack = [(element, full_patch(element), kept, 0)]
    while stack:
        node, patch, cands, depth = stack.pop()
        depth_reached = max(depth_reached, depth)
        if depth > 0:
            cands = screen(node, cands, center_blocks=False)
            if cands is EARLY_BLOCKED:
                continue
            if cands.size == 0:
                visible_area += node.area
                visible.append(SubElement(node, patch))
                continue
        if depth < budget.max_depth and node.area >= min_area:
            for child, child_patch in zip(subdivide4(node), split_patch(patch)):
                stack.append((child, child_patch, cands, depth + 1))
            continue
        hit = segment_element_hits(
            p[None, :], node.centroid[None, :], arrays, indices=cands
        ).any()
        if not hit:
            visible_area += node.area
            visible.append(SubElement(node, patch))

    fraction = min(visible_area / element.area, 1.0)
    if visible_area == 0.0:
        return VisibilityReport(Classification.FULLY_BLOCKED, (), 0.0, depth_reached)
    return VisibilityReport(
        Classification.PARTIALLY_VISIBLE, tuple(visible), fraction, depth_reached
    )


def chi_point(p, r, mesh: SurfaceMesh) -> int:
    """Unobstructed-sight indicator between two points, endpoint-exclusive."""
    p = as_point(p)
    r = as_point(r)
    hits = segment_element_hits(p[None, :], r[None, :], mesh.arrays())
    return 0 if bool(hits.any()) else 1
