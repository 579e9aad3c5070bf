"""Collocation discretization of the coupled wall/medium exchange system.

Surface unknowns are net wall fluxes at element-interior Gauss nodes
(discontinuous collocation: four tensor nodes per quad, three symmetric
nodes per triangle), so every collocation point sits at a smooth boundary
location. Interior unknowns are incident-energy values at voxel cell
centers inside the enclosure.

The assembled blocks follow the operator split of the governing system:

    q_i - sum_k,a Gmat[i, ka] q_ka = sum_l Fmat[i, l] G_l + h_i
    G_j = sum_l Umat[j, l] G_l + sum_k,a Vmat[j, ka] q_ka + t_j

Gmat carries reflected wall-to-wall transport, Fmat in-scattering toward
walls, Umat in-scattering between medium cells, Vmat reflected wall
radiation reaching the medium, and h, t the temperature-driven sources.
Chord integrals over the medium resolve into exact per-cell attenuation
factors, so each matrix entry is a closed form over the traversed cells.

Integrals are evaluated with distance-banded Gauss quadrature (escalating
order, and one split as the source point approaches the element; a wall
receiver's split elements away from it take a lower order). Every
rule is laid out on reference cells in root intrinsic coordinates (see
geometry.quad_cells and geometry.tri_cells) and mapped through the Gauss
rule for all cells at once: one cell away from the source point, and in the
near band cells that meet at its in-plane projection. A wall receiver cuts
a near-band quad only along the coordinates on which that projection falls
on or near the quad, so the quad takes four, two or one boxes. A quad's
cells map through its factored bilinear map, x = (a + b xi) + (c + d xi)
eta with the affine Jacobian (j0 + j1 xi) + j2 eta
(geometry.bilinear_coefficients). Fully visible elements take tensor or
triangle rules on the whole element; partly visible ones take triangle
rules on each visible triangle the shadow clipper returns, with shape
functions evaluated at the root intrinsic coordinates of the quadrature
points.

Rules, projections and collocation read every per-element fact by element
id from the mesh's element table (geometry.ElementArrays), quad maps
included, which is computed once per mesh.
"""

from __future__ import annotations

import ctypes
import platform
import warnings
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache

import numpy as np

from ritesolver.geometry import (
    ElementArrays,
    SurfaceMesh,
    VoxelGrid,
    cross3,
    normal_cross,
    points_in_mesh,
    quad_cells,
    tri_cells,
)
from ritesolver.kernels import (
    KernelKind,
    RadiativeProperties,
    blackbody_emission,
    kernel_prefactor,
    projected_solid_angle,
    sight_cosines,
    solvability_margin,
)
from ritesolver.visibility import (
    UNOBSTRUCTED,
    Classification,
    VisibilityReport,
    build_active_list,
    classify_visibility,
    screen_active_set,
)

__all__ = [
    "AssemblyFailure",
    "CollocationSet",
    "SurfaceSystem",
    "VolumeSystem",
    "RowSumReport",
    "Assembler",
    "RowPlan",
    "collocation_points",
    "operator_row_sums",
]

# Distance bands in units of element diameter: beyond FAR_BAND the Gauss
# order is 2, between the bands 4, and inside NEAR_BAND NEAR_ORDER with the
# element split once toward the source point, so the integrand peak sits at
# a corner of every reference cell. A wall receiver's fully visible pairs
# beyond GRADED_BAND take GRADED_ORDER on the same split cells: measured
# against the exact closures on cube r2, lshape r1 and the dented cube,
# order 8 there errs by at most 1.4e-8 per pair, within the near band's
# bound, while order 7 moves the dented cube's solution by 2.7e-4. Interior
# receivers keep NEAR_ORDER throughout (order 8 on their pairs beyond 0.5
# diameters moves cube r3's G by 3.6e-6), and so do the visible triangles
# of partly visible pairs (see visible_rule).
FAR_BAND = 4.0
NEAR_BAND = 1.0
NEAR_ORDER = 12
GRADED_BAND = 0.3
GRADED_ORDER = 8

_GAUSS_OFFSET = 1.0 / np.sqrt(3.0)

# Collocation nodes: tensor Gauss points of the 2x2 rule, counter-clockwise.
QUAD_NODES_UV = np.array(
    [
        [-_GAUSS_OFFSET, -_GAUSS_OFFSET],
        [_GAUSS_OFFSET, -_GAUSS_OFFSET],
        [_GAUSS_OFFSET, _GAUSS_OFFSET],
        [-_GAUSS_OFFSET, _GAUSS_OFFSET],
    ]
)
# Reference-square corners, in the order of a quad's vertices.
_CORNERS = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
# Symmetric interior triangle nodes, barycentric.
TRI_NODES_BARY = np.array(
    [
        [2.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0],
        [1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0],
        [1.0 / 6.0, 1.0 / 6.0, 2.0 / 3.0],
    ]
)


# Relative discretization slack operator_row_sums allows over each bound.
_ROW_SUM_RTOL = 0.02

# Most (point, element) entries one batched pass of row planning holds:
# rows are planned in runs whose active lists, or whose active pairs times
# blocker candidates, stay within it. The screen bounds its own (pair,
# candidate) arrays (visibility._SCREEN_ENTRIES), so this bounds the
# passes' per-row and per-pair arrays: cube r2 plans its 46,080 wall
# entries in one pass at a 1.8 MB peak. The dented cube (1,998) and lshape
# r1 (52,624) also take one pass per equation, lshape r2 (3.4 million) 56
# and 10.
_PLAN_ENTRIES = 1 << 16


class AssemblyFailure(RuntimeError):
    """A non-finite matrix entry appeared; geometry or tolerances are off."""


# glibc's mallopt parameter numbers (malloc.h).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


@cache
def _keep_freed_heap() -> None:
    """Let glibc keep up to 64 MiB of freed heap instead of trimming it.

    Every row allocates and frees a few MB of numpy temporaries (2.3 MB
    median, 3.5 MB at most on cube r2). At glibc's default trim point
    those pages go back to the kernel when the row frees them, and the
    next row faults them in again: about 60,000 minor faults and a fifth
    of the wall time of a warm cube r2 assembly. Raising the trim
    threshold keeps them for the next row. Setting it also stops glibc
    from raising its mmap threshold as blocks are freed, so that
    threshold is pinned too, at 32 MiB (glibc's own ceiling on 64-bit):
    otherwise every temporary above the threshold left by the allocation
    history so far (128 KiB in a fresh process) would still be mapped and
    unmapped on every row. The settings are process-wide, so they apply
    to every allocation in the process; peak RSS does not move, because
    the kept pages were resident at each row's peak. Other C libraries
    are left alone.
    """
    if platform.libc_ver()[0] != "glibc":
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)


# ---------------------------------------------------------------------------
# Shape functions


# Quad bases are products of a xi factor and an eta factor, one per node or
# corner, and are component-major: xi and eta (same number of axes) give
# (4, ...), the broadcast of the two. On a tensor grid, with xi and eta along
# different axes, each factor is evaluated only at the distinct values of
# its coordinate.


def quad_flux_shapes(xi, eta) -> np.ndarray:
    """Nodal interpolants on the 2x2 Gauss nodes; delta at nodes, sum 1."""
    xa, ea = 3.0 * QUAD_NODES_UV.T
    return 0.25 * (1.0 + np.multiply.outer(xa, xi)) * (1.0 + np.multiply.outer(ea, eta))


def tri_flux_shapes(bary: np.ndarray) -> np.ndarray:
    """Nodal interpolants on the symmetric triangle nodes, (3, ...) from
    barycentric coordinates (3, ...)."""
    return 2.0 * bary - 1.0 / 3.0


def quad_vertex_shapes(xi, eta) -> np.ndarray:
    """Standard bilinear corner basis for interpolating nodal data."""
    xc, ec = _CORNERS.T
    return 0.25 * (1.0 + np.multiply.outer(xc, xi)) * (1.0 + np.multiply.outer(ec, eta))


# ---------------------------------------------------------------------------
# Quadrature rules


@lru_cache(maxsize=64)
def _gauss_1d(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


@lru_cache(maxsize=64)
def tri_rule(order: int):
    """Triangle rule as barycentric points and area-fraction weights.

    Order <= 2 uses the 3-point symmetric rule (the collocation nodes);
    higher orders collapse a tensor Gauss rule onto the triangle, which
    keeps the point count scaling identical to the quad path.
    """
    if order <= 2:
        return TRI_NODES_BARY.copy(), np.full(3, 1.0 / 3.0)
    x, w = _gauss_1d(order)
    u = 0.5 * (x + 1.0)
    wu = 0.5 * w
    uu, vv = np.meshgrid(u, u, indexing="ij")
    wuv = np.outer(wu, wu)
    xi = uu.ravel()
    eta = (vv * (1.0 - uu)).ravel()
    weights = (wuv * (1.0 - uu)).ravel() * 2.0  # unit-triangle area is 1/2
    bary = np.column_stack([1.0 - xi - eta, xi, eta])
    return bary, weights


@dataclass(frozen=True)
class ElementRule:
    """Quadrature data for (part of) one element.

    weights include the surface Jacobian, so sum(weights) is the physical
    area covered. flux_shapes and vertex_shapes are evaluated at the points
    in the ROOT element's intrinsic coordinates; triangles pad them with a
    zero fourth column. flux_shapes is None in a rule built without them,
    for a mesh where nothing reflects. The (n, 3) and (n, 4) arrays are
    column-major (Fortran order), so points.T and the shapes' .T are
    contiguous component-major blocks that a row concatenates and computes
    on along the points.
    """

    points: np.ndarray        # (n, 3), Fortran order
    weights: np.ndarray       # (n,)
    flux_shapes: np.ndarray | None  # (n, 4), Fortran order
    vertex_shapes: np.ndarray  # (n, 4), Fortran order


def _quad_cell_rule(maps: np.ndarray, cells: np.ndarray, order: int,
                    flux: bool = True) -> ElementRule:
    """Tensor rule mapped into a stack of boxes at once, each in its own
    quad.

    cells is (m, 4), the boxes, and maps (m, 5, 3) the bilinear_coefficients
    of the quad each box lies in, so a quad split into c boxes repeats its
    map c times and quads with different numbers of boxes share one pass.
    Returns the rule box by box; each box's part equals what it gives
    alone, bit for bit. Each box's points form an order x order grid with
    xi along the first axis and eta along the second, and the factored map
    runs along that grid: a + b xi, c + d xi and the Jacobian's j0 + j1 xi
    are formed at the box's order distinct xi values, j2 eta at its eta
    values. A point then costs one multiply and one add per coordinate,
    and its weight, the Jacobian times the box's tensor Gauss weight, three
    more operations. The shape bases broadcast the same way; flux shapes
    are left out unless flux is true.
    """
    x, w = _gauss_1d(order)
    xi0, xi1, eta0, eta1 = cells.T[..., None]
    xs = xi0 + 0.5 * (x + 1.0) * (xi1 - xi0)          # (m, o)
    es = eta0 + 0.5 * (x + 1.0) * (eta1 - eta0)
    a, b, c, d, j = maps.transpose(1, 2, 0)[..., None]  # (3, m, 1) each
    xi, eta = xs[..., :, None], es[..., None, :]      # (m, o, 1), (m, 1, o)
    points = (a + b * xs)[..., None] + (c + d * xs)[..., None] * eta   # (3, m, o, o)
    jacobian = (j[0] + j[1] * xs)[..., None] + (j[2] * es)[..., None, :]
    weights = jacobian * ((0.25 * (xi1 - xi0) * (eta1 - eta0) * w)[..., None] * w)
    return ElementRule(points.reshape(3, -1).T, weights.ravel(),
                       quad_flux_shapes(xi, eta).reshape(4, -1).T if flux else None,
                       quad_vertex_shapes(xi, eta).reshape(4, -1).T)


def _tri_cell_rule(verts3: np.ndarray, cells: np.ndarray, order: int):
    """Triangle rule mapped into every barycentric cell at once.

    verts3 is the triangle (3, 3) all cells lie in, or one triangle per
    cell (c, 3, 3); cells is (c, 3, 3). Returns (points, weights,
    barycentric coordinates in the triangle of each cell), cell by cell; each
    cell's part equals what it gives alone, bit for bit. A cell's area is
    half the norm of its edge cross product, as build_element takes it. The
    squared norm is the batched dot e[:, None, :] @ e[:, :, None], the same
    per-vector dot product np.linalg.norm takes, where an einsum or a sum
    over the components can round differently in the last bit.
    """
    bary, w = tri_rule(order)
    root = bary @ cells                          # (c, n, 3)
    corners = cells @ verts3                     # (c, 3, 3)
    e = cross3(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0])
    areas = 0.5 * np.sqrt((e[:, None, :] @ e[:, :, None])[:, 0, 0])
    weights = w * areas[:, None]
    return (root @ verts3).reshape(-1, 3), weights.ravel(), root.reshape(-1, 3)


def _shaped_rule(quad: bool, points, weights, coords, flux: bool = True) -> ElementRule:
    """Attach a quad's (quad true) or a triangle's shapes at root intrinsic
    coordinates (n, 2 or 3), padded to four columns, and store the rule
    column-major; flux shapes only if flux is true."""
    if quad:
        xi, eta = coords.T
        fshape = quad_flux_shapes(xi, eta) if flux else None
        vertex = quad_vertex_shapes(xi, eta)
    else:
        fshape = np.zeros((4, len(coords))) if flux else None
        vertex = np.zeros((4, len(coords)))
        if flux:
            fshape[:3] = tri_flux_shapes(coords.T)
        vertex[:3] = coords.T
    return ElementRule(np.asfortranarray(points), weights, fshape.T if flux else None, vertex.T)


def element_rule(arrays: ElementArrays, ids, order, cells=None, flux: bool = True) -> ElementRule:
    """Quadrature rule over the reference cells of whole elements.

    ids are elements of one kind in the element table arrays, whose rules
    are concatenated element by element; each element's part equals its
    rule alone, bit for bit. order is one Gauss order, or one per element;
    each run of consecutive elements of one order is mapped in one pass,
    all of a quad run's boxes in one _quad_cell_rule call, however many
    each quad has. cells holds each element's quad_cells boxes or
    tri_cells corner sets, one array per element; None takes each element
    whole. With flux false the rule carries no flux shapes, which only a
    reflecting source element's row reads.
    """
    quad = arrays.n_vertices[ids[0]] == 4
    if cells is None:
        cells = [quad_cells() if quad else tri_cells()] * len(ids)
    orders = list(order) if np.iterable(order) else [order] * len(ids)
    cuts = [i for i in range(1, len(orders)) if orders[i] != orders[i - 1]]
    runs = [slice(a, b) for a, b in zip([0] + cuts, cuts + [len(orders)])]
    if quad:
        maps = arrays.quad_maps[ids]
        boxes = [len(c) for c in cells]
        return _joined([_quad_cell_rule(np.repeat(maps[run], boxes[run], axis=0),
                                        np.concatenate(cells[run]), orders[run.start], flux)
                        for run in runs])
    verts = arrays.vertices[ids, :3]
    parts = [_tri_cell_rule(np.repeat(verts[run], [len(c) for c in cells[run]], axis=0),
                            np.concatenate(cells[run]), orders[run.start]) for run in runs]
    points, weights, coords = (np.concatenate(field) for field in zip(*parts))
    return _shaped_rule(False, points, weights, coords, flux)


def _joined(rules: list[ElementRule]) -> ElementRule:
    """Rules concatenated along their points, kept column-major."""
    if len(rules) == 1:
        return rules[0]

    def join(field):
        return np.concatenate([getattr(rule, field).T for rule in rules], axis=1).T

    return ElementRule(join("points"), np.concatenate([rule.weights for rule in rules]),
                       join("flux_shapes") if rules[0].flux_shapes is not None else None,
                       join("vertex_shapes"))


def _barycentric(tris: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Barycentric coordinates (m, 3) of the in-plane projections of points
    (m, 3) onto triangles (m, 3, 3); either stack may have length one.

    Cramer's rule solves each point's 2x2 Gram system on its own.
    """
    t0, t1, t2 = tris.transpose(1, 2, 0)                  # (3, m) each
    e1, e2, w = t1 - t0, t2 - t0, points.T - t0
    g11, g12, g22 = (e1 * e1).sum(0), (e1 * e2).sum(0), (e2 * e2).sum(0)
    r1, r2 = (w * e1).sum(0), (w * e2).sum(0)
    det = g11 * g22 - g12 * g12
    alpha = (g22 * r1 - g12 * r2) / det
    beta = (g11 * r2 - g12 * r1) / det
    return np.stack([1.0 - (alpha + beta), alpha, beta], axis=1)


def _runs(sizes, limit: int) -> list[slice]:
    """Consecutive runs of items holding at most limit in all, sizes[i]
    being item i's; an item above the limit gets a run of its own."""
    runs, start, total = [], 0, 0
    for i, size in enumerate(np.asarray(sizes).tolist()):
        if total + size > limit and i > start:
            runs.append(slice(start, i))
            start, total = i, 0
        total += size
    if start < len(sizes):
        runs.append(slice(start, len(sizes)))
    return runs


# Most quadrature points one pass of visible_rule builds. Besides the rules
# it returns, a pass holds about 150 bytes a point of temporaries, most of
# them in intrinsic_projection; runs of this size keep that near 1 MB, what
# one row of quadrature allocates, where the dented cube's 27,616 visible
# points in one pass raised the heap's peak by 3.3 MB.
_VISIBLE_POINTS = 8192


def visible_rule(p, arrays: ElementArrays, ids, tris: list[np.ndarray]) -> list[ElementRule]:
    """Banded triangle rules over the visible triangles of several elements.

    tris[i] holds the visible triangles (T, 3, 3) of element ids[i] of the
    element table arrays, seen from the point p or, p being one point per
    element (m, 3), from p[i], so that the partly visible pairs of many
    rows take one call; returns one
    rule per element. Each triangle takes the band of its own distance from
    its point over its own diameter, near ones split toward the point's
    in-plane projection. Distances and split points take one pass for all
    triangles. The rules are then built over runs of elements holding at
    most _VISIBLE_POINTS points (an element with more has a run of its
    own), one _tri_cell_rule call per band order and run; each element's
    part equals what its triangles give alone. Flux and vertex shapes are
    evaluated at the root intrinsic coordinates of each element's points,
    projected in one call per element kind and run.
    """
    ids = np.asarray(ids)
    counts = np.array([len(t) for t in tris])
    tris = np.concatenate(tris)
    p = np.repeat(np.broadcast_to(p, (len(ids), 3)), counts, axis=0)
    normals = np.repeat(arrays.normals[ids], counts, axis=0)
    dists = point_element_distances(p, np.concatenate([tris, tris[:, 2:]], axis=1), normals)
    diams = np.linalg.norm(tris - np.roll(tris, 1, axis=1), axis=2).max(axis=1)
    towards = _barycentric(tris, p)
    orders, cells = [], []
    for d, toward in zip(dists / diams, towards):
        order, split = _band(float(d))
        orders.append(order)
        cells.append(tri_cells(toward if split else None))
    sizes = [len(c) * len(tri_rule(o)[1]) for o, c in zip(orders, cells)]
    ends = np.cumsum(counts)
    starts = ends - counts
    rules = []
    for run in _runs(np.add.reduceat(sizes, starts), _VISIBLE_POINTS):
        tri_run = slice(starts[run.start], ends[run.stop - 1])
        rules += _visible_run(arrays, ids[run], counts[run], tris[tri_run], orders[tri_run],
                              cells[tri_run])
    return rules


def _visible_run(arrays, ids, counts, tris, orders, cells) -> list[ElementRule]:
    """visible_rule's rules for one run of elements ids, whose triangles
    tris take the given band orders and cells."""
    parts = [None] * len(tris)
    for order in sorted(set(orders)):
        group = [i for i, o in enumerate(orders) if o == order]
        sizes = [len(cells[i]) for i in group]
        pts, wts, _ = _tri_cell_rule(np.repeat(tris[group], sizes, axis=0),
                                     np.concatenate([cells[i] for i in group]), order)
        ends = np.cumsum(sizes) * (len(wts) // sum(sizes))
        starts = np.concatenate([[0], ends[:-1]])
        for i, a, b in zip(group, starts, ends):
            parts[i] = (pts[a:b], wts[a:b])
    pts, wts = [], []
    for end, count in zip(np.cumsum(counts), counts):
        own = parts[end - count:end]
        pts.append(np.concatenate([q[0] for q in own]))
        wts.append(np.concatenate([q[1] for q in own]))
    coords = [None] * len(ids)
    quad = arrays.n_vertices[ids] == 4
    for kind in (True, False):
        group = np.flatnonzero(quad == kind)
        if not group.size:
            continue
        sizes = [len(pts[i]) for i in group]
        projected = intrinsic_projection(arrays, ids[group],
                                         np.concatenate([pts[i] for i in group]), sizes)
        for i, part in zip(group, np.split(projected, np.cumsum(sizes)[:-1])):
            coords[i] = part
    return [_shaped_rule(*args) for args in zip(quad, pts, wts, coords)]


def intrinsic_projection(arrays: ElementArrays, ids, points, counts=None) -> np.ndarray:
    """Root intrinsic coordinates of the in-plane projections of points (n, 3).

    ids are elements of one kind in the element table arrays: point i
    projects onto element ids[i], or with counts the next counts[i] points
    onto element ids[i]; a single id takes every point. So a row's split
    points take one call, and so do the visible points of a row's partly
    visible elements of one kind. Triangles return (n, 3) barycentric
    coordinates, quads (n, 2) (xi, eta). Each point is solved on its own in
    closed form, so it gives the same bits stacked as alone.

    A quad (planar, convex) maps x = a + b xi + c eta + d xi eta, with a,
    b, c, d its rows of arrays.quad_maps (see
    geometry.bilinear_coefficients). With r the point's foot less a and
    cr(u, v) = (u x v) . normal, eta solves
    A eta^2 + B eta + C = 0, A = cr(c, d) = -j2, B = cr(c, b) - cr(r, d)
    with cr(c, b) = -j0, C = -cr(r, b), and xi =
    (r - c eta) . g / |g|^2 with g = b + d eta. At a root 2A eta + B is
    minus the Jacobian, positive on the element, so eta is the root
    (-B - sqrt(B^2 - 4AC)) / 2A, taken as C / q for B < 0 and q / A
    otherwise, q = -(B + sign(B) sqrt(B^2 - 4AC)) / 2: no cancellation, and
    exact for parallelograms (A = 0). Nothing is clamped: a foot at xi = 4
    returns 4. Beyond the fold of a tapered quad (B^2 < 4AC) there is no
    preimage, and eta is -B / 2A, the double root once the discriminant is
    floored at 0. At a trapezoid's apex g = 0, and xi is 0; where A = B = 0,
    eta is 0. Every finite input gives a finite result.
    """
    pts = np.asarray(points, dtype=float)
    # One element broadcasts over all points: its stack has length one.
    normal = arrays.normals[ids].T

    def spread(*per_element):
        # Terms of each element, formed once and repeated out to its points.
        if counts is None:
            return per_element
        return [np.repeat(x, counts, axis=-1) for x in per_element]

    if arrays.n_vertices[ids[0]] != 4:
        [tris] = spread(arrays.vertices[ids, :3].T)
        return _barycentric(tris.T, pts)
    a, b, c, d, j = arrays.quad_maps[ids].transpose(1, 2, 0)  # (3, m) each
    # cr swapped negates exactly, so cr(c, d) is -j2 and cr(c, b) is -j0.
    a, b, c, d, normal, qa, cb = spread(a, b, c, d, normal, -j[2], -j[0])
    rel = pts.T - a
    r = rel - (rel * normal).sum(0) * normal
    qb, qc = cb - normal_cross(r, d, normal), -normal_cross(r, b, normal)
    disc = qb * qb - 4.0 * qa * qc
    root = np.sqrt(np.maximum(disc, 0.0))
    q = -0.5 * (qb + np.where(qb >= 0.0, root, -root))
    # q / A is the element's root where B >= 0 and the fold's beyond the
    # fold; C / q is the element's root elsewhere, A = 0 included.
    by_a = ((qb >= 0.0) | (disc < 0.0)) & (qa != 0.0)
    num, den = np.where(by_a, q, qc), np.where(by_a, qa, q)
    eta = np.divide(num, den, out=np.zeros_like(num), where=den != 0.0)
    g = b + d * eta
    gg = (g * g).sum(0)
    coords = np.zeros((len(eta), 2))
    np.divide(((r - c * eta) * g).sum(0), gg, out=coords[:, 0], where=gg != 0.0)
    coords[:, 1] = eta
    return coords


def _band(d: float, wall: bool = False) -> tuple[int, bool]:
    """Gauss order and whether to split, for distance over diameter d;
    wall is true for a whole element seen from a wall receiver, whose near
    band is graded at GRADED_BAND."""
    if d > FAR_BAND:
        return 2, False
    if d > NEAR_BAND:
        return 4, False
    if wall and d > GRADED_BAND:
        return GRADED_ORDER, True
    return NEAR_ORDER, True


# ---------------------------------------------------------------------------
# Point-to-element distance


def point_element_distances(p: np.ndarray, verts: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """Exact Euclidean distance from a point to each flat element (m, 4, 3),
    triangles padded with a repeated last vertex; p is one point or one per
    element (m, 3).

    All four edges are handled in one pass; each element's distance is
    computed on its own, so it has the same bits in any stack.
    """
    rel0 = p - verts[:, 0]
    hn = np.einsum("mj,mj->m", rel0, normals)
    proj = p - hn[:, None] * normals  # foot point in each plane
    edge = verts[:, [1, 2, 3, 0]] - verts      # (m, 4, 3)
    side = np.einsum("mej,mj->me", cross3(edge, proj[:, None] - verts), normals)
    ee = np.einsum("mej,mej->me", edge, edge)
    p = np.asarray(p)[..., None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.einsum("mej,mej->me", p - verts, edge) / ee
    t = np.clip(np.where(ee > 0.0, t, 0.0), 0.0, 1.0)
    closest = verts + t[..., None] * edge
    edge_d2 = ((p - closest) ** 2).sum(axis=2).min(axis=1)
    return np.where((side >= 0.0).all(axis=1), np.abs(hn), np.sqrt(edge_d2))


# ---------------------------------------------------------------------------
# Collocation


@dataclass(frozen=True)
class CollocationSet:
    """Boundary flux nodes plus interior cell-center nodes.

    Boundary index doubles as the flux unknown index. boundary_weights are
    the Gauss weights times Jacobians of the per-element nodal rule, so
    summing weights per element returns its area; they serve the discrete
    energy balance.
    """

    boundary_points: np.ndarray     # (N_p, 3)
    boundary_normals: np.ndarray    # (N_p, 3)
    boundary_element: np.ndarray    # (N_p,)
    boundary_weights: np.ndarray    # (N_p,)
    element_first_dof: np.ndarray   # (E,)
    interior_points: np.ndarray     # (N_i, 3)
    interior_cells: np.ndarray      # (N_i,) flat grid indices

    @property
    def n_boundary(self) -> int:
        return self.boundary_points.shape[0]

    @property
    def n_interior(self) -> int:
        return self.interior_points.shape[0]


def collocation_points(mesh: SurfaceMesh, grid: VoxelGrid) -> CollocationSet:
    """Gauss-node boundary collocation plus interior cell centers.

    Boundary nodes run element by element, four per quad and three per
    triangle, all quads in one pass and all triangles in another. A quad's
    nodes are its vertex shapes times its vertices, the bits of the corner
    products, and their weights the Jacobian of its factored bilinear map,
    (j0 + j1 xi) + j2 eta, read from the element table's quad_maps. Nodes
    from the factored map would round differently, and a node moved by an
    ulp moves the visible triangles the shadow clipper returns. Interior
    points are the centers of grid cells lying inside the enclosure; cells
    outside (an outer bounding grid over a non-convex shape) carry no
    unknown.
    """
    arr = mesh.arrays()
    counts = arr.n_vertices
    first = np.cumsum(counts) - counts
    owner = np.repeat(np.arange(len(arr)), counts)
    quads, on_quad = counts == 4, np.repeat(counts == 4, counts)
    pts, weights = np.empty((owner.size, 3)), np.empty(owner.size)
    xi, eta = QUAD_NODES_UV.T
    vs = quad_vertex_shapes(xi, eta)                       # (4 corners, 4 nodes)
    v = arr.vertices[quads].transpose(1, 2, 0)[..., None]  # (4, 3, quads, 1)
    points = ((vs[0] * v[0] + vs[1] * v[1]) + vs[2] * v[2]) + vs[3] * v[3]
    pts[on_quad] = points.reshape(3, -1).T
    j0, j1, j2 = arr.quad_maps[quads, 4].T[..., None]
    weights[on_quad] = ((j0 + j1 * xi) + j2 * eta).ravel()
    pts[~on_quad] = (TRI_NODES_BARY @ arr.vertices[~quads, :3]).reshape(-1, 3)
    weights[~on_quad] = np.repeat(arr.areas[~quads] / 3.0, 3)
    centers = grid.cell_centers()
    inside = points_in_mesh(mesh, centers)
    cells = np.nonzero(inside)[0]
    return CollocationSet(
        boundary_points=pts,
        boundary_normals=arr.normals[owner],
        boundary_element=owner,
        boundary_weights=weights,
        element_first_dof=first,
        interior_points=centers[cells],
        interior_cells=cells,
    )


# ---------------------------------------------------------------------------
# Assembled systems


@dataclass(frozen=True)
class SurfaceSystem:
    """Wall-equation blocks: q = Gmat q + Fmat G + h."""

    gmat: np.ndarray   # (N_p, N_q)
    fmat: np.ndarray   # (N_p, N_i)
    h: np.ndarray      # (N_p,)


@dataclass(frozen=True)
class VolumeSystem:
    """Medium-equation blocks: G = Umat G + Vmat q + t.

    cells are the flat grid indices behind the N_i interior unknowns, and
    cell_temperatures their prescribed medium temperatures.
    """

    umat: np.ndarray   # (N_i, N_i)
    vmat: np.ndarray   # (N_i, N_q)
    t: np.ndarray      # (N_i,)
    cells: np.ndarray  # (N_i,)
    cell_temperatures: np.ndarray  # (N_i,)


@dataclass(frozen=True)
class RowSumReport:
    """Max absolute row sums of the four operator blocks vs. their bounds."""

    row_sums: dict[str, float]
    bounds: dict[str, float]
    tolerance: float
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


class SolvabilityViolation(UserWarning):
    """Uniqueness margin is non-positive; the system may still have a unique
    solution, which the direct solve then finds."""


# ---------------------------------------------------------------------------
# Assembler


@dataclass(frozen=True)
class RowPlan:
    """Geometry of one collocation row, recorded when its equation is first
    assembled (see Assembler._plan_rows).

    Fields run parallel over the row's active elements, in active-list
    order. elements holds their ids in the mesh's element table
    (geometry.ElementArrays), from which the row's rules read each
    element's vertices, normal, kind and quad map. A row gathers its
    quadrature points in another order (see Assembler._gather_row_rule):
    near-band quads, near-band triangles, then the rules kept here in this
    order. rules holds the ElementRule of every
    pair whose rule is the same at every property point: the shared
    whole-element rule of a fully visible element beyond the near band, and
    the visible-triangle rule of a partly visible one. It holds None for
    fully blocked pairs, which take no points, and for near-band, fully
    visible ones, whose rules are rebuilt from cells at every property
    point. screens holds the ids of each element's blockers from
    screen_active_set, without their cones, and visibility its
    VisibilityReport; a pair with no blockers is UNOBSTRUCTED without a
    classify_visibility call. cells holds the reference cells of a
    near-band, fully visible element, quad_cells boxes or tri_cells corner
    sets that meet at the source point's in-plane projection (None
    elsewhere): an interior row's quads take four boxes, a wall row's four,
    two or one, cut only along the coordinates on which the projection
    falls within 1.1 of the quad's centre. The plan alone decides that
    split. orders holds the Gauss order of those cells, NEAR_ORDER or, for
    a wall row's pair beyond GRADED_BAND, GRADED_ORDER (None elsewhere).
    """

    elements: np.ndarray        # (a,) element ids
    rules: tuple[ElementRule | None, ...]
    screens: tuple
    visibility: tuple[VisibilityReport, ...]
    cells: tuple
    orders: tuple


def _per_point(per_element: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per-element data (..., a) repeated out to a row's points, counts[i]
    copies of column i. Repeating each element's column is several times
    faster than fancy-indexing the columns of a component-major table."""
    return np.repeat(per_element, counts, axis=-1)


class Assembler:
    """Builds the four blocks and source vectors for one mesh/grid pair.

    Geometry is cached on the instance, so sweeping radiative properties
    over a fixed geometry pays for it once. row_plans maps each row (kind
    "b" or "i", index) to its RowPlan: active elements, blocker lists,
    VisibilityReports, near-band reference cells and orders, and every
    rule that does not change between property points. The first assembly
    of an equation plans all its rows in batched passes, one per stage
    (see _plan_rows). Whole-element rules away from the source point are
    cached per (element, order) and shared between plans. Near-band rules
    of fully visible elements are rebuilt from the plan's cells and orders
    at every property point, in one call per element kind whose rule the
    row takes whole. Rules read each element by id from the mesh's element
    table (geometry.ElementArrays), which holds the quads' factored bilinear
    maps, computed once with the mesh, so set-up and rows compute none. The
    vertex temperatures are one gather through the mesh's padded node ids
    at construction. The wall nodes' emission and the grid's plane
    coordinates are kept from the first wall row and the first chord pass
    on; neither is computed at construction.

    Each row runs two passes over its quadrature points. The wall pass
    writes the direct source and, when some element the row sees reflects
    (emissivity below 1), the reflection row of Gmat or Vmat. The medium
    pass traces the chords to the points and writes the medium emission
    into the source and the scatter row of Fmat or Umat; it runs only when
    the medium scatters (sigma_s > 0) or absorbs (sigma_a > 0) with some
    active cell above 0 K, and adds only the terms that can be non-zero.
    A skipped term leaves the zeros its block starts with, so black walls,
    a non-scattering or a cold medium change no bit of any block. Chords
    are traversed afresh at every property point: crossing parameters are
    found for every grid plane, only chords that cross two or more planes
    are sorted, and segments come one per cell crossed. No chord segment
    is kept between property points. The medium blocks Fmat and Umat have
    one column per interior unknown. On a mesh where no element reflects,
    the near-band rules are built without flux shapes and rows gather
    none, since only the reflection row reads them.

    A row's quadrature data is component-major: points and their
    differences from the source point are (3, n) and shape bases (4, n),
    so every array operation runs along the n quadrature points rather
    than along x, y, z. Per-element data (normals, flux-unknown columns,
    vertex emission) is repeated out to the points from (3, E) and (4, E)
    tables.

    The first Assembler of a process raises glibc's heap trim threshold
    for the whole process (see _keep_freed_heap), so each row reuses the
    pages the previous row freed instead of faulting them in again.
    """

    def __init__(self, mesh: SurfaceMesh, grid: VoxelGrid):
        _keep_freed_heap()
        self.mesh = mesh
        self.grid = grid
        self.collocation = collocation_points(mesh, grid)
        self.arrays = mesh.arrays()
        # Flux-unknown columns per element, (4, E) aligned with the padded
        # shapes: a triangle's fourth column is clipped into range and
        # meets an exactly-zero shape value.
        col = self.collocation
        self._columns = np.minimum(np.arange(4)[:, None] + col.element_first_dof,
                                   col.n_boundary - 1)
        # Element normals component-major, (3, E), to gather per point.
        self._normals = np.ascontiguousarray(self.arrays.normals.T)
        eps = self.arrays.emissivities
        self._reflectance = (1.0 - eps) / eps
        # Only a reflecting element's points read flux shapes (_wall_pass).
        self._reflects = bool(self._reflectance.any())
        self.row_plans: dict[tuple[str, int], RowPlan] = {}
        self._rule_cache: dict[tuple[int, int], ElementRule] = {}
        # Cells with an interior unknown; the rest carry no medium emission.
        self._active_mask = np.zeros(grid.n_cells, dtype=bool)
        self._active_mask[self.collocation.interior_cells] = True
        # Vertex temperatures per element, padded like the vertex arrays.
        self._vertex_temps = mesh.node_temperatures[mesh.padded_nodes]

    # -- caches ---------------------------------------------------------

    @cached_property
    def _node_emission(self) -> np.ndarray:
        """Blackbody emission at every wall node, (N_p,), interpolated from
        its element's vertices in one batched dot, a triangle's shapes padded
        with an exact zero; built on the first wall row."""
        col = self.collocation
        on_quad = np.repeat(self.arrays.n_vertices, self.arrays.n_vertices) == 4
        shapes = np.zeros((col.n_boundary, 4))
        shapes[on_quad] = np.tile(quad_vertex_shapes(*QUAD_NODES_UV.T).T, (on_quad.sum() // 4, 1))
        shapes[~on_quad, :3] = np.tile(TRI_NODES_BARY, ((~on_quad).sum() // 3, 1))
        eb = blackbody_emission(self._vertex_temps)[col.boundary_element]
        return (shapes[:, None, :] @ eb[:, :, None])[:, 0, 0]

    def _cached_rule(self, k: int, order: int) -> ElementRule:
        rule = self._rule_cache.get((k, order))
        if rule is None:
            rule = self._rule_cache[(k, order)] = element_rule(self.arrays, [k], order)
        return rule

    def _plan_rows(self, kind: str) -> None:
        """Record the RowPlan of every row of one equation, kind "b" or "i".

        Each stage runs once over all rows, in runs of rows that keep every
        pass within _PLAN_ENTRIES entries: the active lists as one mask,
        then over all active pairs, one point per pair, the distances and
        the blocker screen, a clipper call per listed pair, one
        visible_rule call for the partly visible pairs and one projection
        of the near-band split points per element kind, then their cells;
        each near-band pair's order comes with its band (see _band).
        Each stage gives every pair the bits its row's own call gives it.
        """
        col, arr, mesh = self.collocation, self.arrays, self.mesh
        if kind == "b":
            points, normals, sources = (col.boundary_points, col.boundary_normals,
                                        col.boundary_element)
        else:
            points, normals, sources = col.interior_points, None, None

        def take(per_row, at):
            # Wall rows' normals and elements at the given rows; None inside.
            return None if per_row is None else per_row[at]

        mask = np.zeros((len(points), len(arr)), dtype=bool)
        for run in _runs(np.full(len(points), len(arr)), _PLAN_ENTRIES):
            mask[run] = build_active_list(points[run], take(normals, run), mesh,
                                          take(sources, run))
        counts = mask.sum(axis=1)
        for run in _runs(counts * len(arr), _PLAN_ENTRIES):
            rows, idx = np.nonzero(mask[run])
            rows += run.start
            p = points[rows]
            rel = (point_element_distances(p, arr.vertices[idx], arr.normals[idx])
                   / arr.diameters[idx])
            screens = screen_active_set(p, idx, mesh, take(sources, rows))
            rules, visibility, near = [], [], []
            orders = [None] * idx.size
            for j, (k, d, screened) in enumerate(zip(idx.tolist(), rel, screens)):
                order, split = _band(float(d), kind == "b")
                vis = classify_visibility(p[j], k, screened, mesh) if screened else UNOBSTRUCTED
                rule = None
                if vis.classification is Classification.FULLY_VISIBLE:
                    if split:
                        near.append(j)
                        orders[j] = order
                    else:
                        rule = self._cached_rule(k, order)
                rules.append(rule)
                visibility.append(vis)
            # The rules of the partly visible pairs, one call for the run.
            partial = [j for j, vis in enumerate(visibility)
                       if vis.classification is Classification.PARTIALLY_VISIBLE]
            if partial:
                built = visible_rule(p[partial], arr, idx[partial],
                                     [visibility[j].visible for j in partial])
                for j, rule in zip(partial, built):
                    rules[j] = rule
            # The near-band pairs' cells, split at their points' projections.
            cells = [None] * idx.size
            for group in self._by_kind(idx, near):
                towards = intrinsic_projection(arr, idx[group], p[group])
                split = (quad_cells(towards, kind == "b") if arr.n_vertices[idx[group[0]]] == 4
                         else map(tri_cells, towards))
                for j, c in zip(group, split):
                    cells[j] = c
            ends = np.cumsum(counts[run]).tolist()
            for r, end, n in zip(range(run.start, run.stop), ends, counts[run].tolist()):
                pairs = slice(end - n, end)
                self.row_plans[(kind, r)] = RowPlan(
                    elements=idx[pairs], rules=tuple(rules[pairs]),
                    screens=tuple(tuple(b for b, _ in screened) for screened in screens[pairs]),
                    visibility=tuple(visibility[pairs]), cells=tuple(cells[pairs]),
                    orders=tuple(orders[pairs]),
                )

    def _by_kind(self, ids: np.ndarray, picked: list[int]) -> list[list[int]]:
        """The positions picked of element ids, quads first, then triangles;
        kinds with none picked are left out."""
        quad = (self.arrays.n_vertices[ids] == 4).tolist()
        return [group for group in ([j for j in picked if quad[j]],
                                    [j for j in picked if not quad[j]]) if group]

    # -- row integration ------------------------------------------------

    def _gather_row_rule(self, kind: str, pidx: int):
        """Concatenated quadrature data over all visible element portions of
        a planned row.

        Returns None when nothing is radiatively connected to the point,
        otherwise (points, weights, elements, counts, flux_shapes,
        vertex_shapes), element by element: counts[i] points come from
        element elements[i]. Each kind's near-band rule is one element_rule
        call over the plan's cells and orders and one block of the row,
        quads first, then triangles, each NEAR_ORDER elements first, then
        GRADED_ORDER ones, in the plan's order; the kept rules follow.
        Points (3, n) and shapes (4, n) are component-major and
        C-contiguous, the rules' transposes joined along the points. On a
        mesh where no element reflects, flux_shapes is None and the
        near-band rules are built without them.
        """
        plan = self.row_plans[(kind, pidx)]
        near = [j for j, c in enumerate(plan.cells) if c is not None]
        rules, placed, counts = [], [], []
        for group in self._by_kind(plan.elements, near):
            # A kind's near-band elements share one call and one block of
            # the row, grouped by order, in which each takes its cells'
            # points, order squared per cell.
            group.sort(key=plan.orders.__getitem__, reverse=True)
            cells = [plan.cells[j] for j in group]
            orders = [plan.orders[j] for j in group]
            rules.append(element_rule(self.arrays, plan.elements[group], orders, cells,
                                      flux=self._reflects))
            placed += group
            counts += [len(c) * o * o for c, o in zip(cells, orders)]
        kept = [j for j, rule in enumerate(plan.rules) if rule is not None]
        rules += [plan.rules[j] for j in kept]
        placed += kept
        counts += [len(plan.rules[j].weights) for j in kept]
        if not rules:
            return None
        return (
            np.concatenate([rule.points.T for rule in rules], axis=1),
            np.concatenate([rule.weights for rule in rules]),
            plan.elements[placed],
            np.array(counts),
            np.concatenate([rule.flux_shapes.T for rule in rules], axis=1) if self._reflects
            else None,
            np.concatenate([rule.vertex_shapes.T for rule in rules], axis=1),
        )

    @cached_property
    def _grid_planes(self):
        """The grid box's low corner, and the axis and coordinate of every
        interior grid plane, axis by axis; built on the first chord pass."""
        grid = self.grid
        lo, _ = grid.box()
        axis = np.repeat(np.arange(3), grid.dims - 1)
        index = np.concatenate([np.arange(1, k) for k in grid.dims])
        return lo, axis, lo[axis] + index * grid.spacing[axis]

    def _chord_factors(self, p: np.ndarray, d: np.ndarray, lengths: np.ndarray, beta: float):
        """Per-cell attenuated path weights for the chords p -> p + d, batched.

        d is component-major, (3, n), and lengths its column norms. Returns
        flat (point, cell, weight) arrays with one entry per chord segment
        of positive length, point by point and in order along each chord.
        Crossing parameters and their mask are per grid plane and per point,
        plane-major, so their reductions over the planes run along
        contiguous rows; only chords that cross two or more planes are
        sorted, and the segment work is per cell crossed. Per point, the
        weights sum to the exact chord integral of exp(-beta s) with s from
        p. Chords are assumed inside the grid box (enclosure chords always
        are).
        """
        grid = self.grid
        lo, axis, planes = self._grid_planes
        # Crossing parameters of every grid plane, framed by t = 0 and 1; a
        # plane the chord does not cross sorts to the end point, t = 1, and
        # leaves an empty slot. A chord that crosses at most one plane is
        # sorted once its least crossing (1 if none) is in the first slot,
        # so only chords that cross two or more go through the sort.
        with np.errstate(divide="ignore", invalid="ignore"):
            cross = (planes - p[axis])[:, None] / d[axis]     # (planes, n)
        inside = (cross > 0.0) & (cross < 1.0)
        cross = np.where(inside, cross, 1.0)
        t = np.ones((d.shape[1], planes.size + 2))
        t[:, 0] = 0.0
        t[:, 1] = cross.min(axis=0, initial=1.0)
        many = np.count_nonzero(inside, axis=0) > 1
        t[many, 1:-1] = np.sort(cross[:, many], axis=0).T
        # Framed rows differenced in one pass: the step from a row's end
        # (1) to the next row's start (0) is negative, so never live.
        t = t.ravel()
        dt = np.diff(t)
        live = np.flatnonzero(dt > 0.0)
        point = live // (planes.size + 2)
        t0, dt = t[live], dt[live]
        # Each segment's cell holds its midpoint, found one axis at a time.
        # Truncation gives floor's ints wherever the clamp keeps them.
        mid = t0 + 0.5 * dt
        cells = np.zeros(live.size, dtype=int)
        stride = 1
        for a in range(3):
            ia = ((p[a] + mid * d[a][point] - lo[a]) / grid.spacing[a]).astype(int)
            cells += stride * np.clip(ia, 0, grid.dims[a] - 1, out=ia)
            stride *= int(grid.dims[a])
        length = lengths[point]
        s0 = t0 * length
        ds = dt * length
        if beta > 0.0:
            w = np.exp(-beta * s0) * (-np.expm1(-beta * ds)) / beta
        else:
            w = ds
        return point, cells, w

    def _row(self, kind: str, r: int, props: RadiativeProperties, eb_vertices: np.ndarray,
             ib_cells: np.ndarray | None, refl_block, scatter_block, src):
        """Row r of the wall equation (kind "b") or of the medium equation ("i"):
        the wall pass, then, over the same points, the medium pass when some
        cell emits (ib_cells not None) or the medium scatters.

        Wall receivers scale every kernel by their emissivity and see their
        own cosine; medium receivers take 1.0 for both, which is exact, so
        the two equations share this code without changing a bit.
        """
        col = self.collocation
        if kind == "b":
            p = col.boundary_points[r]
            normal = col.boundary_normals[r]
            rx = self.arrays.emissivities[col.boundary_element[r]]
            src[r] = -rx * self._node_emission[r]
        else:
            p = col.interior_points[r]
            normal = None
            rx = 1.0
        gathered = self._gather_row_rule(kind, r)
        if gathered is None:
            return
        pts, w, elements, counts, fshape, vshape = gathered
        diff = pts - p[:, None]
        dist = np.linalg.norm(diff, axis=0)
        cos_p, cos_r = sight_cosines(diff, dist, _per_point(self._normals[:, elements], counts),
                                     normal)
        geo = projected_solid_angle(cos_p, cos_r, dist, w)
        self._wall_pass(r, rx, props, dist, geo, elements, counts, fshape, vshape, eb_vertices,
                        refl_block, src)
        if ib_cells is not None or props.sigma_s > 0.0:
            self._medium_pass(r, rx, props, p, diff, dist, geo, ib_cells, scatter_block, src)

    def _wall_pass(self, r: int, rx: float, props: RadiativeProperties, dist, geo, elements,
                   counts, fshape, vshape, eb_vertices, refl_block, src):
        """Direct transport of the wall radiosity into row r: the direct
        source, and the reflection row (Gmat or Vmat) when some source
        element reflects. A row that sees only black elements stays at the
        zeros its block starts with, the same bits the scatter of zero
        weights gives."""
        direct_k = kernel_prefactor(KernelKind.DIRECT, props, dist) * geo
        reflect = rx * self._reflectance[elements]
        if reflect.any():
            # bincount adds in input order from 0.0, as add.at into a zero
            # row. Each column still takes its points in order; a
            # triangle's padded fourth slot adds exact zeros.
            refl_block[r] = np.bincount(
                _per_point(self._columns[:, elements], counts).ravel(),
                (_per_point(reflect, counts) * direct_k * fshape).ravel(),
                minlength=self.collocation.n_boundary,
            )
        vs, eb = vshape, _per_point(eb_vertices.T[:, elements], counts)
        eb_pts = (vs[0] * eb[0] + vs[2] * eb[2]) + (vs[1] * eb[1] + vs[3] * eb[3])
        src[r] += rx * float(direct_k @ eb_pts)

    def _medium_pass(self, r: int, rx: float, props: RadiativeProperties, p, diff, dist, geo,
                     ib_cells: np.ndarray | None, scatter_block, src):
        """The medium's part of row r along the chords from p to the row's
        quadrature points: its emission into the source when ib_cells is
        given, and the scatter row (Fmat or Umat) when sigma_s > 0. The
        chord terms share the projected solid angle without attenuation."""
        point, cells, cw = self._chord_factors(p, diff, dist, props.beta)
        if ib_cells is not None:
            src[r] += kernel_prefactor(KernelKind.EMISSION, props, dist, rx) * float(
                geo @ np.bincount(point, cw * ib_cells[cells], minlength=len(dist))
            )
        if props.sigma_s > 0.0:
            cell_sums = np.bincount(cells, geo[point] * cw, minlength=self.grid.n_cells)
            scatter_block[r] = (kernel_prefactor(KernelKind.SCATTER, props, dist, rx)
                                * cell_sums[self.collocation.interior_cells])

    # -- public assembly -------------------------------------------------

    def _assemble(self, kind: str, props: RadiativeProperties, names: tuple[str, str, str]):
        """Every row of one equation: (reflection block, scatter block,
        source), checked for finite values under the given block names."""
        col = self.collocation
        n = col.n_boundary if kind == "b" else col.n_interior
        blocks = (np.zeros((n, col.n_boundary)), np.zeros((n, col.n_interior)), np.zeros(n))
        eb_vertices = blackbody_emission(self._vertex_temps)
        ib_cells = np.where(self._active_mask,
                            blackbody_emission(self.grid.temperatures) / np.pi, 0.0)
        # A medium with no absorption or no emitting cell adds nothing to
        # the sources, so its chords are traced only if it scatters.
        if props.sigma_a == 0.0 or not ib_cells.any():
            ib_cells = None
        if (kind, 0) not in self.row_plans:
            self._plan_rows(kind)
        for r in range(n):
            self._row(kind, r, props, eb_vertices, ib_cells, *blocks)
        for name, arr in zip(names, blocks):
            if not np.all(np.isfinite(arr)):
                raise AssemblyFailure(f"non-finite entries in {name}")
        return blocks

    def assemble_surface(self, props: RadiativeProperties) -> SurfaceSystem:
        eps_min = float(self.arrays.emissivities.min())
        margin, satisfied = solvability_margin(props, eps_min)
        if not satisfied:
            warnings.warn(
                f"uniqueness margin {margin:.4f} is not positive "
                f"(min emissivity {eps_min:g}, albedo {props.albedo:g}); "
                "proceeding anyway",
                SolvabilityViolation,
                stacklevel=2,
            )
        gmat, fmat, h = self._assemble("b", props, ("Gmat", "Fmat", "h"))
        return SurfaceSystem(gmat=gmat, fmat=fmat, h=h)

    def assemble_volume(self, props: RadiativeProperties) -> VolumeSystem:
        vmat, umat, t = self._assemble("i", props, ("Vmat", "Umat", "t"))
        col = self.collocation
        return VolumeSystem(
            umat=umat,
            vmat=vmat,
            t=t,
            cells=col.interior_cells.copy(),
            cell_temperatures=self.grid.temperatures[col.interior_cells].copy(),
        )


def operator_row_sums(
    surface: SurfaceSystem,
    volume: VolumeSystem,
    props: RadiativeProperties,
    emissivities,
) -> RowSumReport:
    """Max row sums of the four blocks against their theoretical bounds.

    The bounds are the uniform-emissivity operator estimates evaluated with
    the extreme emissivities, so they stay valid rowwise on mixed meshes. A
    block is flagged when its row sum exceeds its bound by more than the
    relative discretization tolerance _ROW_SUM_RTOL.
    """
    eps_min = float(np.min(emissivities))
    eps_max = float(np.max(emissivities))
    beta = props.beta
    r = props.domain_diameter
    row_sums = {
        "wall_reflection": float(np.abs(surface.gmat).sum(axis=1).max(initial=0.0)),
        "wall_scatter": float(np.abs(surface.fmat).sum(axis=1).max(initial=0.0)),
        "medium_scatter": float(np.abs(volume.umat).sum(axis=1).max(initial=0.0)),
        "medium_reflection": float(np.abs(volume.vmat).sum(axis=1).max(initial=0.0)),
    }
    bounds = {
        "wall_reflection": eps_max * (1.0 - eps_min) / eps_min,
        "wall_scatter": eps_max * props.sigma_s / (4.0 * beta) if beta > 0 else 0.0,
        "medium_scatter": float((props.sigma_s / beta) * -np.expm1(-beta * r)) if beta > 0 else 0.0,
        "medium_reflection": 4.0 * (1.0 - eps_min) / eps_min,
    }
    violations = tuple(
        name
        for name in row_sums
        if row_sums[name] > bounds[name] * (1.0 + _ROW_SUM_RTOL) + 1e-14
    )
    return RowSumReport(row_sums=row_sums, bounds=bounds, tolerance=_ROW_SUM_RTOL,
                        violations=violations)

