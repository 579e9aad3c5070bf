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
order, and one split as the source point approaches the element). Every
rule is laid out on reference cells in root intrinsic coordinates (see
geometry.quad_cells and geometry.tri_cells) and mapped through the Gauss
rule for all cells at once: one cell away from the source point, and in the
near band cells that meet at its in-plane projection. Fully visible
elements take tensor or triangle rules on the whole element; partly
visible ones take triangle rules on each visible triangle the shadow
clipper returns, with shape functions evaluated at the root intrinsic
coordinates of the quadrature points.
"""

from __future__ import annotations

import ctypes
import platform
import warnings
from dataclasses import dataclass
from functools import cache, lru_cache

import numpy as np

from ritesolver.geometry import (
    SurfaceElement,
    SurfaceMesh,
    VoxelGrid,
    bilinear_jacobian,
    bilinear_points,
    cross3,
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
# a corner of every reference cell.
FAR_BAND = 4.0
NEAR_BAND = 1.0
NEAR_ORDER = 12

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
def quad_rule(order: int):
    """Tensor Gauss rule on [-1, 1]^2: (uv (n,2), weights (n,))."""
    x, w = _gauss_1d(order)
    uu, vv = np.meshgrid(x, x, indexing="ij")
    ww = np.outer(w, w)
    return np.column_stack([uu.ravel(), vv.ravel()]), ww.ravel()


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
    zero fourth column. The (n, 3) and (n, 4) arrays are column-major
    (Fortran order), so points.T and the shapes' .T are contiguous
    component-major blocks that a row concatenates and computes on along
    the points.
    """

    points: np.ndarray        # (n, 3), Fortran order
    weights: np.ndarray       # (n,)
    flux_shapes: np.ndarray   # (n, 4), Fortran order
    vertex_shapes: np.ndarray  # (n, 4), Fortran order


def _quad_cell_rule(verts4: np.ndarray, cells: np.ndarray, order: int) -> ElementRule:
    """Tensor rule mapped into every box of a stack of quads at once.

    verts4 is (m, 4, 3) and cells (m, c, 4), the boxes of each quad.
    Returns the rule quad by quad and box by box; each quad's part equals
    what it gives alone, bit for bit. Each box's points form an order x
    order grid with xi along the first axis and eta along the second, so
    the map, its Jacobian and the shape bases broadcast over that grid and
    evaluate every factor that varies along one intrinsic axis at the
    box's order distinct xi or eta values only.
    """
    x, _ = _gauss_1d(order)
    _, w = quad_rule(order)
    m, c = cells.shape[:2]
    xi0, xi1, eta0, eta1 = np.moveaxis(cells, -1, 0)[..., None]
    xs = xi0 + 0.5 * (x + 1.0) * (xi1 - xi0)          # (m, c, o)
    es = eta0 + 0.5 * (x + 1.0) * (eta1 - eta0)
    xi, eta = xs[..., :, None], es[..., None, :]      # (m, c, o, 1), (m, c, 1, o)
    verts = verts4[:, None, None, None]
    scale = 0.25 * (xi1 - xi0) * (eta1 - eta0)
    weights = w * bilinear_jacobian(verts, xi, eta).reshape(m, c, -1) * scale
    return ElementRule(bilinear_points(verts, xi, eta).reshape(3, -1).T, weights.ravel(),
                       quad_flux_shapes(xi, eta).reshape(4, -1).T,
                       quad_vertex_shapes(xi, eta).reshape(4, -1).T)


def _tri_cell_rule(verts3: np.ndarray, cells: np.ndarray, order: int):
    """Triangle rule mapped into every barycentric cell at once.

    Returns (points, weights, barycentric coordinates in verts3), cell by
    cell. Cell areas take build_element's formula one cell at a time; a
    norm over all cells at once can round differently in the last bit.
    """
    bary, w = tri_rule(order)
    root = bary @ cells                          # (c, n, 3)
    areas = [0.5 * float(np.linalg.norm(cross3(v[1] - v[0], v[2] - v[0])))
             for v in cells @ verts3]
    weights = w * np.array(areas)[:, None]
    return (root @ verts3).reshape(-1, 3), weights.ravel(), root.reshape(-1, 3)


def _shaped_rule(element: SurfaceElement, points, weights, coords) -> ElementRule:
    """Attach shapes at root intrinsic coordinates (n, 2 or 3), padded to
    four columns, and store the rule column-major."""
    if element.is_quad:
        xi, eta = coords.T
        flux, vertex = quad_flux_shapes(xi, eta), quad_vertex_shapes(xi, eta)
    else:
        flux, vertex = np.zeros((2, 4, len(coords)))
        flux[:3] = tri_flux_shapes(coords.T)
        vertex[:3] = coords.T
    return ElementRule(np.asfortranarray(points), weights, flux.T, vertex.T)


def element_rule(element: SurfaceElement, order: int, toward=None) -> ElementRule:
    """Quadrature rule over the whole element.

    toward gives the root intrinsic coordinates of the source point's
    in-plane projection; the element is then split into cells that meet
    there, so the quasi-singular peak lands on cell corners instead of
    cell interiors.
    """
    if element.is_quad:
        return _quad_cell_rule(element.vertices[None], quad_cells(toward)[None], order)
    return _shaped_rule(element, *_tri_cell_rule(element.vertices, tri_cells(toward), order))


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


def visible_rule(p, element: SurfaceElement, tris: np.ndarray) -> ElementRule:
    """Banded triangle rules over the visible triangles (T, 3, 3) of an element.

    Each triangle takes the band of its own distance from p over its own
    diameter, near ones split toward p's in-plane projection (one
    _barycentric call for all). Flux and vertex shapes are evaluated at the
    root intrinsic coordinates of all points at once.
    """
    normals = np.broadcast_to(element.normal, (len(tris), 3))
    dists = point_element_distances(p, np.concatenate([tris, tris[:, 2:]], axis=1), normals)
    diams = np.linalg.norm(tris - np.roll(tris, 1, axis=1), axis=2).max(axis=1)
    towards = _barycentric(tris, p[None, :])
    pts, wts = [], []
    for tri, d, toward in zip(tris, dists / diams, towards):
        order, split = _band(float(d))
        tri_pts, tri_wts, _ = _tri_cell_rule(tri, tri_cells(toward if split else None), order)
        pts.append(tri_pts)
        wts.append(tri_wts)
    pts = np.concatenate(pts)
    return _shaped_rule(element, pts, np.concatenate(wts), intrinsic_projection(element, pts))


def intrinsic_projection(element: SurfaceElement | list[SurfaceElement], points) -> np.ndarray:
    """Root intrinsic coordinates of the in-plane projections of points (n, 3).

    element is the SurfaceElement every point projects onto, or a sequence
    of n elements of one kind, point i onto element i, so a row's split
    points take one call. Triangles return (n, 3) barycentric coordinates,
    quads (n, 2) (xi, eta). Each point is solved on its own in closed form,
    so it gives the same bits stacked as alone.

    A quad (planar, convex) maps x = a + b xi + c eta + d xi eta, with a, b,
    c, d a quarter of +-1 sums of the vertices. With r the point's foot less
    a and cr(u, v) = (u x v) . normal, eta solves A eta^2 + B eta + C = 0,
    A = cr(c, d), B = cr(c, b) - cr(r, d), C = -cr(r, b), and xi =
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
    elements = [element] if isinstance(element, SurfaceElement) else element
    # One element broadcasts over all points: its stack has length one.
    v = np.array([e.vertices for e in elements])
    if not elements[0].is_quad:
        return _barycentric(v, pts)
    v0, v1, v2, v3 = v.transpose(1, 2, 0)                   # (3, m) each
    normal = np.array([e.normal for e in elements]).T
    a = 0.25 * ((v0 + v1) + (v2 + v3))
    b = 0.25 * ((v1 - v0) + (v2 - v3))
    c = 0.25 * ((v3 - v0) + (v2 - v1))
    d = 0.25 * ((v0 - v1) + (v2 - v3))
    rel = pts.T - a
    r = rel - (rel * normal).sum(0) * normal

    def cr(u, w):
        return (cross3(u, w, axis=0) * normal).sum(0)

    qa, qb, qc = cr(c, d), cr(c, b) - cr(r, d), -cr(r, b)
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
    xi = np.divide(((r - c * eta) * g).sum(0), gg, out=np.zeros_like(gg), where=gg != 0.0)
    return np.column_stack([xi, eta])


def _band(d: float) -> tuple[int, bool]:
    """Gauss order and whether to split, for distance over diameter d."""
    if d > FAR_BAND:
        return 2, False
    if d > NEAR_BAND:
        return 4, False
    return NEAR_ORDER, True


# ---------------------------------------------------------------------------
# Point-to-element distance


def point_element_distances(p: np.ndarray, verts: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """Exact Euclidean distance from a point to each flat element (m, 4, 3),
    triangles padded with a repeated last vertex."""
    rel0 = p[None, :] - verts[:, 0]
    hn = np.einsum("mj,mj->m", rel0, normals)
    proj = p[None, :] - hn[:, None] * normals  # foot point in each plane

    inside = np.ones(len(verts), dtype=bool)
    edge_d2 = np.full(len(verts), np.inf)
    for i in range(4):
        a = verts[:, i]
        b = verts[:, (i + 1) % 4]
        edge = b - a
        side = np.einsum("mj,mj->m", cross3(edge, proj - a), normals)
        inside &= side >= 0.0
        ee = np.einsum("mj,mj->m", edge, edge)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.einsum("mj,mj->m", p[None, :] - a, edge) / ee
        t = np.clip(np.where(ee > 0.0, t, 0.0), 0.0, 1.0)
        closest = a + t[:, None] * edge
        edge_d2 = np.minimum(edge_d2, ((p[None, :] - closest) ** 2).sum(1))
    return np.where(inside, np.abs(hn), np.sqrt(edge_d2))


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

    Interior points are the centers of grid cells lying inside the
    enclosure; cells outside (an outer bounding grid over a non-convex
    shape) carry no unknown.
    """
    pts, normals, owner, weights, first = [], [], [], [], []
    dof = 0
    for k, e in enumerate(mesh.elements):
        first.append(dof)
        if e.is_quad:
            p = np.ascontiguousarray(bilinear_points(e.vertices, *QUAD_NODES_UV.T).T)
            w = bilinear_jacobian(e.vertices, *QUAD_NODES_UV.T)
            m = 4
        else:
            p = TRI_NODES_BARY @ e.vertices
            w = np.full(3, e.area / 3.0)
            m = 3
        pts.append(p)
        normals.append(np.broadcast_to(e.normal, (m, 3)))
        owner.append(np.full(m, k))
        weights.append(w)
        dof += m
    centers = grid.cell_centers()
    inside = points_in_mesh(mesh, centers)
    cells = np.nonzero(inside)[0]
    return CollocationSet(
        boundary_points=np.concatenate(pts),
        boundary_normals=np.concatenate(normals).astype(float),
        boundary_element=np.concatenate(owner),
        boundary_weights=np.concatenate(weights),
        element_first_dof=np.array(first, dtype=int),
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
    """Uniqueness margin is non-positive; iteration may still converge."""


# ---------------------------------------------------------------------------
# Assembler


@dataclass(frozen=True)
class RowPlan:
    """Geometry of one collocation row, recorded on the row's first visit.

    Fields run parallel over the row's active elements, in active-list
    order, which is also the order its quadrature points are concatenated
    in. rules holds the ElementRule of every pair whose rule is the same at
    every property point: the shared whole-element rule of a fully visible
    element beyond the near band, and the visible-triangle rule of a partly
    visible one. It holds None for fully blocked pairs, which take no
    points, and for near-band, fully visible ones, whose rules are split
    toward the source point and rebuilt from towards at every property
    point. screens holds each element's blockers from screen_active_set
    and visibility its VisibilityReport; a pair with no blockers is
    UNOBSTRUCTED without a classify_visibility call. towards holds the root
    intrinsic point the cells of a near-band, fully visible element meet
    at (None elsewhere); the rules of those that are quads are built in one
    pass.
    """

    elements: np.ndarray        # (a,) element ids
    rules: tuple[ElementRule | None, ...]
    screens: tuple
    visibility: tuple[VisibilityReport, ...]
    towards: tuple


class Assembler:
    """Builds the four blocks and source vectors for one mesh/grid pair.

    Geometry is cached on the instance, so sweeping radiative properties
    over a fixed geometry pays for it once. row_plans maps each visited
    row (kind "b" or "i", index) to its RowPlan: active elements, blocker
    lists, VisibilityReports, near-band split points and every rule that
    does not change between property points; a row's split points are
    projected in one call per element kind. Whole-element rules away from
    the source point are cached per (element, order) and shared between
    plans; a partly visible pair's rule over its visible triangles is built
    once, on the row's first visit. Near-band rules of fully visible
    elements are split toward the source point and rebuilt from the plan
    at every property point, all quads of a row in one batched pass that
    evaluates each one-axis factor once per distinct xi or eta. Chords are
    traversed afresh at every property point and yield only the segments
    they cross, so chord work scales with the cells crossed, not with the
    grid planes. No chord segment is kept between property points. The
    medium blocks Fmat and Umat have one column per interior unknown.

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
        self.row_plans: dict[tuple[str, int], RowPlan] = {}
        self._rule_cache: dict[tuple[int, int], ElementRule] = {}
        # Cells with an interior unknown; the rest carry no medium emission.
        self._active_mask = np.zeros(grid.n_cells, dtype=bool)
        self._active_mask[self.collocation.interior_cells] = True
        # Vertex temperatures per element, padded like the vertex arrays.
        nt = mesh.node_temperatures
        self._vertex_temps = np.zeros((mesh.n_elements, 4))
        for k, en in enumerate(mesh.element_nodes):
            self._vertex_temps[k, : len(en)] = nt[list(en)]
            if len(en) == 3:
                self._vertex_temps[k, 3] = nt[en[2]]

    # -- caches ---------------------------------------------------------

    def _cached_rule(self, k: int, order: int) -> ElementRule:
        rule = self._rule_cache.get((k, order))
        if rule is None:
            rule = self._rule_cache[(k, order)] = element_rule(self.mesh.elements[k], order)
        return rule

    def _row_plan(self, kind: str, pidx: int, p: np.ndarray, normal: np.ndarray | None,
                  source_element: int | None) -> RowPlan:
        """The row's plan, built on its first visit."""
        plan = self.row_plans.get((kind, pidx))
        if plan is not None:
            return plan
        idx = build_active_list(p, normal, self.mesh, source_element=source_element)
        rel, screens = np.zeros(0), []
        if idx.size:
            dists = point_element_distances(p, self.arrays.vertices[idx], self.arrays.normals[idx])
            rel = dists / self.arrays.diameters[idx]
            screens = screen_active_set(p, idx, self.mesh, source_element=source_element)
        rules, visibility, near = [], [], []
        for j, (k, d, screened) in enumerate(zip(idx.tolist(), rel, screens)):
            order, split = _band(float(d))
            vis = classify_visibility(p, k, screened, self.mesh) if screened else UNOBSTRUCTED
            rule = None
            if vis.classification is Classification.PARTIALLY_VISIBLE:
                rule = visible_rule(p, self.mesh.elements[k], vis.visible)
            elif vis.classification is Classification.FULLY_VISIBLE:
                if split:
                    near.append(j)
                else:
                    rule = self._cached_rule(k, order)
            rules.append(rule)
            visibility.append(vis)
        # The split points of the near-band elements, one call per kind.
        towards = [None] * idx.size
        quads = [j for j in near if self.mesh.elements[idx[j]].is_quad]
        for group in (quads, [j for j in near if j not in quads]):
            if group:
                elements = [self.mesh.elements[idx[j]] for j in group]
                coords = intrinsic_projection(elements, np.tile(p, (len(group), 1)))
                for j, toward in zip(group, coords):
                    towards[j] = toward
        plan = self.row_plans[(kind, pidx)] = RowPlan(
            elements=idx, rules=tuple(rules), screens=tuple(screens),
            visibility=tuple(visibility), towards=tuple(towards),
        )
        return plan

    # -- row integration ------------------------------------------------

    def _gather_row_rule(self, kind: str, pidx: int, p: np.ndarray,
                         normal: np.ndarray | None, source_element: int | None):
        """Concatenated quadrature data over all visible element portions.

        Returns None when nothing is radiatively connected to the point,
        otherwise (points, weights, elements, counts, flux_shapes,
        vertex_shapes), element by element in the plan's order: counts[i]
        points come from element elements[i]. Points (3, n) and shapes
        (4, n) are component-major and C-contiguous, the rules' transposes
        joined along the points.
        """
        plan = self._row_plan(kind, pidx, p, normal, source_element)
        rules = list(plan.rules)
        quads = [j for j, toward in enumerate(plan.towards)
                 if toward is not None and self.mesh.elements[plan.elements[j]].is_quad]
        if quads:
            # Near-band quads share one order, so their rules map in one call.
            ids = plan.elements[quads]
            cells = quad_cells(np.array([plan.towards[j] for j in quads]))
            rule = _quad_cell_rule(self.arrays.vertices[ids], cells, NEAR_ORDER)
            n = len(rule.weights) // len(ids)
            for i, j in enumerate(quads):
                cut = slice(i * n, (i + 1) * n)
                rules[j] = ElementRule(rule.points[cut], rule.weights[cut],
                                       rule.flux_shapes[cut], rule.vertex_shapes[cut])
        for j, toward in enumerate(plan.towards):
            if rules[j] is None and toward is not None:
                rules[j] = element_rule(self.mesh.elements[plan.elements[j]], NEAR_ORDER, toward)

        kept = [j for j, rule in enumerate(rules) if rule is not None]
        if not kept:
            return None
        rules = [rules[j] for j in kept]
        return (
            np.concatenate([rule.points.T for rule in rules], axis=1),
            np.concatenate([rule.weights for rule in rules]),
            plan.elements[kept],
            np.array([len(rule.weights) for rule in rules]),
            np.concatenate([rule.flux_shapes.T for rule in rules], axis=1),
            np.concatenate([rule.vertex_shapes.T for rule in rules], axis=1),
        )

    def _chord_factors(self, p: np.ndarray, d: np.ndarray, lengths: np.ndarray, beta: float):
        """Per-cell attenuated path weights for the chords p -> p + d, batched.

        d is component-major, (3, n), and lengths its column norms. Returns
        flat (point, cell, weight) arrays with one entry per chord segment
        of positive length, point by point and in order along each chord,
        so the work scales with the cells the chords cross. Per point, the
        weights sum to the exact chord integral of exp(-beta s) with s from
        p. Chords are assumed inside the grid box (enclosure chords always
        are).
        """
        grid = self.grid
        lo, _ = grid.box()
        axis = np.repeat(np.arange(3), grid.dims - 1)
        index = np.concatenate([np.arange(1, k) for k in grid.dims])
        planes = lo[axis] + index * grid.spacing[axis]
        # Crossing parameters of every grid plane; a plane the chord does
        # not cross sorts to the end point, t = 1, and leaves an empty slot.
        t = np.empty((d.shape[1], planes.size + 2))
        t[:, 0], t[:, -1] = 0.0, 1.0
        inner = t[:, 1:-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide((planes - p[axis])[:, None], d[axis], out=inner.T)
        inner[~((inner > 0.0) & (inner < 1.0))] = 1.0
        inner.sort(axis=1)
        dt = np.diff(t, axis=1).ravel()
        live = np.flatnonzero(dt > 0.0)
        point = live // (planes.size + 1)
        t0, dt = t.ravel()[live + point], dt[live]
        # Each segment's cell holds its midpoint, found one axis at a time.
        mid = t0 + 0.5 * dt
        cells = np.zeros(live.size, dtype=int)
        stride = 1
        for a in range(3):
            ia = np.floor((p[a] + mid * d[a][point] - lo[a]) / grid.spacing[a]).astype(int)
            cells += stride * np.clip(ia, 0, grid.dims[a] - 1)
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
             ib_cells: np.ndarray, refl_block, scatter_block, src):
        """Row r of the wall equation (kind "b") or of the medium equation ("i").

        Wall receivers scale every kernel by their emissivity and see their
        own cosine; medium receivers take 1.0 for both, which is exact, so
        the two equations share this code without changing a bit.
        """
        col = self.collocation
        if kind == "b":
            p = col.boundary_points[r]
            normal = col.boundary_normals[r]
            own = int(col.boundary_element[r])
            rx = self.arrays.emissivities[own]
            local = r - col.element_first_dof[own]
            if self.mesh.elements[own].is_quad:
                eb_p = float(quad_vertex_shapes(*QUAD_NODES_UV[local]) @ eb_vertices[own])
            else:
                eb_p = float(TRI_NODES_BARY[local] @ eb_vertices[own, :3])
            src[r] = -rx * eb_p
        else:
            p = col.interior_points[r]
            normal = own = None
            rx = 1.0
        gathered = self._gather_row_rule(kind, r, p, normal, own)
        if gathered is None:
            return
        pts, w, elements, counts, fshape, vshape = gathered

        def per_point(per_element):
            # Repeating each element's column is several times faster than
            # fancy-indexing the columns of a component-major table.
            return np.repeat(per_element, counts, axis=-1)

        diff = pts - p[:, None]
        dist = np.linalg.norm(diff, axis=0)
        cos_p, cos_r = sight_cosines(diff, dist, per_point(self._normals[:, elements]), normal)
        geo = projected_solid_angle(cos_p, cos_r, dist, w)

        # Direct transport of the reflected part of the wall radiosity.
        direct_k = kernel_prefactor(KernelKind.DIRECT, props, dist) * geo
        # bincount adds in input order from 0.0, as add.at into a zero row.
        # Each column still takes its points in order; a triangle's padded
        # fourth slot adds exact zeros.
        refl_block[r] = np.bincount(
            per_point(self._columns[:, elements]).ravel(),
            (per_point(rx * self._reflectance[elements]) * direct_k * fshape).ravel(),
            minlength=col.n_boundary,
        )
        vs, eb = vshape, per_point(eb_vertices.T[:, elements])
        eb_pts = (vs[0] * eb[0] + vs[2] * eb[2]) + (vs[1] * eb[1] + vs[3] * eb[3])
        src[r] += rx * float(direct_k @ eb_pts)

        # Chord-coupled terms share the geometric factor without attenuation.
        if props.sigma_a > 0.0 or props.sigma_s > 0.0:
            point, cells, cw = self._chord_factors(p, diff, dist, props.beta)
            if props.sigma_a > 0.0:
                src[r] += kernel_prefactor(KernelKind.EMISSION, props, dist, rx) * float(
                    geo @ np.bincount(point, cw * ib_cells[cells], minlength=len(dist))
                )
            if props.sigma_s > 0.0:
                cell_sums = np.bincount(cells, geo[point] * cw, minlength=self.grid.n_cells)
                scatter_block[r] = (kernel_prefactor(KernelKind.SCATTER, props, dist, rx)
                                    * cell_sums[col.interior_cells])

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

