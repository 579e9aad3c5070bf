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
order and one subdivision level as the source point approaches the
element) restricted to the visible portion of each element.
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from ritesolver.geometry import (
    ElementArrays,
    SurfaceElement,
    SurfaceMesh,
    VoxelGrid,
    as_point,
    bilinear_jacobian,
    bilinear_points,
    full_patch,
    patch_subelement,
    points_in_mesh,
    quad_patch_to_root,
    split_patch,
)
from ritesolver.kernels import (
    KernelKind,
    RadiativeProperties,
    blackbody_emission,
    blackbody_intensity,
    kernel_prefactor,
    projected_solid_angle,
    sight_cosines,
)
from ritesolver.visibility import (
    EARLY_BLOCKED,
    BlockingList,
    Classification,
    SubdivisionBudget,
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
    "collocation_points",
    "assemble_surface",
    "assemble_volume",
    "element_integral",
    "operator_row_sums",
    "write_matrix",
    "read_matrix",
]

# Distance bands in units of element diameter: beyond FAR_BAND the base
# order suffices, inside NEAR_BAND the order is escalated six-fold and the
# element is split once toward the source point, so the integrand peak sits
# at a corner of every child patch.
FAR_BAND = 4.0
NEAR_BAND = 1.0

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
# Symmetric interior triangle nodes, barycentric.
TRI_NODES_BARY = np.array(
    [
        [2.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0],
        [1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0],
        [1.0 / 6.0, 1.0 / 6.0, 2.0 / 3.0],
    ]
)


class AssemblyFailure(RuntimeError):
    """A non-finite matrix entry appeared; geometry or tolerances are off."""


# ---------------------------------------------------------------------------
# Shape functions


def quad_flux_shapes(uv: np.ndarray) -> np.ndarray:
    """Nodal interpolants on the 2x2 Gauss nodes; delta at nodes, sum 1."""
    xi = uv[:, 0][:, None]
    eta = uv[:, 1][:, None]
    xa = QUAD_NODES_UV[:, 0][None, :]
    ea = QUAD_NODES_UV[:, 1][None, :]
    return 0.25 * (1.0 + 3.0 * xa * xi) * (1.0 + 3.0 * ea * eta)


def tri_flux_shapes(bary: np.ndarray) -> np.ndarray:
    """Nodal interpolants on the symmetric triangle nodes."""
    return 2.0 * bary - 1.0 / 3.0


def quad_vertex_shapes(uv: np.ndarray) -> np.ndarray:
    """Standard bilinear corner basis for interpolating nodal data."""
    xi = uv[:, 0][:, None]
    eta = uv[:, 1][:, None]
    corners = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
    return 0.25 * (1.0 + corners[None, :, 0] * xi) * (1.0 + corners[None, :, 1] * eta)


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
    in the ROOT element's intrinsic coordinates.
    """

    points: np.ndarray        # (n, 3)
    weights: np.ndarray       # (n,)
    flux_shapes: np.ndarray   # (n, M)
    vertex_shapes: np.ndarray  # (n, M)


def _rule_on_patch(element: SurfaceElement, patch, order: int) -> ElementRule:
    if element.is_quad:
        uv, w = quad_rule(order)
        root_uv = quad_patch_to_root(patch, uv)
        pts = bilinear_points(element.vertices, root_uv)
        scale = 0.25 * (patch.xi1 - patch.xi0) * (patch.eta1 - patch.eta0)
        weights = w * bilinear_jacobian(element.vertices, root_uv) * scale
        return ElementRule(pts, weights, quad_flux_shapes(root_uv), quad_vertex_shapes(root_uv))
    bary, w = tri_rule(order)
    root_bary = bary @ np.asarray(patch.corners)
    pts = root_bary @ element.vertices
    weights = w * patch_subelement(element, patch).area
    return ElementRule(pts, weights, tri_flux_shapes(root_bary), root_bary)


def element_rule(element: SurfaceElement, order: int, split: bool = False,
                 patch=None, toward=None) -> ElementRule:
    """Banded quadrature rule over a patch (whole element by default).

    toward gives the root intrinsic coordinates of the source point's
    in-plane projection; the split then lands the quasi-singular peak on
    child corners instead of child interiors.
    """
    patch = patch if patch is not None else full_patch(element)
    if not split:
        return _rule_on_patch(element, patch, order)
    return _concat_rules(
        [_rule_on_patch(element, child, order) for child in split_patch(patch, at=toward)]
    )


def _concat_rules(parts) -> ElementRule:
    return ElementRule(
        np.concatenate([p.points for p in parts]),
        np.concatenate([p.weights for p in parts]),
        np.concatenate([p.flux_shapes for p in parts]),
        np.concatenate([p.vertex_shapes for p in parts]),
    )


def intrinsic_projection(element: SurfaceElement, p) -> np.ndarray:
    """Root intrinsic coordinates of p's in-plane projection.

    Quads invert the bilinear map by Newton iteration (exact in one step
    for parallelograms); triangles solve for barycentric coordinates. The
    result may lie outside the reference domain when p projects off the
    element; callers clamp as needed.
    """
    p = as_point(p)
    foot = p - float(element.normal @ (p - element.vertices[0])) * element.normal
    if element.is_quad:
        uv = np.zeros((1, 2))
        for _ in range(8):
            r = bilinear_points(element.vertices, uv)[0] - foot
            xi, eta = uv[0]
            dxi = 0.25 * (
                -(1 - eta) * element.vertices[0] + (1 - eta) * element.vertices[1]
                + (1 + eta) * element.vertices[2] - (1 + eta) * element.vertices[3]
            )
            deta = 0.25 * (
                -(1 - xi) * element.vertices[0] - (1 + xi) * element.vertices[1]
                + (1 + xi) * element.vertices[2] + (1 - xi) * element.vertices[3]
            )
            jtj = np.array([[dxi @ dxi, dxi @ deta], [dxi @ deta, deta @ deta]])
            rhs = np.array([dxi @ r, deta @ r])
            try:
                step = np.linalg.solve(jtj, rhs)
            except np.linalg.LinAlgError:
                break
            uv[0] -= step
            uv[0] = np.clip(uv[0], -3.0, 3.0)
            if float(np.abs(step).max()) < 1e-13:
                break
        return uv[0]
    v = element.vertices[:3]
    e1 = v[1] - v[0]
    e2 = v[2] - v[0]
    g = np.array([[e1 @ e1, e1 @ e2], [e1 @ e2, e2 @ e2]])
    rhs = np.array([e1 @ (foot - v[0]), e2 @ (foot - v[0])])
    ab = np.linalg.solve(g, rhs)
    return np.array([1.0 - ab.sum(), ab[0], ab[1]])


def _band(dist_over_diam: float, base_order: int) -> tuple[int, bool]:
    if dist_over_diam > FAR_BAND:
        return base_order, False
    if dist_over_diam > NEAR_BAND:
        return 2 * base_order, False
    return 6 * base_order, True


# ---------------------------------------------------------------------------
# Point-to-element distance


def point_element_distances(p: np.ndarray, arrays: ElementArrays, indices: np.ndarray) -> np.ndarray:
    """Exact Euclidean distance from a point to each listed flat element."""
    verts = arrays.vertices[indices]          # (m, 4, 3)
    normals = arrays.normals[indices]
    rel0 = p[None, :] - verts[:, 0]
    hn = np.einsum("mj,mj->m", rel0, normals)
    proj = p[None, :] - hn[:, None] * normals  # foot point in each plane

    inside = np.ones(len(indices), dtype=bool)
    edge_d2 = np.full(len(indices), np.inf)
    for i in range(4):
        a = verts[:, i]
        b = verts[:, (i + 1) % 4]
        edge = b - a
        side = np.einsum("mj,mj->m", np.cross(edge, proj - a), normals)
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
            p = bilinear_points(e.vertices, QUAD_NODES_UV)
            w = bilinear_jacobian(e.vertices, QUAD_NODES_UV)
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
    fmat: np.ndarray   # (N_p, n_cells)
    h: np.ndarray      # (N_p,)


@dataclass(frozen=True)
class VolumeSystem:
    """Medium-equation blocks: G = Umat G + Vmat q + t.

    cells are the flat grid indices behind the N_i interior unknowns (the
    scatter map from the G vector into full-grid cell space), and
    cell_temperatures their prescribed medium temperatures.
    """

    umat: np.ndarray   # (N_i, n_cells)
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


class Assembler:
    """Builds the four blocks and source vectors for one mesh/grid pair.

    Visibility classifications and banded element rules are cached on the
    instance, so sweeping radiative properties over a fixed geometry pays
    the ray-casting cost once.
    """

    def __init__(
        self,
        mesh: SurfaceMesh,
        grid: VoxelGrid,
        collocation: CollocationSet | None = None,
        budget: SubdivisionBudget | None = None,
        base_order: int = 2,
    ):
        if base_order < 1:
            raise ValueError(f"base_order must be at least 1, got {base_order}")
        self.mesh = mesh
        self.grid = grid
        self.collocation = collocation if collocation is not None else collocation_points(mesh, grid)
        self.budget = budget if budget is not None else SubdivisionBudget()
        self.base_order = base_order
        self.arrays = mesh.arrays()
        self._rule_cache: dict[tuple[int, int, bool], ElementRule] = {}
        self._screen_cache: dict[tuple[str, int], dict[int, object]] = {}
        self._visibility_cache: dict[tuple[str, int, int], object] = {}
        self._active_mask = points_in_mesh_mask(mesh, grid)
        # Vertex temperatures per element, padded like the vertex arrays.
        nt = mesh.node_temperatures
        self._vertex_temps = np.zeros((mesh.n_elements, 4))
        for k, en in enumerate(mesh.element_nodes):
            self._vertex_temps[k, : len(en)] = nt[list(en)]
            if len(en) == 3:
                self._vertex_temps[k, 3] = nt[en[2]]

    # -- caches ---------------------------------------------------------

    def _full_rule(self, k: int, order: int, split: bool,
                   p: np.ndarray | None = None) -> ElementRule:
        if split:
            # Near-band rules are split toward the source point, so they are
            # point-specific and bypass the shared cache.
            element = self.mesh.elements[k]
            toward = intrinsic_projection(element, p) if p is not None else None
            return element_rule(element, order, split, toward=toward)
        key = (k, order, split)
        rule = self._rule_cache.get(key)
        if rule is None:
            rule = element_rule(self.mesh.elements[k], order, split)
            self._rule_cache[key] = rule
        return rule

    def _screen_point(self, kind: str, pidx: int, p: np.ndarray, idx: np.ndarray,
                      source_element: int | None) -> dict[int, object]:
        """Blocking-list outcomes for one source point, batched and cached."""
        key = (kind, pidx)
        hit = self._screen_cache.get(key)
        if hit is None:
            outcomes = screen_active_set(p, idx, self.mesh, source_element=source_element)
            hit = {int(k): out for k, out in zip(idx, outcomes)}
            self._screen_cache[key] = hit
        return hit

    def _visibility(self, kind: str, pidx: int, p: np.ndarray, k: int, screened):
        """'full', 'blocked', or a VisibilityReport for the pair."""
        key = (kind, pidx, k)
        hit = self._visibility_cache.get(key)
        if hit is not None:
            return hit
        if screened is EARLY_BLOCKED:
            out = "blocked"
        elif not screened:
            out = "full"
        else:
            listing = BlockingList(point=p, active_index=k, blockers=tuple(screened))
            report = classify_visibility(p, listing, self.mesh, self.budget)
            if report.classification is Classification.FULLY_VISIBLE:
                out = "full"
            elif report.classification is Classification.FULLY_BLOCKED:
                out = "blocked"
            else:
                out = report
        self._visibility_cache[key] = out
        return out

    def _dof_columns(self, eids: np.ndarray) -> np.ndarray:
        """Flux-unknown column indices, (n, 4) aligned with padded shapes.

        Triangle rows only have three unknowns; their padded fourth column
        is clipped into range and carries an exactly-zero shape value.
        """
        cols = self.collocation.element_first_dof[eids][:, None] + np.arange(4)[None, :]
        return np.minimum(cols, self.collocation.n_boundary - 1)

    # -- row integration ------------------------------------------------

    def _gather_row_rule(self, kind: str, pidx: int, p: np.ndarray,
                         normal: np.ndarray | None, source_element: int | None):
        """Concatenated quadrature data over all visible element portions.

        Returns None when nothing is radiatively connected to the point,
        otherwise (points, weights, element_ids, flux_shapes, vertex_shapes).
        """
        active = build_active_list(p, normal, self.mesh, source_element=source_element)
        if not active.indices:
            return None
        idx = np.asarray(active.indices, dtype=int)
        dists = point_element_distances(p, self.arrays, idx)
        rel = dists / self.arrays.diameters[idx]

        pts, wts, eids, fsh, vsh = [], [], [], [], []

        def push(rule: ElementRule, k: int):
            pts.append(rule.points)
            wts.append(rule.weights)
            eids.append(np.full(rule.points.shape[0], k))
            m = rule.flux_shapes.shape[1]
            pad_f = np.zeros((rule.points.shape[0], 4))
            pad_f[:, :m] = rule.flux_shapes
            pad_v = np.zeros((rule.points.shape[0], 4))
            pad_v[:, :m] = rule.vertex_shapes
            fsh.append(pad_f)
            vsh.append(pad_v)

        screened = self._screen_point(kind, pidx, p, idx, source_element)
        for k, d in zip(idx, rel):
            vis = self._visibility(kind, pidx, p, int(k), screened[int(k)])
            if vis == "blocked":
                continue
            if vis == "full":
                order, split = _band(float(d), self.base_order)
                push(self._full_rule(int(k), order, split, p), int(k))
                continue
            element = self.mesh.elements[int(k)]
            toward = None
            for sub in vis.visible:
                d_sub = float(
                    point_element_distances(
                        p, ElementArrays.from_elements([sub.element]), np.array([0])
                    )[0]
                ) / sub.element.diameter
                order, split = _band(d_sub, self.base_order)
                if split and toward is None:
                    toward = intrinsic_projection(element, p)
                push(element_rule(element, order, split, patch=sub.patch,
                                  toward=toward if split else None), int(k))
        if not pts:
            return None
        return (
            np.concatenate(pts),
            np.concatenate(wts),
            np.concatenate(eids),
            np.concatenate(fsh),
            np.concatenate(vsh),
        )

    def _chord_factors(self, p: np.ndarray, pts: np.ndarray, beta: float):
        """Per-cell attenuated path weights for chords p -> pts, batched.

        Returns (flat_cells (n, m), weights (n, m)); weights sum per row to
        the exact chord integral of exp(-beta s) with s from p. Chords are
        assumed inside the grid box (enclosure chords always are).
        """
        grid = self.grid
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
            t = np.where((t > 0.0) & (t < 1.0) & np.isfinite(t), t, 1.0)
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
                eb_p = float(quad_vertex_shapes(QUAD_NODES_UV[[local]])[0] @ eb_vertices[own])
            else:
                eb_p = float(TRI_NODES_BARY[local] @ eb_vertices[own, :3])
            src[r] = -rx * eb_p
            direct, emission, scatter = (KernelKind.WALL_TO_WALL, KernelKind.EMISSION_TO_WALL,
                                         KernelKind.SCATTER_TO_WALL)
        else:
            p = col.interior_points[r]
            normal = own = None
            rx = 1.0
            direct, emission, scatter = (KernelKind.WALL_TO_MEDIUM, KernelKind.EMISSION_TO_MEDIUM,
                                         KernelKind.SCATTER_TO_MEDIUM)
        gathered = self._gather_row_rule(kind, r, p, normal, own)
        if gathered is None:
            return
        pts, w, eids, fshape, vshape = gathered
        diff = pts - p[None, :]
        dist = np.linalg.norm(diff, axis=1)
        cos_p, cos_r = sight_cosines(diff, dist, self.arrays.normals[eids], normal)
        geo = projected_solid_angle(cos_p, cos_r, dist, w)

        # Direct transport of the reflected part of the wall radiosity.
        direct_k = kernel_prefactor(direct, props, dist) * geo
        refl = (1.0 - self.arrays.emissivities[eids]) / self.arrays.emissivities[eids]
        dof_cols = self._dof_columns(eids)
        np.add.at(refl_block[r], dof_cols.ravel(),
                  ((rx * refl * direct_k)[:, None] * fshape).ravel())
        eb_pts = np.einsum("nv,nv->n", vshape, eb_vertices[eids])
        src[r] += rx * float(direct_k @ eb_pts)

        # Chord-coupled terms share the geometric factor without attenuation.
        if props.sigma_a > 0.0 or props.sigma_s > 0.0:
            cells, cw = self._chord_factors(p, pts, props.beta)
            if props.sigma_a > 0.0:
                src[r] += kernel_prefactor(emission, props, dist, rx) * float(
                    geo @ (cw * ib_cells[cells]).sum(1)
                )
            if props.sigma_s > 0.0:
                scatter_block[r] = kernel_prefactor(scatter, props, dist, rx) * np.bincount(
                    cells.ravel(), (geo[:, None] * cw).ravel(), minlength=self.grid.n_cells
                )

    # -- public assembly -------------------------------------------------

    def _node_blackbody(self, props: RadiativeProperties) -> np.ndarray:
        return blackbody_emission(self._vertex_temps, props.sigma_sb)

    def _cell_intensity(self, props: RadiativeProperties) -> np.ndarray:
        ib = blackbody_intensity(self.grid.temperatures, props.sigma_sb)
        return np.where(self._active_mask, ib, 0.0)

    def assemble_surface(self, props: RadiativeProperties) -> SurfaceSystem:
        from ritesolver.solver import solvability_margin

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
        col = self.collocation
        gmat = np.zeros((col.n_boundary, col.n_boundary))
        fmat = np.zeros((col.n_boundary, self.grid.n_cells))
        h = np.zeros(col.n_boundary)
        eb_vertices = self._node_blackbody(props)
        ib_cells = self._cell_intensity(props)
        for i in range(col.n_boundary):
            self._row("b", i, props, eb_vertices, ib_cells, gmat, fmat, h)
        for name, arr in (("Gmat", gmat), ("Fmat", fmat), ("h", h)):
            if not np.all(np.isfinite(arr)):
                raise AssemblyFailure(f"non-finite entries in {name}")
        return SurfaceSystem(gmat=gmat, fmat=fmat, h=h)

    def assemble_volume(self, props: RadiativeProperties) -> VolumeSystem:
        col = self.collocation
        umat = np.zeros((col.n_interior, self.grid.n_cells))
        vmat = np.zeros((col.n_interior, col.n_boundary))
        t = np.zeros(col.n_interior)
        eb_vertices = self._node_blackbody(props)
        ib_cells = self._cell_intensity(props)
        for j in range(col.n_interior):
            self._row("i", j, props, eb_vertices, ib_cells, vmat, umat, t)
        for name, arr in (("Umat", umat), ("Vmat", vmat), ("t", t)):
            if not np.all(np.isfinite(arr)):
                raise AssemblyFailure(f"non-finite entries in {name}")
        return VolumeSystem(
            umat=umat,
            vmat=vmat,
            t=t,
            cells=col.interior_cells.copy(),
            cell_temperatures=self.grid.temperatures[col.interior_cells].copy(),
        )


def points_in_mesh_mask(mesh: SurfaceMesh, grid: VoxelGrid) -> np.ndarray:
    """Boolean mask over flat cells: center inside the enclosure."""
    return points_in_mesh(mesh, grid.cell_centers())


# ---------------------------------------------------------------------------
# Spec-level convenience entry points


def assemble_surface(mesh, grid, props, collocation=None, **kwargs) -> SurfaceSystem:
    return Assembler(mesh, grid, collocation, **kwargs).assemble_surface(props)


def assemble_volume(mesh, grid, props, collocation=None, **kwargs) -> VolumeSystem:
    return Assembler(mesh, grid, collocation, **kwargs).assemble_volume(props)


def element_integral(
    p,
    n_p,
    element: SurfaceElement,
    kind: KernelKind,
    props: RadiativeProperties,
    shape: int | None = None,
    base_order: int = 2,
    report=None,
) -> float:
    """Banded quadrature of F_shape x kernel over the element's visible part.

    shape None integrates the kernel alone; an integer selects one flux
    shape function. report limits integration to a VisibilityReport's
    visible sub-elements. Self-plane configurations return exactly zero for
    wall-receiver kernels because the receiver cosine vanishes.
    """
    p = as_point(p)
    arrays = ElementArrays.from_elements([element])
    d = float(point_element_distances(p, arrays, np.array([0]))[0]) / element.diameter
    order, split = _band(d, base_order)
    toward = intrinsic_projection(element, p) if split else None
    if report is not None and report.classification is Classification.FULLY_BLOCKED:
        return 0.0
    if report is not None and report.classification is Classification.PARTIALLY_VISIBLE:
        rule = _concat_rules([
            element_rule(element, order, split, patch=sub.patch, toward=toward)
            for sub in report.visible
        ])
    else:
        rule = element_rule(element, order, split, toward=toward)
    diff = rule.points - p[None, :]
    dist = np.linalg.norm(diff, axis=1)
    n_p = as_point(n_p) if kind.receiver_on_wall else None
    cos_p, cos_r = sight_cosines(diff, dist, np.broadcast_to(element.normal, diff.shape), n_p)
    vals = kernel_prefactor(kind, props, dist) * projected_solid_angle(
        cos_p, cos_r, dist, rule.weights
    )
    return float(vals.sum() if shape is None else vals @ rule.flux_shapes[:, shape])


def operator_row_sums(
    surface: SurfaceSystem,
    volume: VolumeSystem,
    props: RadiativeProperties,
    eps_min: float,
    eps_max: float | None = None,
    tolerance: float = 0.02,
) -> RowSumReport:
    """Max row sums of the four blocks against their theoretical bounds.

    The bounds are the uniform-emissivity operator estimates evaluated with
    the extreme emissivities, so they stay valid rowwise on mixed meshes. A
    block is flagged when its row sum exceeds its bound by more than the
    discretization tolerance (relative, default 2%).
    """
    eps_max = eps_min if eps_max is None else eps_max
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
        "medium_scatter": (props.sigma_s / beta) * -np.expm1(-beta * r) if beta > 0 else 0.0,
        "medium_reflection": 4.0 * (1.0 - eps_min) / eps_min,
    }
    violations = tuple(
        name
        for name in row_sums
        if row_sums[name] > bounds[name] * (1.0 + tolerance) + 1e-14
    )
    return RowSumReport(row_sums=row_sums, bounds=bounds, tolerance=tolerance,
                        violations=violations)


# ---------------------------------------------------------------------------
# Binary block dumps

_MATRIX_MAGIC = b"RITM"
_MATRIX_VERSION = 1


def write_matrix(path, matrix: np.ndarray) -> None:
    """Little-endian float64 row-major dump with a dimension header."""
    m = np.ascontiguousarray(matrix, dtype="<f8")
    if m.ndim == 1:
        m = m[None, :]
    with open(path, "wb") as fh:
        fh.write(_MATRIX_MAGIC)
        fh.write(struct.pack("<B", _MATRIX_VERSION))
        fh.write(struct.pack("<qq", m.shape[0], m.shape[1]))
        fh.write(m.tobytes())


def read_matrix(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if raw[:4] != _MATRIX_MAGIC:
        raise ValueError(f"{path} is not a matrix dump")
    version = raw[4]
    if version != _MATRIX_VERSION:
        raise ValueError(f"unsupported matrix dump version {version}")
    rows, cols = struct.unpack_from("<qq", raw, 5)
    data = np.frombuffer(raw, dtype="<f8", offset=21, count=rows * cols)
    return data.reshape(rows, cols).copy()
