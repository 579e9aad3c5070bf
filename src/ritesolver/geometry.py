"""Flat-element surface meshes, the medium voxel grid, and ray primitives.

Quadrature on an element is laid out on reference cells in its root
intrinsic coordinates: boxes of the (xi, eta) square for quads and
barycentric corner sets for triangles (quad_cells, tri_cells).

All coordinates are SI meters. Element vertices are ordered counter-clockwise
when viewed from the side the unit normal points to, and enclosure meshes
orient every normal toward the enclosed medium, so the cosine between a normal
and a ray to a visible interior point is nonnegative.

Points are plain numpy arrays of shape (3,), float64.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

__all__ = [
    "GeometryError",
    "DegenerateElement",
    "NonPlanar",
    "MeshError",
    "SurfaceElement",
    "VoxelGrid",
    "SurfaceMesh",
    "ElementArrays",
    "as_point",
    "build_element",
    "segment_element_hits",
    "quad_cells",
    "tri_cells",
    "load_mesh",
    "mesh_from_records",
    "write_mesh_file",
]

# Tolerances, relative to the element diameter unless stated otherwise.
PLANARITY_RTOL = 1e-9       # max vertex deviation from the quad plane
ENDPOINT_RTOL = 1e-10       # open-segment exclusion zone at each endpoint
EDGE_INCLUSION_RTOL = 1e-10  # edge touches count as hits, inclusive margin (x diameter^2)
_AREA_RTOL = 1e-10          # area below this fraction of diameter^2 is degenerate

# Fixed skew direction for parity ray casts; avoids grazing axis-aligned faces.
_PARITY_DIRECTION = np.array([0.21873409, 0.52028170, 0.82541901])
_PARITY_DIRECTION = _PARITY_DIRECTION / np.linalg.norm(_PARITY_DIRECTION)


class GeometryError(ValueError):
    """Base class for geometry construction and query failures."""


class DegenerateElement(GeometryError):
    """Element with vanishing area, repeated vertices, or a reflex corner."""


class NonPlanar(GeometryError):
    """Quad vertices deviate from a common plane beyond tolerance."""


class MeshError(GeometryError):
    """Mesh-level consistency failure (closure, orientation, file format)."""


def as_point(p) -> np.ndarray:
    """Coerce to a finite float64 3-vector."""
    a = np.asarray(p, dtype=float)
    if a.shape != (3,):
        raise GeometryError(f"expected a 3-vector, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise GeometryError(f"point has non-finite components: {a}")
    return a


def cross3(a, b) -> np.ndarray:
    """Cross product over the last axis.

    Component formulas avoid the axis bookkeeping of np.cross, which
    dominates profiles when called on many small batches.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    out[..., 0] = a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1]
    out[..., 1] = a[..., 2] * b[..., 0] - a[..., 0] * b[..., 2]
    out[..., 2] = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
    return out


@dataclass(frozen=True)
class SurfaceElement:
    """Flat triangle or planar quad with precomputed metric data.

    vertices : (m, 3) array, m in {3, 4}, counter-clockwise seen from the
        normal side.
    normal : unit vector by the right-hand rule on the vertex order; enclosure
        meshes point it into the medium.
    centroid : vertex mean (equals the bilinear-map center for quads).
    diameter : max pairwise vertex distance.
    emissivity : in (0, 1].
    """

    vertices: np.ndarray
    normal: np.ndarray
    centroid: np.ndarray
    area: float
    diameter: float
    emissivity: float

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def is_quad(self) -> bool:
        return self.vertices.shape[0] == 4


def build_element(vertices, emissivity: float = 1.0) -> SurfaceElement:
    """Construct a SurfaceElement from 3 or 4 vertices.

    Raises DegenerateElement for vanishing area or reflex corners and
    NonPlanar when quad vertices leave their plane by more than
    PLANARITY_RTOL times the diameter.
    """
    v = np.asarray(vertices, dtype=float)
    if v.ndim != 2 or v.shape[0] not in (3, 4) or v.shape[1] != 3:
        raise GeometryError(f"expected (3|4, 3) vertex array, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise GeometryError("vertices contain non-finite components")
    if not 0.0 < emissivity <= 1.0:
        raise GeometryError(f"emissivity must be in (0, 1], got {emissivity}")

    diffs = v[:, None, :] - v[None, :, :]
    diameter = float(np.sqrt((diffs**2).sum(-1)).max())
    if diameter <= 0.0:
        raise DegenerateElement("all vertices coincide")

    if v.shape[0] == 3:
        cross = cross3(v[1] - v[0], v[2] - v[0])
        area = 0.5 * float(np.linalg.norm(cross))
    else:
        # Diagonal cross product: exact vector area for planar quads.
        cross = 0.5 * cross3(v[2] - v[0], v[3] - v[1])
        area = float(np.linalg.norm(cross))
    if area < _AREA_RTOL * diameter * diameter:
        raise DegenerateElement(f"area {area:g} below tolerance for diameter {diameter:g}")
    normal = cross / np.linalg.norm(cross)

    centroid = v.mean(axis=0)

    if v.shape[0] == 4:
        dev = np.abs((v - centroid) @ normal).max()
        if dev > PLANARITY_RTOL * diameter:
            raise NonPlanar(f"quad deviates from its plane by {dev:g} (diameter {diameter:g})")
        # Convexity: all corner turns must agree with the normal.
        edges = np.roll(v, -1, axis=0) - v
        turns = cross3(edges, np.roll(edges, -1, axis=0)) @ normal
        if np.any(turns <= 0.0):
            raise DegenerateElement("quad has a reflex or collapsed corner")

    return SurfaceElement(
        vertices=v,
        normal=normal,
        centroid=centroid,
        area=area,
        diameter=diameter,
        emissivity=float(emissivity),
    )


@dataclass
class ElementArrays:
    """Structure-of-arrays view of an element list for vectorized queries.

    Triangles pad the fourth vertex slot with a repeat of their last vertex;
    the degenerate edge drops out of edge tests.
    """

    vertices: np.ndarray      # (E, 4, 3)
    n_vertices: np.ndarray    # (E,)
    normals: np.ndarray       # (E, 3)
    centroids: np.ndarray     # (E, 3)
    areas: np.ndarray         # (E,)
    diameters: np.ndarray     # (E,)
    plane_offsets: np.ndarray  # (E,)  normal . vertex0
    emissivities: np.ndarray  # (E,)
    circumradii: np.ndarray   # (E,)  max vertex distance from the centroid

    @classmethod
    def from_elements(cls, elements) -> "ElementArrays":
        n = len(elements)
        verts = np.empty((n, 4, 3))
        nv = np.empty(n, dtype=int)
        normals = np.empty((n, 3))
        cents = np.empty((n, 3))
        areas = np.empty(n)
        diams = np.empty(n)
        eps = np.empty(n)
        for i, e in enumerate(elements):
            m = e.n_vertices
            verts[i, :m] = e.vertices
            if m == 3:
                verts[i, 3] = e.vertices[2]
            nv[i] = m
            normals[i] = e.normal
            cents[i] = e.centroid
            areas[i] = e.area
            diams[i] = e.diameter
            eps[i] = e.emissivity
        offs = np.einsum("ij,ij->i", normals, verts[:, 0])
        crad = np.sqrt(((verts - cents[:, None, :]) ** 2).sum(-1)).max(axis=1)
        return cls(verts, nv, normals, cents, areas, diams, offs, eps, crad)

    def __len__(self) -> int:
        return self.vertices.shape[0]

    def take(self, indices) -> "ElementArrays":
        """The listed elements, in the given order."""
        return ElementArrays(*(getattr(self, f.name)[indices] for f in fields(self)))


def segment_element_hits(starts, ends, arrays: ElementArrays, indices=None) -> np.ndarray:
    """Open-segment intersection mask, shape (S, E).

    The i-th segment runs starts[i] -> ends[i]; column j refers to element
    indices[j] (all elements when indices is None). Crossings of an element
    interior or edge count as hits; touches within ENDPOINT_RTOL times the
    element diameter of either endpoint do not. Symmetric under segment
    reversal.
    """
    starts = np.atleast_2d(np.asarray(starts, dtype=float))
    ends = np.atleast_2d(np.asarray(ends, dtype=float))
    if indices is None:
        verts = arrays.vertices
        normals = arrays.normals
        offs = arrays.plane_offsets
        diams = arrays.diameters
    else:
        idx = np.asarray(indices, dtype=int)
        verts = arrays.vertices[idx]
        normals = arrays.normals[idx]
        offs = arrays.plane_offsets[idx]
        diams = arrays.diameters[idx]
    if verts.shape[0] == 0:
        return np.zeros((starts.shape[0], 0), dtype=bool)

    d = ends - starts                               # (S, 3)
    length = np.linalg.norm(d, axis=1)              # (S,)
    denom = d @ normals.T                           # (S, E)
    num = offs[None, :] - starts @ normals.T        # (S, E)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = num / denom
    # Parallel segments never hit, coincident-plane ones included.
    ok = np.abs(denom) > 1e-14 * np.maximum(length[:, None], 1.0)
    ok &= np.isfinite(t)
    t = np.where(ok, t, 0.0)
    margin = ENDPOINT_RTOL * diams[None, :]
    s = t * length[:, None]
    ok &= (s > margin) & (s < length[:, None] - margin)

    pts = starts[:, None, :] + t[..., None] * d[:, None, :]   # (S, E, 3)
    tol_in = EDGE_INCLUSION_RTOL * diams * diams
    inside = np.ones_like(ok)
    for i in range(4):
        a = verts[:, i]
        b = verts[:, (i + 1) % 4]
        # (edge x w) . n == w . (n x edge); the right side keeps the cross
        # product on the small per-element arrays.
        en = cross3(normals, b - a)                            # (E, 3)
        side = np.einsum("sek,ek->se", pts - a[None, :, :], en)
        inside &= side >= -tol_in[None, :]
    return ok & inside


# ---------------------------------------------------------------------------
# Reference cells

# A split keeps its cut this fraction of each side away from the square's
# edges, and fans a triangle from its target only when every barycentric
# coordinate of the target reaches _FAN_MIN_BARY, so no cell degenerates.
_SPLIT_MARGIN = 0.05
_FAN_MIN_BARY = 0.08


def quad_cells(toward=None) -> np.ndarray:
    """Boxes (xi0, xi1, eta0, eta1) of a quad's intrinsic square, (c, 4).

    Without toward the square is one box. With it, four boxes meet at the
    intrinsic point toward, clamped inside the margin, so nearly singular
    quadrature parks the peak on box corners, where Gauss rules behave. A
    stack of points toward (..., 2) gives a stack of boxes (..., 4, 4).
    """
    if toward is None:
        return np.array([[-1.0, 1.0, -1.0, 1.0]])
    lo, hi = -1.0 + _SPLIT_MARGIN * 2.0, 1.0 - _SPLIT_MARGIN * 2.0
    xm, em = np.moveaxis(np.clip(toward, lo, hi), -1, 0)
    one = np.ones_like(xm)
    boxes = [-one, xm, -one, em,
             xm, one, -one, em,
             xm, one, em, one,
             -one, xm, em, one]
    return np.stack(boxes, axis=-1).reshape(xm.shape + (4, 4))


def tri_cells(toward=None) -> np.ndarray:
    """Barycentric corner sets of sub-triangles of a triangle, (c, 3, 3).

    Without toward the triangle is one cell. With it, the cells fan from
    the barycentric point toward when it sits comfortably inside, and are
    the four edge-midpoint triangles otherwise.
    """
    c = np.eye(3)
    if toward is None:
        return c[None]
    apex = np.asarray(toward, dtype=float)
    if np.all(apex >= _FAN_MIN_BARY):
        return np.array([[apex, c[0], c[1]], [apex, c[1], c[2]], [apex, c[2], c[0]]])
    m01 = 0.5 * (c[0] + c[1])
    m12 = 0.5 * (c[1] + c[2])
    m20 = 0.5 * (c[2] + c[0])
    return np.array([[c[0], m01, m20], [m01, c[1], m12], [m20, m12, c[2]], [m01, m12, m20]])


def bilinear_points(verts4: np.ndarray, uv: np.ndarray) -> np.ndarray:
    """Map intrinsic (xi, eta) in [-1, 1]^2 to physical points.

    verts4 (..., 4, 3) and uv (..., n, 2) broadcast over their leading axes,
    giving (..., n, 3); stacked elements map exactly as one at a time.
    """
    v = np.asarray(verts4)[..., None, :, :]
    xi = uv[..., 0][..., None]
    eta = uv[..., 1][..., None]
    return 0.25 * (
        (1 - xi) * (1 - eta) * v[..., 0, :]
        + (1 + xi) * (1 - eta) * v[..., 1, :]
        + (1 + xi) * (1 + eta) * v[..., 2, :]
        + (1 - xi) * (1 + eta) * v[..., 3, :]
    )


def bilinear_tangents(verts4: np.ndarray, xi: np.ndarray, eta: np.ndarray):
    """Tangents (x_xi, x_eta) of the bilinear map, each (..., 3).

    verts4 (..., 4, 3) broadcasts against xi and eta (..., 1). x_xi depends
    on eta alone and x_eta on xi alone, so each can be evaluated at the
    distinct values of one coordinate and broadcast over the other.
    """
    v = np.asarray(verts4)
    dxi = 0.25 * (
        -(1 - eta) * v[..., 0, :] + (1 - eta) * v[..., 1, :]
        + (1 + eta) * v[..., 2, :] - (1 + eta) * v[..., 3, :]
    )
    deta = 0.25 * (
        -(1 - xi) * v[..., 0, :] - (1 + xi) * v[..., 1, :]
        + (1 + xi) * v[..., 2, :] + (1 - xi) * v[..., 3, :]
    )
    return dxi, deta


def bilinear_jacobian(verts4: np.ndarray, uv: np.ndarray) -> np.ndarray:
    """Surface Jacobian |x_xi cross x_eta| at intrinsic points, (..., n).

    Broadcasts over leading axes like bilinear_points.
    """
    v = np.asarray(verts4)[..., None, :, :]
    dxi, deta = bilinear_tangents(v, uv[..., 0][..., None], uv[..., 1][..., None])
    return np.linalg.norm(cross3(dxi, deta), axis=-1)


# ---------------------------------------------------------------------------
# Voxel grid


class VoxelGrid:
    """Axis-aligned box of cuboid cells with per-cell medium temperature.

    Cell data is stored flat in x-fastest order:
    flat = ix + nx * (iy + ny * iz).
    """

    def __init__(self, origin, spacing, dims, temperatures=None):
        self.origin = as_point(origin)
        spacing = np.asarray(spacing, dtype=float)
        if spacing.shape == ():
            spacing = np.full(3, float(spacing))
        if spacing.shape != (3,) or not np.all(spacing > 0):
            raise GeometryError(f"spacing must be three positive values, got {spacing}")
        self.spacing = spacing
        dims = np.asarray(dims, dtype=int)
        if dims.shape != (3,) or not np.all(dims >= 1):
            raise GeometryError(f"dims must be three positive integers, got {dims}")
        self.dims = dims
        n = int(dims.prod())
        if temperatures is None:
            temperatures = np.zeros(n)
        temperatures = np.asarray(temperatures, dtype=float).reshape(-1)
        if temperatures.shape != (n,):
            raise GeometryError(f"expected {n} cell temperatures, got {temperatures.shape}")
        if np.any(temperatures < 0) or not np.all(np.isfinite(temperatures)):
            raise GeometryError("cell temperatures must be finite and nonnegative")
        self.temperatures = temperatures
        self._centers = None

    @property
    def n_cells(self) -> int:
        return int(self.dims.prod())

    @property
    def cell_volume(self) -> float:
        return float(self.spacing.prod())

    def box(self) -> tuple[np.ndarray, np.ndarray]:
        return self.origin, self.origin + self.spacing * self.dims

    def flat_index(self, ix: int, iy: int, iz: int) -> int:
        nx, ny, _ = self.dims
        return int(ix + nx * (iy + ny * iz))

    def cell_centers(self) -> np.ndarray:
        """(n_cells, 3) centers in flat (x-fastest) order."""
        if self._centers is None:
            nx, ny, nz = self.dims
            cx = self.origin[0] + (np.arange(nx) + 0.5) * self.spacing[0]
            cy = self.origin[1] + (np.arange(ny) + 0.5) * self.spacing[1]
            cz = self.origin[2] + (np.arange(nz) + 0.5) * self.spacing[2]
            zz, yy, xx = np.meshgrid(cz, cy, cx, indexing="ij")
            self._centers = np.column_stack([xx.ravel(), yy.ravel(), zz.ravel()])
        return self._centers


# ---------------------------------------------------------------------------
# Surface mesh


class SurfaceMesh:
    """Indexed element mesh with per-node temperature.

    Enclosure meshes must be closed, consistently oriented with normals into
    the medium; set check_closed=False for open test scenes.
    """

    def __init__(self, nodes, element_nodes, emissivities=None, node_temperatures=None,
                 check_closed: bool = True):
        nodes = np.asarray(nodes, dtype=float)
        if nodes.ndim != 2 or nodes.shape[1] != 3:
            raise MeshError(f"expected (N, 3) node array, got {nodes.shape}")
        if not np.all(np.isfinite(nodes)):
            raise MeshError("nodes contain non-finite coordinates")
        self.nodes = nodes
        self.element_nodes = tuple(tuple(int(i) for i in en) for en in element_nodes)
        n_el = len(self.element_nodes)
        if emissivities is None:
            emissivities = [1.0] * n_el
        elif np.isscalar(emissivities):
            emissivities = [float(emissivities)] * n_el
        if len(emissivities) != n_el:
            raise MeshError("one emissivity per element required")
        self.elements = [
            build_element(nodes[list(en)], eps)
            for en, eps in zip(self.element_nodes, emissivities)
        ]
        if node_temperatures is None:
            node_temperatures = np.zeros(nodes.shape[0])
        node_temperatures = np.asarray(node_temperatures, dtype=float).reshape(-1)
        if node_temperatures.shape[0] != nodes.shape[0]:
            raise MeshError("one temperature per node required")
        if np.any(node_temperatures < 0) or not np.all(np.isfinite(node_temperatures)):
            raise MeshError("node temperatures must be finite and nonnegative")
        self.node_temperatures = node_temperatures
        self._arrays = None
        if check_closed:
            self._check_closed_oriented()

    @property
    def n_elements(self) -> int:
        return len(self.elements)

    def arrays(self) -> ElementArrays:
        if self._arrays is None:
            self._arrays = ElementArrays.from_elements(self.elements)
        return self._arrays

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        return self.nodes.min(axis=0), self.nodes.max(axis=0)

    def with_emissivities(self, emissivities) -> "SurfaceMesh":
        """Same geometry and temperatures, different wall emissivities."""
        return SurfaceMesh(
            self.nodes, self.element_nodes, emissivities, self.node_temperatures
        )

    def _check_closed_oriented(self):
        edges: dict[tuple[int, int], int] = {}
        for en in self.element_nodes:
            m = len(en)
            for i in range(m):
                e = (en[i], en[(i + 1) % m])
                edges[e] = edges.get(e, 0) + 1
        problems = []
        for (a, b), cnt in edges.items():
            if cnt != 1:
                problems.append(f"directed edge {a}->{b} used {cnt} times")
            elif edges.get((b, a), 0) != 1:
                problems.append(f"edge {a}-{b} not shared by an opposite-order neighbor")
        if problems:
            raise MeshError("mesh is not a closed oriented surface: " + "; ".join(problems[:5]))
        arr = self.arrays()
        signed = float(np.einsum("i,ij,ij->", arr.areas, arr.centroids, arr.normals) / 3.0)
        if signed >= 0.0:
            raise MeshError("element normals must point into the enclosed medium")

    def diameter(self) -> float:
        """Max pairwise node distance; for polyhedral enclosures this is the
        domain diameter."""
        pts = self.nodes
        best = 0.0
        step = 512
        for i in range(0, pts.shape[0], step):
            chunk = pts[i : i + step]
            d2 = ((chunk[:, None, :] - pts[None, :, :]) ** 2).sum(-1)
            best = max(best, float(d2.max()))
        return math.sqrt(best)


def points_in_mesh(mesh: SurfaceMesh, points) -> np.ndarray:
    """Parity ray cast along a fixed skew direction, batched over points."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    reach = mesh.diameter() * 2.0 + 1.0
    far = pts + _PARITY_DIRECTION[None, :] * reach
    hits = segment_element_hits(pts, far, mesh.arrays())
    return hits.sum(axis=1) % 2 == 1


# ---------------------------------------------------------------------------
# Mesh file format

_MESH_KEYS = {"nodes", "elements", "grid"}
_GRID_KEYS = {"origin", "spacing", "dims", "T"}


def load_mesh(path) -> tuple[SurfaceMesh, VoxelGrid]:
    """Read a mesh-plus-grid JSON file (the format of write_mesh_file)."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise MeshError(f"cannot read mesh file {path}: {exc}") from exc
    missing = _MESH_KEYS - set(data)
    if missing:
        raise MeshError(f"mesh file missing keys: {sorted(missing)}")
    return mesh_from_records(data["nodes"], data["elements"], data["grid"])


def mesh_from_records(nodes, elements, grid: dict) -> tuple[SurfaceMesh, VoxelGrid]:
    """Build the mesh and grid that write_mesh_file's arguments describe.

    The records store one temperature per element; node temperatures are
    the mean over incident elements, which is exact for uniform walls. The
    grid box must contain the mesh bounding box.
    """
    nodes = np.asarray(nodes, dtype=float)
    element_nodes = []
    emissivities = []
    temp_sum = np.zeros(nodes.shape[0])
    temp_cnt = np.zeros(nodes.shape[0])
    for rec in elements:
        try:
            en = [int(i) for i in rec["nodes"]]
            eps = float(rec["epsilon"])
            temp = float(rec["T"])
        except (KeyError, TypeError, ValueError) as exc:
            raise MeshError(f"bad element record {rec!r}: {exc}") from exc
        if min(en) < 0 or max(en) >= nodes.shape[0]:
            raise MeshError(f"element node index out of range in {rec!r}")
        element_nodes.append(en)
        emissivities.append(eps)
        for i in en:
            temp_sum[i] += temp
            temp_cnt[i] += 1
    if np.any(temp_cnt == 0):
        raise MeshError("mesh has nodes not referenced by any element")
    node_temps = temp_sum / temp_cnt

    mesh = SurfaceMesh(nodes, element_nodes, emissivities, node_temps, check_closed=True)

    missing = _GRID_KEYS - set(grid)
    if missing:
        raise MeshError(f"grid record missing keys: {sorted(missing)}")
    grid = VoxelGrid(grid["origin"], grid["spacing"], grid["dims"],
                     np.asarray(grid["T"], dtype=float))
    lo, hi = grid.box()
    mlo, mhi = mesh.bounding_box()
    tol = 1e-9 * max(1.0, float(np.max(hi - lo)))
    if np.any(mlo < lo - tol) or np.any(mhi > hi + tol):
        raise MeshError("grid box does not contain the mesh bounding box")
    return mesh, grid


def write_mesh_file(path, nodes, elements, grid: dict) -> None:
    """Write the JSON mesh format.

    elements: iterable of {"nodes": [...], "epsilon": e, "T": t} records.
    grid: {"origin", "spacing", "dims", "T"} with T flat in x-fastest order.
    """
    payload = {
        "nodes": [[float(c) for c in row] for row in np.asarray(nodes, dtype=float)],
        "elements": [
            {
                "nodes": [int(i) for i in rec["nodes"]],
                "epsilon": float(rec["epsilon"]),
                "T": float(rec["T"]),
            }
            for rec in elements
        ],
        "grid": {
            "origin": [float(c) for c in grid["origin"]],
            "spacing": [
                float(c)
                for c in np.broadcast_to(np.asarray(grid["spacing"], dtype=float).reshape(-1), (3,))
            ],
            "dims": [int(c) for c in grid["dims"]],
            "T": [float(c) for c in np.asarray(grid["T"], dtype=float).reshape(-1)],
        },
    }
    Path(path).write_text(json.dumps(payload, indent=1), encoding="utf-8")
