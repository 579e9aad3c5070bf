"""Geometry layer: elements, reference cells, ray casts, voxel traversal, meshes."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ritesolver.assembly import element_rule
from ritesolver.geometry import (
    DegenerateElement,
    ElementArrays,
    GeometryError,
    MeshError,
    NonPlanar,
    SurfaceMesh,
    VoxelGrid,
    bilinear_coefficients,
    build_element,
    cross3,
    load_mesh,
    mesh_from_records,
    points_in_mesh,
    quad_cells,
    segment_element_hits,
    tri_cells,
    write_mesh_file,
)
from tests.conftest import CUBE_FACES, CUBE_NODES, make_cube_mesh
from tests.oracles import (
    OutsideGrid,
    bilinear_jacobian,
    bilinear_points,
    flat_index,
    traverse_voxels,
)

UNIT_TRI = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
UNIT_QUAD = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 0.0]])


# ---------------------------------------------------------------------------
# Element construction


def test_triangle_metrics():
    e = build_element(UNIT_TRI)
    assert e.area == pytest.approx(0.5)
    assert_allclose(e.normal, [0.0, 0.0, 1.0])
    assert_allclose(e.centroid, [1 / 3, 1 / 3, 0.0])
    assert e.diameter == pytest.approx(math.sqrt(2.0))
    assert e.emissivity == 1.0


def test_quad_metrics():
    e = build_element(UNIT_QUAD, emissivity=0.7)
    assert e.area == pytest.approx(1.0)
    assert_allclose(e.normal, [0.0, 0.0, 1.0])
    assert_allclose(e.centroid, [0.5, 0.5, 0.0])
    assert e.diameter == pytest.approx(math.sqrt(2.0))
    assert e.emissivity == 0.7


def test_skewed_planar_quad_area():
    # Parallelogram in a tilted plane; area is base times height.
    v = np.array([[0, 0, 0], [2, 0, 1], [3, 2, 1.5], [1, 2, 0.5]], dtype=float)
    e = build_element(v)
    expect = np.linalg.norm(np.cross(v[1] - v[0], v[3] - v[0]))
    assert e.area == pytest.approx(expect, rel=1e-12)


def test_vertex_order_sets_normal_sign():
    e = build_element(UNIT_QUAD[::-1])
    assert_allclose(e.normal, [0.0, 0.0, -1.0])


def test_degenerate_elements_rejected():
    with pytest.raises(DegenerateElement):
        build_element([[0, 0, 0], [1, 0, 0], [2, 0, 0]])  # collinear
    with pytest.raises(DegenerateElement):
        build_element([[0, 0, 0], [0, 0, 0], [0, 0, 0]])
    with pytest.raises(DegenerateElement):
        # Reflex corner at the fourth vertex.
        build_element([[0, 0, 0], [2, 0, 0], [2, 2, 0], [1.5, 0.5, 0]])


def test_emissivity_range_enforced():
    for bad in (0.0, -0.1, 1.5):
        with pytest.raises(GeometryError):
            build_element(UNIT_TRI, emissivity=bad)


def test_planarity_tolerance_is_relative_to_diameter():
    diam = math.sqrt(2.0)
    quad = UNIT_QUAD.copy()
    quad[2, 2] = 0.2e-9 * diam  # deviation 0.05e-9 * diam after centering
    build_element(quad)
    quad[2, 2] = 8.0e-9 * diam
    with pytest.raises(NonPlanar):
        build_element(quad)


# ---------------------------------------------------------------------------
# Reference cells


def cell_corners(element, cells):
    """Physical corners of reference cells, in element orientation."""
    if element.is_quad:
        return [
            bilinear_points(element.vertices, np.array([x0, x1, x1, x0]),
                            np.array([e0, e0, e1, e1])).T
            for x0, x1, e0, e1 in cells
        ]
    return list(cells @ element.vertices)


def cover_counts(element, cells, n=2000, seed=0):
    """How many cells contain each of n random interior reference points."""
    rng = np.random.default_rng(seed)
    if element.is_quad:
        uv = rng.uniform(-1.0, 1.0, (n, 2))
        x0, x1, e0, e1 = cells.T[:, :, None]
        inside = (x0 <= uv[:, 0]) & (uv[:, 0] <= x1) & (e0 <= uv[:, 1]) & (uv[:, 1] <= e1)
    else:
        bary = rng.dirichlet(np.ones(3), n)
        local = np.linalg.solve(np.transpose(cells, (0, 2, 1))[:, None], bary[None, :, :, None])
        inside = np.all(local[..., 0] >= 0.0, axis=2)
    return inside.sum(axis=0)


def four_way_cells(element):
    """The four midpoint cells: a quad split at its center, a triangle
    split toward a vertex, which is too close to the edges to fan from."""
    if element.is_quad:
        return quad_cells((0.0, 0.0))
    return tri_cells((1.0, 0.0, 0.0))


@pytest.mark.parametrize(
    "verts",
    [UNIT_TRI, UNIT_QUAD, np.array([[0, 0, 0], [2, 0, 1], [3, 2, 1.5], [1, 2, 0.5]], dtype=float)],
)
def test_subdivide4_partitions_area(verts):
    # The midline split cuts the element into four cells that tile it, and
    # the split rule integrates the area.
    parent = build_element(verts, emissivity=0.3)
    cells = four_way_cells(parent)
    assert len(cells) == 4
    assert np.all(cover_counts(parent, cells) == 1)
    children = [build_element(c) for c in cell_corners(parent, cells)]
    assert sum(c.area for c in children) == pytest.approx(parent.area, rel=1e-12)
    for c in children:
        assert c.diameter <= parent.diameter * (1 + 1e-12)
        assert float(c.normal @ parent.normal) > 0.99
    rule = element_rule(parent, 4, cells)
    assert abs(rule.weights.sum() - parent.area) <= 1e-12 * parent.area


def midpoint_subdivide4(v):
    """Corner sets of the four-way midpoint split: quads at the bilinear
    midlines and center, triangles at the edge midpoints."""
    if len(v) == 4:
        m01, m12, m23, m30 = (0.5 * (v[i] + v[(i + 1) % 4]) for i in range(4))
        c = v.mean(axis=0)
        return [[v[0], m01, c, m30], [m01, v[1], m12, c], [c, m12, v[2], m23], [m30, c, m23, v[3]]]
    m01, m12, m20 = (0.5 * (v[i] + v[(i + 1) % 3]) for i in range(3))
    return [[v[0], m01, m20], [m01, v[1], m12], [m20, m12, v[2]], [m01, m12, m20]]


def test_split_patch_matches_subdivide4_geometry():
    for verts in (UNIT_TRI, UNIT_QUAD):
        parent = build_element(verts)
        by_geometry = midpoint_subdivide4(parent.vertices)
        by_cells = cell_corners(parent, four_way_cells(parent))
        assert len(by_cells) == len(by_geometry)
        for a, b in zip(by_geometry, by_cells):
            assert_allclose(np.array(a), b, atol=1e-15)


def test_nested_patch_recovers_corner_cell():
    # A target at a corner is clamped 5% of each side inside the square, so
    # the corner box spans a twentieth of each side.
    parent = build_element(UNIT_QUAD)
    corner = build_element(cell_corners(parent, quad_cells((-1.0, -1.0)))[0])
    assert corner.area == pytest.approx(parent.area / 400.0, rel=1e-12)
    assert_allclose(corner.vertices[0], parent.vertices[0], atol=1e-15)


def test_full_patch_subelement_reproduces_element():
    for verts in (UNIT_TRI, UNIT_QUAD):
        e = build_element(verts, emissivity=0.5)
        cells = quad_cells() if e.is_quad else tri_cells()
        assert len(cells) == 1
        assert_allclose(cell_corners(e, cells)[0], e.vertices)
        rule = element_rule(e, 4)
        assert rule.weights.sum() == pytest.approx(e.area, rel=1e-12)
        m = e.n_vertices
        assert_allclose(rule.vertex_shapes[:, :m] @ e.vertices, rule.points, atol=1e-15)
        # Triangles pad both shape arrays with a zero fourth column.
        assert not rule.vertex_shapes[:, m:].any() and not rule.flux_shapes[:, m:].any()


@pytest.mark.parametrize(
    "toward, n_cells",
    [((0.5, 0.3, 0.2), 3), ((0.08, 0.46, 0.46), 3), ((0.079, 0.46, 0.461), 4), ((-0.2, 0.6, 0.6), 4)],
)
def test_tri_split_fans_only_from_inner_targets(toward, n_cells):
    # Targets with every barycentric coordinate at least 0.08 become the
    # apex of three fan cells; others fall back to the midpoint cells.
    # Either way the cells tile the triangle and integrate linear data.
    e = build_element(np.array([[0.0, 0.0, 0.0], [2.0, 0.5, 0.0], [0.3, 1.5, 1.0]]))
    cells = tri_cells(toward)
    assert len(cells) == n_cells
    if n_cells == 3:
        assert_allclose(cells[:, 0], np.broadcast_to(toward, (3, 3)))
    assert np.all(cover_counts(e, cells) == 1)
    rule = element_rule(e, 4, cells)

    def linear(x):
        return 1.0 + 2.0 * x[..., 0] - 3.0 * x[..., 1] + 0.5 * x[..., 2]

    assert rule.weights @ linear(rule.points) == pytest.approx(e.area * linear(e.centroid),
                                                               rel=1e-12)


def test_bilinear_maps_of_stacked_quads_match_single_calls():
    # Stacked quads must give exactly what each quad gives alone: the
    # factored map's coefficients, so batched rules keep their bits, and the
    # unfactored oracle with vertices (m, 1, 4, 3) and points (m, n).
    rng = np.random.default_rng(5)
    verts = UNIT_QUAD + rng.uniform(-0.3, 0.3, (6, 4, 3))
    normals = rng.normal(size=(6, 3))
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    maps = bilinear_coefficients(verts, normals)
    assert maps.shape == (6, 5, 3)
    xi, eta = rng.uniform(-1.0, 1.0, (2, 6, 50))
    points = bilinear_points(verts[:, None], xi, eta)
    jac = bilinear_jacobian(verts[:, None], xi, eta)
    assert points.shape == (3, 6, 50) and jac.shape == (6, 50)
    for i in range(6):
        assert np.array_equal(maps[i], bilinear_coefficients(verts[i], normals[i]))
        assert np.array_equal(points[:, i], bilinear_points(verts[i], xi[i], eta[i]))
        assert np.array_equal(jac[i], bilinear_jacobian(verts[i], xi[i], eta[i]))


def test_cross3_matches_np_cross():
    a, b = np.random.default_rng(9).normal(size=(2, 100_000, 3))
    assert np.array_equal(cross3(a, b), np.cross(a, b))
    assert np.array_equal(cross3(a.T, b.T, axis=0), np.cross(a, b).T)


# ---------------------------------------------------------------------------
# Segment-element intersection


def hits_one(start, end, element) -> bool:
    arrays = ElementArrays.from_elements([element])
    return bool(segment_element_hits(np.array([start]), np.array([end]), arrays)[0, 0])


def test_center_crossing_hits():
    e = build_element(UNIT_QUAD)
    assert hits_one([0.5, 0.5, -1.0], [0.5, 0.5, 1.0], e)
    assert hits_one([0.5, 0.5, 1.0], [0.5, 0.5, -1.0], e)


def test_miss_outside_and_short_segments():
    e = build_element(UNIT_QUAD)
    assert not hits_one([2.0, 2.0, -1.0], [2.0, 2.0, 1.0], e)  # outside footprint
    assert not hits_one([0.5, 0.5, -2.0], [0.5, 0.5, -1.0], e)  # stops short
    assert not hits_one([0.5, 0.5, 1.0], [0.5, 0.5, 2.0], e)  # starts past


def test_parallel_and_coplanar_never_hit():
    e = build_element(UNIT_QUAD)
    assert not hits_one([0.2, -1.0, 1.0], [0.2, 2.0, 1.0], e)
    assert not hits_one([0.2, -1.0, 0.0], [0.2, 2.0, 0.0], e)  # in the plane itself


def test_edge_crossing_counts_as_hit():
    e = build_element(UNIT_QUAD)
    assert hits_one([0.0, 0.5, -1.0], [0.0, 0.5, 1.0], e)  # through an edge
    assert hits_one([0.0, 0.0, -1.0], [0.0, 0.0, 1.0], e)  # through a corner


def test_endpoint_on_surface_is_excluded():
    e = build_element(UNIT_QUAD)
    tol = 1e-10 * e.diameter
    assert not hits_one([0.5, 0.5, 0.0], [0.5, 0.5, 1.0], e)  # starts on it
    assert not hits_one([0.5, 0.5, -1.0], [0.5, 0.5, 0.0], e)  # ends on it
    assert not hits_one([0.5, 0.5, -0.5 * tol], [0.5, 0.5, 1.0], e)
    assert hits_one([0.5, 0.5, -10 * tol], [0.5, 0.5, 1.0], e)


def test_triangle_interior_and_exterior():
    e = build_element(UNIT_TRI)
    assert hits_one([0.2, 0.2, -1.0], [0.2, 0.2, 1.0], e)
    assert not hits_one([0.8, 0.8, -1.0], [0.8, 0.8, 1.0], e)  # outside hypotenuse


def test_batched_hits_match_scalar_loop(rng):
    elements = [build_element(CUBE_NODES[list(f)]) for f in CUBE_FACES]
    arrays = ElementArrays.from_elements(elements)
    starts = rng.uniform(-0.5, 1.5, size=(40, 3))
    ends = rng.uniform(-0.5, 1.5, size=(40, 3))
    batched = segment_element_hits(starts, ends, arrays)
    for i in range(starts.shape[0]):
        for j, e in enumerate(elements):
            assert batched[i, j] == hits_one(starts[i], ends[i], e)


@given(
    st.tuples(*[st.floats(-2, 3) for _ in range(6)]),
)
def test_hit_symmetry_under_reversal(coords):
    e = build_element(UNIT_QUAD)
    a = np.array(coords[:3])
    b = np.array(coords[3:])
    if np.linalg.norm(b - a) < 1e-6:
        return
    assert hits_one(a, b, e) == hits_one(b, a, e)


# ---------------------------------------------------------------------------
# Voxel traversal


def sample_cell_oracle(start, end, grid, spans):
    """Dense-sample the segment and check each point lands in its span's cell."""
    lo, _ = grid.box()
    length = np.linalg.norm(end - start)
    for span in spans:
        for f in (0.25, 0.5, 0.75):
            s = span.s_enter + f * (span.s_exit - span.s_enter)
            p = start + (s / length) * (end - start)
            expect = tuple(
                int(np.clip(math.floor((p[a] - lo[a]) / grid.spacing[a]), 0, grid.dims[a] - 1))
                for a in range(3)
            )
            assert span.cell == expect


def test_axis_aligned_traversal():
    grid = VoxelGrid([0, 0, 0], 0.25, [4, 1, 1])
    spans = traverse_voxels([0.0, 0.1, 0.1], [1.0, 0.1, 0.1], grid)
    assert [sp.cell for sp in spans] == [(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)]
    assert_allclose([sp.s_exit - sp.s_enter for sp in spans], 0.25)
    assert spans[0].s_enter == 0.0
    assert spans[-1].s_exit == pytest.approx(1.0)


def test_diagonal_traversal_lengths():
    grid = VoxelGrid([0, 0, 0], 0.5, [2, 2, 1])
    spans = traverse_voxels([0.0, 0.0, 0.25], [1.0, 1.0, 0.25], grid)
    assert [sp.cell for sp in spans] == [(0, 0, 0), (1, 1, 0)]
    total = sum(sp.s_exit - sp.s_enter for sp in spans)
    assert total == pytest.approx(math.sqrt(2.0))


def test_traversal_clips_exterior_portion():
    grid = VoxelGrid([0, 0, 0], 1.0, [1, 1, 1])
    spans = traverse_voxels([-1.0, 0.5, 0.5], [2.0, 0.5, 0.5], grid)
    assert len(spans) == 1
    assert spans[0].s_enter == pytest.approx(1.0)
    assert spans[0].s_exit == pytest.approx(2.0)


def test_traversal_outside_grid_raises():
    grid = VoxelGrid([0, 0, 0], 1.0, [2, 2, 2])
    with pytest.raises(OutsideGrid):
        traverse_voxels([5, 5, 5], [6, 6, 6], grid)
    with pytest.raises(OutsideGrid):
        traverse_voxels([-1, 0.5, 0.5], [-0.1, 0.5, 0.5], grid)


def test_face_graze_assigns_higher_index_cell():
    # Segment in the shared plane x = 0.5 between cells 0 and 1.
    grid = VoxelGrid([0, 0, 0], 0.5, [2, 1, 1])
    spans = traverse_voxels([0.5, 0.0, 0.25], [0.5, 0.5, 0.25], grid)
    assert [sp.cell for sp in spans] == [(1, 0, 0)]
    # On the outer boundary the last cell owns the face.
    spans = traverse_voxels([1.0, 0.0, 0.25], [1.0, 0.5, 0.25], grid)
    assert [sp.cell for sp in spans] == [(1, 0, 0)]


def test_traversal_spans_are_contiguous(rng):
    grid = VoxelGrid([-0.3, 0.1, 0.0], [0.21, 0.34, 0.17], [5, 3, 4])
    lo, hi = grid.box()
    for _ in range(60):
        a = rng.uniform(lo - 0.2, hi + 0.2)
        b = rng.uniform(lo - 0.2, hi + 0.2)
        if np.linalg.norm(b - a) < 1e-9:
            continue
        try:
            spans = traverse_voxels(a, b, grid)
        except OutsideGrid:
            continue
        for s0, s1 in zip(spans[:-1], spans[1:]):
            assert s1.s_enter == pytest.approx(s0.s_exit, abs=1e-12)
            assert s1.cell != s0.cell
        sample_cell_oracle(a, b, grid, spans)


@given(
    st.lists(st.floats(-1.0, 2.0, allow_nan=False), min_size=6, max_size=6),
)
# A subnormal direction component overflows the grid-plane crossings to inf.
@example([0.0, 0.0, 0.0, 0.0, 1.0, 5e-324])
def test_traversal_telescopes_to_clipped_length(coords):
    grid = VoxelGrid([0, 0, 0], [1 / 3, 0.5, 0.25], [3, 2, 4])
    a = np.array(coords[:3])
    b = np.array(coords[3:])
    if np.linalg.norm(b - a) < 1e-6:
        return
    try:
        spans = traverse_voxels(a, b, grid)
    except OutsideGrid:
        return
    total = sum(sp.s_exit - sp.s_enter for sp in spans)
    assert total <= np.linalg.norm(b - a) * (1 + 1e-9)
    for sp in spans:
        assert sp.s_exit > sp.s_enter


# ---------------------------------------------------------------------------
# Voxel grid bookkeeping


def test_flat_index_is_x_fastest():
    grid = VoxelGrid([0, 0, 0], 1.0, [2, 3, 4])
    flat = 0
    for iz in range(4):
        for iy in range(3):
            for ix in range(2):
                assert flat_index(grid, ix, iy, iz) == flat
                flat += 1


def test_cell_centers_align_with_flat_order():
    grid = VoxelGrid([1.0, 2.0, 3.0], [0.5, 1.0, 2.0], [2, 2, 2])
    centers = grid.cell_centers()
    assert centers.shape == (8, 3)
    assert_allclose(centers[flat_index(grid, 0, 0, 0)], [1.25, 2.5, 4.0])
    assert_allclose(centers[flat_index(grid, 1, 0, 0)], [1.75, 2.5, 4.0])
    assert_allclose(centers[flat_index(grid, 0, 1, 0)], [1.25, 3.5, 4.0])
    assert_allclose(centers[flat_index(grid, 1, 1, 1)], [1.75, 3.5, 6.0])


def test_grid_validation_errors():
    with pytest.raises(GeometryError):
        VoxelGrid([0, 0, 0], -1.0, [2, 2, 2])
    with pytest.raises(GeometryError):
        VoxelGrid([0, 0, 0], 1.0, [0, 2, 2])
    # A fractional or boolean size is refused, not truncated to an integer.
    for dims in ([1.7, 1, 1], [2, 2, 2.0], [True, 1, 1]):
        with pytest.raises(GeometryError, match="dims"):
            VoxelGrid([0, 0, 0], 1.0, dims)
    with pytest.raises(GeometryError):
        VoxelGrid([0, 0, 0], 1.0, [2, 2, 2], temperatures=np.ones(5))
    with pytest.raises(GeometryError):
        VoxelGrid([0, 0, 0], 1.0, [1, 1, 1], temperatures=[-3.0])


# ---------------------------------------------------------------------------
# Surface mesh


def test_cube_mesh_is_closed_and_inward():
    mesh = make_cube_mesh()
    assert mesh.n_elements == 6
    arr = mesh.arrays()
    # Every normal points at the cube center.
    to_center = np.array([0.5, 0.5, 0.5]) - arr.centroids
    to_center /= np.linalg.norm(to_center, axis=1, keepdims=True)
    assert_allclose(np.einsum("ij,ij->i", arr.normals, to_center), 1.0)
    assert arr.areas.sum() == pytest.approx(6.0)


def test_open_mesh_rejected():
    with pytest.raises(MeshError):
        SurfaceMesh(CUBE_NODES, CUBE_FACES[:5])


def test_outward_orientation_rejected():
    flipped = [tuple(reversed(f)) for f in CUBE_FACES]
    with pytest.raises(MeshError):
        SurfaceMesh(CUBE_NODES, flipped)


def test_inconsistent_winding_rejected():
    faces = list(CUBE_FACES)
    faces[0] = tuple(reversed(faces[0]))
    with pytest.raises(MeshError):
        SurfaceMesh(CUBE_NODES, faces)


def test_open_scene_allowed_without_closure_check():
    mesh = SurfaceMesh(CUBE_NODES, CUBE_FACES[:2], check_closed=False)
    assert mesh.n_elements == 2


def test_mesh_diameter_of_cube():
    assert make_cube_mesh().diameter() == pytest.approx(math.sqrt(3.0))


def test_point_in_mesh_cube_faces(rng):
    mesh = make_cube_mesh()
    probes = [[0.5, 0.5, 0.5], [1.5, 0.5, 0.5], [-0.2, -0.2, -0.2]]
    assert points_in_mesh(mesh, probes).tolist() == [True, False, False]
    pts = rng.uniform(-0.4, 1.4, size=(120, 3))
    inside = np.all((pts > 1e-6) & (pts < 1 - 1e-6), axis=1)
    outside = np.any((pts < -1e-6) | (pts > 1 + 1e-6), axis=1)
    clear = inside | outside
    assert np.array_equal(points_in_mesh(mesh, pts[clear]), inside[clear])


# ---------------------------------------------------------------------------
# Mesh file round trip


def cube_file_payload(tmp_path, hot=1000.0, cold=500.0):
    path = tmp_path / "cube.json"
    elements = []
    for k, f in enumerate(CUBE_FACES):
        elements.append({"nodes": list(f), "epsilon": 0.8, "T": hot if k == 0 else cold})
    grid = {"origin": [0, 0, 0], "spacing": [0.5, 0.5, 0.5], "dims": [2, 2, 2], "T": [300.0] * 8}
    write_mesh_file(path, CUBE_NODES, elements, grid)
    return path


def test_mesh_file_round_trip(tmp_path):
    path = cube_file_payload(tmp_path)
    mesh, grid = load_mesh(path)
    assert mesh.n_elements == 6
    assert grid.n_cells == 8
    assert_allclose(grid.temperatures, 300.0)
    assert_allclose(mesh.arrays().emissivities, 0.8)
    # A bottom corner node averages the hot floor with its two cold walls.
    expect_corner = (1000.0 + 500.0 + 500.0) / 3.0
    assert mesh.node_temperatures[0] == pytest.approx(expect_corner)
    # Top-face nodes see only cold elements.
    assert mesh.node_temperatures[6] == pytest.approx(500.0)


def test_mesh_file_grid_must_cover_mesh(tmp_path):
    path = tmp_path / "cube.json"
    elements = [{"nodes": list(f), "epsilon": 1.0, "T": 0.0} for f in CUBE_FACES]
    grid = {"origin": [0, 0, 0], "spacing": [0.4, 0.4, 0.4], "dims": [2, 2, 2], "T": [0.0] * 8}
    write_mesh_file(path, CUBE_NODES, elements, grid)
    with pytest.raises(MeshError):
        load_mesh(path)


def test_infinite_spacing_rejected(tmp_path):
    with pytest.raises(GeometryError, match="finite"):
        VoxelGrid([0, 0, 0], [np.inf, 0.5, 0.5], [2, 2, 2])
    # json writes and reads Infinity, so a mesh file can carry it.
    path = tmp_path / "cube.json"
    elements = [{"nodes": list(f), "epsilon": 1.0, "T": 0.0} for f in CUBE_FACES]
    grid = {"origin": [0, 0, 0], "spacing": [math.inf, 0.5, 0.5], "dims": [2, 2, 2],
            "T": [0.0] * 8}
    write_mesh_file(path, CUBE_NODES, elements, grid)
    with pytest.raises(GeometryError, match="finite"):
        load_mesh(path)


def test_mesh_file_error_reporting(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(MeshError):
        load_mesh(bad)
    bad.write_text(json.dumps({"nodes": []}), encoding="utf-8")
    with pytest.raises(MeshError):
        load_mesh(bad)
    # Records that would load only by truncating a fraction to an integer.
    elements = [{"nodes": list(f), "epsilon": 1.0, "T": 0.0} for f in CUBE_FACES]
    grid = {"origin": [0, 0, 0], "spacing": [1.0] * 3, "dims": [1, 1, 1], "T": [0.0]}
    mesh_from_records(CUBE_NODES, elements, grid)
    with pytest.raises(GeometryError, match="dims"):
        mesh_from_records(CUBE_NODES, elements, dict(grid, dims=[1.7, 1, 1]))
    for nodes in ([0.4, 1.4, 2.4, 3.4], [False, 1, 2, 3]):
        fractional = [dict(elements[0], nodes=nodes)] + elements[1:]
        with pytest.raises(MeshError, match="integers"):
            mesh_from_records(CUBE_NODES, fractional, grid)
    # An element with no nodes, and ragged arrays numpy cannot shape.
    empty = [dict(elements[0], nodes=[])] + elements[1:]
    with pytest.raises(MeshError, match="no nodes"):
        mesh_from_records(CUBE_NODES, empty, grid)
    with pytest.raises(MeshError):
        mesh_from_records(CUBE_NODES, elements, dict(grid, dims=[[1], 1, 1]))
    ragged = [list(row) for row in CUBE_NODES[:-1]] + [[1.0, 1.0]]
    with pytest.raises(MeshError):
        mesh_from_records(ragged, elements, grid)
