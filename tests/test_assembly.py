"""Assembly checks: quadrature rules, operator blocks, and their bounds.

The reference values here come from independent integration routes:
raw-formula high-order quadrature for near-singular integrals, per-chord
path factors for the scattering couplings, and the analytic row-sum
bounds for the four operator blocks.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ritesolver.assembly import (
    Assembler,
    CollocationSet,
    collocation_points,
    element_integral,
    element_rule,
    operator_row_sums,
    quad_flux_shapes,
    read_matrix,
    tri_flux_shapes,
    write_matrix,
)
from ritesolver.cli import builtin_case
from ritesolver.geometry import VoxelGrid, build_element
from ritesolver.kernels import KernelKind, RadiativeProperties, path_factors
from ritesolver.visibility import VisibilityReport

from conftest import make_cube_mesh, make_dented_cube_mesh


def unit_square(z=0.0):
    return build_element(
        [[0.0, 0.0, z], [1.0, 0.0, z], [1.0, 1.0, z], [0.0, 1.0, z]]
    )


def props_for(mesh_or_grid_diam, sigma_a=0.0, sigma_s=0.0):
    return RadiativeProperties(
        sigma_a=sigma_a, sigma_s=sigma_s, domain_diameter=mesh_or_grid_diam
    )


# ---------------------------------------------------------------------------
# Quadrature rules and shape functions


def test_rule_weights_sum_to_area():
    e = unit_square()
    for order in (2, 4, 8):
        rule = element_rule(e, order)
        assert rule.weights.sum() == pytest.approx(e.area, rel=1e-12)


def test_partition_of_unity_gives_area():
    # Summing the flux shapes restores the constant function, so the
    # shape-weighted integrals of a unit kernel recombine to the area.
    e = unit_square()
    rule = element_rule(e, 4)
    assert np.allclose(rule.flux_shapes.sum(axis=1), 1.0, atol=1e-13)
    total = sum(
        (rule.weights * rule.flux_shapes[:, a]).sum() for a in range(rule.flux_shapes.shape[1])
    )
    assert total == pytest.approx(e.area, rel=1e-12)


@given(
    u=st.floats(0.0, 1.0, allow_nan=False),
    v=st.floats(0.0, 1.0, allow_nan=False),
)
def test_quad_flux_shapes_partition(u, v):
    vals = quad_flux_shapes(np.array([[u, v]]))[0]
    assert vals.sum() == pytest.approx(1.0, abs=1e-12)


@given(
    a=st.floats(0.0, 1.0, allow_nan=False),
    b=st.floats(0.0, 1.0, allow_nan=False),
)
def test_tri_flux_shapes_partition(a, b):
    if a + b > 1.0:
        a, b = 1.0 - a, 1.0 - b
    bary = np.array([[1.0 - a - b, a, b]])
    vals = tri_flux_shapes(bary)[0]
    assert vals.sum() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# element_integral against independent references


def _reference_direct_integral(p, n_p, verts, beta, depth=4, order=16):
    """Raw-formula integration of the attenuated double-cosine kernel.

    Uniformly subdivides the quad `depth` times and applies tensor Gauss
    quadrature of the given order on each child, entirely outside the
    production quadrature code path.
    """
    x, w = np.polynomial.legendre.leggauss(order)
    u = 0.5 * (x + 1.0)
    uu, vv = np.meshgrid(u, u, indexing="ij")
    ww = np.outer(w, w) * 0.25
    n = 1 << depth
    total = 0.0
    v00, v10, v11, v01 = (np.asarray(c, dtype=float) for c in verts)
    normal = np.cross(v10 - v00, v01 - v00)
    normal /= np.linalg.norm(normal)
    for i in range(n):
        for j in range(n):
            gu = (i + uu) / n
            gv = (j + vv) / n
            pts = (
                (1 - gu)[:, :, None] * (1 - gv)[:, :, None] * v00
                + gu[:, :, None] * (1 - gv)[:, :, None] * v10
                + gu[:, :, None] * gv[:, :, None] * v11
                + (1 - gu)[:, :, None] * gv[:, :, None] * v01
            )
            xu = (
                -(1 - gv)[:, :, None] * v00
                + (1 - gv)[:, :, None] * v10
                + gv[:, :, None] * v11
                - gv[:, :, None] * v01
            )
            xv = (
                -(1 - gu)[:, :, None] * v00
                - gu[:, :, None] * v10
                + gu[:, :, None] * v11
                + (1 - gu)[:, :, None] * v01
            )
            jac = np.linalg.norm(np.cross(xu, xv), axis=2)
            diff = pts - p
            dist = np.linalg.norm(diff, axis=2)
            cos_p = np.einsum("ijk,k->ij", diff, n_p) / dist
            cos_r = -np.einsum("ijk,k->ij", diff, normal) / dist
            kern = np.exp(-beta * dist) / np.pi * cos_p * cos_r / dist**2
            # Each child covers a 1/n by 1/n square of the parameter domain.
            total += (kern * jac * ww).sum() / n**2
    return total


def test_near_singular_matches_high_order_reference():
    verts = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 0.0]]
    e = build_element(verts)
    # Normalized distance 0.1: just off the element at a tenth of its diameter.
    p = np.array([0.37, 0.62, 0.1 * e.diameter])
    n_p = np.array([0.0, 0.0, -1.0])
    props = props_for(np.sqrt(3.0), sigma_a=0.4, sigma_s=0.3)
    got = element_integral(p, n_p, e, KernelKind.WALL_TO_WALL, props)
    want = _reference_direct_integral(p, n_p, verts, props.beta)
    assert got == pytest.approx(want, rel=1e-4)


def test_far_field_matches_reference_loosely():
    verts = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 0.0]]
    e = build_element(verts)
    p = np.array([0.5, 0.5, 6.0])
    n_p = np.array([0.0, 0.0, -1.0])
    props = props_for(10.0)
    got = element_integral(p, n_p, e, KernelKind.WALL_TO_WALL, props)
    want = _reference_direct_integral(p, n_p, verts, 0.0, depth=2, order=12)
    # The far band runs the cheap base rule, so only loose agreement is owed.
    assert got == pytest.approx(want, rel=1e-4)


def test_self_plane_integral_is_zero():
    e = unit_square()
    other = build_element(
        [[2.0, 0.0, 0.0], [3.0, 0.0, 0.0], [3.0, 1.0, 0.0], [2.0, 1.0, 0.0]]
    )
    p = np.array([0.5, 0.5, 0.0])
    n_p = np.array([0.0, 0.0, 1.0])
    props = props_for(3.0)
    assert element_integral(p, n_p, other, KernelKind.WALL_TO_WALL, props) == 0.0


def test_shape_contributions_sum_to_plain_integral():
    e = unit_square()
    p = np.array([0.3, 0.4, 0.7])
    n_p = np.array([0.0, 0.0, -1.0])
    props = props_for(2.0, sigma_a=0.2)
    whole = element_integral(p, n_p, e, KernelKind.WALL_TO_WALL, props)
    parts = sum(
        element_integral(p, n_p, e, KernelKind.WALL_TO_WALL, props, shape=a)
        for a in range(4)
    )
    assert parts == pytest.approx(whole, rel=1e-12)


def test_discrete_reciprocity_cube_faces():
    # A_i F(i -> j) vs A_j F(j -> i) with the same double-quadrature rule on
    # both sides; piecewise-constant transport must be near-symmetric.
    mesh = make_cube_mesh()
    props = props_for(np.sqrt(3.0))
    exchanged = {}
    for i in range(6):
        ei = mesh.elements[i]
        rule = element_rule(ei, 4)
        for j in range(6):
            if i == j:
                continue
            total = sum(
                w * element_integral(pt, ei.normal, mesh.elements[j],
                                     KernelKind.WALL_TO_WALL, props)
                for pt, w in zip(rule.points, rule.weights)
            )
            exchanged[i, j] = total
    for (i, j), forward in exchanged.items():
        backward = exchanged[j, i]
        assert abs(forward - backward) / max(forward, backward) <= 1e-2


# ---------------------------------------------------------------------------
# Chord factors


def test_chord_factors_match_path_factors():
    mesh, grid = builtin_case("cube", 3)
    asm = Assembler(mesh, grid)
    rng = np.random.default_rng(5)
    p = np.array([0.11, 0.42, 0.0])
    targets = rng.random((40, 3))
    for beta in (0.0, 0.8, 2.5):
        flat, w = asm._chord_factors(p, targets, beta)
        for row in range(targets.shape[0]):
            cells, weights = path_factors(p, targets[row], grid, beta)
            dense = np.zeros(int(np.prod(grid.dims)))
            np.add.at(dense, cells, weights)
            batched = np.zeros_like(dense)
            np.add.at(batched, flat[row], w[row])
            assert np.allclose(batched, dense, atol=1e-12)


# ---------------------------------------------------------------------------
# Assembled blocks


@pytest.fixture(scope="module")
def gray_cube_systems():
    mesh, grid = builtin_case("cube", 3)
    mesh = mesh.with_emissivities(0.5)
    props = RadiativeProperties(sigma_a=1.0, sigma_s=1.0, domain_diameter=mesh.diameter())
    asm = Assembler(mesh, grid)
    return mesh, grid, props, asm.assemble_surface(props), asm.assemble_volume(props)


def test_entries_nonnegative_and_finite(gray_cube_systems):
    mesh, _, _, surface, volume = gray_cube_systems
    for block in (surface.gmat, surface.fmat, volume.umat, volume.vmat):
        assert np.all(np.isfinite(block))
    # Scatter blocks integrate a nonnegative kernel against cell indicators,
    # so every entry is individually nonnegative.
    assert surface.fmat.min() >= 0.0
    assert volume.umat.min() >= 0.0
    # Reflection blocks interpolate the flux between collocation nodes with
    # bilinear shapes that dip slightly below zero near element corners.  The
    # shapes sum to one, so the four columns of each element aggregate to the
    # plain kernel integral, which must be nonnegative.
    n_el = len(mesh.elements)
    for block in (surface.gmat, volume.vmat):
        agg = block.reshape(block.shape[0], n_el, 4).sum(axis=2)
        assert agg.min() >= -1e-13


def test_row_sum_bounds_hold(gray_cube_systems):
    _, _, props, surface, volume = gray_cube_systems
    report = operator_row_sums(surface, volume, props, eps_min=0.5)
    assert report.ok, report.violations
    for name in report.row_sums:
        assert report.row_sums[name] <= report.bounds[name] * 1.02 + 1e-14


def test_black_walls_zero_reflection_blocks():
    mesh, grid = builtin_case("cube", 2)
    props = RadiativeProperties(sigma_a=0.5, sigma_s=0.5, domain_diameter=mesh.diameter())
    asm = Assembler(mesh, grid)
    surface = asm.assemble_surface(props)
    volume = asm.assemble_volume(props)
    assert np.all(surface.gmat == 0.0)
    assert np.all(volume.vmat == 0.0)


def test_no_scattering_zero_scatter_blocks():
    mesh, grid = builtin_case("cube", 2)
    mesh = mesh.with_emissivities(0.5)
    props = RadiativeProperties(sigma_a=1.0, sigma_s=0.0, domain_diameter=mesh.diameter())
    asm = Assembler(mesh, grid)
    surface = asm.assemble_surface(props)
    volume = asm.assemble_volume(props)
    assert np.all(surface.fmat == 0.0)
    assert np.all(volume.umat == 0.0)


def test_gmat_row_matches_per_element_route():
    # Convex case: every pair classifies as fully visible, so a row must
    # equal the sum of standalone shape-weighted element integrals.
    mesh, grid = builtin_case("cube", 2)
    mesh = mesh.with_emissivities(0.5)
    props = RadiativeProperties(sigma_a=0.3, sigma_s=0.0, domain_diameter=mesh.diameter())
    asm = Assembler(mesh, grid)
    surface = asm.assemble_surface(props)
    col = asm.collocation
    i = 5
    p = col.boundary_points[i]
    n_p = col.boundary_normals[i]
    own = int(col.boundary_element[i])
    eps = 0.5
    expected = np.zeros(col.n_boundary)
    for k, e in enumerate(mesh.elements):
        if k == own or float(n_p @ (e.centroid - p)) <= 0.0:
            continue
        for a in range(4):
            val = element_integral(p, n_p, e, KernelKind.WALL_TO_WALL, props, shape=a)
            expected[col.element_first_dof[k] + a] += eps * (1.0 - eps) / eps * val
    assert np.allclose(surface.gmat[i], expected, atol=1e-12)


def test_collocation_counts_cube():
    mesh, grid = builtin_case("cube", 2)
    col = collocation_points(mesh, grid)
    assert isinstance(col, CollocationSet)
    assert col.n_boundary == 24 * 4
    assert col.n_interior == 8
    sums = np.zeros(mesh.n_elements)
    np.add.at(sums, col.boundary_element, col.boundary_weights)
    areas = np.array([e.area for e in mesh.elements])
    assert np.allclose(sums, areas, rtol=1e-12)


def test_boundary_points_interior_to_elements():
    mesh, grid = builtin_case("cube", 2)
    col = collocation_points(mesh, grid)
    arr = mesh.arrays()
    for i in range(col.n_boundary):
        e = mesh.elements[int(col.boundary_element[i])]
        assert np.abs(e.normal @ (col.boundary_points[i] - e.centroid)) < 1e-12
        for v in range(e.vertices.shape[0]):
            assert np.linalg.norm(col.boundary_points[i] - e.vertices[v]) > 1e-3
    assert arr.areas.min() > 0.0


def test_fresh_assemblers_give_bit_identical_blocks():
    # A non-convex mesh with partly visible pairs runs every stage: screen,
    # quadtree, piecewise rules, chords. Two fresh assemblers must agree.
    mesh = make_dented_cube_mesh(emissivity=0.7)
    grid = VoxelGrid([0.0, 0.0, 0.0], 0.5, [2, 2, 2], np.full(8, 1000.0))
    props = RadiativeProperties(sigma_a=0.4, sigma_s=0.6, domain_diameter=mesh.diameter())
    one, two = Assembler(mesh, grid), Assembler(mesh, grid)
    s1, s2 = one.assemble_surface(props), two.assemble_surface(props)
    v1, v2 = one.assemble_volume(props), two.assemble_volume(props)
    assert any(isinstance(v, VisibilityReport) for v in one._visibility_cache.values())
    assert np.array_equal(s1.gmat, s2.gmat)
    assert np.array_equal(s1.fmat, s2.fmat)
    assert np.array_equal(s1.h, s2.h)
    assert np.array_equal(v1.umat, v2.umat)
    assert np.array_equal(v1.vmat, v2.vmat)
    assert np.array_equal(v1.t, v2.t)


def test_assembler_cache_reused_across_properties():
    mesh, grid = builtin_case("cube", 2)
    asm = Assembler(mesh, grid)
    asm.assemble_surface(props_for(mesh.diameter(), sigma_a=0.1))
    cached = len(asm._screen_cache)
    asm.assemble_surface(props_for(mesh.diameter(), sigma_a=1.0))
    assert len(asm._screen_cache) == cached


def test_matrix_dump_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    m = rng.random((7, 13))
    path = tmp_path / "block.bin"
    write_matrix(path, m)
    back = read_matrix(path)
    assert np.array_equal(back, m)
    vec = rng.random(9)
    write_matrix(path, vec)
    assert np.array_equal(read_matrix(path), vec[None, :])
