"""Assembly checks: quadrature rules, operator blocks, and their bounds.

The reference values here come from independent integration routes:
raw-formula high-order quadrature for near-singular integrals, per-chord
path factors for the scattering couplings, and the analytic row-sum
bounds for the four operator blocks.
"""

import ctypes
import os
import platform
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ritesolver import assembly
from ritesolver.assembly import (
    Assembler,
    CollocationSet,
    SolvabilityViolation,
    collocation_points,
    element_rule,
    intrinsic_projection,
    operator_row_sums,
    quad_flux_shapes,
    quad_vertex_shapes,
    tri_flux_shapes,
)
from ritesolver.cli import builtin_case
from ritesolver.geometry import (
    PLANARITY_RTOL,
    SurfaceMesh,
    VoxelGrid,
    build_element,
    load_mesh,
    quad_cells,
    segment_element_hits,
    tri_cells,
    write_mesh_file,
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
from ritesolver.validation import (
    _element_mean_temperatures,
    _polygon_closure,
    lemma1_identity,
    lemma3_interior_identity,
)
from ritesolver.visibility import (
    UNOBSTRUCTED,
    Classification,
    build_active_list,
    classify_visibility,
    screen_active_set,
)

from conftest import DENTED_FACES, element_table, make_cube_mesh, make_dented_cube_mesh
from oracles import (
    bilinear_jacobian,
    bilinear_points,
    padded_chord_factors,
    path_factors,
    quad_rule,
)


BOTTOM = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 0.0]]
TOP = [[0.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 0.0, 1.0]]


def unit_square(z=0.0):
    return build_element(
        [[0.0, 0.0, z], [1.0, 0.0, z], [1.0, 1.0, z], [0.0, 1.0, z]]
    )


def with_emissivity(mesh, emissivity):
    """The same geometry and temperatures with uniform wall emissivity."""
    return SurfaceMesh(mesh.nodes, mesh.element_nodes, emissivity, mesh.node_temperatures)


def props_for(mesh_or_grid_diam, sigma_a=0.0, sigma_s=0.0):
    return RadiativeProperties(
        sigma_a=sigma_a, sigma_s=sigma_s, domain_diameter=mesh_or_grid_diam
    )


# ---------------------------------------------------------------------------
# Quadrature rules and shape functions


def test_rule_weights_sum_to_area():
    tri = build_element([[0.0, 0.0, 0.0], [2.0, 0.0, 0.5], [0.5, 1.5, 1.0]])
    for e in (unit_square(), tri):
        for order in (2, 4, 8):
            rule = element_rule(*element_table(e), order)
            assert rule.weights.sum() == pytest.approx(e.area, rel=1e-12)
    # Order 2 on a triangle is the 3-point rule far triangles take; it is
    # exact for quadratics, so it agrees with the order-8 rule.
    def quadratic(points):
        x, y, z = points.T
        return 1.0 + 2.0 * y + x * x + 3.0 * x * y - z * z

    far, fine = element_rule(*element_table(tri), 2), element_rule(*element_table(tri), 8)
    assert len(far.weights) == 3
    assert abs(far.weights @ quadratic(far.points)
               - fine.weights @ quadratic(fine.points)) <= 1e-12


def test_partition_of_unity_gives_area():
    # Summing the flux shapes restores the constant function, so the
    # shape-weighted integrals of a unit kernel recombine to the area.
    e = unit_square()
    rule = element_rule(*element_table(e), 4)
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
    vals = quad_flux_shapes(u, v)
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


def _split_cells(arrays, k, p, wall=False):
    """Element k's reference cells split toward the in-plane projection of
    the point p, as a row plan keeps them; wall is true for a wall
    receiver's."""
    toward = intrinsic_projection(arrays, [k], p[None, :])[0]
    return quad_cells(toward, wall) if arrays.n_vertices[k] == 4 else tri_cells(toward)


def element_integral(p, n_p, element, kind, props, shape=None, report=None):
    """Banded quadrature of F_shape x kernel over one element for point p.

    It makes the rule and kernel calls a row makes, for one element alone,
    so it shares their arithmetic and checks how a row combines them, not
    the calls themselves. shape None integrates the kernel alone; an integer
    selects one flux shape function. A partly visible report limits the
    integral to its visible triangles.
    """
    arrays, ids = element_table(element)
    if report is not None:
        rule, = assembly.visible_rule(p, arrays, ids, [report.visible])
    else:
        d = float(assembly.point_element_distances(p, arrays.vertices, arrays.normals)[0])
        order, split = assembly._band(d / element.diameter)
        rule = element_rule(arrays, ids, order, [_split_cells(arrays, 0, p)] if split else None)
    diff = rule.points.T - p[:, None]
    dist = np.linalg.norm(diff, axis=0)
    cos_p, cos_r = sight_cosines(diff, dist, np.broadcast_to(element.normal[:, None], diff.shape),
                                 n_p)
    vals = kernel_prefactor(kind, props, dist) * projected_solid_angle(
        cos_p, cos_r, dist, rule.weights)
    return float(vals.sum() if shape is None else vals @ rule.flux_shapes[:, shape])


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
    got = element_integral(p, n_p, e, KernelKind.DIRECT, props)
    want = _reference_direct_integral(p, n_p, verts, props.beta)
    assert got == pytest.approx(want, rel=1e-4)


def test_far_field_matches_reference_loosely():
    verts = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 0.0]]
    e = build_element(verts)
    p = np.array([0.5, 0.5, 6.0])
    n_p = np.array([0.0, 0.0, -1.0])
    props = props_for(10.0)
    got = element_integral(p, n_p, e, KernelKind.DIRECT, props)
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
    assert element_integral(p, n_p, other, KernelKind.DIRECT, props) == 0.0


def test_shape_contributions_sum_to_plain_integral():
    e = unit_square()
    p = np.array([0.3, 0.4, 0.7])
    n_p = np.array([0.0, 0.0, -1.0])
    props = props_for(2.0, sigma_a=0.2)
    whole = element_integral(p, n_p, e, KernelKind.DIRECT, props)
    parts = sum(
        element_integral(p, n_p, e, KernelKind.DIRECT, props, shape=a)
        for a in range(4)
    )
    assert parts == pytest.approx(whole, rel=1e-12)


def test_partial_integral_matches_masked_quadrature():
    # A plate at mid-height shades x in [0.3, 0.7], y in [0.3, 0.8] of the
    # top square. Those edges are cell lines of a 40 x 40 composite Gauss
    # rule, so masking each point by its own sight line integrates the
    # visible part without a cut cell.
    plate = [[0.3, 0.35, 0.5], [0.5, 0.35, 0.5], [0.5, 0.6, 0.5], [0.3, 0.6, 0.5]]
    faces = [(0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 11)]
    scene = SurfaceMesh(np.array(BOTTOM + TOP + plate), faces, check_closed=False)
    top = scene.elements[1]
    p = np.array([0.3, 0.4, 0.0])
    n_p = np.array([0.0, 0.0, 1.0])
    report = classify_visibility(p, 1, screen_active_set(p, [1], scene, 0)[0], scene)
    assert report.fraction == pytest.approx(0.8, abs=1e-12)

    cells = 40
    x, w = np.polynomial.legendre.leggauss(4)
    centers = np.linspace(-1.0, 1.0, cells + 1)[:-1] + 1.0 / cells
    c = (centers[:, None] + x[None, :] / cells).ravel()
    cw = np.tile(w / cells, cells)
    uv = np.stack(np.meshgrid(c, c, indexing="ij"), axis=-1).reshape(-1, 2)
    weights = np.outer(cw, cw).ravel() * bilinear_jacobian(top.vertices, *uv.T)
    pts = bilinear_points(top.vertices, *uv.T).T
    hidden = segment_element_hits(np.broadcast_to(p, pts.shape), pts, scene.arrays()).any(axis=1)
    diff = pts - p
    dist = np.linalg.norm(diff, axis=1)
    props = props_for(2.0, sigma_a=0.5)
    kern = (np.exp(-props.beta * dist) / np.pi * (diff @ n_p) * -(diff @ top.normal) / dist**4
            * weights * ~hidden)
    shapes = quad_flux_shapes(*uv.T).T
    for a in (None, 0, 1, 2, 3):
        want = kern.sum() if a is None else kern @ shapes[:, a]
        got = element_integral(p, n_p, top, KernelKind.DIRECT, props, shape=a, report=report)
        assert got == pytest.approx(want, rel=1e-5), a


_TRAPEZOID = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [1.5, 1.0, 0.0], [0.3, 1.0, 0.0]])


def test_intrinsic_projection_inverts_trapezoid_map():
    # A tilted trapezoid: the bilinear map is not affine, so eta solves a
    # true quadratic; points off the plane project along the normal.
    rot, _ = np.linalg.qr(np.array([[1.0, 0.2, 0.3], [0.1, 1.0, 0.4], [0.2, 0.5, 1.0]]))
    e = build_element(_TRAPEZOID @ rot.T + [0.5, -1.0, 2.0])
    uv = np.random.default_rng(7).uniform(-0.98, 0.98, (200, 2))
    x = bilinear_points(e.vertices, *uv.T).T
    back = intrinsic_projection(*element_table(e), x + 0.3 * e.normal)
    assert np.abs(bilinear_points(e.vertices, *back.T).T - x).max() < 1e-12
    assert np.abs(back - uv).max() < 1e-12


def test_intrinsic_projection_does_not_clamp():
    # The foot of this point lies at xi = 4 of a parallelogram, off the
    # element; its coordinates come back as they are.
    e = build_element(np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [2.5, 1.0, 0.0],
                                [0.5, 1.0, 0.0]]))
    foot = bilinear_points(e.vertices, np.array([4.0]), np.array([0.3])).T
    back = intrinsic_projection(*element_table(e), foot + 0.2 * e.normal)
    assert np.abs(back - [[4.0, 0.3]]).max() < 1e-12


def test_intrinsic_projection_at_the_apex():
    # The legs of the trapezoid meet at (0.75, 2.5), eta = 4, where every
    # xi maps to the same point; xi is defined as 0 there.
    e = build_element(_TRAPEZOID)
    apex = intrinsic_projection(*element_table(e), np.array([[0.75, 2.5, 0.4]]))
    assert apex.tolist() == [[0.0, 4.0]]
    # eta = 4 solves the quadratic of every point, since that whole line
    # maps to the apex; a point below the element still gets its preimage.
    back = intrinsic_projection(*element_table(e), np.array([[0.75, -3.0, 0.0]]))
    assert np.abs(back - [[-0.25, -7.0]]).max() < 1e-12


def _bilinear_coefficients(e):
    # x(xi, eta) = a + b xi + c eta + d xi eta, read off the map itself.
    def x(xi, eta):
        return bilinear_points(e.vertices, np.array(xi), np.array(eta))

    return (x(0.0, 0.0), 0.5 * (x(1.0, 0.0) - x(-1.0, 0.0)), 0.5 * (x(0.0, 1.0) - x(0.0, -1.0)),
            0.25 * (x(1.0, 1.0) - x(1.0, -1.0) - x(-1.0, 1.0) + x(-1.0, -1.0)))


def test_intrinsic_projection_beyond_the_fold():
    # Left of this kite-like quad the map folds over: (-1, 0.5) has no
    # preimage. eta is the fold's double root -B / 2A, and xi the point's
    # projection onto that eta line.
    e = build_element(np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [1.0, 1.0, 0.0],
                                [0.0, 0.5, 0.0]]))
    a, b, c, d = _bilinear_coefficients(e)

    def cr(u, w):
        return np.cross(u, w) @ e.normal

    r = np.array([-1.0, 0.5, 0.0]) - a
    qa, qb, qc = cr(c, d), cr(c, b) - cr(r, d), -cr(r, b)
    assert qb * qb - 4.0 * qa * qc < 0.0
    eta = -qb / (2.0 * qa)
    g = b + d * eta
    xi = (r - c * eta) @ g / (g @ g)
    back = intrinsic_projection(*element_table(e), np.array([[-1.0, 0.5, 0.3]]))
    assert np.all(np.isfinite(back))
    assert np.abs(back - [[xi, eta]]).max() < 1e-12
    assert back[0, 1] == pytest.approx(1.0, abs=1e-14)


def _rotation(angles):
    a, b, c = angles
    rz = np.array([[np.cos(a), -np.sin(a), 0.0], [np.sin(a), np.cos(a), 0.0], [0.0, 0.0, 1.0]])
    ry = np.array([[np.cos(b), 0.0, np.sin(b)], [0.0, 1.0, 0.0], [-np.sin(b), 0.0, np.cos(b)]])
    rc = np.array([[np.cos(c), -np.sin(c), 0.0], [np.sin(c), np.cos(c), 0.0], [0.0, 0.0, 1.0]])
    return rz @ ry @ rc


@st.composite
def _convex_quads(draw):
    """A planar convex quad (perturbed square or trapezoid), stretched,
    turned and moved in space."""
    unit = st.floats(-1.0, 1.0)
    if draw(st.booleans()):
        flat = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
        flat += 0.45 * np.array(draw(st.lists(unit, min_size=8, max_size=8))).reshape(4, 2)
    else:
        s, t = draw(st.floats(0.1, 1.0)), draw(st.floats(-0.5, 0.5))
        flat = np.array([[-1.0, -1.0], [1.0, -1.0], [t + s, 1.0], [t - s, 1.0]])
    flat[:, 1] *= draw(st.floats(0.25, 4.0))
    turn = _rotation(np.pi * np.array(draw(st.lists(unit, min_size=3, max_size=3))))
    shift = 5.0 * np.array(draw(st.lists(unit, min_size=3, max_size=3)))
    return build_element(np.column_stack([flat, np.zeros(4)]) @ turn.T + shift)


@given(e=_convex_quads(),
       uv=st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), min_size=1, max_size=8),
       height=st.floats(-2.0, 2.0),
       near=st.lists(st.tuples(*[st.floats(-2.0, 2.0)] * 3), min_size=1, max_size=8))
def test_intrinsic_projection_round_trips_on_convex_quads(e, uv, height, near):
    # Points over the element come back to their intrinsic coordinates;
    # any point within two diameters gives a finite result.
    uv = np.array(uv)
    x = bilinear_points(e.vertices, *uv.T).T
    back = intrinsic_projection(*element_table(e), x + height * e.diameter * e.normal)
    assert np.abs(back - uv).max() < 1e-12
    near = e.centroid + e.diameter * np.array(near)
    assert np.all(np.isfinite(intrinsic_projection(*element_table(e), near)))


@given(k=st.integers(1, 6), t=st.integers(-4, 4), xs=st.lists(st.integers(-24, 24), min_size=1,
                                                               max_size=6),
       z=st.integers(-8, 8))
def test_intrinsic_projection_apex_and_b_zero_placements(k, t, xs, z):
    # A trapezoid with parallel sides along x whose legs meet at the apex
    # eta = m = 2^(k+1) - 1, y = m. With dyadic data every step is exact:
    # the apex comes back as exactly (0, m), and points on the line
    # y = -m, where the quadratic's linear coefficient B is exactly zero,
    # come back as their preimage eta = -m.
    s, t, m = 1.0 - 2.0**-k, t / 8.0, 2.0 ** (k + 1) - 1.0
    e = build_element(np.array([[-1.0, -1.0, 0.0], [1.0, -1.0, 0.0], [t + s, 1.0, 0.0],
                                [t - s, 1.0, 0.0]]))
    apex = np.array([[0.5 * t * (1.0 + m), m, z / 8.0]])
    assert intrinsic_projection(*element_table(e), apex).tolist() == [[0.0, m]]
    line = np.column_stack([np.array(xs) / 8.0, np.full(len(xs), -m), np.full(len(xs), z / 8.0)])
    back = intrinsic_projection(*element_table(e), line)
    assert np.all(np.isfinite(back))
    assert np.abs(back[:, 1] + m).max() < 1e-12
    foot = bilinear_points(e.vertices, *back.T).T
    assert np.abs(foot[:, :2] - line[:, :2]).max() < 1e-12 * m


def test_stacked_projections_match_single_calls():
    # A row projects one point onto many elements in one call; each result
    # must equal the element's own single-point call bit for bit, including
    # a point whose foot lies far off its element.
    flat = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [1.5, 1.0, 0.0], [0.3, 1.0, 0.0]])
    rot, _ = np.linalg.qr(np.array([[1.0, 0.2, 0.3], [0.1, 1.0, 0.4], [0.2, 0.5, 1.0]]))
    quads = [build_element(flat), build_element(flat @ rot.T + [0.5, -1.0, 2.0]),
             build_element(np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [2.5, 1.0, 0.0],
                                     [0.5, 1.0, 0.0]]))]
    tris = [build_element(flat[:3]), build_element(flat[[0, 2, 3]] @ rot.T)]
    for elements in (quads, tris):
        table = element_table(*elements)
        for p in (np.array([0.9, 0.4, 0.7]), np.array([9.0, 0.3, 0.2])):
            stacked = intrinsic_projection(*table, np.tile(p, (len(elements), 1)))
            for e, got in zip(elements, stacked):
                assert np.array_equal(got, intrinsic_projection(*element_table(e), p[None, :])[0])
        # With counts, element i takes the next counts[i] points, as the
        # visible points of a row's partly visible elements do.
        counts = [3, 1, 2][:len(elements)]
        points = np.random.default_rng(5).uniform(-1.0, 3.0, (sum(counts), 3))
        stacked = intrinsic_projection(*table, points, counts)
        ends = np.cumsum(counts)
        for e, end, count in zip(elements, ends, counts):
            own = points[end - count:end]
            assert np.array_equal(stacked[end - count:end],
                                  intrinsic_projection(*element_table(e), own))


def _cube_row_near_quads():
    # Every near-band quad of the first wall row of cube r2, with the split
    # cells its row plan recorded.
    mesh, grid = builtin_case("cube", 2)
    asm = Assembler(mesh, grid)
    asm._plan_rows("b")
    plan = asm.row_plans[("b", 0)]
    near = [j for j, cells in enumerate(plan.cells) if cells is not None]
    elements = [mesh.elements[k] for k in plan.elements[near]]
    assert len(near) > 1 and all(e.is_quad for e in elements)
    return elements, [plan.cells[j] for j in near]


# How far the factored quad map may round from the unfactored oracle: in
# units of the largest vertex coordinate for points, relative for weights.
POINT_ATOL = 1e-15
WEIGHT_RTOL = 2e-15


def _trapezoids():
    flat = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [1.5, 1.0, 0.0], [0.3, 1.0, 0.0]])
    return [build_element(flat), build_element(flat[:, [0, 2, 1]] + [0.0, 0.5, 0.2])]


@pytest.mark.parametrize("case", ["cube_row", "trapezoid", "toward_outside"])
def test_stacked_quad_rules_match_element_rules(case):
    # Near-band quads of a row are mapped in one stacked call over all
    # their boxes, each box with its quad's map; each quad's part must
    # equal the element's own rule bit for bit, for the cube row's quads
    # of four, two and one boxes and for a split point off the element,
    # which the margin clamps. The rule runs the factored map along each
    # box's distinct xi and eta values; the oracle maps every point of the
    # tensor grid through the corner products and takes the Jacobian as the
    # norm of the tangents' cross product. The two round differently:
    # points agree to POINT_ATOL times the largest vertex coordinate and
    # weights to WEIGHT_RTOL, while the shape bases keep their formulas and
    # bits.
    if case == "cube_row":
        elements, cells = _cube_row_near_quads()
    elif case == "trapezoid":
        elements, cells = _trapezoids(), quad_cells(np.array([[0.3, -0.6], [-0.9, 0.95]]))
    else:
        elements, cells = _trapezoids(), quad_cells(np.array([[1.7, -2.4], [-3.0, 0.2]]))
    order = 6 * 2
    boxes = [len(c) for c in cells]
    assert set(boxes) == ({1, 2, 4} if case == "cube_row" else {4})
    maps = np.repeat(element_table(*elements)[0].quad_maps, boxes, axis=0)
    stacked = assembly._quad_cell_rule(maps, np.concatenate(cells), order)
    uv, w = quad_rule(order)
    ends = np.cumsum(boxes) * len(w)
    assert ends[-1] == len(stacked.weights)
    for i, e in enumerate(elements):
        rule = element_rule(*element_table(e), order, [cells[i]])
        cut = slice(ends[i] - boxes[i] * len(w), ends[i])
        assert np.array_equal(stacked.points[cut], rule.points)
        assert np.array_equal(stacked.weights[cut], rule.weights)
        assert np.array_equal(stacked.flux_shapes[cut], rule.flux_shapes)
        assert np.array_equal(stacked.vertex_shapes[cut], rule.vertex_shapes)
        xi0, xi1, eta0, eta1 = cells[i].T[..., None]
        root = np.stack([xi0 + 0.5 * (uv[:, 0] + 1.0) * (xi1 - xi0),
                         eta0 + 0.5 * (uv[:, 1] + 1.0) * (eta1 - eta0)], axis=-1).reshape(-1, 2)
        scale = np.repeat(0.25 * (xi1 - xi0) * (eta1 - eta0), len(w))
        weights = np.tile(w, len(cells[i])) * bilinear_jacobian(e.vertices, *root.T) * scale
        size = np.abs(e.vertices).max()
        assert np.abs(rule.points - bilinear_points(e.vertices, *root.T).T).max() <= POINT_ATOL * size
        assert np.abs(rule.weights / weights - 1.0).max() <= WEIGHT_RTOL
        assert np.array_equal(rule.flux_shapes, quad_flux_shapes(*root.T).T)
        assert np.array_equal(rule.vertex_shapes, quad_vertex_shapes(*root.T).T)


def _factored_map_quads():
    # The two trapezoids, a skewed parallelogram, and a skewed quad bent
    # into a saddle as far as PLANARITY_RTOL lets build_element accept it.
    turn = _rotation([0.3, 1.1, -0.4])
    parallelogram = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [2.9, 1.2, 0.0],
                              [0.9, 1.2, 0.0]])
    flat = np.array([[0.0, 0.0], [1.7, 0.2], [1.4, 1.1], [0.1, 0.9]])
    bend = 0.99 * PLANARITY_RTOL * np.linalg.norm(flat[2] - flat[0])
    bent = build_element(np.column_stack([flat, bend * np.array([1.0, -1.0, 1.0, -1.0])])
                         @ turn.T + [0.5, -0.2, 1.0])
    assert np.abs((bent.vertices - bent.centroid) @ bent.normal).max() \
        > 0.9 * PLANARITY_RTOL * bent.diameter
    return _trapezoids() + [build_element(parallelogram @ turn.T + [0.2, -1.0, 0.5]), bent]


@pytest.mark.parametrize("index", range(4), ids=["trapezoid", "turned_trapezoid",
                                                   "parallelogram", "bent"])
def test_factored_jacobian_is_the_affine_cross_product_norm(index):
    # On a planar quad |x_xi x x_eta| is (j0 + j1 xi) + j2 eta, affine in
    # each coordinate: it matches the oracle's norm of the tangents' cross
    # product, is positive at all four corners of a convex quad, and makes
    # the unsplit order-2 rule exact for the area.
    e = _factored_map_quads()[index]
    arrays, ids = element_table(e)
    j0, j1, j2 = arrays.quad_maps[0, 4]
    xi, eta = np.meshgrid(np.linspace(-1.0, 1.0, 9), np.linspace(-1.0, 1.0, 9))
    factored = (j0 + j1 * xi) + j2 * eta
    assert np.abs(factored / bilinear_jacobian(e.vertices, xi, eta) - 1.0).max() <= 1e-14
    corners = (j0 + j1 * np.array([-1.0, 1.0, 1.0, -1.0])) + j2 * np.array([-1.0, -1.0, 1.0, 1.0])
    assert np.all(corners > 0.0)
    assert element_rule(arrays, ids, 2).weights.sum() == pytest.approx(e.area, rel=1e-14)


# Split points of the dented cube's six triangles: fanned ones, midpoint
# splits (a coordinate under the fan's minimum) and one off the triangle.
_TRI_TOWARDS = [np.array(t) for t in ([0.3, 0.3, 0.4], [0.05, 0.5, 0.45], [1.2, -0.1, -0.1],
                                      [1 / 3, 1 / 3, 1 / 3], [0.5, 0.45, 0.05], [0.1, 0.1, 0.8])]


@pytest.mark.parametrize("kind", ["quads", "triangles"])
@pytest.mark.parametrize("layout", ["unsplit", "split", "mixed"])
def test_stacked_element_rules_match_single_calls(kind, layout):
    # A row's near-band elements of one kind take one element_rule call,
    # a wall row's at two orders; the stacked rule must be the one-element
    # rules joined, bit for bit. The mixed stack interleaves the orders in
    # runs of one and two elements.
    if kind == "quads":
        elements, cells = _cube_row_near_quads()
        elements += _trapezoids()
        cells += list(quad_cells(np.array([[0.3, -0.6], [-0.9, 0.95]])))
    else:
        elements = [e for e in make_dented_cube_mesh().elements if not e.is_quad]
        cells = [tri_cells(t) for t in _TRI_TOWARDS]
    if layout == "mixed":
        orders = [assembly.NEAR_ORDER if i % 3 == 0 else assembly.GRADED_ORDER
                  for i in range(len(elements))]
    else:
        orders = [assembly.NEAR_ORDER if layout == "split" else 4] * len(elements)
    if layout == "unsplit":
        cells = [None] * len(elements)
    stacked = element_rule(*element_table(*elements), orders if layout == "mixed" else orders[0],
                           None if layout == "unsplit" else cells)
    singles = [element_rule(*element_table(e), o, None if c is None else [c])
               for e, o, c in zip(elements, orders, cells)]
    assert len(set(orders)) == (2 if layout == "mixed" else 1)
    for field in ("points", "weights", "flux_shapes", "vertex_shapes"):
        joined = np.concatenate([getattr(rule, field) for rule in singles])
        assert np.array_equal(getattr(stacked, field), joined), field


def test_batched_cell_areas_match_build_element():
    # _tri_cell_rule takes all cell areas in one batched dot; each must be
    # build_element's 0.5 * norm(cross) of that cell, bit for bit, whether
    # the cells share one triangle or carry one each.
    _, w = assembly.tri_rule(4)
    triangles = [e for e in make_dented_cube_mesh().elements if not e.is_quad]
    for e, toward in zip(triangles, _TRI_TOWARDS):
        cells = tri_cells(toward)
        expected = [w * build_element(corners).area for corners in cells @ e.vertices]
        for verts in (e.vertices, np.repeat(e.vertices[None], len(cells), axis=0)):
            _, weights, _ = assembly._tri_cell_rule(verts, cells, 4)
            assert np.array_equal(weights, np.concatenate(expected))


def test_row_visible_rules_match_single_elements():
    # A row's partly visible elements take one visible_rule call; each
    # element's rule must equal what its triangles give alone.
    mesh = make_dented_cube_mesh(emissivity=0.7)
    grid = VoxelGrid([0.0, 0.0, 0.0], 0.5, [2, 2, 2], np.full(8, 1000.0))
    asm = Assembler(mesh, grid)
    asm.assemble_surface(props_for(mesh.diameter()))
    col = asm.collocation
    rows = 0
    for (kind, r), plan in asm.row_plans.items():
        partial = [j for j, vis in enumerate(plan.visibility)
                   if vis.classification is Classification.PARTIALLY_VISIBLE]
        if len(partial) < 2:
            continue
        rows += 1
        p = col.boundary_points[r]
        tris = [plan.visibility[j].visible for j in partial]
        for j, k, visible in zip(partial, plan.elements[partial], tris):
            alone, = assembly.visible_rule(p, asm.arrays, [k], [visible])
            for field in ("points", "weights", "flux_shapes", "vertex_shapes"):
                assert np.array_equal(getattr(plan.rules[j], field), getattr(alone, field))
    assert rows > 0


# Per-pair relative error of the production rules against the closed form,
# by band: 1.5 times the largest measured over the rows of the test below.
# "graded" is a wall row's near-band pair beyond assembly.GRADED_BAND, at
# GRADED_ORDER rather than NEAR_ORDER.
_BAND_RTOL = {"near": 1.5 * 5.78e-8, "mid": 1.5 * 3.13e-6, "far": 1.5 * 2.43e-5,
              "partial": 1.5 * 8.52e-5, "graded": 1.5 * 5.12e-10}
# The builtin cube through a shear, so its faces meet at acute and obtuse
# dihedral angles the builtins lack, and its near-band bounds: 1.5 times the
# largest measured over its wall rows. Its worst near pair, at 0.104
# diameters with its foot inside the element at (-0.83, 0.54), is the limit
# of NEAR_ORDER, not of the split.
_SHEAR = np.array([[0.8, 0.4, -0.3], [0.2, 0.9, 0.3], [0.1, -0.4, 0.7]])
_SHEARED_RTOL = {"near": 1.5 * 8.93e-6, "graded": 1.5 * 2.48e-7}


def _sheared_cube_r2():
    """Black cube r2 through _SHEAR, on a 4 x 4 x 4 grid over its box."""
    mesh, _ = builtin_case("cube", 2)
    nodes = mesh.nodes @ _SHEAR.T
    lo, hi = nodes.min(axis=0), nodes.max(axis=0)
    return (SurfaceMesh(nodes, mesh.element_nodes, node_temperatures=mesh.node_temperatures),
            VoxelGrid(lo, (hi - lo) / 4.0, [4, 4, 4]))


def _gathered_pair_sums(asm, kind, r, p, normal):
    """Each pair's rule as row r gathers it, summed against the transparent
    kernel: the row's (element, integral) pairs."""
    pts, w, elements, counts, _, _ = asm._gather_row_rule(kind, r)
    diff = pts - p[:, None]
    dist = np.linalg.norm(diff, axis=0)
    cos_p, cos_r = sight_cosines(diff, dist, np.repeat(asm.arrays.normals.T[:, elements], counts,
                                                        axis=1), normal)
    sums = np.add.reduceat(projected_solid_angle(cos_p, cos_r, dist, w),
                           np.cumsum(counts) - counts)
    return zip(elements.tolist(), sums)


def test_pair_rules_match_polygon_closures():
    # Each pair's rule, as its row gathers it (near-band rules rebuilt,
    # others cached or clipped to the visible triangles), summed against the
    # transparent kernel, against validation._polygon_closure over the
    # element or its visible triangles: every row of cube r2 and lshape r1,
    # the y = 3 end-wall rows of lshape r2, whose far end wall is the far
    # band, and the wall rows of the sheared cube r2, whose near and graded
    # pairs have bounds of their own (its grid's cell centres are not
    # placed off its slanted walls as the builtins' are, so its interior
    # rows are left out). Wall rows cut a near-band quad in four, two or
    # one boxes, as the foot of the point falls; all three occur.
    worst = dict.fromkeys(_BAND_RTOL, 0.0)
    sheared = dict.fromkeys(_SHEARED_RTOL, 0.0)
    graded_pairs = 0
    wall_boxes = set()
    cases = [(builtin_case("cube", 2), worst, False), (builtin_case("lshape", 1), worst, False),
             (builtin_case("lshape", 2), worst, True), (_sheared_cube_r2(), sheared, False)]
    for (mesh, grid), worst_of, far_end in cases:
        asm = Assembler(mesh, grid)
        col, arr = asm.collocation, asm.arrays
        asm._plan_rows("b")
        rows = [("b", r, col.boundary_points[r], col.boundary_normals[r])
                for r in range(col.n_boundary)]
        if worst_of is worst:
            asm._plan_rows("i")
            rows += [("i", r, p, None) for r, p in enumerate(col.interior_points)]
        for row_kind, r, p, normal in rows:
            if far_end and p[1] < 2.9:
                continue
            plan = asm.row_plans[(row_kind, r)]
            for k, got in _gathered_pair_sums(asm, row_kind, r, p, normal):
                j = int(np.flatnonzero(plan.elements == k)[0])
                vis = plan.visibility[j]
                if vis.classification is Classification.PARTIALLY_VISIBLE:
                    band, polygons = "partial", vis.visible
                else:
                    d = assembly.point_element_distances(p, arr.vertices[[k]], arr.normals[[k]])
                    order, split = assembly._band(float(d[0] / arr.diameters[k]))
                    assert split == (plan.cells[j] is not None)
                    if split:
                        graded = plan.orders[j] < assembly.NEAR_ORDER
                        graded_pairs += graded
                        band = "graded" if graded else "near"
                        if row_kind == "b" and mesh.elements[k].is_quad:
                            wall_boxes.add(len(plan.cells[j]))
                    else:
                        band = {4: "mid", 2: "far"}[order]
                    polygons = [mesh.elements[k].vertices]
                if band not in worst_of:
                    continue
                exact = sum(_polygon_closure(p, poly, normal) for poly in polygons)
                worst_of[band] = max(worst_of[band], abs(got - exact) / exact)
    assert graded_pairs > 0
    assert wall_boxes == {1, 2, 4}
    for band, rtol in _BAND_RTOL.items():
        assert 0.0 < worst[band] <= rtol, band
    for band, rtol in _SHEARED_RTOL.items():
        assert 0.0 < sheared[band] <= rtol, band


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "a wall point whose in-plane foot falls outside its near triangle (a negative "
    "barycentric) gets tri_cells' four edge-midpoint cells, so the integrand's peak sits "
    "inside a cell rather than at a corner: on the dented cube's wall rows 12, 13, 15, 17, "
    "18, 19, 22, 23, 24, 25, 27 and 29 the order-12 rules miss the closed form by 1.3e-5 "
    "to 1.4e-4, above the mid band's bound"))
def test_dent_near_triangles_with_an_outside_foot_meet_the_near_bound():
    # The near band's bound is set on the builtins, whose near pairs are
    # quads. On the dented cube, the fully visible near-band triangles seen
    # from a wall point whose foot lies outside them must meet it too.
    mesh = make_dented_cube_mesh()
    asm = Assembler(mesh, VoxelGrid([0.0, 0.0, 0.0], 0.5, [2, 2, 2], np.full(8, 1000.0)))
    asm._plan_rows("b")
    col = asm.collocation
    outside, over = 0, set()
    for r, (p, normal) in enumerate(zip(col.boundary_points, col.boundary_normals)):
        plan = asm.row_plans[("b", r)]
        for k, got in _gathered_pair_sums(asm, "b", r, p, normal):
            j = int(np.flatnonzero(plan.elements == k)[0])
            if plan.cells[j] is None or asm.arrays.n_vertices[k] == 4:
                continue
            if intrinsic_projection(asm.arrays, [k], p[None, :])[0].min() < 0.0:
                outside += 1
                exact = _polygon_closure(p, asm.arrays.vertices[k, :3], normal)
                if abs(got - exact) > _BAND_RTOL["near"] * exact:
                    over.add(r)
    if not outside:
        pytest.fail("no near triangle has a foot outside it")
    assert not over, sorted(over)


@pytest.mark.parametrize("case", ["dented_cube", "cube_r2", "lshape_r1"])
def test_row_plans_match_one_point_calls(case):
    # An equation's rows are planned together, one batched pass per stage;
    # each row's plan must hold what the one-point public calls give it:
    # its active list, blockers, reports, and the cells of its near-band
    # pairs split at their one-point projections, bit for bit, with the
    # order the band gives a wall or an interior receiver. Interior rows
    # cut every near-band quad into four boxes; wall rows on the builtins
    # also take two or one where the foot lies beyond the quad, while the
    # dented cube's wall feet all reach their quads.
    if case == "dented_cube":
        mesh = make_dented_cube_mesh()
        grid = VoxelGrid([0.0, 0.0, 0.0], 0.5, [2, 2, 2], np.full(8, 1000.0))
    else:
        mesh, grid = builtin_case(*{"cube_r2": ("cube", 2), "lshape_r1": ("lshape", 1)}[case])
    asm = Assembler(mesh, grid)
    asm._plan_rows("b")
    asm._plan_rows("i")
    col, arr = asm.collocation, asm.arrays
    rows = [("b", r, p, n, int(own)) for r, (p, n, own) in
            enumerate(zip(col.boundary_points, col.boundary_normals, col.boundary_element))]
    rows += [("i", r, p, None, None) for r, p in enumerate(col.interior_points)]
    assert len(asm.row_plans) == len(rows)
    partial = near = 0
    boxes = {"b": set(), "i": set()}
    for kind, r, p, normal, own in rows:
        plan = asm.row_plans[(kind, r)]
        active = build_active_list(p, normal, mesh, source_element=own)
        assert np.array_equal(plan.elements, active)
        screens = screen_active_set(p, active, mesh, own)
        assert plan.screens == tuple(tuple(b for b, _ in screened) for screened in screens)
        dists = assembly.point_element_distances(p, arr.vertices[active], arr.normals[active])
        for j, (k, screened) in enumerate(zip(active.tolist(), screens)):
            report = classify_visibility(p, k, screened, mesh) if screened else UNOBSTRUCTED
            got = plan.visibility[j]
            assert got.classification is report.classification
            assert got.fraction == report.fraction
            assert got.depth_reached == report.depth_reached
            assert np.array_equal(got.visible, report.visible)
            partial += report.classification is Classification.PARTIALLY_VISIBLE
            order, split = assembly._band(float(dists[j] / arr.diameters[k]), kind == "b")
            if split and report.classification is Classification.FULLY_VISIBLE:
                near += 1
                assert np.array_equal(plan.cells[j], _split_cells(arr, k, p, kind == "b"))
                assert plan.orders[j] == order
                if mesh.elements[k].is_quad:
                    boxes[kind].add(len(plan.cells[j]))
            else:
                assert plan.cells[j] is None and plan.orders[j] is None
    assert near > 0 and (partial > 0) == (case != "cube_r2")
    assert boxes == {"b": {4} if case == "dented_cube" else {1, 2, 4}, "i": {4}}


def test_setup_does_no_row_work(tmp_path, monkeypatch):
    # Loading a mesh and building an Assembler is the benchmark's set-up;
    # screening, clipping, rules, distances and projections all belong to
    # the rows, on their first visit. Set-up builds the element table,
    # whose quad maps collocation reads: bilinear_coefficients runs once
    # for the whole mesh, and no row computes another.
    from ritesolver import geometry, visibility

    mesh = make_dented_cube_mesh()
    records = [{"nodes": list(f), "epsilon": 1.0, "T": 500.0} for f in DENTED_FACES]
    grid = {"origin": [0.0] * 3, "spacing": [0.5] * 3, "dims": [2, 2, 2], "T": [1000.0] * 8}
    write_mesh_file(tmp_path / "dent.json", mesh.nodes, records, grid)

    def refuse(*args, **kwargs):
        raise AssertionError("row work during set-up")

    for name in ("screen_active_set", "classify_visibility", "element_rule",
                 "point_element_distances", "intrinsic_projection"):
        for module in (assembly, visibility):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    maps = []
    original = geometry.bilinear_coefficients

    def counted(*args):
        maps.append(original(*args))
        return maps[-1]

    monkeypatch.setattr(geometry, "bilinear_coefficients", counted)
    asm = Assembler(*load_mesh(tmp_path / "dent.json"))
    assert asm.row_plans == {}
    assert len(maps) == 1 and asm.arrays.quad_maps is maps[0]
    # The rows read the quad maps from the table and compute none.
    monkeypatch.undo()
    monkeypatch.setattr(geometry, "bilinear_coefficients", refuse)
    asm.assemble_surface(props_for(mesh.diameter()))
    asm.assemble_volume(props_for(mesh.diameter()))


def test_row_quadrature_is_component_major():
    # Every per-point array of a row runs along the points: each rule keeps
    # (n, 3) points in Fortran order, so points.T is one contiguous block,
    # and a row's gathered points and shapes are C-contiguous (3, n) and
    # (4, n). The dented cube has quads, triangles and partly visible pairs.
    # Black walls reflect nothing, so their rows gather no flux shapes.
    for element in (unit_square(), build_element(BOTTOM[:3])):
        rule = element_rule(*element_table(element), 4)
        assert rule.points.shape == (len(rule.weights), 3)
        assert rule.points.T.flags.c_contiguous
    for emissivity in (1.0, 0.7):
        grid = VoxelGrid([0.0, 0.0, 0.0], 0.5, [2, 2, 2])
        asm = Assembler(make_dented_cube_mesh(emissivity), grid)
        asm._plan_rows("b")
        for r in range(asm.collocation.n_boundary):
            pts, w, elements, counts, fshape, vshape = asm._gather_row_rule("b", r)
            n = counts.sum()
            assert pts.shape == (3, n) and w.shape == (n,) and len(elements) == len(counts)
            assert vshape.shape == (4, n)
            assert pts.flags.c_contiguous and vshape.flags.c_contiguous
            if emissivity == 1.0:
                assert fshape is None
            else:
                assert fshape.shape == (4, n) and fshape.flags.c_contiguous
        assert any(v.classification is Classification.PARTIALLY_VISIBLE
                   for plan in asm.row_plans.values() for v in plan.visibility)


def test_discrete_reciprocity_cube_faces():
    # A_i F(i -> j) vs A_j F(j -> i) with the same double-quadrature rule on
    # both sides; piecewise-constant transport must be near-symmetric.
    mesh = make_cube_mesh()
    props = props_for(np.sqrt(3.0))
    exchanged = {}
    for i in range(6):
        ei = mesh.elements[i]
        rule = element_rule(mesh.arrays(), [i], 4)
        for j in range(6):
            if i == j:
                continue
            total = sum(
                w * element_integral(pt, ei.normal, mesh.elements[j],
                                     KernelKind.DIRECT, props)
                for pt, w in zip(rule.points, rule.weights)
            )
            exchanged[i, j] = total
    for (i, j), forward in exchanged.items():
        backward = exchanged[j, i]
        assert abs(forward - backward) / max(forward, backward) <= 1e-2


# ---------------------------------------------------------------------------
# Chord factors


def _chords(asm, p, targets, beta):
    d = targets.T - p[:, None]
    return asm._chord_factors(p, d, np.linalg.norm(d, axis=0), beta)


def test_chord_factors_match_path_factors():
    mesh, grid = builtin_case("cube", 3)
    asm = Assembler(mesh, grid)
    rng = np.random.default_rng(5)
    plane = grid.spacing  # the first interior plane along each axis
    floor = np.array([0.11, 0.42, 0.0])
    cases = [
        (floor, rng.random((40, 3))),
        # p on an interior plane
        (np.array([plane[0], 0.42, 0.2]), rng.random((10, 3))),
        # a chord lying in an interior plane
        (np.array([0.2, 2.0 * plane[1], 0.1]), np.array([[0.9, 2.0 * plane[1], 0.8]])),
        # an end point on an interior plane
        (floor, np.array([[0.5, plane[1], 0.7]])),
    ]
    for p, targets in cases:
        lengths = np.linalg.norm(targets - p, axis=1)
        for beta in (0.0, 0.8, 2.5):
            point, cells, w = _chords(asm, p, targets, beta)
            assert np.all(np.diff(point) >= 0)
            if beta == 0.0:
                # No empty segment survives, and each chord's weights
                # telescope to its length.
                assert np.all(w > 0.0)
                total = np.bincount(point, w, minlength=len(targets))
                assert np.allclose(total, lengths, rtol=1e-14, atol=0.0)
            for row in range(targets.shape[0]):
                ref_cells, ref_w = path_factors(p, targets[row], grid, beta)
                dense = np.zeros(grid.n_cells)
                np.add.at(dense, ref_cells, ref_w)
                mine = point == row
                batched = np.bincount(cells[mine], w[mine], minlength=grid.n_cells)
                assert np.allclose(batched, dense, atol=1e-12)


@pytest.mark.parametrize("n", [2, 4])
def test_compact_chords_match_padded_oracle(n):
    # Dropping the padded chord's empty slots leaves every scatter sum bit
    # for bit; the emission sum per point regroups, so it agrees to 1e-15.
    grid = VoxelGrid([0.0, 0.0, 0.0], 1.0 / n, [n, n, n], np.zeros(n**3))
    asm = Assembler(make_cube_mesh(), grid)
    rng = np.random.default_rng(n)
    ib = rng.random(grid.n_cells)
    targets = rng.random((300, 3))
    targets[::3, 2] = 1.0  # points on the ceiling
    for p in (np.array([0.3, 0.6, 0.0]), grid.cell_centers()[1]):
        geo = rng.random(len(targets))
        for beta in (0.0, 1.3):
            flat, padded = padded_chord_factors(grid, p, targets, beta)
            point, cells, w = _chords(asm, p, targets, beta)
            assert np.array_equal(
                np.bincount(cells, geo[point] * w, minlength=grid.n_cells),
                np.bincount(flat.ravel(), (geo[:, None] * padded).ravel(), minlength=grid.n_cells))
            emitted = geo @ np.bincount(point, w * ib[cells], minlength=len(targets))
            expected = geo @ (padded * ib[flat]).sum(1)
            assert abs(emitted - expected) <= 1e-15 * abs(expected)


@pytest.mark.parametrize("dims", [[1, 1, 1], [2, 2, 2], [1, 2, 4]])
def test_chords_sort_only_where_they_cross_two_planes(dims):
    # A chord that crosses at most one plane skips the sort: its least
    # crossing goes in the first slot as it is. Every case must still give
    # the padded oracle's scatter sums bit for bit and path_factors' total
    # per chord: a one-cell grid with no interior plane, chords that cross
    # 0 to 3 planes, one through a grid edge (two equal crossings), one
    # through a grid corner (three) and end points on a plane.
    dims = np.array(dims)
    grid = VoxelGrid([0.0, 0.0, 0.0], 1.0 / dims, dims, np.zeros(dims.prod()))
    asm = Assembler(make_cube_mesh(), grid)
    source = np.array([0.25, 0.25, 0.125])
    targets = np.array([
        [0.375, 0.3, 0.25],     # no plane
        [0.75, 0.3, 0.25],      # x = 0.5
        [0.75, 0.8, 0.25],      # x and y
        [0.9, 0.8, 0.7],        # x, y and z
        [0.75, 0.75, 0.375],    # the edge x = y = 0.5, both at t = 0.5
        [0.75, 0.75, 0.875],    # the corner of the three planes at 0.5
        [0.5, 0.375, 0.25],     # ends on x = 0.5
        [0.5, 0.75, 0.25],      # ends on x = 0.5, crosses y = 0.5
    ])
    if dims.tolist() == [2, 2, 2]:
        crossed = ((targets - 0.5) * (source - 0.5) < 0.0).sum(axis=1)
        assert crossed.tolist() == [0, 1, 2, 3, 2, 3, 0, 1]
    geo = np.linspace(0.5, 1.5, len(targets))
    # The second source lies on x = 0.5, an interior plane of the 2 x 2 x 2 grid.
    for p in (source, np.array([0.5, 0.25, 0.125])):
        for beta in (0.0, 1.3):
            flat, padded = padded_chord_factors(grid, p, targets, beta)
            point, cells, w = _chords(asm, p, targets, beta)
            assert np.array_equal(
                np.bincount(cells, geo[point] * w, minlength=grid.n_cells),
                np.bincount(flat.ravel(), (geo[:, None] * padded).ravel(), minlength=grid.n_cells))
            totals = np.bincount(point, w, minlength=len(targets))
            for row, target in enumerate(targets):
                _, ref_w = path_factors(p, target, grid, beta)
                assert totals[row] == pytest.approx(ref_w.sum(), rel=1e-14, abs=0.0)


# ---------------------------------------------------------------------------
# Assembled blocks


@pytest.fixture(scope="module")
def gray_cube_systems():
    mesh, grid = builtin_case("cube", 3)
    mesh = with_emissivity(mesh, 0.5)
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
    mesh, _, props, surface, volume = gray_cube_systems
    report = operator_row_sums(surface, volume, props, mesh.arrays().emissivities)
    assert report.ok, report.violations
    for name in report.row_sums:
        assert report.row_sums[name] <= report.bounds[name] * 1.02 + 1e-14
    # A black floor under 0.3 walls: the wall bounds take the largest
    # emissivity, 1.0, and the reflectance of the smallest, 0.3.
    mesh, grid = builtin_case("cube", 2)
    floor = mesh.arrays().normals[:, 2] == 1.0
    mesh = with_emissivity(mesh, np.where(floor, 1.0, 0.3))
    props = props_for(mesh.diameter(), sigma_a=1.0, sigma_s=0.5)
    asm = Assembler(mesh, grid)
    report = operator_row_sums(asm.assemble_surface(props), asm.assemble_volume(props), props,
                               mesh.arrays().emissivities)
    assert report.ok, report.violations
    assert report.bounds["wall_reflection"] == pytest.approx(0.7 / 0.3)
    assert report.bounds["wall_scatter"] == pytest.approx(0.5 / 6.0)
    assert all(type(bound) is float for bound in report.bounds.values())


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
    mesh = with_emissivity(mesh, 0.5)
    props = RadiativeProperties(sigma_a=1.0, sigma_s=0.0, domain_diameter=mesh.diameter())
    asm = Assembler(mesh, grid)
    surface = asm.assemble_surface(props)
    volume = asm.assemble_volume(props)
    assert np.all(surface.fmat == 0.0)
    assert np.all(volume.umat == 0.0)


@pytest.mark.parametrize("case, sigma_a, sigma_s, traced", [
    ("cube", 0.9, 0.0, False),    # builtin cube: medium at 0 K
    ("lshape", 0.9, 0.0, True),   # builtin lshape: hot medium
    ("cube", 0.0, 1.2, True),
    ("cube", 0.45, 0.66, True),
])
def test_chords_traced_only_when_the_medium_adds_something(monkeypatch, case, sigma_a,
                                                           sigma_s, traced):
    # A medium that neither scatters nor emits (cold, or sigma_a = 0) adds
    # nothing to any block, so no row traces its chords.
    mesh, grid = builtin_case(case, 2 if case == "cube" else 1)
    calls = []

    def counted(self, *args):
        calls.append(1)
        return chord_factors(self, *args)

    chord_factors = Assembler._chord_factors
    monkeypatch.setattr(Assembler, "_chord_factors", counted)
    asm = Assembler(mesh, grid)
    props = props_for(mesh.diameter(), sigma_a, sigma_s)
    asm.assemble_surface(props)
    asm.assemble_volume(props)
    assert (len(calls) > 0) == traced


def test_black_enclosure_never_reads_flux_columns():
    # The flux-unknown columns only place reflection weights; with every
    # wall black no row has any to place.
    class Unreadable:
        def __getitem__(self, key):
            raise AssertionError("flux columns read on a black enclosure")

    mesh, grid = builtin_case("cube", 2)
    asm = Assembler(mesh, grid)
    asm._columns = Unreadable()
    props = props_for(mesh.diameter(), sigma_a=0.45, sigma_s=0.66)
    asm.assemble_surface(props)
    asm.assemble_volume(props)


def test_one_gray_face_among_black_ones():
    # Only the floor of cube r2 reflects. Floor rows see black elements
    # only, so their Gmat rows are exactly zero; every other row sees the
    # floor, and only the floor's columns of Gmat and Vmat carry weight.
    mesh, grid = builtin_case("cube", 2)
    floor = mesh.arrays().normals[:, 2] == 1.0
    mesh = with_emissivity(mesh, np.where(floor, 0.6, 1.0))
    asm = Assembler(mesh, grid)
    props = props_for(mesh.diameter(), sigma_a=0.45, sigma_s=0.66)
    surface, volume = asm.assemble_surface(props), asm.assemble_volume(props)
    col = asm.collocation
    on_floor = floor[col.boundary_element]
    assert on_floor.sum() == 16
    assert np.all(surface.gmat[on_floor] == 0.0)
    assert np.all(surface.gmat[:, ~on_floor] == 0.0)
    assert np.all(volume.vmat[:, ~on_floor] == 0.0)
    assert np.all((surface.gmat[~on_floor][:, on_floor] != 0.0).any(axis=1))
    assert np.all((volume.vmat[:, on_floor] != 0.0).any(axis=1))


def test_flux_shapes_built_only_where_something_reflects(monkeypatch):
    # Flux shapes place reflection weights only. On black cube r2 the
    # near-band rules are built without them and no row gathers any; with
    # one gray face both carry them, and the rows that see that face have a
    # non-zero Gmat row.
    near = []

    def spy(*args, **kwargs):
        rule = element_rule(*args, **kwargs)
        if len(args) > 3:  # split toward the source point: a near-band rule
            near.append(rule)
        return rule

    monkeypatch.setattr(assembly, "element_rule", spy)
    mesh, grid = builtin_case("cube", 2)
    floor = mesh.arrays().normals[:, 2] == 1.0
    for gray in (False, True):
        walls = with_emissivity(mesh, np.where(floor, 0.6, 1.0)) if gray else mesh
        asm = Assembler(walls, grid)
        col = asm.collocation
        asm._plan_rows("b")
        near.clear()
        for r in range(col.n_boundary):
            *_, counts, fshape, vshape = asm._gather_row_rule("b", r)
            if gray:
                assert fshape.shape == vshape.shape == (4, counts.sum())
            else:
                assert fshape is None
        assert near and all((rule.flux_shapes is not None) == gray for rule in near)
    gmat = asm.assemble_surface(props_for(mesh.diameter(), 0.45, 0.66)).gmat
    sees_floor = ~floor[col.boundary_element]
    assert np.all((gmat[sees_floor] != 0.0).any(axis=1))


@pytest.mark.parametrize("sigma_s, block", [(0.66, "Fmat"), (0.0, "h")])
def test_black_enclosure_still_fails_on_a_non_finite_row(monkeypatch, sigma_s, block):
    # One NaN in the first row's projected solid angles: no reflection row
    # is scattered on black walls, so the failure names the first block the
    # NaN does reach (blocks are checked Gmat, Fmat, h).
    first = []

    def one_nan(*args):
        geo = projected_solid_angle(*args)
        if not first:
            first.append(1)
            geo[0] = np.nan
        return geo

    monkeypatch.setattr(assembly, "projected_solid_angle", one_nan)
    mesh, grid = builtin_case("cube", 2)
    with pytest.raises(assembly.AssemblyFailure, match=f"non-finite entries in {block}$"):
        Assembler(mesh, grid).assemble_surface(props_for(mesh.diameter(), 0.9, sigma_s))


def test_gmat_row_matches_per_element_route():
    # Convex case: every pair classifies as fully visible, so a row must
    # equal the sum of standalone shape-weighted element integrals.
    mesh, grid = builtin_case("cube", 2)
    mesh = with_emissivity(mesh, 0.5)
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
            val = element_integral(p, n_p, e, KernelKind.DIRECT, props, shape=a)
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


def test_vertex_temperature_gathers_match_per_element_loops():
    # Vertex temperatures, the wall nodes' emission and the elements' mean
    # temperatures are gathers through the mesh's padded node ids; each
    # must equal the per-element loop bit for bit, on quads and triangles
    # with every node at its own temperature.
    dent = make_dented_cube_mesh()
    lshape, grid = builtin_case("lshape", 1)
    rng = np.random.default_rng(11)
    for mesh, grid in ((dent, VoxelGrid([0.0, 0.0, 0.0], 0.5, [2, 2, 2])), (lshape, grid)):
        mesh = SurfaceMesh(mesh.nodes, mesh.element_nodes, 0.8,
                           rng.uniform(300.0, 1200.0, len(mesh.nodes)))
        asm = Assembler(mesh, grid)
        col, nt = asm.collocation, mesh.node_temperatures
        for k, en in enumerate(mesh.element_nodes):
            padded = list(en) + list(en[-1:]) * (4 - len(en))
            assert np.array_equal(asm._vertex_temps[k], nt[padded])
        eb = blackbody_emission(asm._vertex_temps)
        emission = np.empty(col.n_boundary)
        for r, own in enumerate(col.boundary_element.tolist()):
            local = r - col.element_first_dof[own]
            if len(mesh.element_nodes[own]) == 4:
                emission[r] = quad_vertex_shapes(*assembly.QUAD_NODES_UV[local]) @ eb[own]
            else:
                emission[r] = assembly.TRI_NODES_BARY[local] @ eb[own, :3]
        assert np.array_equal(asm._node_emission, emission)
        means = [float(np.mean(nt[list(en)])) for en in mesh.element_nodes]
        assert np.array_equal(_element_mean_temperatures(mesh), means)


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
    # shadow clipper, piecewise rules, chords. Two fresh assemblers must agree.
    mesh = make_dented_cube_mesh(emissivity=0.7)
    grid = VoxelGrid([0.0, 0.0, 0.0], 0.5, [2, 2, 2], np.full(8, 1000.0))
    props = RadiativeProperties(sigma_a=0.4, sigma_s=0.6, domain_diameter=mesh.diameter())
    one, two = Assembler(mesh, grid), Assembler(mesh, grid)
    s1, s2 = one.assemble_surface(props), two.assemble_surface(props)
    v1, v2 = one.assemble_volume(props), two.assemble_volume(props)
    assert any(v.classification is Classification.PARTIALLY_VISIBLE
               for plan in one.row_plans.values() for v in plan.visibility)
    assert np.array_equal(s1.gmat, s2.gmat)
    assert np.array_equal(s1.fmat, s2.fmat)
    assert np.array_equal(s1.h, s2.h)
    assert np.array_equal(v1.umat, v2.umat)
    assert np.array_equal(v1.vmat, v2.vmat)
    assert np.array_equal(v1.t, v2.t)


def test_warped_cube_assembles_like_the_flat_cube():
    # Every face-interior node of cube r2 moves along its face normal by up
    # to the planarity tolerance build_element accepts. Pairs on one warped
    # face lie in one plane within that tolerance: none may reach the screen
    # or the shadow clipper, and the blocks must stay those of the flat cube.
    flat, grid = builtin_case("cube", 2)
    nodes = flat.nodes.copy()
    on_wall = (nodes == 0.0) | (nodes == 1.0)
    inner = np.nonzero(on_wall.sum(axis=1) == 1)[0]
    axis = on_wall[inner].argmax(axis=1)
    diameter = flat.arrays().diameters.min()
    shift = np.random.default_rng(17).uniform(-1.0, 1.0, len(inner))
    nodes[inner, axis] += shift * PLANARITY_RTOL * diameter
    mesh = SurfaceMesh(nodes, flat.element_nodes, 1.0, flat.node_temperatures)
    props = props_for(flat.diameter(), sigma_a=0.5, sigma_s=0.5)
    reference = Assembler(flat, grid).assemble_surface(props)
    asm = Assembler(mesh, grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        surface = asm.assemble_surface(props)
    for plan in asm.row_plans.values():
        assert not any(plan.screens)
        assert all(v.classification is Classification.FULLY_VISIBLE for v in plan.visibility)
    np.testing.assert_allclose(surface.fmat, reference.fmat, rtol=1e-8, atol=0.0)
    np.testing.assert_allclose(surface.h, reference.h, rtol=1e-8, atol=0.0)
    col = asm.collocation
    for i in range(col.n_boundary):
        report = lemma1_identity(mesh, col.boundary_points[i], col.boundary_normals[i],
                                 source_element=int(col.boundary_element[i]))
        assert report.passed, (i, report.value)
    for p in col.interior_points:
        report = lemma3_interior_identity(mesh, p)
        assert report.passed, (p, report.value)


def test_surface_assembly_warns_exactly_when_margin_fails():
    # Margin eps_min - sigma_s / (beta + sigma_s) with eps_min 0.5: positive,
    # exactly zero (a pure scatterer) and negative.
    mesh = make_cube_mesh(emissivity=0.5)
    grid = VoxelGrid([0.0, 0.0, 0.0], 1.0, [1, 1, 1], np.full(1, 1000.0))
    for sigma_a, sigma_s in ((1.0, 0.5), (0.0, 1.0), (0.1, 2.0)):
        props = props_for(mesh.diameter(), sigma_a, sigma_s)
        margin, _ = solvability_margin(props, 0.5)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            Assembler(mesh, grid).assemble_surface(props)
        warned = [c for c in caught if issubclass(c.category, SolvabilityViolation)]
        assert len(warned) == (1 if margin <= 0.0 else 0), (sigma_a, sigma_s, margin)


@pytest.mark.parametrize("case", ["cube_r2", "dented_cube"])
def test_assembler_cache_reused_across_properties(monkeypatch, case):
    # A warm property point reads every geometric quantity from the row
    # plans: it screens, classifies, measures and projects nothing, builds
    # no partly visible rule, and its blocks are those of a fresh
    # Assembler. The dented cube has partly visible pairs.
    if case == "cube_r2":
        mesh, grid = builtin_case("cube", 2)
    else:
        mesh = make_dented_cube_mesh(emissivity=0.7)
        grid = VoxelGrid([0.0, 0.0, 0.0], 0.5, [2, 2, 2], np.full(8, 1000.0))
    calls = {}
    for name in ("build_active_list", "screen_active_set", "classify_visibility",
                 "point_element_distances", "intrinsic_projection", "visible_rule"):
        def counted(*args, _name=name, _fn=getattr(assembly, name), **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(assembly, name, counted)
    asm = Assembler(mesh, grid)
    asm.assemble_surface(props_for(mesh.diameter(), sigma_a=0.1))
    asm.assemble_volume(props_for(mesh.diameter(), sigma_a=0.1))
    assert calls["intrinsic_projection"] > 0
    assert (case == "dented_cube") == (calls.get("visible_rule", 0) > 0)
    calls.clear()
    props = props_for(mesh.diameter(), sigma_a=1.0, sigma_s=0.3)
    warm_s, warm_v = asm.assemble_surface(props), asm.assemble_volume(props)
    assert calls == {}
    fresh = Assembler(mesh, grid)
    cold_s, cold_v = fresh.assemble_surface(props), fresh.assemble_volume(props)
    for a, b in ((warm_s.gmat, cold_s.gmat), (warm_s.fmat, cold_s.fmat), (warm_s.h, cold_s.h),
                 (warm_v.umat, cold_v.umat), (warm_v.vmat, cold_v.vmat), (warm_v.t, cold_v.t)):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("case", ["cube_r2", "dented_cube"])
def test_warm_points_build_no_reference_cells(monkeypatch, case):
    # The row plans keep the near-band pairs' split cells, so a warm point
    # maps them without one quad_cells or tri_cells call. The gray dented
    # cube's near-band pairs include triangles.
    if case == "cube_r2":
        mesh, grid = builtin_case("cube", 2)
    else:
        mesh = make_dented_cube_mesh(emissivity=0.6)
        grid = VoxelGrid([0.0, 0.0, 0.0], 0.5, [2, 2, 2], np.full(8, 1000.0))
    calls = []
    for name in ("quad_cells", "tri_cells"):
        def counted(*args, _name=name, _fn=getattr(assembly, name), **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(assembly, name, counted)
    asm = Assembler(mesh, grid)
    asm.assemble_surface(props_for(mesh.diameter(), sigma_a=0.1))
    asm.assemble_volume(props_for(mesh.diameter(), sigma_a=0.1))
    near = [mesh.elements[k].is_quad for plan in asm.row_plans.values()
            for k, cells in zip(plan.elements, plan.cells) if cells is not None]
    assert any(near) and (case == "dented_cube") == (not all(near))
    assert calls
    calls.clear()
    props = props_for(mesh.diameter(), sigma_a=0.45, sigma_s=0.66)
    asm.assemble_surface(props)
    asm.assemble_volume(props)
    assert calls == []


_WARM_CUBE_FAULTS = """
    from ritesolver.cli import builtin_case
    from ritesolver.kernels import RadiativeProperties

    mesh, grid = builtin_case("cube", 2)
    props = RadiativeProperties(sigma_a=0.5, sigma_s=0.5,
                                domain_diameter=float(mesh.diameter()))
    asm = Assembler(mesh, grid)
    asm.assemble_surface(props)
    asm.assemble_volume(props)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    asm.assemble_surface(props)
    asm.assemble_volume(props)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def _fresh_interpreter_counts(*scripts):
    # A fresh interpreter, so no earlier test has moved the allocator's
    # thresholds; the script prints one fault count per line.
    path = [str(Path(assembly.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)),
               OPENBLAS_NUM_THREADS="1")
    script = "".join(textwrap.dedent(part) for part in scripts)
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    return [int(line) for line in run.stdout.split()]


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="heap trimming is glibc's policy")
def test_warm_assembly_does_not_page_fault():
    # Each row frees a few MB of temporaries; at glibc's default trim point
    # the next row faults them back in, about 60,000 minor faults per warm
    # cube r2 assembly. cube r1 rows are too small to show it.
    script = """
        import resource
        from ritesolver.assembly import Assembler
    """
    [warm] = _fresh_interpreter_counts(script, _WARM_CUBE_FAULTS)
    assert warm < 1000


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="heap trimming is glibc's policy")
def test_heap_setting_holds_from_a_fresh_process():
    # Set before anything has raised glibc's dynamic mmap threshold from its
    # 128 KiB start: 1 MiB arrays must still come from the kept heap, not
    # be mapped and unmapped on each pass (50 passes fault about 24,000
    # pages when only the trim threshold is set).
    script = """
        import resource
        import numpy as np
        from ritesolver.assembly import Assembler, _keep_freed_heap

        _keep_freed_heap()
        a = np.ones(1 << 17); b = a * 2.0; del a, b
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(50):
            a = np.ones(1 << 17); b = a * 2.0; del a, b
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    """
    loop, warm = _fresh_interpreter_counts(script, _WARM_CUBE_FAULTS)
    assert loop < 1000
    assert warm < 1000


def test_heap_setting_calls_mallopt_or_skips_quietly(monkeypatch):
    calls = []

    class Mallopt:
        def __call__(self, *args):
            calls.append((self.argtypes, self.restype, args))
            return 1

    class Libc:
        mallopt = Mallopt()

    def no_library(name):
        raise OSError("no C library")

    def windows_cdll(name):
        # ctypes.CDLL(None) on Windows fails inside its path handling.
        raise TypeError("argument of type 'NoneType' is not iterable")

    keep = assembly._keep_freed_heap.__wrapped__
    monkeypatch.setattr(assembly.platform, "libc_ver", lambda: ("glibc", "2.36"))
    monkeypatch.setattr(assembly.ctypes, "CDLL", lambda name: Libc())
    assert keep() is None
    c_ints = [ctypes.c_int, ctypes.c_int]
    assert calls == [(c_ints, ctypes.c_int, (-1, 64 << 20)), (c_ints, ctypes.c_int, (-3, 32 << 20))]
    monkeypatch.setattr(assembly.ctypes, "CDLL", no_library)
    assert keep() is None
    monkeypatch.setattr(assembly.ctypes, "CDLL", lambda name: object())
    assert keep() is None
    for libc in (("", ""), ("musl", "1.2")):
        monkeypatch.setattr(assembly.platform, "libc_ver", lambda libc=libc: libc)
        monkeypatch.setattr(assembly.ctypes, "CDLL", windows_cdll)
        assert keep() is None
        monkeypatch.setattr(assembly.ctypes, "CDLL", lambda name: Libc())
        assert keep() is None
    assert len(calls) == 2
