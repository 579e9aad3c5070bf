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
    ElementArrays,
    SurfaceMesh,
    VoxelGrid,
    bilinear_jacobian,
    bilinear_points,
    build_element,
    quad_cells,
    segment_element_hits,
)
from ritesolver.kernels import (
    KernelKind,
    RadiativeProperties,
    kernel_prefactor,
    projected_solid_angle,
    sight_cosines,
    solvability_margin,
)
from ritesolver.validation import lemma1_identity, lemma3_interior_identity
from ritesolver.visibility import Classification, classify_visibility, screen_active_set

from conftest import make_cube_mesh, make_dented_cube_mesh
from oracles import padded_chord_factors, path_factors


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
            rule = element_rule(e, order)
            assert rule.weights.sum() == pytest.approx(e.area, rel=1e-12)
    # Order 2 on a triangle is the 3-point rule far triangles take; it is
    # exact for quadratics, so it agrees with the order-8 rule.
    def quadratic(points):
        x, y, z = points.T
        return 1.0 + 2.0 * y + x * x + 3.0 * x * y - z * z

    far, fine = element_rule(tri, 2), element_rule(tri, 8)
    assert len(far.weights) == 3
    assert abs(far.weights @ quadratic(far.points)
               - fine.weights @ quadratic(fine.points)) <= 1e-12


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


def element_integral(p, n_p, element, kind, props, shape=None, report=None):
    """Banded quadrature of F_shape x kernel over one element for point p.

    It makes the rule and kernel calls a row makes, for one element alone,
    so it shares their arithmetic and checks how a row combines them, not
    the calls themselves. shape None integrates the kernel alone; an integer
    selects one flux shape function. A partly visible report limits the
    integral to its visible triangles.
    """
    if report is not None:
        rule = assembly.visible_rule(p, element, report.visible)
    else:
        arrays = ElementArrays.from_elements([element])
        d = float(assembly.point_element_distances(p, arrays.vertices, arrays.normals)[0])
        order, split = assembly._band(d / element.diameter)
        rule = element_rule(element, order, intrinsic_projection(element, p[None, :])[0]
                            if split else None)
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
    back = intrinsic_projection(e, x + 0.3 * e.normal)
    assert np.abs(bilinear_points(e.vertices, *back.T).T - x).max() < 1e-12
    assert np.abs(back - uv).max() < 1e-12


def test_intrinsic_projection_does_not_clamp():
    # The foot of this point lies at xi = 4 of a parallelogram, off the
    # element; its coordinates come back as they are.
    e = build_element(np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [2.5, 1.0, 0.0],
                                [0.5, 1.0, 0.0]]))
    foot = bilinear_points(e.vertices, np.array([4.0]), np.array([0.3])).T
    back = intrinsic_projection(e, foot + 0.2 * e.normal)
    assert np.abs(back - [[4.0, 0.3]]).max() < 1e-12


def test_intrinsic_projection_at_the_apex():
    # The legs of the trapezoid meet at (0.75, 2.5), eta = 4, where every
    # xi maps to the same point; xi is defined as 0 there.
    e = build_element(_TRAPEZOID)
    assert intrinsic_projection(e, np.array([[0.75, 2.5, 0.4]])).tolist() == [[0.0, 4.0]]
    # eta = 4 solves the quadratic of every point, since that whole line
    # maps to the apex; a point below the element still gets its preimage.
    back = intrinsic_projection(e, np.array([[0.75, -3.0, 0.0]]))
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
    back = intrinsic_projection(e, np.array([[-1.0, 0.5, 0.3]]))
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
    back = intrinsic_projection(e, x + height * e.diameter * e.normal)
    assert np.abs(back - uv).max() < 1e-12
    near = e.centroid + e.diameter * np.array(near)
    assert np.all(np.isfinite(intrinsic_projection(e, near)))


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
    assert intrinsic_projection(e, apex).tolist() == [[0.0, m]]
    line = np.column_stack([np.array(xs) / 8.0, np.full(len(xs), -m), np.full(len(xs), z / 8.0)])
    back = intrinsic_projection(e, line)
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
        for p in (np.array([0.9, 0.4, 0.7]), np.array([9.0, 0.3, 0.2])):
            stacked = intrinsic_projection(elements, np.tile(p, (len(elements), 1)))
            for e, got in zip(elements, stacked):
                assert np.array_equal(got, intrinsic_projection(e, p[None, :])[0])


def _cube_row_near_quads():
    # Every near-band quad of the first wall row of cube r2, with the split
    # points its row plan recorded.
    mesh, grid = builtin_case("cube", 2)
    asm = Assembler(mesh, grid)
    col = asm.collocation
    own = int(col.boundary_element[0])
    plan = asm._row_plan("b", 0, col.boundary_points[0], col.boundary_normals[0], own)
    near = [j for j, toward in enumerate(plan.towards) if toward is not None]
    elements = [mesh.elements[k] for k in plan.elements[near]]
    assert len(near) > 1 and all(e.is_quad for e in elements)
    return elements, [plan.towards[j] for j in near]


def _trapezoids():
    flat = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [1.5, 1.0, 0.0], [0.3, 1.0, 0.0]])
    return [build_element(flat), build_element(flat[:, [0, 2, 1]] + [0.0, 0.5, 0.2])]


@pytest.mark.parametrize("case", ["cube_row", "trapezoid", "toward_outside"])
def test_stacked_quad_rules_match_element_rules(case):
    # Near-band quads of a row are mapped in one stacked call; each part
    # must equal the element's own rule bit for bit, including a split
    # point off the element, which the margin clamps. The rule evaluates
    # one-axis factors at each box's distinct xi and eta values; the oracle
    # evaluates the Jacobian and both shape bases at every point of the
    # unfactored tensor grid.
    if case == "cube_row":
        elements, towards = _cube_row_near_quads()
    elif case == "trapezoid":
        elements, towards = _trapezoids(), [np.array([0.3, -0.6]), np.array([-0.9, 0.95])]
    else:
        elements, towards = _trapezoids(), [np.array([1.7, -2.4]), np.array([-3.0, 0.2])]
    order = 6 * 2
    verts = np.array([e.vertices for e in elements])
    cells = quad_cells(np.array(towards))
    stacked = assembly._quad_cell_rule(verts, cells, order)
    uv, w = assembly.quad_rule(order)
    n = len(stacked.weights) // len(elements)
    for i, (e, toward) in enumerate(zip(elements, towards)):
        rule = element_rule(e, order, toward)
        cut = slice(i * n, (i + 1) * n)
        assert np.array_equal(stacked.points[cut], rule.points)
        assert np.array_equal(stacked.weights[cut], rule.weights)
        assert np.array_equal(stacked.flux_shapes[cut], rule.flux_shapes)
        assert np.array_equal(stacked.vertex_shapes[cut], rule.vertex_shapes)
        xi0, xi1, eta0, eta1 = cells[i].T[..., None]
        root = np.stack([xi0 + 0.5 * (uv[:, 0] + 1.0) * (xi1 - xi0),
                         eta0 + 0.5 * (uv[:, 1] + 1.0) * (eta1 - eta0)], axis=-1).reshape(-1, 2)
        scale = np.repeat(0.25 * (xi1 - xi0) * (eta1 - eta0), len(w))
        weights = np.tile(w, len(cells[i])) * bilinear_jacobian(e.vertices, *root.T) * scale
        assert np.array_equal(rule.points, bilinear_points(e.vertices, *root.T).T)
        assert np.array_equal(rule.weights, weights)
        assert np.array_equal(rule.flux_shapes, quad_flux_shapes(*root.T).T)
        assert np.array_equal(rule.vertex_shapes, quad_vertex_shapes(*root.T).T)


def test_row_quadrature_is_component_major():
    # Every per-point array of a row runs along the points: each rule keeps
    # (n, 3) points in Fortran order, so points.T is one contiguous block,
    # and a row's gathered points and shapes are C-contiguous (3, n) and
    # (4, n). The dented cube has quads, triangles and partly visible pairs.
    for element in (unit_square(), build_element(BOTTOM[:3])):
        rule = element_rule(element, 4)
        assert rule.points.shape == (len(rule.weights), 3)
        assert rule.points.T.flags.c_contiguous
    mesh = make_dented_cube_mesh()
    asm = Assembler(mesh, VoxelGrid([0.0, 0.0, 0.0], 0.5, [2, 2, 2]))
    col = asm.collocation
    for r in range(col.n_boundary):
        pts, w, elements, counts, fshape, vshape = asm._gather_row_rule(
            "b", r, col.boundary_points[r], col.boundary_normals[r], int(col.boundary_element[r]))
        n = counts.sum()
        assert pts.shape == (3, n) and w.shape == (n,) and len(elements) == len(counts)
        assert fshape.shape == vshape.shape == (4, n)
        assert pts.flags.c_contiguous and fshape.flags.c_contiguous and vshape.flags.c_contiguous
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
        rule = element_rule(ei, 4)
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
