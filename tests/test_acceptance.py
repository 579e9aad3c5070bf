"""Acceptance gate: criteria the solver must meet on both builtin enclosures.

Each test states a property of a correct solution, not of the code that
computes it: closure identities at every collocation point, equilibrium
limits, the paper's iteration against its a priori bound and the direct
solve, the shadow clipper against the ray oracle, and the mirror symmetry of the
enclosures in the wall flux they produce.
"""

import numpy as np
import pytest

from conftest import make_dented_cube_mesh, unshare_nodes
from oracles import outer_iteration, transparent_black_flux
from ritesolver.assembly import Assembler, collocation_points
from ritesolver.cli import ProfileSpec, builtin_case, sample_profile
from ritesolver.geometry import SurfaceMesh, VoxelGrid
from ritesolver.kernels import RadiativeProperties, blackbody_emission
from ritesolver.solver import contraction_bound, solve_rites
from ritesolver.validation import (
    _VISIBILITY_ATOL,
    lemma1_identity,
    lemma3_interior_identity,
    visibility_report_check,
)
from ritesolver.visibility import Classification


@pytest.fixture(scope="module")
def solved_builtins():
    """Black cube r2 and black lshape r1 at sigma_a = sigma_s = 0.5, each
    as (mesh, grid, assembler, props, surface, volume, state)."""
    solved = {}
    for kind, resolution in (("cube", 2), ("lshape", 1)):
        mesh, grid = builtin_case(kind, resolution)
        props = RadiativeProperties(sigma_a=0.5, sigma_s=0.5,
                                    domain_diameter=float(mesh.diameter()))
        asm = Assembler(mesh, grid)
        surface, volume = asm.assemble_surface(props), asm.assemble_volume(props)
        state = solve_rites(surface, volume, props)
        solved[kind] = (mesh, grid, asm, props, surface, volume, state)
    return solved


# ---------------------------------------------------------------------------
# Closure and equilibrium


@pytest.mark.parametrize("case", ["cube_r2", "lshape_r1", "dented_cube"])
def test_closures_exact_at_every_collocation_point(case):
    # The visible polygons of a closed enclosure close to pi from every wall
    # point and to 4 pi from every interior point, convex or not. The L has
    # fully blocked and partly visible pairs, the dented cube partly visible
    # ones.
    if case == "dented_cube":
        mesh = make_dented_cube_mesh()
        grid = VoxelGrid([0.0, 0.0, 0.0], 0.5, [2, 2, 2], np.full(8, 1000.0))
    else:
        kind, resolution = case.split("_r")
        mesh, grid = builtin_case(kind, int(resolution))
    col = collocation_points(mesh, grid)
    reports = [
        lemma1_identity(mesh, col.boundary_points[i], col.boundary_normals[i],
                        source_element=int(col.boundary_element[i]))
        for i in range(col.n_boundary)
    ] + [lemma3_interior_identity(mesh, x) for x in col.interior_points]
    worst = max(reports, key=lambda r: r.rel_deviation)
    assert worst.rel_deviation <= 1e-12, (worst.name, worst.value)


def test_isothermal_cavity_stays_in_equilibrium():
    # Gray walls and a participating medium all at one temperature: no net
    # wall flux, and the incident energy is 4 sigma T^4 everywhere.
    temperature = 600.0
    mesh, grid = builtin_case("cube", 3)
    mesh = SurfaceMesh(mesh.nodes, mesh.element_nodes, np.full(len(mesh.elements), 0.8),
                       np.full(mesh.nodes.shape[0], temperature))
    grid = VoxelGrid(grid.origin, grid.spacing, grid.dims, np.full(grid.n_cells, temperature))
    props = RadiativeProperties(sigma_a=1.0, sigma_s=0.5, domain_diameter=mesh.diameter())
    asm = Assembler(mesh, grid)
    state = solve_rites(asm.assemble_surface(props), asm.assemble_volume(props), props)
    emission = blackbody_emission(np.array([temperature]))[0]
    assert np.abs(state.q).max() <= 0.02 * emission
    assert np.abs(state.incident - 4.0 * emission).max() <= 0.02 * 4.0 * emission


# ---------------------------------------------------------------------------
# The paper's iteration


@pytest.mark.parametrize("kind", ["cube", "lshape"])
def test_observed_rate_within_contraction_bound(solved_builtins, kind):
    # The paper's theorem on the discrete operators: rho(M) stays under the
    # a priori bound (measured 0.190 against 0.412 on cube r2 and 0.279
    # against 0.494 on lshape r1), and the iteration swept from 4 sigma T^4
    # lands on the direct solve's G, its trailing rate that rho(M).
    mesh, _, _, props, surface, volume, state = solved_builtins[kind]
    bound = contraction_bound(props, float(mesh.arrays().emissivities.min()))
    assert 0.0 < state.contraction_ratio <= bound < 1.0
    g, changes = outer_iteration(surface, volume, tolerance=1e-13, max_sweeps=200)
    assert np.abs(g - state.incident).max() <= 1e-12 * np.abs(state.incident).max()
    ratios = np.array(changes[-5:]) / np.array(changes[-6:-1])
    assert abs(np.exp(np.log(ratios).mean()) - state.contraction_ratio) <= 1e-2


# ---------------------------------------------------------------------------
# Exchange reciprocity


def lshape_face_powers(emissivity, sigma_a, sigma_s):
    """Face powers of lshape r1 with uniform wall emissivity: P[i, j] is the
    power face plane j absorbs with plane i at 1000 K and every other wall
    and the medium at 0 K. No node is shared between elements
    (unshare_nodes), so a hot plane's temperature stops at its edges
    instead of spreading to the nodes its neighbours share."""
    mesh, grid = builtin_case("lshape", 1)
    arrays = mesh.arrays()
    planes = np.round(np.column_stack([arrays.normals, arrays.plane_offsets]), 9)
    planes, face = np.unique(planes, axis=0, return_inverse=True)
    face = face.reshape(-1)
    cold_medium = VoxelGrid(grid.origin, grid.spacing, grid.dims, np.zeros(grid.n_cells))
    powers = np.zeros((len(planes), len(planes)))
    for i in range(len(planes)):
        hot = unshare_nodes(mesh, np.where(face == i, 1000.0, 0.0), emissivity)
        props = RadiativeProperties(sigma_a=sigma_a, sigma_s=sigma_s,
                                    domain_diameter=float(hot.diameter()))
        asm = Assembler(hot, cold_medium)
        state = solve_rites(asm.assemble_surface(props), asm.assemble_volume(props), props)
        col = asm.collocation
        powers[i] = np.bincount(face[col.boundary_element], minlength=len(planes),
                                weights=state.q * col.boundary_weights)
    return powers


# Bounds on max |P_ij - P_ji| over the largest off-diagonal |P_ij|, about 1.5
# times the measured 7.3e-4 in the transparent black room and 1.3e-3 with
# gray walls around an absorbing, scattering medium.
@pytest.mark.parametrize("emissivity, sigma_a, sigma_s, bound",
                         [(1.0, 0.0, 0.0, 1.1e-3), (0.6, 0.3, 0.7, 2e-3)])
def test_exchange_between_face_planes_is_reciprocal(emissivity, sigma_a, sigma_s, bound):
    # At one temperature, what plane j absorbs of plane i's emission equals
    # what i absorbs of j's, through reflection, absorption and scattering
    # alike; the L's partly visible pairs take part in every exchange.
    powers = lshape_face_powers(emissivity, sigma_a, sigma_s)
    off = ~np.eye(len(powers), dtype=bool)
    assert len(powers) == 8
    assert np.abs(powers - powers.T)[off].max() <= bound * np.abs(powers[off]).max()


# ---------------------------------------------------------------------------
# Exact transparent solutions


# Largest |q - exact| over the wall nodes, relative to the hot emission:
# 1.5 times the 6.23e-8 measured on the cube and the 2.43e-8 on the L with
# every near-band pair at order 12; grading a wall row's farther near-band
# pairs to order 8 moves neither by 1e-12.
_TRANSPARENT_FLUX_RTOL = {"cube": 1.5 * 6.23e-8, "lshape": 1.5 * 2.43e-8}


@pytest.mark.parametrize("kind", ["cube", "lshape"])
def test_transparent_black_flux_matches_contour_integrals(kind):
    # In a black enclosure with a transparent medium and uniform emission
    # per element, the net flux at every wall node is exact: the emission
    # each visible part of each element sends there, by Lambert's contour
    # integral, less the node's own. Cube r2 with its floor hot, and lshape
    # r1 with its notch face hot, which runs the clipper, the quadrature,
    # the emission and the sign conventions together on the non-convex room.
    hot, rest = 1000.0, {"cube": 0.0, "lshape": 500.0}[kind]
    mesh, grid = builtin_case(kind, {"cube": 2, "lshape": 1}[kind])
    arrays = mesh.arrays()
    if kind == "cube":
        face = arrays.normals[:, 2] == 1.0
    else:
        face = (arrays.normals[:, 1] == -1.0) & (arrays.centroids[:, 1] == 1.0)
    mesh = unshare_nodes(mesh, np.where(face, hot, rest))
    props = RadiativeProperties(sigma_a=0.0, sigma_s=0.0, domain_diameter=float(mesh.diameter()))
    asm = Assembler(mesh, grid)
    state = solve_rites(asm.assemble_surface(props), asm.assemble_volume(props), props)
    emission = blackbody_emission(np.where(face, hot, rest))
    exact = transparent_black_flux(mesh, asm.collocation, emission)
    scale = blackbody_emission(np.array([hot]))[0]
    assert face.sum() == {"cube": 4, "lshape": 1}[kind]
    assert np.abs(state.q - exact).max() <= _TRANSPARENT_FLUX_RTOL[kind] * scale


# ---------------------------------------------------------------------------
# Visibility


def test_classifier_matches_oracle_across_notch():
    # Looking from the high ceiling of the L enclosure down at the far floor:
    # the notch edge blocks targets beyond y = 2, grazes those around it,
    # and leaves nearer ones fully visible.
    mesh, grid = builtin_case("lshape", 2)
    col = collocation_points(mesh, grid)
    arrays = mesh.arrays()
    ceiling = next(
        k for k in range(mesh.n_elements)
        if arrays.centroids[k][2] == 3.0
        and np.allclose(arrays.centroids[k][:2], (0.75, 0.75))
    )
    point_ids = np.nonzero(col.boundary_element == ceiling)[0]
    p = col.boundary_points[point_ids[0]]
    floor_targets = [
        next(
            k for k in range(mesh.n_elements)
            if arrays.centroids[k][2] == 0.0
            and np.allclose(arrays.centroids[k][:2], (0.75, y))
        )
        for y in (1.25, 1.75, 2.75)
    ]
    for target in floor_targets:
        report = visibility_report_check(p, target, mesh, source_element=ceiling)
        assert report.passed, (target, report.value, report.reference)


def test_clipper_matches_ray_oracle_on_partly_visible_pairs(rng):
    # A seeded sample of 40 of lshape r1's 172 partly visible wall pairs:
    # each clipped fraction is within the oracle's tolerance of the ray
    # oracle's (measured worst 1.0e-3).
    mesh, grid = builtin_case("lshape", 1)
    asm = Assembler(mesh, grid)
    asm._plan_rows("b")
    pairs = [(r, int(k)) for (_, r), plan in asm.row_plans.items()
             for k, vis in zip(plan.elements, plan.visibility)
             if vis.classification is Classification.PARTIALLY_VISIBLE]
    assert len(pairs) == 172
    col = asm.collocation
    for i in rng.choice(len(pairs), 40, replace=False):
        r, k = pairs[i]
        report = visibility_report_check(col.boundary_points[r], k, mesh,
                                         source_element=int(col.boundary_element[r]))
        assert report.abs_deviation <= _VISIBILITY_ATOL, (r, k, report.value, report.reference)


# ---------------------------------------------------------------------------
# Solution profiles


# Largest mirror asymmetry of a profile, relative to its largest |q|. Both
# enclosures are symmetric under x -> 1 - x. The cube's profile measured
# 2e-16, rounding alone. The L's measured 4.8e-7, all of it from rows with
# partly visible pairs (the source h of rows without one is symmetric to
# 3e-16): their rules run over the clipper's visible triangles, and a
# mirrored pair's triangles need not be the mirror images of the pair's.
# Each bound is about ten times its measure.
_MIRROR_RTOL = {"cube": 2e-15, "lshape": 5e-6}


@pytest.mark.parametrize("kind, y", [("cube", 0.3), ("lshape", 1.3)])
def test_wall_flux_profile_is_mirror_symmetric(solved_builtins, kind, y):
    # A floor profile across the enclosure, x from 0 to 1, read back to
    # front is the same profile. Twelve samples keep clear of the midpoints
    # between collocation nodes, where the nearest node is a tie.
    mesh, grid, asm, _, _, _, state = solved_builtins[kind]
    spec = ProfileSpec("floor", (0.0, y, 0.0), (1.0, y, 0.0), 12, "q")
    _, _, nearest = sample_profile(asm.collocation, grid, mesh, spec)
    q = state.q[nearest]
    assert len(set(nearest.tolist())) > 1
    assert np.abs(q - q[::-1]).max() <= _MIRROR_RTOL[kind] * np.abs(q).max()
