"""Oracle checks: closure identities, ray-traced visibility, energy balance."""

import csv
import math

import numpy as np
import pytest

from conftest import make_cube_mesh
from ritesolver.assembly import Assembler, collocation_points
from ritesolver.cli import builtin_case
from ritesolver.geometry import SurfaceMesh
from ritesolver.kernels import RadiativeProperties
from ritesolver.solver import SolutionState, solve_rites
from ritesolver.validation import (
    energy_balance,
    lemma1_identity,
    lemma3_interior_identity,
    report_table,
    standard_suite,
    visibility_oracle,
    write_report_csv,
)

GAUSS_OFFSET = 0.5 - 0.5 / math.sqrt(3.0)


def make_icosphere(subdivisions=2):
    """Closed triangulated sphere with inward normals, 20 * 4^n faces."""
    t = (1.0 + math.sqrt(5.0)) / 2.0
    verts = [
        (-1, t, 0), (1, t, 0), (-1, -t, 0), (1, -t, 0),
        (0, -1, t), (0, 1, t), (0, -1, -t), (0, 1, -t),
        (t, 0, -1), (t, 0, 1), (-t, 0, -1), (-t, 0, 1),
    ]
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    verts = [np.array(v, dtype=float) / np.linalg.norm(v) for v in verts]
    for _ in range(subdivisions):
        cache = {}
        new_faces = []

        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key not in cache:
                m = verts[i] + verts[j]
                verts.append(m / np.linalg.norm(m))
                cache[key] = len(verts) - 1
            return cache[key]

        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = new_faces
    # The canonical winding is outward; reverse for an enclosure.
    faces = [(a, c, b) for a, b, c in faces]
    return SurfaceMesh(np.array(verts), faces)


def make_open_plates(extra=()):
    """Source plate at z = 0 facing a receiver plate at z = 2, plus occluders."""
    nodes = [
        (-0.5, -0.5, 0.0), (0.5, -0.5, 0.0), (0.5, 0.5, 0.0), (-0.5, 0.5, 0.0),
        (-0.5, -0.5, 2.0), (0.5, -0.5, 2.0), (0.5, 0.5, 2.0), (-0.5, 0.5, 2.0),
    ]
    faces = [(0, 1, 2, 3), (4, 7, 6, 5)]
    for quad in extra:
        base = len(nodes)
        nodes.extend(quad)
        faces.append((base, base + 1, base + 2, base + 3))
    return SurfaceMesh(np.array(nodes, dtype=float), faces, check_closed=False)


# ---------------------------------------------------------------------------
# Closure of the wall exchange kernel


def test_wall_closure_cube_collocation_points():
    mesh, grid = builtin_case("cube", 8)
    col = collocation_points(mesh, grid)
    # The corner Gauss node sits closest to the side walls: worst case.
    for idx in (0, col.n_boundary // 2, col.n_boundary - 1):
        report = lemma1_identity(
            mesh,
            col.boundary_points[idx],
            col.boundary_normals[idx],
            source_element=int(col.boundary_element[idx]),
        )
        assert report.passed
        assert report.rel_deviation <= 0.01
        assert report.reference == pytest.approx(math.pi)


@pytest.mark.parametrize("resolution", [8, 16])
def test_wall_closure_exact_under_refinement(resolution):
    # A fixed point near a floor corner: the closed form leaves rounding
    # only, however fine the mesh.
    p = (GAUSS_OFFSET / 8.0, GAUSS_OFFSET / 8.0, 0.0)
    mesh, _ = builtin_case("cube", resolution)
    assert lemma1_identity(mesh, p, (0.0, 0.0, 1.0)).rel_deviation <= 1e-12


def test_wall_closure_icosphere():
    mesh = make_icosphere(2)
    assert mesh.n_elements == 320
    k = 17
    element = mesh.elements[k]
    report = lemma1_identity(mesh, element.centroid, element.normal, source_element=k)
    assert report.passed
    assert report.rel_deviation <= 0.02


# ---------------------------------------------------------------------------
# Closure of the interior kernel


def test_interior_closure_center_and_off_center():
    mesh, _ = builtin_case("cube", 8)
    for point in [(0.5, 0.5, 0.5), (0.21, 0.34, 0.68)]:
        report = lemma3_interior_identity(mesh, point)
        assert report.passed
        assert report.reference == pytest.approx(4.0 * math.pi)
        assert report.rel_deviation <= 0.01


# ---------------------------------------------------------------------------
# Ray-sampled visibility ground truth


def test_visibility_oracle_convex_pair_is_exactly_one():
    mesh = make_cube_mesh()
    fraction = visibility_oracle((0.3, 0.4, 0.0), mesh.elements[1], mesh)
    assert fraction == 1.0


def test_visibility_oracle_full_occluder_is_zero():
    blocker = [(-3.0, -3.0, 1.0), (3.0, -3.0, 1.0), (3.0, 3.0, 1.0), (-3.0, 3.0, 1.0)]
    mesh = make_open_plates(extra=[blocker])
    fraction = visibility_oracle((0.0, 0.0, 0.0), mesh.elements[1], mesh)
    assert fraction == 0.0


def test_visibility_oracle_half_plane_occluder():
    # A half plane at z = 1 covering y > 0 shadows exactly half of the
    # receiver plate as seen from the source center.
    half = [(-5.0, 0.0, 1.0), (5.0, 0.0, 1.0), (5.0, 5.0, 1.0), (-5.0, 5.0, 1.0)]
    mesh = make_open_plates(extra=[half])
    n_rays = 20_000
    fraction = visibility_oracle((0.0, 0.0, 0.0), mesh.elements[1], mesh,
                                 n_rays=n_rays)
    assert abs(fraction - 0.5) <= 3.0 / math.sqrt(n_rays)


def test_visibility_oracle_rejects_thin_sampling():
    mesh = make_cube_mesh()
    with pytest.raises(ValueError):
        visibility_oracle((0.3, 0.4, 0.0), mesh.elements[1], mesh, n_rays=100)


def test_visibility_oracle_deterministic_for_fixed_seed():
    half = [(-5.0, 0.0, 1.0), (5.0, 0.0, 1.0), (5.0, 5.0, 1.0), (-5.0, 5.0, 1.0)]
    mesh = make_open_plates(extra=[half])
    first = visibility_oracle((0.0, 0.0, 0.0), mesh.elements[1], mesh, seed=7)
    second = visibility_oracle((0.0, 0.0, 0.0), mesh.elements[1], mesh, seed=7)
    assert first == second


# ---------------------------------------------------------------------------
# Energy balance


@pytest.fixture(scope="module")
def solved_cube():
    mesh, grid = builtin_case("cube", 3)
    props = RadiativeProperties(sigma_a=0.5, sigma_s=0.5,
                                domain_diameter=mesh.diameter())
    asm = Assembler(mesh, grid)
    state = solve_rites(asm.assemble_surface(props), asm.assemble_volume(props),
                        props)
    return mesh, grid, props, state


def test_energy_balance_converged_case(solved_cube):
    mesh, grid, props, state = solved_cube
    report = energy_balance(state, mesh, grid, props)
    assert report.passed
    wall_net = report.resolution["wall_net"]
    medium_net = report.resolution["medium_net"]
    scale = max(abs(wall_net), abs(medium_net))
    assert abs(wall_net - medium_net) <= 0.03 * scale


def test_energy_balance_pure_scattering_has_zero_medium_net():
    mesh, grid = builtin_case("cube", 3)
    props = RadiativeProperties(sigma_a=0.0, sigma_s=1.0,
                                domain_diameter=mesh.diameter())
    asm = Assembler(mesh, grid)
    state = solve_rites(asm.assemble_surface(props), asm.assemble_volume(props),
                        props)
    report = energy_balance(state, mesh, grid, props)
    assert report.resolution["medium_net"] == 0.0
    # A transparent-to-absorption medium exchanges nothing on net, so the
    # wall total must vanish relative to the gross emission throughput.
    assert report.passed


def test_energy_balance_rejects_corrupted_state(solved_cube):
    mesh, grid, props, state = solved_cube
    broken = SolutionState(
        q=2.0 * state.q,
        incident=state.incident,
        converged=state.converged,
        iterations=state.iterations,
        contraction_ratio=state.contraction_ratio,
    )
    report = energy_balance(broken, mesh, grid, props)
    assert not report.passed
    assert report.value > 0.03


# ---------------------------------------------------------------------------
# Suite runner and report output


def test_standard_suite_shape_and_determinism(solved_cube):
    mesh, grid, props, state = solved_cube
    bare = standard_suite(mesh, grid, props)
    assert [r.name for r in bare] == ["closure_wall_kernel", "closure_interior_kernel"]
    assert all(r.passed for r in bare)
    full = standard_suite(mesh, grid, props, state=state)
    assert [r.name for r in full] == [
        "closure_wall_kernel", "closure_interior_kernel", "energy_balance",
    ]
    assert all(r.passed for r in full)
    again = standard_suite(mesh, grid, props, state=state)
    assert full == again


def test_standard_suite_closures_pass_on_lshape():
    # The builtin L is not convex: its notch hides part of the surface from
    # the suite's interior probe point.
    mesh, grid = builtin_case("lshape", 2)
    props = RadiativeProperties(sigma_a=0.5, sigma_s=0.5, domain_diameter=mesh.diameter())
    reports = standard_suite(mesh, grid, props)
    assert [r.name for r in reports] == ["closure_wall_kernel", "closure_interior_kernel"]
    assert all(r.passed for r in reports), report_table(reports)


def test_standard_suite_resolutions_are_read_only(solved_cube):
    mesh, grid, props, state = solved_cube
    for report in standard_suite(mesh, grid, props, state=state):
        with pytest.raises(TypeError):
            report.resolution["extra"] = 1.0


def test_report_outputs_round_trip(tmp_path, solved_cube):
    mesh, grid, props, state = solved_cube
    reports = standard_suite(mesh, grid, props, state=state)
    table = report_table(reports)
    for report in reports:
        assert report.name in table
    assert "FAIL" not in table
    path = tmp_path / "reports.csv"
    write_report_csv(path, reports)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "check"
    assert len(rows) == len(reports) + 1
    for row, report in zip(rows[1:], reports):
        assert row[0] == report.name
        assert float(row[1]) == report.value
        assert float(row[4]) == report.rel_deviation
        assert int(row[6]) == int(report.passed)