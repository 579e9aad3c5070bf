"""Facing tests, blocker listing, quadtree classification, sight indicator."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ritesolver.geometry import SurfaceMesh, build_element
from ritesolver.visibility import (
    EARLY_BLOCKED,
    BlockingList,
    Classification,
    SubdivisionBudget,
    build_active_list,
    build_blocking_list,
    chi_point,
    classify_visibility,
    facing_test,
    screen_active_set,
)
from tests.conftest import make_cube_mesh

BOTTOM = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 0.0]]
TOP = [[0.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 0.0, 1.0]]


def plate(cx, cy, z, half):
    return [
        [cx - half, cy - half, z],
        [cx + half, cy - half, z],
        [cx + half, cy + half, z],
        [cx - half, cy + half, z],
    ]


def open_scene(*extra_quads):
    """Two facing unit squares plus occluders; bottom is element 0, top 1."""
    nodes = []
    faces = []
    for quad in (BOTTOM, TOP, *extra_quads):
        base = len(nodes)
        nodes.extend(quad)
        faces.append(tuple(range(base, base + 4)))
    return SurfaceMesh(np.array(nodes), faces, check_closed=False)


P_BOTTOM = np.array([0.5, 0.5, 0.0])
N_BOTTOM = np.array([0.0, 0.0, 1.0])


# ---------------------------------------------------------------------------
# Facing test and active lists


def test_parallel_squares_face_each_other():
    scene = open_scene()
    assert facing_test(P_BOTTOM, N_BOTTOM, scene.elements[1])


def test_flipped_normal_fails_facing():
    flipped = build_element(np.array(TOP)[::-1])
    assert not facing_test(P_BOTTOM, N_BOTTOM, flipped)
    assert not facing_test(P_BOTTOM, -N_BOTTOM, open_scene().elements[1])


def test_coplanar_configurations_are_not_facing():
    side_by_side = build_element(plate(1.6, 0.5, 0.0, 0.5))
    assert not facing_test(P_BOTTOM, N_BOTTOM, side_by_side)
    above = build_element(plate(0.5, 0.5, 0.5, 0.2))
    assert not facing_test(np.array([0.5, 0.5, 0.5]), N_BOTTOM, above)


def test_medium_point_uses_single_sided_test():
    scene = open_scene()
    mid = np.array([0.5, 0.5, 0.4])
    assert facing_test(mid, None, scene.elements[0])
    assert facing_test(mid, None, scene.elements[1])


def test_active_list_on_cube_face_point():
    mesh = make_cube_mesh()
    active = build_active_list(P_BOTTOM, N_BOTTOM, mesh, source_element=0)
    assert active.indices == (1, 2, 3, 4, 5)


def test_active_list_at_cube_center():
    mesh = make_cube_mesh()
    active = build_active_list([0.5, 0.5, 0.5], None, mesh)
    assert active.indices == (0, 1, 2, 3, 4, 5)


# ---------------------------------------------------------------------------
# Blocking lists


def test_convex_cube_blocking_lists_are_empty():
    mesh = make_cube_mesh()
    points = [
        (np.array([0.5, 0.5, 0.0]), 0),
        (np.array([0.31, 0.77, 0.0]), 0),
        (np.array([1.0, 0.5, 0.42]), 5),
        (np.array([0.12, 0.5, 1.0]), 1),
    ]
    for p, own in points:
        active = build_active_list(p, mesh.elements[own].normal, mesh, source_element=own)
        assert len(active.indices) == 5
        for k in active.indices:
            result = build_blocking_list(p, k, mesh, source_element=own)
            assert isinstance(result, BlockingList)
            assert result.blockers == ()


def test_wide_plate_triggers_early_block():
    scene = open_scene(plate(0.5, 0.5, 0.5, 0.7))
    result = build_blocking_list(P_BOTTOM, 1, scene, source_element=0)
    assert result is EARLY_BLOCKED


def test_small_offset_plate_enters_via_view_window():
    scene = open_scene(plate(0.55, 0.5, 0.5, 0.05))
    result = build_blocking_list(P_BOTTOM, 1, scene, source_element=0)
    assert isinstance(result, BlockingList)
    assert result.blockers == (2,)


def test_coplanar_neighbor_of_active_is_excluded():
    scene = open_scene(plate(1.6, 0.5, 1.0, 0.5))
    result = build_blocking_list(P_BOTTOM, 1, scene, source_element=0)
    assert isinstance(result, BlockingList)
    assert 2 not in result.blockers


def test_corner_covering_plates_trigger_union_rule():
    plates = [plate(0.25, 0.25, 0.5, 0.06), plate(0.75, 0.25, 0.5, 0.06),
              plate(0.75, 0.75, 0.5, 0.06), plate(0.25, 0.75, 0.5, 0.06)]
    scene = open_scene(*plates)
    result = build_blocking_list(P_BOTTOM, 1, scene, source_element=0)
    assert result is EARLY_BLOCKED


def test_refined_convex_cube_screens_everything_out():
    from ritesolver.cli import builtin_case

    mesh, _ = builtin_case("cube", 3)
    p = np.array([0.41, 0.26, 0.0])
    own = next(
        k for k, e in enumerate(mesh.elements)
        if e.normal[2] == 1.0 and np.all(np.abs(p[:2] - e.centroid[:2]) < 1.0 / 6.0)
    )
    active = build_active_list(p, mesh.elements[own].normal, mesh, source_element=own)
    outcomes = screen_active_set(p, active.indices, mesh, source_element=own)
    assert len(outcomes) == len(active.indices)
    for outcome in outcomes:
        assert outcome == ()


# Two lshape r2 wall points that look past the notch edge: the high ceiling
# looking down the low arm, and the floor under the low ceiling.
NOTCH_VIEW_POINTS = (np.array([0.75, 0.75, 3.0]), np.array([0.51, 1.93, 0.0]))


def lshape_screen_outcomes(p):
    """(lshape r2 mesh, [(active element, screen outcome)]) for a wall point."""
    from ritesolver.cli import builtin_case

    mesh, _ = builtin_case("lshape", 2)
    own = next(
        k for k, e in enumerate(mesh.elements)
        if abs(e.normal @ (p - e.centroid)) < 1e-12
        and np.all(np.abs(p - e.centroid) <= e.diameter)
    )
    active = build_active_list(p, mesh.elements[own].normal, mesh, source_element=own)
    outcomes = screen_active_set(p, active.indices, mesh, source_element=own)
    return mesh, list(zip(active.indices, outcomes))


def test_clear_screen_outcomes_are_fully_visible():
    # An empty blocker list must mean a fully visible element, as judged by
    # brute-force ray sampling. One point keeps the oracle cost bounded.
    from ritesolver.validation import visibility_oracle

    mesh, pairs = lshape_screen_outcomes(NOTCH_VIEW_POINTS[0])
    clear = [k for k, outcome in pairs if outcome == ()]
    assert len(clear) > 10
    for k in clear:
        fraction = visibility_oracle(NOTCH_VIEW_POINTS[0], mesh.elements[k], mesh,
                                     n_rays=10_000)
        assert fraction == pytest.approx(1.0, abs=0.01), k


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the center-ray rule blocks elements whose center sight line grazes the notch "
    "edge although up to 38% of them stays in view"
))
def test_early_blocked_screen_outcomes_are_fully_hidden():
    from ritesolver.validation import visibility_oracle

    checked = 0
    for p in NOTCH_VIEW_POINTS:
        mesh, pairs = lshape_screen_outcomes(p)
        for k in [k for k, outcome in pairs if outcome is EARLY_BLOCKED]:
            fraction = visibility_oracle(p, mesh.elements[k], mesh, n_rays=10_000)
            assert fraction == pytest.approx(0.0, abs=0.01), (p, k)
            checked += 1
    assert checked > 10


# ---------------------------------------------------------------------------
# Classification


def classify(scene, p, active_index, source_element, budget=None):
    blockers = build_blocking_list(p, active_index, scene, source_element)
    if blockers is EARLY_BLOCKED:
        blockers = BlockingList(np.asarray(p, float), active_index, tuple())
        # An early block IS a classification; mirror what assembly does.
        from ritesolver.visibility import VisibilityReport

        return VisibilityReport(Classification.FULLY_BLOCKED, (), 0.0, 0)
    return classify_visibility(p, blockers, scene, budget)


def shadow_fraction(half, center=(0.5, 0.5)):
    """Exact visible fraction of the top square behind a z=0.5 plate."""
    x0 = max(2 * (center[0] - half) - 0.5, 0.0)
    x1 = min(2 * (center[0] + half) - 0.5, 1.0)
    y0 = max(2 * (center[1] - half) - 0.5, 0.0)
    y1 = min(2 * (center[1] + half) - 0.5, 1.0)
    return 1.0 - max(x1 - x0, 0.0) * max(y1 - y0, 0.0)


def test_convex_pair_is_fully_visible_without_subdivision():
    mesh = make_cube_mesh()
    report = classify(mesh, P_BOTTOM, 1, 0)
    assert report.classification is Classification.FULLY_VISIBLE
    assert report.fraction == 1.0
    assert report.depth_reached == 0
    assert report.visible == ()


def test_centered_plate_fraction_matches_projection():
    for half in (0.125, 0.2):
        scene = open_scene(plate(0.5, 0.5, 0.5, half))
        report = classify(scene, P_BOTTOM, 1, 0)
        assert report.classification is Classification.PARTIALLY_VISIBLE
        expect = shadow_fraction(half)
        assert report.fraction == pytest.approx(expect, abs=0.02)
        total = sum(sub.area for sub in report.visible)
        assert total == pytest.approx(report.fraction * scene.elements[1].area, rel=1e-9)


def test_offset_plate_fraction():
    scene = open_scene(plate(0.55, 0.5, 0.5, 0.05))
    report = classify(scene, P_BOTTOM, 1, 0)
    expect = shadow_fraction(0.05, center=(0.55, 0.5))
    assert report.fraction == pytest.approx(expect, abs=0.02)


def test_wide_plate_classifies_fully_blocked():
    scene = open_scene(plate(0.5, 0.5, 0.5, 0.7))
    report = classify(scene, P_BOTTOM, 1, 0)
    assert report.classification is Classification.FULLY_BLOCKED
    assert report.fraction == 0.0


def test_added_occluders_never_increase_fraction():
    fractions = []
    for halves in ([], [0.1], [0.1, 0.2]):
        scene = open_scene(*(plate(0.5, 0.5, 0.5 - 0.1 * i, h) for i, h in enumerate(halves)))
        fractions.append(classify(scene, P_BOTTOM, 1, 0).fraction)
    assert fractions[0] == 1.0
    assert fractions[1] <= fractions[0]
    assert fractions[2] <= fractions[1]


def test_budget_limits_depth():
    scene = open_scene(plate(0.5, 0.5, 0.5, 0.125))
    shallow = classify(scene, P_BOTTOM, 1, 0, budget=SubdivisionBudget(max_depth=2))
    assert shallow.depth_reached <= 2
    deep = classify(scene, P_BOTTOM, 1, 0, budget=SubdivisionBudget(max_depth=8))
    expect = shadow_fraction(0.125)
    assert abs(deep.fraction - expect) <= abs(shallow.fraction - expect) + 1e-12


def test_absolute_min_area_budget():
    scene = open_scene(plate(0.5, 0.5, 0.5, 0.125))
    coarse = classify(scene, P_BOTTOM, 1, 0, budget=SubdivisionBudget(min_area=0.26))
    # Children of the unit square are 0.25 m^2 < min area, so only one level.
    assert coarse.depth_reached <= 1


def test_budget_validation():
    with pytest.raises(ValueError):
        SubdivisionBudget(min_area=0.0)
    with pytest.raises(ValueError):
        SubdivisionBudget(max_depth=0)
    with pytest.raises(ValueError):
        SubdivisionBudget(min_area_fraction=-1.0)


def test_cull_free_classification_is_identical():
    scenes = [
        open_scene(plate(0.5, 0.5, 0.5, 0.125)),
        open_scene(plate(0.55, 0.5, 0.5, 0.05)),
        open_scene(plate(0.5, 0.5, 0.5, 0.7)),
        open_scene(plate(0.25, 0.25, 0.5, 0.06), plate(0.75, 0.75, 0.5, 0.06)),
    ]
    points = [P_BOTTOM, np.array([0.21, 0.68, 0.0])]
    for scene in scenes:
        # Every element but the target and the one under the point.
        unculled = tuple(range(2, scene.n_elements))
        for p in points:
            fast = classify(scene, p, 1, 0)
            brute = classify_visibility(p, BlockingList(p, 1, unculled), scene)
            assert fast.classification is brute.classification
            assert fast.fraction == brute.fraction
            assert fast.depth_reached == brute.depth_reached


# ---------------------------------------------------------------------------
# Sight indicator


def test_chi_point_on_cube_pairs():
    mesh = make_cube_mesh()
    assert chi_point([0.5, 0.5, 0.0], [0.5, 0.5, 1.0], mesh) == 1
    assert chi_point([0.1, 0.1, 0.0], [0.9, 0.9, 1.0], mesh) == 1
    assert chi_point([0.5, 0.5, 0.5], [0.5, 0.5, 0.0], mesh) == 1


def test_chi_point_detects_occluder():
    scene = open_scene(plate(0.5, 0.5, 0.5, 0.2))
    assert chi_point([0.5, 0.5, 0.0], [0.5, 0.5, 1.0], scene) == 0
    assert chi_point([0.05, 0.05, 0.0], [0.05, 0.05, 1.0], scene) == 1


def test_chi_point_symmetry(rng):
    scene = open_scene(plate(0.5, 0.5, 0.5, 0.2))
    for _ in range(50):
        a = rng.uniform([0, 0, 0], [1, 1, 1])
        b = rng.uniform([0, 0, 0], [1, 1, 1])
        if np.linalg.norm(a - b) < 1e-6:
            continue
        assert chi_point(a, b, scene) == chi_point(b, a, scene)


# ---------------------------------------------------------------------------
# Ray-sampling cross-check


def sampled_fraction(scene, p, element, n_side=120):
    """Stratified chi average over the element; brute-force ground truth."""
    u = (np.arange(n_side) + 0.5) / n_side
    uu, vv = np.meshgrid(u, u)
    v = element.vertices
    pts = (
        v[0][None, :]
        + np.outer(uu.ravel(), v[1] - v[0])
        + np.outer(vv.ravel(), v[3] - v[0])
    )
    hits = np.array([chi_point(p, q, scene) for q in pts])
    return hits.mean()


def test_fraction_tracks_ray_oracle():
    scene = open_scene(plate(0.4, 0.55, 0.5, 0.09))
    report = classify(scene, P_BOTTOM, 1, 0)
    oracle = sampled_fraction(scene, P_BOTTOM, scene.elements[1])
    assert report.fraction == pytest.approx(oracle, abs=0.02)
