"""Active lists, blocker listing, exact shadow clipping, sight lines."""

import numpy as np
import pytest

from ritesolver.geometry import SurfaceMesh, segment_element_hits
from ritesolver.visibility import (
    Classification,
    build_active_list,
    classify_visibility,
    screen_active_set,
)
from tests.conftest import make_cube_mesh, make_dented_cube_mesh

BOTTOM = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 0.0]]
TOP = [[0.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 0.0, 1.0]]


def plate(cx, cy, z, half):
    return [
        [cx - half, cy - half, z],
        [cx + half, cy - half, z],
        [cx + half, cy + half, z],
        [cx - half, cy + half, z],
    ]


def quad_scene(*quads):
    """An open scene of the given quads, element i being quads[i]."""
    faces = [tuple(range(4 * i, 4 * i + 4)) for i in range(len(quads))]
    return SurfaceMesh(np.concatenate(quads), faces, check_closed=False)


def open_scene(*extra_quads):
    """Two facing unit squares plus occluders; bottom is element 0, top 1."""
    return quad_scene(BOTTOM, TOP, *extra_quads)


P_BOTTOM = np.array([0.5, 0.5, 0.0])
N_BOTTOM = np.array([0.0, 0.0, 1.0])


def faces(p, n_p, *quads):
    """Whether the point p (normal n_p, None inside the medium) and each
    quad face each other, as the active list decides it."""
    active = build_active_list(np.asarray(p, dtype=float), n_p, quad_scene(*quads))
    return [k in active for k in range(len(quads))]


def sees(a, b, scene):
    """Unobstructed sight between two points, endpoints excluded."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return not segment_element_hits(a[None, :], b[None, :], scene.arrays()).any()


# ---------------------------------------------------------------------------
# Facing test and active lists


def test_parallel_squares_face_each_other():
    assert faces(P_BOTTOM, N_BOTTOM, TOP) == [True]


def test_flipped_normal_fails_facing():
    assert faces(P_BOTTOM, N_BOTTOM, TOP[::-1]) == [False]
    assert faces(P_BOTTOM, -N_BOTTOM, TOP) == [False]


def test_coplanar_configurations_are_not_facing():
    assert faces(P_BOTTOM, N_BOTTOM, plate(1.6, 0.5, 0.0, 0.5)) == [False]
    assert faces([0.5, 0.5, 0.5], N_BOTTOM, plate(0.5, 0.5, 0.5, 0.2)) == [False]


def test_pairs_in_one_plane_within_tolerance_are_not_facing():
    # A plate raised 1e-10 above the floor and tilted 1e-9 toward the point:
    # the point lies 1e-9 in front of the plate's plane and the plate's
    # centroid 1e-10 above the point's, both well inside the planarity
    # tolerance over their distance of 1.1. Ten thousand times that tilt
    # and lift is a genuine, if grazing, pair.
    def tilted_plate(lift, tilt):
        return [[x, y, lift + tilt * (x - 1.6)] for x, y, _ in plate(1.6, 0.5, 0.0, 0.5)]

    assert faces(P_BOTTOM, N_BOTTOM, tilted_plate(1e-10, 1e-9)) == [False]
    assert faces(P_BOTTOM, None, plate(1.6, 0.5, -1e-10, 0.5)) == [False]
    assert faces(P_BOTTOM, N_BOTTOM, tilted_plate(1e-6, 1e-5)) == [True]
    assert faces(P_BOTTOM, None, plate(1.6, 0.5, -1e-6, 0.5)) == [True]


def test_medium_point_uses_single_sided_test():
    assert faces([0.5, 0.5, 0.4], None, BOTTOM, TOP) == [True, True]


def test_active_list_on_cube_face_point():
    mesh = make_cube_mesh()
    active = build_active_list(P_BOTTOM, N_BOTTOM, mesh, source_element=0)
    assert active.tolist() == [1, 2, 3, 4, 5]


def test_active_list_at_cube_center():
    mesh = make_cube_mesh()
    active = build_active_list([0.5, 0.5, 0.5], None, mesh)
    assert active.tolist() == [0, 1, 2, 3, 4, 5]


# ---------------------------------------------------------------------------
# Blocking lists


def blockers_of(scene, p, active_index, source_element):
    """The screen's blocker list for one (point, active element) pair."""
    return screen_active_set(p, [active_index], scene, source_element)[0]


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
        assert active.size == 5
        for k in active:
            assert blockers_of(mesh, p, k, own) == ()


def test_wide_plate_triggers_early_block():
    # Once a shadow covers the whole element, later blockers are not clipped.
    scene = open_scene(plate(0.5, 0.5, 0.5, 0.7), plate(0.5, 0.5, 0.25, 0.1))
    blockers = blockers_of(scene, P_BOTTOM, 1, 0)
    assert blockers == (2, 3)
    report = classify_visibility(P_BOTTOM, 1, blockers, scene)
    assert report.classification is Classification.FULLY_BLOCKED
    assert report.depth_reached == 1


def test_small_offset_plate_enters_via_view_window():
    scene = open_scene(plate(0.55, 0.5, 0.5, 0.05))
    assert blockers_of(scene, P_BOTTOM, 1, 0) == (2,)


def test_coplanar_neighbor_of_active_is_excluded():
    scene = open_scene(plate(1.6, 0.5, 1.0, 0.5))
    assert 2 not in blockers_of(scene, P_BOTTOM, 1, 0)


def test_corner_covering_plates_trigger_union_rule():
    # Each plate hides one corner sight line, which a corner-ray union rule
    # took for a covered view; the shadows are four 0.12 m corner squares.
    plates = [plate(0.25, 0.25, 0.5, 0.06), plate(0.75, 0.25, 0.5, 0.06),
              plate(0.75, 0.75, 0.5, 0.06), plate(0.25, 0.75, 0.5, 0.06)]
    scene = open_scene(*plates)
    blockers = blockers_of(scene, P_BOTTOM, 1, 0)
    assert blockers == (2, 3, 4, 5)
    report = classify_visibility(P_BOTTOM, 1, blockers, scene)
    assert report.fraction == pytest.approx(1.0 - 4 * 0.12**2, abs=1e-9)


def test_thin_strip_across_the_view_is_clipped():
    # A strip with every vertex outside the view and no probe ray through
    # it still casts a band 0.08 m wide across the far square.
    strip = [[-1.0, 0.30, 0.5], [2.0, 0.30, 0.5], [2.0, 0.34, 0.5], [-1.0, 0.34, 0.5]]
    report = classify(open_scene(strip), P_BOTTOM, 1, 0)
    assert report.classification is Classification.PARTIALLY_VISIBLE
    assert report.fraction == pytest.approx(0.92, abs=1e-9)


def test_refined_convex_cube_screens_everything_out():
    from ritesolver.cli import builtin_case

    mesh, _ = builtin_case("cube", 3)
    p = np.array([0.41, 0.26, 0.0])
    own = next(
        k for k, e in enumerate(mesh.elements)
        if e.normal[2] == 1.0 and np.all(np.abs(p[:2] - e.centroid[:2]) < 1.0 / 6.0)
    )
    active = build_active_list(p, mesh.elements[own].normal, mesh, source_element=own)
    outcomes = screen_active_set(p, active, mesh, source_element=own)
    assert len(outcomes) == active.size
    for outcome in outcomes:
        assert outcome == ()


# Two lshape r2 wall points that look past the notch edge: the high ceiling
# looking down the low arm, and the floor under the low ceiling.
NOTCH_VIEW_POINTS = (np.array([0.75, 0.75, 3.0]), np.array([0.51, 1.93, 0.0]))


def screen_outcomes(mesh, p, own):
    """[(active element, screen outcome)] for a point p on element own."""
    active = build_active_list(p, mesh.elements[own].normal, mesh, source_element=own)
    outcomes = screen_active_set(p, active, mesh, source_element=own)
    return list(zip(active.tolist(), outcomes))


def lshape_screen_outcomes(p):
    """(lshape r2 mesh, [(active element, screen outcome)]) for a wall point."""
    from ritesolver.cli import builtin_case

    mesh, _ = builtin_case("lshape", 2)
    own = next(
        k for k, e in enumerate(mesh.elements)
        if abs(e.normal @ (p - e.centroid)) < 1e-12
        and np.all(np.abs(p - e.centroid) <= e.diameter)
    )
    return mesh, screen_outcomes(mesh, p, own)


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


def test_classified_fractions_match_ray_oracle():
    # Every listed pair past the notch edge, partly hidden ones included
    # (some of these a center-ray rule once blocked outright), and every
    # listed pair from a slanted wall of the dented cube, whose targets
    # include triangles.
    from ritesolver.validation import visibility_oracle

    views = []
    for p in NOTCH_VIEW_POINTS:
        mesh, pairs = lshape_screen_outcomes(p)
        views.append((mesh, p, pairs))
    dent = make_dented_cube_mesh()
    p = dent.elements[4].centroid  # on the slanted x = 1 triangle
    views.append((dent, p, screen_outcomes(dent, p, 4)))
    outcomes = []
    partial_triangles = 0
    for mesh, p, pairs in views:
        for k, blockers in pairs:
            if not blockers:
                continue
            report = classify_visibility(p, k, blockers, mesh)
            fraction = visibility_oracle(p, mesh.elements[k], mesh, n_rays=10_000)
            assert report.fraction == pytest.approx(fraction, abs=0.01), (p, k)
            outcomes.append(report.classification)
            partial_triangles += (not mesh.elements[k].is_quad
                                  and report.classification is Classification.PARTIALLY_VISIBLE)
    assert len(outcomes) > 10
    assert outcomes.count(Classification.PARTIALLY_VISIBLE) > 5
    assert partial_triangles >= 2


# ---------------------------------------------------------------------------
# Classification


def classify(scene, p, active_index, source_element):
    blockers = blockers_of(scene, p, active_index, source_element)
    return classify_visibility(p, active_index, blockers, scene)


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
    assert report.visible.shape == (0, 3, 3)


def test_centered_plate_fraction_matches_projection():
    for half in (0.125, 0.2):
        scene = open_scene(plate(0.5, 0.5, 0.5, half))
        report = classify(scene, P_BOTTOM, 1, 0)
        assert report.classification is Classification.PARTIALLY_VISIBLE
        expect = shadow_fraction(half)
        assert report.fraction == pytest.approx(expect, abs=1e-9)
        tris = report.visible
        total = 0.5 * np.linalg.norm(np.cross(tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0]),
                                     axis=1).sum()
        assert total == pytest.approx(report.fraction * scene.elements[1].area, rel=1e-9)


def test_offset_plate_fraction():
    scene = open_scene(plate(0.55, 0.5, 0.5, 0.05))
    report = classify(scene, P_BOTTOM, 1, 0)
    expect = shadow_fraction(0.05, center=(0.55, 0.5))
    assert report.fraction == pytest.approx(expect, abs=1e-9)


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
            brute = classify_visibility(p, 1, unculled, scene)
            assert fast.classification is brute.classification
            assert fast.fraction == brute.fraction
            assert fast.depth_reached == brute.depth_reached


# ---------------------------------------------------------------------------
# Sight indicator


def test_chi_point_on_cube_pairs():
    mesh = make_cube_mesh()
    assert sees([0.5, 0.5, 0.0], [0.5, 0.5, 1.0], mesh)
    assert sees([0.1, 0.1, 0.0], [0.9, 0.9, 1.0], mesh)
    assert sees([0.5, 0.5, 0.5], [0.5, 0.5, 0.0], mesh)


def test_chi_point_detects_occluder():
    scene = open_scene(plate(0.5, 0.5, 0.5, 0.2))
    assert not sees([0.5, 0.5, 0.0], [0.5, 0.5, 1.0], scene)
    assert sees([0.05, 0.05, 0.0], [0.05, 0.05, 1.0], scene)


def test_chi_point_symmetry(rng):
    scene = open_scene(plate(0.5, 0.5, 0.5, 0.2))
    for _ in range(50):
        a = rng.uniform([0, 0, 0], [1, 1, 1])
        b = rng.uniform([0, 0, 0], [1, 1, 1])
        if np.linalg.norm(a - b) < 1e-6:
            continue
        assert sees(a, b, scene) == sees(b, a, scene)


# ---------------------------------------------------------------------------
# Ray-sampling cross-check


def sampled_fraction(scene, p, element, n_side=120):
    """Stratified sight-line average over the element; brute-force ground truth."""
    u = (np.arange(n_side) + 0.5) / n_side
    uu, vv = np.meshgrid(u, u)
    v = element.vertices
    pts = (
        v[0][None, :]
        + np.outer(uu.ravel(), v[1] - v[0])
        + np.outer(vv.ravel(), v[3] - v[0])
    )
    hits = segment_element_hits(np.broadcast_to(p, pts.shape), pts, scene.arrays())
    return 1.0 - hits.any(axis=1).mean()


def test_fraction_tracks_ray_oracle():
    scene = open_scene(plate(0.4, 0.55, 0.5, 0.09))
    report = classify(scene, P_BOTTOM, 1, 0)
    oracle = sampled_fraction(scene, P_BOTTOM, scene.elements[1])
    assert report.fraction == pytest.approx(oracle, abs=0.02)
