"""Active lists, blocker listing, exact shadow clipping, sight lines."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ritesolver import visibility
from ritesolver.geometry import DegenerateElement, SurfaceMesh, VoxelGrid, segment_element_hits
from ritesolver.visibility import (
    UNOBSTRUCTED,
    Classification,
    build_active_list,
    classify_visibility,
    screen_active_set,
)
from tests.conftest import make_cube_mesh, make_dented_cube_mesh
from tests.oracles import shadow_cuts

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
    """The ids of the blockers the screen lists for one (point, active
    element) pair."""
    return tuple(b for b, _ in screen_active_set(p, [active_index], scene, source_element)[0])


def screen_entry(p, active_index, blockers, scene):
    """Hand-picked blockers of one pair as a screen entry: each with its
    shadow cone, those casting none left out."""
    blockers = np.asarray(blockers, dtype=int)
    targets = np.full(blockers.size, active_index)
    cones, _ = visibility._cones(np.asarray(p, dtype=float), targets, blockers, scene.arrays())
    return tuple((b, cone) for b, cone in zip(blockers.tolist(), cones) if cone is not None)


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
    # A cone that holds the whole element is listed alone: the clipper's
    # first cut leaves nothing, and later blockers are not clipped.
    scene = open_scene(plate(0.5, 0.5, 0.5, 0.7), plate(0.5, 0.5, 0.25, 0.1))
    assert blockers_of(scene, P_BOTTOM, 1, 0) == (2,)
    report = classify(scene, P_BOTTOM, 1, 0)
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
    assert blockers_of(scene, P_BOTTOM, 1, 0) == (2, 3, 4, 5)
    report = classify(scene, P_BOTTOM, 1, 0)
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


def all_rows(case):
    """(mesh, [(p, normal, own element)]) for every collocation row of a
    case: wall points with their normal and element, interior points with
    None for both."""
    from ritesolver.assembly import collocation_points
    from ritesolver.cli import builtin_case

    if case.startswith("lshape_r"):
        mesh, grid = builtin_case("lshape", int(case[-1]))
    else:
        mesh = make_dented_cube_mesh()
        grid = VoxelGrid([0.0, 0.0, 0.0], 0.5, [2, 2, 2], np.full(8, 1000.0))
    if case == "turned_dented_cube":
        # Turned off the axes, so that no product rounds exactly.
        turn, _ = np.linalg.qr(np.array([[1.0, 0.2, 0.3], [0.1, 1.0, 0.4], [0.2, 0.5, 1.0]]))
        mesh = SurfaceMesh(mesh.nodes @ turn.T + [0.3, -0.2, 0.1], mesh.element_nodes,
                           1.0, mesh.node_temperatures)
        grid = VoxelGrid([-0.7, -1.2, -0.9], 1.0, [3, 3, 3], np.full(27, 1000.0))
    col = collocation_points(mesh, grid)
    rows = [(p, n, int(own)) for p, n, own in
            zip(col.boundary_points, col.boundary_normals, col.boundary_element)]
    return mesh, rows + [(p, None, None) for p in col.interior_points]


def separation_off(monkeypatch):
    """Switch the cone stage's separating step off: the screen lists every
    cone a candidate casts, and none is taken to hold its element."""
    sides = visibility._sides
    monkeypatch.setattr(visibility, "_sides", lambda *args: tuple(
        np.zeros_like(mask) for mask in sides(*args)))


def holds(p, k, cone, mesh):
    """Whether a cone holds every vertex of element k, within the clipper's
    tolerance."""
    element = mesh.elements[k]
    g = (element.vertices - p) @ cone.T
    return bool((g >= -visibility._CUT_RTOL * element.diameter).all())


def unseparated_screens(monkeypatch, mesh, rows):
    """The screen of every (p, active, own) row with the separating step
    off and a missing cone listed as an empty one: all the plane-side test
    keeps."""
    cones = visibility._cones

    def every_cone(*args):
        found, inside = cones(*args)
        return [np.zeros((0, 3)) if cone is None else cone for cone in found], inside

    with monkeypatch.context() as patch:
        separation_off(patch)
        patch.setattr(visibility, "_cones", every_cone)
        return [screen_active_set(p, active, mesh, own) for p, active, own in rows]


@pytest.mark.parametrize("case", ["dented_cube", "turned_dented_cube", "lshape_r1"])
def test_screen_drops_only_what_the_clipper_cannot_cut(monkeypatch, case):
    # Every candidate the plane-side test keeps and the cone stage drops
    # must leave the clipper nothing to cut, alone in front of its target
    # with the separating step off, unless the element's one listed cone
    # holds it whole.
    mesh, rows = all_rows(case)
    rows = [(p, build_active_list(p, n, mesh, source_element=own), own) for p, n, own in rows]
    screens = [screen_active_set(p, active, mesh, own) for p, active, own in rows]
    unscreened = unseparated_screens(monkeypatch, mesh, rows)
    separation_off(monkeypatch)
    dropped = 0
    for (p, active, _), screened, everything in zip(rows, screens, unscreened):
        for k, kept, listed in zip(active, screened, everything):
            if len(kept) == 1 and holds(p, k, kept[0][1], mesh):
                continue
            kept, listed = {b for b, _ in kept}, {b for b, _ in listed}
            assert kept <= listed
            for b in listed - kept:
                entry = screen_entry(p, k, (b,), mesh)
                assert classify_visibility(p, k, entry, mesh) is UNOBSTRUCTED, (p, k, b)
                dropped += 1
    assert dropped > 100


# Pairs the screen lists per cold assembly; the cone stage's separating
# step leaves none of them fully visible.
LISTED_PAIRS = {"dented_cube": 27, "turned_dented_cube": 27, "lshape_r1": 267, "lshape_r2": 3936}


@pytest.mark.parametrize("case", sorted(LISTED_PAIRS))
def test_no_listed_pair_is_fully_visible(case):
    mesh, rows = all_rows(case)
    listed = 0
    for p, n, own in rows:
        active = build_active_list(p, n, mesh, source_element=own)
        for k, screened in zip(active, screen_active_set(p, active, mesh, own)):
            if screened:
                report = classify_visibility(p, k, screened, mesh)
                assert report.classification is not Classification.FULLY_VISIBLE, (p, k)
                listed += 1
    assert listed == LISTED_PAIRS[case]


@pytest.mark.parametrize("case, contained", [("lshape_r1", 81), ("lshape_r2", 1342)])
def test_contained_target_lists_only_its_blocker(monkeypatch, case, contained):
    # An element inside one cone lists that blocker alone, the first in
    # mesh order whose cone holds it; the clipper's one cut leaves nothing.
    mesh, rows = all_rows(case)
    rows = [(p, build_active_list(p, n, mesh, source_element=own), own) for p, n, own in rows]
    unscreened = unseparated_screens(monkeypatch, mesh, rows)
    held = 0
    for (p, active, own), everything in zip(rows, unscreened):
        for k, screened, listed in zip(active, screen_active_set(p, active, mesh, own),
                                       everything):
            inside = [b for b, cone in listed if len(cone) and holds(p, k, cone, mesh)]
            if inside:
                assert [b for b, _ in screened] == inside[:1]
                report = classify_visibility(p, k, screened, mesh)
                assert report.classification is Classification.FULLY_BLOCKED
                assert report.depth_reached == 1
                held += 1
    assert held == contained


def edge_scene(lift):
    """The unit floor square (element 0) and a quad (element 1) meeting it
    along its x = 1 edge, lifted by lift, and folding away below its plane
    so that its own plane still separates the floor from a point above."""
    blocker = [[1.0, 0.0, lift], [1.0, 1.0, lift], [1.5, 1.0, lift - 0.25],
               [1.5, 0.0, lift - 0.25]]
    return quad_scene(BOTTOM, blocker)


def plate_scene(lift):
    """The unit floor square (element 0) and a wall (element 1) standing in
    the plane x = 0.6 from z = -1 up to lift above the floor's plane."""
    wall = [[0.6, 0.2, -1.0], [0.6, 0.8, -1.0], [0.6, 0.8, lift], [0.6, 0.2, lift]]
    return quad_scene(BOTTOM, wall)


P_ABOVE = np.array([0.2, 0.5, 0.5])


def test_screen_drops_a_neighbour_across_a_shared_edge():
    # The neighbour's plane separates the point from the floor's far edge,
    # so the plane-side test keeps it; its vertices sit at 0 on the floor's
    # plane or behind it, where the cone build's slab clip leaves nothing.
    scene = edge_scene(0.0)
    assert screen_active_set(P_ABOVE, [0], scene)[0] == ()
    assert visibility._separates(P_ABOVE, np.array([0]), scene.arrays(), np.array([1]))[0]
    assert classify_visibility(P_ABOVE, 0, screen_entry(P_ABOVE, 0, (1,), scene),
                               scene) is UNOBSTRUCTED


def test_shaft_keeps_a_blocker_poking_past_the_target_plane(monkeypatch):
    # Lifted 1e-10 times the floor's diameter, the wall's top reaches into
    # the slab by more than the clipper's tolerance and casts a sliver of
    # shadow, so the screen must keep it. Sitting on the plane, it casts
    # none, and the screen drops it.
    diameter = np.sqrt(2.0)
    poking = plate_scene(1e-10 * diameter)
    assert blockers_of(poking, P_ABOVE, 0, None) == (1,)
    report = classify(poking, P_ABOVE, 0, None)
    assert report.classification is Classification.PARTIALLY_VISIBLE
    assert 0.0 < 1.0 - report.fraction < 1e-9
    flush = plate_scene(0.0)
    assert screen_active_set(P_ABOVE, [0], flush)[0] == ()
    assert classify_visibility(P_ABOVE, 0, screen_entry(P_ABOVE, 0, (1,), flush),
                               flush) is UNOBSTRUCTED
    # Lifted just off a shared edge, the neighbour casts a cone, but it
    # lands outside the floor: the side plane through p and the floor's
    # x = 1 edge has the clipped neighbour on its outer side, so the screen
    # drops it, and alone it leaves the clipper nothing to cut.
    lifted = edge_scene(1e-10 * diameter)
    assert blockers_of(lifted, P_ABOVE, 0, None) == ()
    separation_off(monkeypatch)
    entry = screen_entry(P_ABOVE, 0, (1,), lifted)
    assert len(entry) == 1
    assert classify_visibility(P_ABOVE, 0, entry, lifted) is UNOBSTRUCTED


@pytest.mark.parametrize("blocker", ["wall", "plate"])
def test_screen_keeps_a_shadow_band_just_inside_the_edge(monkeypatch, blocker):
    # Each blocker shades the floor's band x > 1 - delta from P_ABOVE: a
    # wall standing on the floor at x = 1 - delta, which only the side
    # plane through p and the floor's x = 1 edge could part from it, and a
    # plate at z = 0.25, which only its own cone's edge plane could. A band
    # a millionth wide is far above the clipper's tolerance, so the screen
    # keeps it; moved a millionth outside, the plate's shadow misses.
    def scene(delta):
        if blocker == "wall":
            x = 1.0 - delta
            return quad_scene(BOTTOM, [[x, 0.0, 0.0], [x, 1.0, 0.0], [x, 1.0, 0.3], [x, 0.0, 0.3]])
        x = 0.6 - delta / 2
        return quad_scene(BOTTOM, [[x, -1.0, 0.25], [2.0, -1.0, 0.25], [2.0, 2.0, 0.25],
                                   [x, 2.0, 0.25]])

    inside = scene(1e-6)
    assert blockers_of(inside, P_ABOVE, 0, None) == (1,)
    report = classify(inside, P_ABOVE, 0, None)
    assert report.classification is Classification.PARTIALLY_VISIBLE
    assert 1.0 - report.fraction == pytest.approx(1e-6, rel=1e-6)
    if blocker == "plate":
        outside = scene(-1e-6)
        assert blockers_of(outside, P_ABOVE, 0, None) == ()
        separation_off(monkeypatch)
        entry = screen_entry(P_ABOVE, 0, (1,), outside)
        assert len(entry) == 1
        assert classify_visibility(P_ABOVE, 0, entry, outside) is UNOBSTRUCTED


def test_shaft_keeps_a_facet_lying_within_the_clippers_tolerance():
    # A small triangle on the floor, its vertices within the clipper's
    # tolerance of the floor's plane and its plane tilted enough to
    # separate the point from the floor's far corners: the slab clip keeps
    # all three vertices, so the clipper cuts its outline out of the floor,
    # and the screen must keep it although no vertex is in front.
    facet = [[0.5, 0.5, 0.0], [0.501, 0.5, 0.0], [0.5, 0.501, 1e-12]]
    scene = SurfaceMesh(np.array(BOTTOM + facet), [(0, 1, 2, 3), (4, 5, 6)], check_closed=False)
    assert blockers_of(scene, P_ABOVE, 0, None) == (1,)
    report = classify(scene, P_ABOVE, 0, None)
    assert report.classification is Classification.PARTIALLY_VISIBLE
    assert 1.0 - report.fraction == pytest.approx(0.5e-6, rel=1e-3)


def test_screen_lists_only_blockers_casting_a_cone():
    # A triangle standing on p's plane, two of its vertices on that plane
    # either side of p and the third above it. The plane-side test keeps
    # it, but nothing of it lies between p and the floor, so it casts no
    # cone and the screen leaves it out.
    c = np.array([0.22, 0.48, 0.5])
    triangle = [c - [0.1, 0.1, 0.0], c + [0.1, 0.1, 0.0], c + [0.05, -0.05, 0.3]]
    scene = SurfaceMesh(np.array(BOTTOM + triangle), [(0, 1, 2, 3), (4, 5, 6)],
                        check_closed=False)
    arrays, floor, blocker = scene.arrays(), np.array([0]), np.array([1])
    assert visibility._separates(P_ABOVE, floor, arrays, blocker)[0]
    assert visibility._cones(P_ABOVE, floor, blocker, arrays)[0] == [None]
    assert screen_active_set(P_ABOVE, [0], scene)[0] == ()
    assert classify_visibility(P_ABOVE, 0, (), scene) is UNOBSTRUCTED


def overlap_area(p, element, cone):
    """Area of the element inside a shadow cone, clipped exactly."""
    poly = element.vertices
    for m in cone:
        poly, _ = visibility._split(poly, (poly - p) @ m, 0.0)
        if len(poly) < 3:
            return 0.0
    return visibility._polygon_area(poly, element.normal)


def convex_quad(jitter, stretch, shear):
    """A convex quad in the plane z = 0, wound counter-clockwise about +z:
    four points of the unit circle, a quarter turn apart up to jitter,
    stretched and sheared along x."""
    angles = np.arange(4) * np.pi / 2 + np.asarray(jitter)
    x, y = np.cos(angles), np.sin(angles)
    return np.stack([stretch * x + shear * y, y, np.zeros(4)], axis=1)


vectors = st.tuples(*[st.floats(-1.0, 1.0) for _ in range(3)]).map(np.array)


# About a quarter of the drawn blockers reach the cone stage; the rest fail
# the plane-side test or cast no cone.
@settings(max_examples=200)
@given(
    jitter=st.lists(st.floats(-0.6, 0.6), min_size=4, max_size=4),
    stretch=st.floats(0.3, 3.0),
    shear=st.floats(-1.0, 1.0),
    p=st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5), st.floats(0.05, 2.0)).map(np.array),
    corner=st.integers(0, 3),
    shared=st.sampled_from(["edge", "vertex"]),
    lean=st.tuples(st.floats(-0.5, 0.9), st.floats(-0.5, 0.9)),
    reach=vectors,
    spread=vectors,
    away=vectors,
    offset=st.sampled_from([0.0, 1e-10, -1e-10]),
)
def test_screen_lists_overlapping_shadows_and_drops_the_rest(
        jitter, stretch, shear, p, corner, shared, lean, reach, spread, away, offset):
    # A blocker sharing an edge or a vertex with a convex target, or
    # standing off it by 1e-10 of its diameter either way; its free
    # vertices lean toward p or away from it, so that many blockers reach
    # into the view. A pair the screen drops leaves the clipper nothing to
    # cut with the separating step off; a pair it lists is fully visible
    # only when the shadow overlaps the target in less than a sliver.
    target = convex_quad(jitter, stretch, shear)
    diameter = max(np.linalg.norm(a - b) for a in target for b in target)
    a, b = target[corner], target[(corner + 1) % 4]
    reach = lean[0] * (p - a) + 0.5 * reach
    spread = lean[1] * (p - a) + 0.5 * spread
    if shared == "edge":
        blocker = np.array([b, a, a + reach, b + reach])
        span = np.cross(a - b, reach)
    else:
        blocker = np.array([a, a + reach, a + spread])
        span = np.cross(reach, spread)
    assume(np.linalg.norm(span) > 0.05 and np.linalg.norm(away) > 0.1)
    blocker = blocker + offset * diameter * away / np.linalg.norm(away)
    try:
        scene = SurfaceMesh(np.concatenate([target, blocker]),
                            [(0, 1, 2, 3), tuple(range(4, 4 + len(blocker)))],
                            check_closed=False)
    except DegenerateElement:
        assume(False)
    assume(build_active_list(p, None, scene).tolist()[:1] == [0])
    listed = screen_active_set(p, [0], scene)[0]
    with pytest.MonkeyPatch.context() as patch:
        separation_off(patch)
        alone = classify_visibility(p, 0, screen_active_set(p, [0], scene)[0], scene)
    if not listed:
        assert alone is UNOBSTRUCTED
        return
    report = classify_visibility(p, 0, listed, scene)
    if report.classification is Classification.FULLY_VISIBLE:
        element = scene.elements[0]
        assert overlap_area(p, element, listed[0][1]) < visibility._SLIVER_RTOL * element.area


@pytest.mark.parametrize("case", ["dented_cube", "turned_dented_cube", "lshape_r1"])
def test_row_batched_clipper_matches_pair_by_pair(case):
    # A row's shadow cones are built in one padded pass. Each listed cone
    # must equal the scalar route's cone bit for bit, and classifying with
    # the row's cones, with the scalar cones and with cones built for the
    # pair alone must agree bit for bit.
    mesh, rows = all_rows(case)
    arrays = mesh.arrays()
    pairs = partial = 0
    for p, n, own in rows:
        active = build_active_list(p, n, mesh, source_element=own)
        for k, screened in zip(active, screen_active_set(p, active, mesh, own)):
            element = mesh.elements[k]
            tol = visibility._CUT_RTOL * element.diameter
            blockers = [b for b, _ in screened]
            scalar = [shadow_cuts(p, element, arrays.vertices[b, : arrays.n_vertices[b]],
                                  arrays.normals[b], tol) for b in blockers]
            for (_, cone), ref in zip(screened, scalar):
                assert ref is not None and np.array_equal(cone, ref)
            batched = classify_visibility(p, k, screened, mesh)
            for other in (classify_visibility(p, k, tuple(zip(blockers, scalar)), mesh),
                          classify_visibility(p, k, screen_entry(p, k, blockers, mesh), mesh)):
                assert batched.classification is other.classification
                assert np.array_equal(batched.visible, other.visible)
                assert batched.fraction == other.fraction
                assert batched.depth_reached == other.depth_reached
            pairs += bool(screened)
            partial += batched.classification is Classification.PARTIALLY_VISIBLE
    assert pairs == LISTED_PAIRS[case] and partial > 10


@pytest.mark.parametrize("case", ["dented_cube", "turned_dented_cube", "lshape_r1"])
def test_stacked_screen_matches_single_points(case):
    # The assembler lists the active elements of many rows in one mask and
    # measures and screens all their pairs in one call each, one point and
    # one source element per pair. Every row's list, and every pair's
    # distance, blockers and cones, must equal its own row's one-point call
    # bit for bit.
    from ritesolver.assembly import point_element_distances

    mesh, rows = all_rows(case)
    arrays = mesh.arrays()
    listed = 0
    for group in ([r for r in rows if r[2] is not None], [r for r in rows if r[2] is None]):
        points = np.array([p for p, _, _ in group])
        walls = group[0][2] is not None
        normals = np.array([n for _, n, _ in group]) if walls else None
        owners = np.array([own for _, _, own in group]) if walls else None
        mask = build_active_list(points, normals, mesh, owners)
        at, active = np.nonzero(mask)
        stacked = screen_active_set(points[at], active, mesh, owners[at] if walls else None)
        dists = point_element_distances(points[at], arrays.vertices[active],
                                        arrays.normals[active])
        end = 0
        for row, (p, n, own) in enumerate(group):
            single = build_active_list(p, n, mesh, source_element=own)
            assert np.array_equal(np.flatnonzero(mask[row]), single)
            pairs = slice(end, end + single.size)
            end += single.size
            assert np.array_equal(dists[pairs], point_element_distances(
                p, arrays.vertices[single], arrays.normals[single]))
            for got, alone in zip(stacked[pairs], screen_active_set(p, single, mesh, own)):
                assert [b for b, _ in got] == [b for b, _ in alone]
                assert all(np.array_equal(c, a) for (_, c), (_, a) in zip(got, alone))
                listed += bool(alone)
        assert end == len(stacked)
    assert listed == LISTED_PAIRS[case]


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
    screened = screen_active_set(p, [active_index], scene, source_element)[0]
    return classify_visibility(p, active_index, screened, scene)


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
            brute = classify_visibility(p, 1, screen_entry(p, 1, unculled, scene), scene)
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
