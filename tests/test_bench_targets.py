"""The benchmark's tracer must keep resolving against the package.

perfbench/spans.py wraps package functions by module attribute and reads
fields of their arguments and results in counter hooks. A refactor that
renames one of them would break traced benchmark runs without failing any
other test, so this module loads spans.py from the checkout (read-only)
and checks its targets and hooks against the current package.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from ritesolver.assembly import Assembler
from ritesolver.geometry import VoxelGrid
from ritesolver.kernels import RadiativeProperties

from conftest import make_dented_cube_mesh

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _current(spans, target, attr):
    owner = spans._resolve(target)
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_every_target_resolves(spans):
    for target, attr, _, _ in spans.TARGETS:
        owner = spans._resolve(target)
        present = attr in owner.__dict__ if isinstance(owner, type) else hasattr(owner, attr)
        assert present, f"{target}.{attr}"
        assert callable(_current(spans, target, attr)), f"{target}.{attr}"


def test_installed_wraps_and_restores_originals(spans):
    before = [_current(spans, t, a) for t, a, _, _ in spans.TARGETS]
    with spans.installed(spans.Tracer()):
        during = [_current(spans, t, a) for t, a, _, _ in spans.TARGETS]
    after = [_current(spans, t, a) for t, a, _, _ in spans.TARGETS]
    assert all(a is b for a, b in zip(after, before))
    assert all(getattr(d, "__wrapped__", None) is b for d, b in zip(during, before))


def test_hooks_read_fields_that_exist(spans):
    # A traced assembly on the dented cube passes real outcomes, reports,
    # rules and systems through every counter hook the assembler reaches.
    mesh = make_dented_cube_mesh(emissivity=0.7)
    grid = VoxelGrid([0.0, 0.0, 0.0], 0.5, [2, 2, 2], np.full(8, 1000.0))
    props = RadiativeProperties(sigma_a=0.4, sigma_s=0.6, domain_diameter=mesh.diameter())
    tracer = spans.Tracer()
    with spans.installed(tracer):
        asm = Assembler(mesh, grid)
        asm.assemble_surface(props)
        asm.assemble_volume(props)
    counts = tracer.counts[0]
    assert counts["pairs"] == counts["pairs_clear"] + counts["pairs_listed"]
    assert counts["pairs_early_blocked"] == 0
    assert counts["partial"] > 0 and counts["pieces"] > 0
    assert counts["rule_points"] > 0
    assert counts["rows"] == asm.collocation.n_boundary + asm.collocation.n_interior
    assert set(tracer.digests[0]["0"]) == {"Gmat", "Fmat", "h", "Umat", "Vmat", "t"}
    layers = tracer.layer_times(0)
    for name in ("visibility.active", "visibility.screen", "visibility.classify",
                 "assembly.rule", "assembly.projection"):
        assert layers[name]["calls"] > 0, name


def test_tracer_counts_survive_batched_row_plans(spans, tmp_path):
    # CI gates traced benchmark runs on counts the hooks take from calls
    # made through assembly's namespace: a dented-cube run_case lists 27
    # pairs, all partly visible, and a warm cube r2 point rebuilds its
    # near-band rules in 104 element_rule calls. Rows are planned in
    # batched passes, so these pin that the screen still returns one entry
    # per (row, active element) pair and that the warm rebuilds stay one
    # call per element kind per row.
    from ritesolver.assembly import collocation_points
    from ritesolver.cli import CaseConfig, builtin_case, run_case
    from ritesolver.geometry import load_mesh, write_mesh_file
    from ritesolver.visibility import build_active_list

    from conftest import DENTED_FACES

    mesh = make_dented_cube_mesh()
    records = [{"nodes": list(f), "epsilon": 1.0, "T": 500.0} for f in DENTED_FACES]
    grid = {"origin": [0.0] * 3, "spacing": [0.5] * 3, "dims": [2, 2, 2], "T": [1000.0] * 8}
    write_mesh_file(tmp_path / "dent.json", mesh.nodes, records, grid)
    col = collocation_points(*load_mesh(tmp_path / "dent.json"))
    pairs = sum(build_active_list(p, n, mesh, source_element=own).size for p, n, own in
                zip(col.boundary_points, col.boundary_normals, col.boundary_element))
    pairs += sum(build_active_list(p, None, mesh).size for p in col.interior_points)
    config = CaseConfig.from_dict({"mesh": str(tmp_path / "dent.json"), "sigma_a": 0.5,
                                   "sigma_s": 0.5, "output": str(tmp_path / "out")})
    tracer = spans.Tracer()
    with spans.installed(tracer):
        run_case(config)
    counts = tracer.counts[0]
    assert counts["pairs"] == pairs
    assert counts["pairs_listed"] == 27 and counts["partial"] == 27 and counts["full"] == 0

    cube, cube_grid = builtin_case("cube", 2)
    tracer = spans.Tracer()
    with spans.installed(tracer):
        asm = Assembler(cube, cube_grid)
        for point, (sigma_a, sigma_s) in enumerate(((0.5, 0.5), (0.1, 0.8))):
            tracer.point = point
            props = RadiativeProperties(sigma_a=sigma_a, sigma_s=sigma_s,
                                        domain_diameter=cube.diameter())
            asm.assemble_surface(props)
            asm.assemble_volume(props)
    assert tracer.counts[0]["warm_rule_calls"] == 104
