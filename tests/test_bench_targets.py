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
