"""Spans recorded from outside the package, around the calls between layers.

The package looks each of these functions up in its caller's module
namespace (or on the `Assembler` class) at call time, so replacing that
attribute routes every call through a wrapper without touching the
package. Wrappers are installed only for a traced run and removed after.

Spans stay in memory as (name, start, end, parent, run id) rows and are
written out once, at exit. Counters are bumped by per-wrapper hooks that
look at arguments and results; they never alter either.
"""

from __future__ import annotations

import hashlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.rows: list = []             # [name id, start, end, parent row, run id]
        self._stack: list[int] = []
        self.run_id = 0                  # repetition of the workload
        self.point = 0                   # property point within the repetition
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        # run id -> property point -> block name -> SHA-256 of its float64 bytes
        self.digests: dict[int, dict[str, dict[str, str]]] = {}

    def count(self, key: str, value: float = 1.0) -> None:
        self.counts[self.run_id][key] += value

    def wrap(self, name: str, fn, hook=None):
        name_id = self._ids.setdefault(name, len(self._ids))
        if name_id == len(self.names):
            self.names.append(name)
        rows, stack = self.rows, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            row = [name_id, 0.0, 0.0, stack[-1] if stack else -1, self.run_id]
            stack.append(len(rows))
            rows.append(row)
            row[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                row[2] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def layer_times(self, run_id: int) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds for one run.

        Self time is a span's duration minus the durations of its direct
        children; children never outlive their parent, so this is the part
        of the interval no child covers.
        """
        child = np.zeros(len(self.rows))
        for name_id, start, end, parent, rid in self.rows:
            if parent >= 0 and rid == run_id:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {
            n: {"calls": 0, "total": 0.0, "self": 0.0} for n in self.names
        }
        for i, (name_id, start, end, parent, rid) in enumerate(self.rows):
            if rid != run_id:
                continue
            rec = out[self.names[name_id]]
            rec["calls"] += 1
            rec["total"] += end - start
            rec["self"] += end - start - child[i]
        return out

    def dump(self, path) -> None:
        payload = {
            "columns": ["name", "start", "end", "parent", "run_id"],
            "names": self.names,
            "rows": self.rows,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


# -- counter hooks ----------------------------------------------------------


def _on_screen(tr, args, kwargs, outcomes):
    from ritesolver.visibility import EARLY_BLOCKED

    tr.count("pairs", len(outcomes))
    for out in outcomes:
        if out is EARLY_BLOCKED:
            tr.count("pairs_early_blocked")
        elif out:
            tr.count("pairs_listed")
        else:
            tr.count("pairs_clear")
    if tr.point > 0:
        tr.count("warm_calls")


def _on_classify(tr, args, kwargs, report):
    from ritesolver.visibility import Classification

    label = {
        Classification.FULLY_VISIBLE: "full",
        Classification.FULLY_BLOCKED: "blocked",
        Classification.PARTIALLY_VISIBLE: "partial",
    }[report.classification]
    tr.count(label)
    tr.count("pieces", len(report.visible))
    counts = tr.counts[tr.run_id]
    counts["max_depth"] = max(counts["max_depth"], report.depth_reached)
    if tr.point > 0:
        tr.count("warm_calls")


def _on_rule(tr, args, kwargs, rule):
    tr.count("rule_points", rule.points.shape[0])
    if tr.point > 0:
        tr.count("warm_rule_calls")


def _on_assembled(tr, args, kwargs, system):
    if hasattr(system, "gmat"):
        blocks = {"Gmat": system.gmat, "Fmat": system.fmat, "h": system.h}
    else:
        blocks = {"Umat": system.umat, "Vmat": system.vmat, "t": system.t}
    tr.count("rows", next(iter(blocks.values())).shape[0])
    point = tr.digests.setdefault(tr.run_id, {}).setdefault(str(tr.point), {})
    for name, block in blocks.items():
        data = np.ascontiguousarray(block, dtype="<f8").tobytes()
        point[name] = hashlib.sha256(data).hexdigest()


# (module path or "module:Class", attribute, span name, hook). Functions are
# wrapped where their callers look them up.
TARGETS = (
    ("ritesolver.cli", "load_mesh", "geometry.load", None),
    ("ritesolver.geometry", "load_mesh", "geometry.load", None),
    ("ritesolver.assembly:Assembler", "__init__", "assembly.init", None),
    ("ritesolver.assembly:Assembler", "assemble_surface", "assembly.surface", _on_assembled),
    ("ritesolver.assembly:Assembler", "assemble_volume", "assembly.volume", _on_assembled),
    ("ritesolver.assembly", "build_active_list", "visibility.active", None),
    ("ritesolver.assembly", "screen_active_set", "visibility.screen", _on_screen),
    ("ritesolver.assembly", "classify_visibility", "visibility.classify", _on_classify),
    ("ritesolver.assembly", "element_rule", "assembly.rule", _on_rule),
    ("ritesolver.assembly", "intrinsic_projection", "assembly.projection", None),
    ("ritesolver.visibility", "segment_element_hits", "geometry.segment_hits", None),
    ("ritesolver.cli", "solve_rites", "solver.solve", None),
    ("ritesolver.solver", "solve_rites", "solver.solve", None),
    ("ritesolver.cli", "standard_suite", "validation.oracles", None),
    ("ritesolver.validation", "standard_suite", "validation.oracles", None),
    ("ritesolver.cli", "run_case", "cli.run_case", None),
)


def _resolve(target: str):
    import importlib

    module, _, cls = target.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


@contextmanager
def installed(tracer: Tracer):
    """Route every target through the tracer; restore the originals after."""
    saved = []
    try:
        for target, attr, name, hook in TARGETS:
            owner = _resolve(target)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, hook))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
