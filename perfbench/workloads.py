"""Workload definitions: the geometry each one solves and its property draws.

A workload is either a "case" (one `run_case` per repetition, from a
generated config) or a "sweep" (one `Assembler` reused over several
property points). The seed picks one entry of a fixed lattice of property
draws, so that a stored reference solution exists for every seed; which
coefficients are zero is fixed per workload and point, so the cost shape
does not depend on the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Number of property draws per workload; the seed selects one modulo this.
LATTICE_SIZE = 8

# (sigma_a range, sigma_s range) in 1/m for one property point.
PARTICIPATING = ((0.3, 0.7), (0.3, 0.7))
TRANSPARENT = ((0.0, 0.0), (0.0, 0.0))
ABSORBING = ((0.5, 1.5), (0.0, 0.0))
SCATTERING = ((0.02, 0.05), (1.5, 2.5))
MIXED = ((0.1, 0.3), (0.5, 1.0))
SWEEP_POINTS = (PARTICIPATING, TRANSPARENT, ABSORBING, SCATTERING, MIXED)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str               # "case" or "sweep"
    geometry: str           # "cube", "lshape" or "dented-cube"
    resolution: int
    points: tuple           # one (sigma_a range, sigma_s range) per property point
    # Largest deviation of q and G from the stored reference, relative to the
    # reference's largest magnitude, that still counts as the same solution.
    tolerance: float
    # Wall-clock budget of one run; a repetition still going when it runs out
    # counts as failed. 170 s keeps a listed workload's run under 180 s.
    cap_s: float = 170.0


# Tolerances: on the convex cube the pipeline is exact up to rounding, so a
# changed solution means changed numerics. On the non-convex rooms the quadtree
# resolves visible fractions to about 1% of an element, and an exact shadow
# clipper may move fluxes by that much.
WORKLOADS = {
    w.name: w
    for w in (
        # Convex: screening clears every pair, so rule building and chord work
        # dominate and the shadow classifier is idle. Single 10-19 s runs
        # spread too much to hold a bound, so it is run by hand; the sweep's
        # cold first point covers the same layers.
        Workload("cube-cold", "case", "cube", 4, (PARTICIPATING,), 1e-6),
        # The README's sweep: warm points read the visibility caches but
        # rebuild near-band rules. At r2 a sweep takes 10-15 s, so a run
        # holds several; at r3 it takes 20-40 s and is run by hand.
        Workload("cube-sweep", "sweep", "cube", 2, SWEEP_POINTS, 1e-6),
        Workload("cube-sweep-r3", "sweep", "cube", 3, SWEEP_POINTS, 1e-6),
        # Non-convex and small: shadow classification takes most of the time,
        # as on the builtin lshape, at a few seconds per solve, so that a run
        # holds a dozen repetitions and their median.
        Workload("dent-shadow", "case", "dented-cube", 1, (PARTICIPATING,), 3e-2),
        # The builtin lshape r1. About two minutes per solve: too slow to
        # repeat over many seeds, so it is not listed in BENCHMARK.json and is
        # run by hand for the baseline.
        Workload("lshape-shadow", "case", "lshape", 1, (PARTICIPATING,), 3e-2, cap_s=900.0),
    )
}


def lattice_index(seed: int) -> int:
    return seed % LATTICE_SIZE


def properties(workload: Workload, seed: int) -> list[tuple[float, float]]:
    """(sigma_a, sigma_s) for each property point of the workload."""
    rng = np.random.default_rng([lattice_index(seed), len(workload.points)])
    return [
        (round(float(rng.uniform(*a)), 4), round(float(rng.uniform(*s)), 4))
        for a, s in workload.points
    ]


# Where the dented corner of "dent-shadow" sits, on the cube's diagonal. At
# 2/3 the corner lies in the plane of the three face diagonals and the dent
# vanishes; below it the diagonals are re-entrant edges. The shallow dent
# keeps 9 partly visible pairs (579 quadtree pieces), so one solve takes a
# few seconds; at 0.6 it has 27 (11,397 pieces) and takes about 40 s.
DENT_CORNER = 0.66


def _dented_cube_mesh(path: Path) -> Path:
    """A unit cube with its (1, 1, 1) corner pushed in along the diagonal.

    The corner moves to DENT_CORNER on all three axes. Each of the three
    faces at that corner splits along its diagonal into a flat triangle and
    a triangle slanted toward the new vertex. The three diagonals become
    re-entrant edges, so the walls on either side of them partly shadow
    each other. Black walls at 500 K around a 1000 K medium on
    a 2 x 2 x 2 grid; the corner cell lies outside and carries no unknown.
    """
    from ritesolver.geometry import write_mesh_file

    nodes = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
             (0, 0, 1), (1, 0, 1), (DENT_CORNER,) * 3, (0, 1, 1)]
    faces = [
        (1, 2, 3, 0), (4, 5, 1, 0), (3, 7, 4, 0),   # floor and the walls at the origin
        (5, 2, 1), (5, 6, 2),                       # x = 1: flat, slanted
        (2, 7, 3), (6, 7, 2),                       # y = 1
        (7, 5, 4), (7, 6, 5),                       # z = 1
    ]
    records = [{"nodes": list(f), "epsilon": 1.0, "T": 500.0} for f in faces]
    grid = {"origin": [0.0, 0.0, 0.0], "spacing": [0.5] * 3, "dims": [2, 2, 2],
            "T": [1000.0] * 8}
    write_mesh_file(path, nodes, records, grid)
    return path


def write_mesh(workload: Workload, out_dir: Path) -> Path:
    """Write the workload's mesh-plus-grid file into out_dir; returns its path."""
    from ritesolver.cli import generate_case

    out_dir.mkdir(parents=True, exist_ok=True)
    if workload.geometry == "dented-cube":
        return _dented_cube_mesh(out_dir / "dented-cube.json")
    return generate_case(workload.geometry, workload.resolution, out_dir)
