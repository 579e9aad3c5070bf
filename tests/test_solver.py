"""Outer-iteration behaviour: screening numbers, sweeps, and failure modes."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import make_cube_mesh
from ritesolver.assembly import Assembler, SurfaceSystem, VolumeSystem
from ritesolver.cli import builtin_case
from ritesolver.geometry import SurfaceMesh, VoxelGrid
from ritesolver.kernels import RadiativeProperties, solvability_margin
from ritesolver.solver import (
    NotConverged,
    SingularInnerSystem,
    SolverConfig,
    contraction_bound,
    solve_rites,
)


def props_for(sigma_a, sigma_s, diameter=np.sqrt(3.0)):
    return RadiativeProperties(sigma_a=sigma_a, sigma_s=sigma_s,
                               domain_diameter=diameter)


def assemble_cube(resolution, emissivity, sigma_a, sigma_s):
    """Assemble both blocks for the built-in cube with uniform emissivity."""
    mesh, grid = builtin_case("cube", resolution)
    mesh = SurfaceMesh(mesh.nodes, mesh.element_nodes,
                       np.full(len(mesh.elements), float(emissivity)), mesh.node_temperatures)
    props = props_for(sigma_a, sigma_s, mesh.diameter())
    asm = Assembler(mesh, grid)
    return props, asm.assemble_surface(props), asm.assemble_volume(props)


# ---------------------------------------------------------------------------
# Screening numbers


def test_margin_equal_coefficients():
    # sigma_a = sigma_s makes the scattering ratio 1/3, so eps 0.5 leaves 1/6.
    margin, ok = solvability_margin(props_for(1.0, 1.0), eps_min=0.5)
    assert ok
    assert margin == pytest.approx(1.0 / 6.0, abs=1e-12)


def test_margin_pure_scattering_low_emissivity():
    margin, ok = solvability_margin(props_for(0.0, 2.0), eps_min=0.2)
    assert not ok
    assert margin == pytest.approx(-0.3, abs=1e-12)


def test_margin_black_walls_always_positive():
    for sigma_a, sigma_s in [(0.0, 5.0), (1.0, 1.0), (0.3, 0.0)]:
        _, ok = solvability_margin(props_for(sigma_a, sigma_s), eps_min=1.0)
        assert ok


def test_contraction_bound_examples():
    assert contraction_bound(props_for(2.0, 0.0), eps_min=0.4) == 0.0
    bound = contraction_bound(props_for(1.0, 1.0, diameter=1.0), eps_min=1.0)
    assert bound == pytest.approx(0.5 * (1.0 - math.exp(-2.0)), abs=1e-12)


@given(
    eps_min=st.floats(min_value=0.05, max_value=1.0),
    sigma_a=st.floats(min_value=0.01, max_value=10.0),
)
def test_no_scattering_margin_is_emissivity(eps_min, sigma_a):
    margin, ok = solvability_margin(props_for(sigma_a, 0.0), eps_min)
    assert margin == eps_min
    assert ok
    assert contraction_bound(props_for(sigma_a, 0.0), eps_min) == 0.0


def test_screening_rejects_bad_emissivity():
    with pytest.raises(ValueError):
        solvability_margin(props_for(1.0, 1.0), eps_min=0.0)
    with pytest.raises(ValueError):
        contraction_bound(props_for(1.0, 1.0), eps_min=1.5)


def test_config_rejects_bad_controls():
    with pytest.raises(ValueError):
        SolverConfig(tolerance=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iterations=0)


# ---------------------------------------------------------------------------
# Outer iteration


def test_no_scattering_converges_in_one_sweep():
    props, surface, volume = assemble_cube(2, emissivity=0.7,
                                           sigma_a=1.0, sigma_s=0.0)
    state = solve_rites(surface, volume, props)
    assert state.converged
    assert state.iterations == 1
    assert math.isnan(state.contraction_ratio)
    # One more sweep by hand must reproduce the same fields exactly.
    g_again = volume.umat @ state.incident + volume.vmat @ state.q + volume.t
    assert np.array_equal(g_again, state.incident)


def test_scattering_cube_converges_geometrically():
    props, surface, volume = assemble_cube(2, emissivity=1.0,
                                           sigma_a=0.0, sigma_s=1.0)
    state = solve_rites(surface, volume, props)
    assert state.converged
    assert state.iterations > 1
    assert len(state.residual_history) == state.iterations
    assert 0.0 < state.contraction_ratio < 1.0
    assert np.all(state.incident >= 0.0)
    assert np.all(np.isfinite(state.q))


def test_budget_exhaustion_warns_and_returns_best_effort():
    props, surface, volume = assemble_cube(2, emissivity=0.5,
                                           sigma_a=0.5, sigma_s=2.0)
    config = SolverConfig(tolerance=1e-12, max_iterations=3)
    with pytest.warns(NotConverged):
        state = solve_rites(surface, volume, props, config)
    assert not state.converged
    assert state.iterations == 3
    assert np.all(np.isfinite(state.q))
    assert np.all(np.isfinite(state.incident))


def _dark_medium(n_q, n_i=2):
    return VolumeSystem(umat=np.zeros((n_i, n_i)), vmat=np.zeros((n_i, n_q)),
                        t=np.zeros(n_i), cells=np.arange(n_i),
                        cell_temperatures=np.zeros(n_i))


def test_singular_wall_system_raises():
    n_q, n_i = 4, 2
    surface = SurfaceSystem(gmat=np.eye(n_q), fmat=np.zeros((n_q, n_i)),
                            h=np.zeros(n_q))
    with pytest.raises(SingularInnerSystem, match="singular"):
        solve_rites(surface, _dark_medium(n_q, n_i), props_for(1.0, 0.0))


@pytest.mark.parametrize("block, entry", [("gmat", np.nan), ("h", np.inf)])
def test_non_finite_wall_blocks_raise(block, entry):
    n_q, n_i = 4, 2
    blocks = dict(gmat=np.full((n_q, n_q), 0.1), fmat=np.full((n_q, n_i), 0.2),
                  h=np.ones(n_q))
    blocks[block].flat[1] = entry
    with pytest.raises(SingularInnerSystem, match="non-finite"):
        solve_rites(SurfaceSystem(**blocks), _dark_medium(n_q, n_i), props_for(1.0, 0.0))


def test_iteration_lands_on_the_operator_system_solution():
    # The outer iteration converges to the one solution of the coupled
    # system [[I - Gmat, -Fmat], [-Vmat, I - Umat]] [q; G] = [h; t].
    props, surface, volume = assemble_cube(2, emissivity=0.5, sigma_a=0.4, sigma_s=0.8)
    state = solve_rites(surface, volume, props, SolverConfig(tolerance=1e-13))
    assert state.converged
    n_q, n_i = surface.fmat.shape
    operator = np.block([[np.eye(n_q) - surface.gmat, -surface.fmat],
                         [-volume.vmat, np.eye(n_i) - volume.umat]])
    direct = np.linalg.solve(operator, np.concatenate([surface.h, volume.t]))
    q, g = direct[:n_q], direct[n_q:]
    assert np.abs(state.q - q).max() <= 1e-10 * np.abs(q).max()
    assert np.abs(state.incident - g).max() <= 1e-10 * np.abs(g).max()


def test_repeated_solves_are_bit_identical():
    props, surface, volume = assemble_cube(2, emissivity=0.6,
                                           sigma_a=0.4, sigma_s=0.8)
    first = solve_rites(surface, volume, props)
    second = solve_rites(surface, volume, props)
    assert np.array_equal(first.q, second.q)
    assert np.array_equal(first.incident, second.incident)
    assert first.residual_history == second.residual_history


def test_hot_floor_heats_walls_and_medium():
    # Floor at 1000 K against cold walls and medium: every other wall gains
    # energy and the medium picks up a strictly positive incident field.
    mesh, grid = builtin_case("cube", 3)
    props = props_for(0.5, 0.5, mesh.diameter())
    asm = Assembler(mesh, grid)
    state = solve_rites(asm.assemble_surface(props), asm.assemble_volume(props),
                        props)
    # q is positive where the wall absorbs more than it emits; the cold walls
    # only receive, so their collocation values must all be positive.
    mean_temp = np.array(
        [mesh.node_temperatures[list(en)].mean() for en in mesh.element_nodes]
    )
    cold = np.repeat(mean_temp < 500.0, 4)
    assert np.all(state.q[cold] > 0.0)
    assert np.all(state.incident > 0.0)


def test_dark_enclosure_stays_dark():
    # Everything at absolute zero: no source term anywhere, so the zero field
    # is the exact solution regardless of the coefficients.
    mesh = make_cube_mesh(emissivity=0.5)
    grid = VoxelGrid((0.0, 0.0, 0.0), 0.5, (2, 2, 2))
    props = props_for(0.3, 0.2, mesh.diameter())
    asm = Assembler(mesh, grid)
    state = solve_rites(asm.assemble_surface(props), asm.assemble_volume(props),
                        props)
    assert state.converged
    assert np.array_equal(state.q, np.zeros_like(state.q))
    assert np.array_equal(state.incident, np.zeros_like(state.incident))
