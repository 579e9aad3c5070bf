"""Kernel values, blackbody laws, and attenuated chord integrals."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ritesolver.assembly import Assembler
from ritesolver.geometry import VoxelGrid
from ritesolver.kernels import (
    STEFAN_BOLTZMANN,
    KernelKind,
    RadiativeProperties,
    blackbody_emission,
    blackbody_intensity,
    kernel_prefactor,
    projected_solid_angle,
    sight_cosines,
    transmittance,
)

from conftest import make_cube_mesh
from oracles import path_factors, traverse_voxels

PROPS = RadiativeProperties(sigma_a=0.4, sigma_s=0.6, domain_diameter=2.0)


# ---------------------------------------------------------------------------
# Properties and blackbody laws


def test_derived_coefficients():
    assert PROPS.beta == pytest.approx(1.0)
    assert PROPS.albedo == pytest.approx(0.6)


def test_transparent_medium_is_representable():
    clear = RadiativeProperties(0.0, 0.0, 1.0)
    assert clear.beta == 0.0
    assert clear.albedo == 0.0


def test_property_validation():
    with pytest.raises(ValueError):
        RadiativeProperties(-0.1, 0.0, 1.0)
    with pytest.raises(ValueError):
        RadiativeProperties(0.0, -0.1, 1.0)
    with pytest.raises(ValueError):
        RadiativeProperties(0.0, 0.0, 0.0)


def test_blackbody_reference_values():
    assert STEFAN_BOLTZMANN == 5.670374419e-8
    assert blackbody_emission(1000.0) == pytest.approx(5.670374419e4, rel=1e-12)
    assert blackbody_emission(0.0) == 0.0
    assert blackbody_intensity(1000.0) == pytest.approx(5.670374419e4 / math.pi, rel=1e-12)
    assert_allclose(blackbody_emission([0.0, 500.0]), [0.0, STEFAN_BOLTZMANN * 500.0**4])


def test_transmittance_values():
    assert transmittance(0.0, 5.0) == 1.0
    assert transmittance(2.0, 1.0) == pytest.approx(math.exp(-2.0))
    assert transmittance(1.0, 0.0) == 1.0


# ---------------------------------------------------------------------------
# Kernel closed forms

HEAD_ON = dict(
    receiver=[0.0, 0.0, 0.0],
    receiver_normal=[0.0, 0.0, 1.0],
    source=[0.0, 0.0, 1.0],
    source_normal=[0.0, 0.0, -1.0],
)


def kernel_value(kind, receiver, receiver_normal, source, source_normal, props):
    """One kernel value through the calls the assembly row makes.

    receiver_normal is None for interior receivers.
    """
    diff = (np.array(source, dtype=float) - np.array(receiver, dtype=float))[:, None]
    dist = np.linalg.norm(diff, axis=0)
    n_p = None if receiver_normal is None else np.array(receiver_normal, dtype=float)
    cos_p, cos_r = sight_cosines(diff, dist, np.array(source_normal, dtype=float)[:, None], n_p)
    geo = projected_solid_angle(cos_p, cos_r, dist)
    return float((kernel_prefactor(kind, props, dist) * geo)[0])


def test_wall_to_wall_head_on():
    val = kernel_value(KernelKind.DIRECT, props=PROPS, **HEAD_ON)
    assert val == pytest.approx(math.exp(-1.0) / math.pi, rel=1e-12)


def test_emission_and_scatter_kernels_carry_no_transmittance():
    em = kernel_value(KernelKind.EMISSION, props=PROPS, **HEAD_ON)
    sc = kernel_value(KernelKind.SCATTER, props=PROPS, **HEAD_ON)
    assert em == pytest.approx(PROPS.sigma_a, rel=1e-12)
    assert sc == pytest.approx(PROPS.sigma_s / (4.0 * math.pi), rel=1e-12)


def test_interior_receiver_drops_receiver_cosine():
    kw = dict(HEAD_ON, receiver_normal=None)
    direct = kernel_value(KernelKind.DIRECT, props=PROPS, **kw)
    assert direct == pytest.approx(math.exp(-1.0) / math.pi, rel=1e-12)
    em = kernel_value(KernelKind.EMISSION, props=PROPS, **kw)
    sc = kernel_value(KernelKind.SCATTER, props=PROPS, **kw)
    assert em == pytest.approx(PROPS.sigma_a, rel=1e-12)
    assert sc == pytest.approx(PROPS.sigma_s / (4.0 * math.pi), rel=1e-12)


def test_sight_cosines_ignore_argument_layout(rng):
    # Wall receivers pass their normal as a row of a Fortran-ordered
    # (N_p, 3) array, a strided view; it must round like a contiguous copy.
    diff = rng.standard_normal((3, 1000))
    dist = np.linalg.norm(diff, axis=0)
    source_normals = rng.standard_normal((3, 1000))
    normals = np.asfortranarray(rng.standard_normal((50, 3)))
    strided = normals[7]
    assert not strided.flags.c_contiguous
    cos_a = sight_cosines(diff, dist, source_normals, strided)
    cos_b = sight_cosines(diff, dist, source_normals, strided.copy())
    for a, b in zip(cos_a, cos_b):
        assert np.array_equal(a, b)


def test_oblique_geometry_factors():
    # Source 45 degrees off its normal, receiver 60 degrees off, d = 2.
    d = 2.0
    cos_p = math.cos(math.radians(60.0))
    cos_r = math.cos(math.radians(45.0))
    geo = projected_solid_angle(cos_p, cos_r, d)
    val = kernel_prefactor(KernelKind.DIRECT, PROPS, d) * geo
    assert val == pytest.approx(math.exp(-2.0) * cos_p * cos_r / (math.pi * 4.0), rel=1e-12)


def test_facing_away_clamps_to_zero():
    turned = dict(HEAD_ON, source_normal=[0.0, 0.0, 1.0])
    assert kernel_value(KernelKind.DIRECT, props=PROPS, **turned) == 0.0
    turned = dict(HEAD_ON, receiver_normal=[0.0, 0.0, -1.0])
    assert kernel_value(KernelKind.DIRECT, props=PROPS, **turned) == 0.0


def test_transparent_limit_reduces_to_view_factor_integrand():
    clear = RadiativeProperties(0.0, 0.0, 2.0)
    val = kernel_value(KernelKind.DIRECT, props=clear, **HEAD_ON)
    assert val == pytest.approx(1.0 / math.pi, rel=1e-12)


@given(
    st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6),
)
def test_wall_kernel_reciprocity(coords):
    # The wall-to-wall geometric factor is symmetric in the two endpoints.
    p = np.array(coords[:3])
    r = np.array(coords[3:]) + np.array([0.0, 0.0, 2.0])
    n_p = np.array([0.0, 0.0, 1.0])
    n_r = np.array([0.0, 0.0, -1.0])
    forward = kernel_value(KernelKind.DIRECT, p, n_p, r, n_r, PROPS)
    backward = kernel_value(KernelKind.DIRECT, r, n_r, p, n_p, PROPS)
    assert forward == pytest.approx(backward, rel=1e-12, abs=1e-300)


# ---------------------------------------------------------------------------
# Chord path integrals


def dense_path_oracle(receiver, source, grid, field, beta, n=200_000):
    """Midpoint-rule integral of field(s) exp(-beta s) along the chord."""
    receiver = np.asarray(receiver, float)
    source = np.asarray(source, float)
    length = np.linalg.norm(source - receiver)
    s = (np.arange(n) + 0.5) / n * length
    pts = receiver + np.outer(s / length, source - receiver)
    lo, _ = grid.box()
    idx = np.floor((pts - lo) / grid.spacing).astype(int)
    idx = np.clip(idx, 0, grid.dims - 1)
    flat = idx[:, 0] + grid.dims[0] * (idx[:, 1] + grid.dims[1] * idx[:, 2])
    f = np.asarray(field, float)[flat]
    return float(np.sum(f * np.exp(-beta * s)) * length / n)


def chord_factors(receiver, source, grid, beta):
    """The assembly's (cell, weight) pairs for the one chord receiver -> source."""
    p = np.asarray(receiver, dtype=float)
    d = (np.asarray(source, dtype=float) - p)[:, None]
    _, cells, w = Assembler(make_cube_mesh(), grid)._chord_factors(
        p, d, np.linalg.norm(d, axis=0), beta)
    return cells, w


def chord_integral(receiver, source, grid, field, beta):
    """Chord integral of a cellwise-constant field against exp(-beta s)."""
    cells, w = chord_factors(receiver, source, grid, beta)
    return float(w @ np.asarray(field, dtype=float)[cells])


def test_uniform_field_has_closed_form():
    grid = VoxelGrid([0, 0, 0], 0.25, [4, 4, 4])
    field = np.full(grid.n_cells, 3.0)
    receiver = [0.0, 0.5, 0.5]
    source = [1.0, 0.5, 0.5]
    beta = 1.7
    got = chord_integral(receiver, source, grid, field, beta)
    assert got == pytest.approx(3.0 * (1.0 - math.exp(-beta)) / beta, rel=1e-12)
    assert chord_integral(receiver, source, grid, field, 0.0) == pytest.approx(3.0)


def test_attenuation_is_measured_from_the_receiver(rng):
    grid = VoxelGrid([0, 0, 0], [0.25, 1.0, 1.0], [4, 1, 1])
    field = np.array([5.0, 1.0, 1.0, 1.0])
    a = [0.0, 0.5, 0.5]
    b = [1.0, 0.5, 0.5]
    beta = 2.0
    near_heavy = chord_integral(a, b, grid, field, beta)
    far_heavy = chord_integral(b, a, grid, field, beta)
    # The bright cell sits next to a, so it is attenuated less seen from a.
    assert near_heavy > far_heavy
    assert near_heavy == pytest.approx(dense_path_oracle(a, b, grid, field, beta), rel=1e-4)
    assert far_heavy == pytest.approx(dense_path_oracle(b, a, grid, field, beta), rel=1e-4)


def test_oblique_chord_matches_dense_oracle(rng):
    grid = VoxelGrid([-0.1, 0.0, 0.2], [0.3, 0.21, 0.4], [5, 6, 3])
    field = rng.uniform(0.0, 10.0, size=grid.n_cells)
    receiver = [0.05, 0.1, 0.3]
    source = [1.3, 1.2, 1.3]
    for beta in (0.0, 0.6, 3.0):
        got = chord_integral(receiver, source, grid, field, beta)
        want = dense_path_oracle(receiver, source, grid, field, beta)
        assert got == pytest.approx(want, rel=2e-4)


def test_path_weights_stable_for_tiny_beta():
    grid = VoxelGrid([0, 0, 0], 0.125, [8, 1, 1])
    a = [0.0, 0.06, 0.06]
    b = [1.0, 0.06, 0.06]
    _, w0 = chord_factors(a, b, grid, 0.0)
    _, w1 = chord_factors(a, b, grid, 1e-12)
    assert_allclose(w1, w0, rtol=1e-9)


def test_path_factors_cover_traversal():
    grid = VoxelGrid([0, 0, 0], 0.5, [2, 2, 2])
    a = [0.1, 0.1, 0.1]
    b = [0.9, 0.9, 0.9]
    cells, weights = path_factors(a, b, grid, 0.0)
    spans = traverse_voxels(a, b, grid)
    assert len(cells) == len(spans)
    assert weights.sum() == pytest.approx(sum(s.s_exit - s.s_enter for s in spans), rel=1e-12)
