"""Pointwise exchange kernels, blackbody emission, and chord path integrals.

Six kernels connect a source point r on the enclosure wall to a receiver,
which is either another wall point p (with inward normal n_p) or a point in
the medium interior. With d = |p - r|:

* direct kernels carry the line-of-sight transmittance exp(-beta d) and the
  diffuse 1/pi, and multiply the surface radiosity;
* emission kernels carry sigma_a and multiply the chord integral of the
  blackbody intensity of the medium, attenuation living inside that integral;
* scatter kernels carry sigma_s / (4 pi) and multiply the chord integral of
  the incident energy field, attenuation again inside the integral.

Wall receivers see the projected solid angle cos(phi_p) cos(phi_r) / d^2,
interior receivers the plain solid angle cos(phi_r) / d^2. Negative cosines
mean the pair faces away and clamp to zero.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from ritesolver.geometry import Segment, VoxelGrid, as_point, traverse_voxels

__all__ = [
    "STEFAN_BOLTZMANN",
    "RadiativeProperties",
    "KernelKind",
    "CoincidentPoints",
    "blackbody_emission",
    "blackbody_intensity",
    "transmittance",
    "kernel_components",
    "kernel_prefactor",
    "kernel_value",
    "path_factors",
    "path_source_integral",
    "projected_solid_angle",
    "sight_cosines",
]

# CODATA value, W m^-2 K^-4.
STEFAN_BOLTZMANN = 5.670374419e-8

_COINCIDENCE_RTOL = 1e-12


class CoincidentPoints(ValueError):
    """Kernel evaluated at a source-receiver distance below tolerance."""


@dataclass(frozen=True)
class RadiativeProperties:
    """Gray medium coefficients plus the enclosure diameter.

    sigma_a and sigma_s are the absorption and scattering coefficients in
    1/m; domain_diameter bounds the chord length between any two enclosure
    points. A transparent medium (beta = 0) is accepted so the pure
    surface-exchange limit stays expressible.
    """

    sigma_a: float
    sigma_s: float
    domain_diameter: float
    sigma_sb: float = STEFAN_BOLTZMANN

    def __post_init__(self):
        if self.sigma_a < 0 or not math.isfinite(self.sigma_a):
            raise ValueError(f"sigma_a must be finite and >= 0, got {self.sigma_a}")
        if self.sigma_s < 0 or not math.isfinite(self.sigma_s):
            raise ValueError(f"sigma_s must be finite and >= 0, got {self.sigma_s}")
        if self.domain_diameter <= 0 or not math.isfinite(self.domain_diameter):
            raise ValueError(f"domain_diameter must be positive, got {self.domain_diameter}")
        if self.sigma_sb <= 0:
            raise ValueError(f"sigma_sb must be positive, got {self.sigma_sb}")

    @property
    def beta(self) -> float:
        """Extinction coefficient, 1/m."""
        return self.sigma_a + self.sigma_s

    @property
    def albedo(self) -> float:
        """Scattering fraction sigma_s / beta; zero for a transparent medium."""
        b = self.beta
        return self.sigma_s / b if b > 0 else 0.0

    @property
    def optical_diameter(self) -> float:
        """beta times the domain diameter."""
        return self.beta * self.domain_diameter

    @property
    def coincidence_tolerance(self) -> float:
        return _COINCIDENCE_RTOL * self.domain_diameter


class KernelKind(enum.Enum):
    """The six exchange kernels, named by source route and receiver."""

    WALL_TO_WALL = "wall_to_wall"
    EMISSION_TO_WALL = "emission_to_wall"
    SCATTER_TO_WALL = "scatter_to_wall"
    WALL_TO_MEDIUM = "wall_to_medium"
    EMISSION_TO_MEDIUM = "emission_to_medium"
    SCATTER_TO_MEDIUM = "scatter_to_medium"

    @property
    def receiver_on_wall(self) -> bool:
        return self in (
            KernelKind.WALL_TO_WALL,
            KernelKind.EMISSION_TO_WALL,
            KernelKind.SCATTER_TO_WALL,
        )

    @property
    def is_direct(self) -> bool:
        return self in (KernelKind.WALL_TO_WALL, KernelKind.WALL_TO_MEDIUM)

    @property
    def is_emission(self) -> bool:
        return self in (KernelKind.EMISSION_TO_WALL, KernelKind.EMISSION_TO_MEDIUM)


def blackbody_emission(temperature, sigma_sb: float = STEFAN_BOLTZMANN):
    """Hemispherical emissive power sigma T^4, W/m^2."""
    t = np.asarray(temperature, dtype=float)
    out = sigma_sb * t**4
    return float(out) if out.ndim == 0 else out


def blackbody_intensity(temperature, sigma_sb: float = STEFAN_BOLTZMANN):
    """Isotropic blackbody intensity sigma T^4 / pi, W/(m^2 sr)."""
    t = np.asarray(temperature, dtype=float)
    out = sigma_sb * t**4 / math.pi
    return float(out) if out.ndim == 0 else out


def transmittance(distance, beta: float):
    """Beer attenuation exp(-beta d) along a clear chord."""
    d = np.asarray(distance, dtype=float)
    out = np.exp(-beta * d)
    return float(out) if out.ndim == 0 else out


def sight_cosines(diff, dist, source_normals, receiver_normal=None):
    """Unclamped cosines (cos_p, cos_r) at the receiver and at the source.

    diff (n, 3) holds source minus receiver, dist (n,) its lengths, and
    source_normals (n, 3) the source normals. cos_p is exactly 1.0 for
    interior receivers (receiver_normal None), so the projected solid angle
    reduces to the plain one without rounding.
    """
    cos_r = -np.einsum("nj,nj->n", diff, source_normals) / dist
    if receiver_normal is None:
        return 1.0, cos_r
    return np.einsum("nj,j->n", diff, receiver_normal) / dist, cos_r


def projected_solid_angle(cos_p, cos_r, dist, weights=1.0):
    """weights * cos_p * cos_r / d^2, the cosines clamped to [0, 1]."""
    return weights * np.clip(cos_p, 0.0, 1.0) * np.clip(cos_r, 0.0, 1.0) / dist**2


def kernel_prefactor(kind: KernelKind, props: RadiativeProperties, dist, scale=1.0):
    """The factor each kernel puts in front of the projected solid angle.

    Direct kernels carry exp(-beta d) / pi, emission kernels
    scale * sigma_a and scatter kernels scale * sigma_s / (4 pi). scale
    multiplies the medium coefficient first, so a receiver factor folded
    in through it costs no extra rounding.
    """
    if kind.is_direct:
        return transmittance(dist, props.beta) / np.pi
    if kind.is_emission:
        return scale * props.sigma_a
    return scale * props.sigma_s / (4.0 * np.pi)


def kernel_components(kind: KernelKind, dist, cos_p, cos_r, props: RadiativeProperties):
    """Vectorized kernel values for precomputed distances and cosines.

    cos_p is ignored for interior receivers and may be None there. Cosines
    clamp to [0, 1]; distances below the coincidence tolerance raise.
    """
    d = np.asarray(dist, dtype=float)
    if np.any(d < props.coincidence_tolerance):
        raise CoincidentPoints(
            f"kernel distance below {props.coincidence_tolerance:g} m"
        )
    cp = np.asarray(cos_p, dtype=float) if kind.receiver_on_wall else 1.0
    geo = projected_solid_angle(cp, np.asarray(cos_r, dtype=float), d)
    vals = kernel_prefactor(kind, props, d) * geo
    return float(vals) if vals.ndim == 0 else vals


def kernel_value(
    kind: KernelKind,
    receiver,
    receiver_normal,
    source,
    source_normal,
    props: RadiativeProperties,
) -> float:
    """Single kernel evaluation from raw points and normals.

    receiver_normal is None for interior receivers. Normals point into the
    medium, so a visible pair yields nonnegative cosines.
    """
    p = as_point(receiver)
    r = as_point(source)
    diff = (r - p)[None, :]
    d = np.linalg.norm(diff, axis=1)
    if d[0] < props.coincidence_tolerance:
        raise CoincidentPoints(f"points {p} and {r} are {d[0]:g} m apart")
    n_p = as_point(receiver_normal) if kind.receiver_on_wall else None
    cos_p, cos_r = sight_cosines(diff, d, as_point(source_normal)[None, :], n_p)
    return float(kernel_components(kind, d, cos_p, cos_r, props)[0])


def path_factors(receiver, source, grid: VoxelGrid, beta: float):
    """Attenuated chord weights per traversed cell.

    Returns (flat_cells, weights) such that the chord integral of any
    cellwise-constant field f against exp(-beta s), with s measured from the
    receiver, equals sum(weights * f[flat_cells]). Each weight is
    (exp(-beta s_enter) - exp(-beta s_exit)) / beta, the exact integral over
    the span; for beta = 0 it degenerates to the span length.
    """
    spans = traverse_voxels(Segment(receiver, source), grid)
    cells = np.array([grid.flat_index(*sp.cell) for sp in spans], dtype=int)
    s0 = np.array([sp.s_enter for sp in spans])
    s1 = np.array([sp.s_exit for sp in spans])
    if beta > 0.0:
        weights = np.exp(-beta * s0) * (-np.expm1(-beta * (s1 - s0))) / beta
    else:
        weights = s1 - s0
    return cells, weights


def path_source_integral(receiver, source, grid: VoxelGrid, field, beta: float) -> float:
    """Chord integral of a cellwise-constant field against exp(-beta s).

    field holds one value per grid cell in flat order; s runs from the
    receiver toward the source, matching the attenuation the receiver sees.
    """
    cells, weights = path_factors(receiver, source, grid, beta)
    f = np.asarray(field, dtype=float).reshape(-1)
    return float(weights @ f[cells])
