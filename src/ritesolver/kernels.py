"""Pointwise exchange kernels and blackbody emission.

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

__all__ = [
    "STEFAN_BOLTZMANN",
    "RadiativeProperties",
    "KernelKind",
    "blackbody_emission",
    "blackbody_intensity",
    "transmittance",
    "kernel_prefactor",
    "projected_solid_angle",
    "sight_cosines",
    "solvability_margin",
]

# CODATA value, W m^-2 K^-4.
STEFAN_BOLTZMANN = 5.670374419e-8


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


def solvability_margin(props: RadiativeProperties, eps_min: float) -> tuple[float, bool]:
    """Uniqueness margin eps_min - sigma_s/(beta + sigma_s); positive is safe.

    The margin is sufficient, not necessary: a violated margin downgrades
    guarantees but does not preclude convergence.
    """
    if not 0.0 < eps_min <= 1.0:
        raise ValueError(f"eps_min must lie in (0, 1], got {eps_min}")
    denom = props.beta + props.sigma_s
    ratio = props.sigma_s / denom if denom > 0.0 else 0.0
    margin = eps_min - ratio
    return margin, margin > 0.0


class KernelKind(enum.Enum):
    """The six exchange kernels, named by source route and receiver."""

    WALL_TO_WALL = "wall_to_wall"
    EMISSION_TO_WALL = "emission_to_wall"
    SCATTER_TO_WALL = "scatter_to_wall"
    WALL_TO_MEDIUM = "wall_to_medium"
    EMISSION_TO_MEDIUM = "emission_to_medium"
    SCATTER_TO_MEDIUM = "scatter_to_medium"

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
