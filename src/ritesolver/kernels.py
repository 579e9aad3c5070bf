"""Pointwise exchange kernels and blackbody emission.

Three kernels carry radiation from a source point r on the enclosure wall
to a receiver p, named by the source route. With d = |p - r|:

* the direct kernel carries the line-of-sight transmittance exp(-beta d)
  and the diffuse 1/pi, and multiplies the surface radiosity;
* the emission kernel carries sigma_a and multiplies the chord integral of
  the blackbody intensity of the medium, attenuation inside that integral;
* the scatter kernel carries sigma_s / (4 pi) and multiplies the chord
  integral of the incident energy field, attenuation again inside it.

Each multiplies the projected solid angle cos(phi_p) cos(phi_r) / d^2. The
receiver enters only through cos(phi_p): n_p . (r - p) / d at a wall point
with inward normal n_p, exactly 1 at an interior point, which leaves the
plain solid angle. Negative cosines mean the pair faces away and clamp to
zero.
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
    "kernel_prefactor",
    "projected_solid_angle",
    "sight_cosines",
    "solvability_margin",
]

# CODATA value, W m^-2 K^-4. Every source term is STEFAN_BOLTZMANN T^4
# and no operator block carries it, so it is a constant, not a setting.
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

    def __post_init__(self):
        if self.sigma_a < 0 or not math.isfinite(self.sigma_a):
            raise ValueError(f"sigma_a must be finite and >= 0, got {self.sigma_a}")
        if self.sigma_s < 0 or not math.isfinite(self.sigma_s):
            raise ValueError(f"sigma_s must be finite and >= 0, got {self.sigma_s}")
        if self.domain_diameter <= 0 or not math.isfinite(self.domain_diameter):
            raise ValueError(f"domain_diameter must be positive, got {self.domain_diameter}")

    @property
    def beta(self) -> float:
        """Extinction coefficient, 1/m."""
        return self.sigma_a + self.sigma_s

    @property
    def albedo(self) -> float:
        """Scattering fraction sigma_s / beta; zero for a transparent medium."""
        b = self.beta
        return self.sigma_s / b if b > 0 else 0.0


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
    """The three exchange kernels, named by source route. A wall receiver's
    emissivity enters through kernel_prefactor's scale, its normal through
    sight_cosines."""

    DIRECT = "direct"
    EMISSION = "emission"
    SCATTER = "scatter"


def blackbody_emission(temperature):
    """Hemispherical emissive power sigma T^4, W/m^2, with sigma STEFAN_BOLTZMANN."""
    t = np.asarray(temperature, dtype=float)
    out = STEFAN_BOLTZMANN * t**4
    return float(out) if out.ndim == 0 else out


def sight_cosines(diff, dist, source_normals, receiver_normal=None):
    """Unclamped cosines (cos_p, cos_r) at the receiver and at the source.

    Component-major: diff (3, n) holds source minus receiver, dist (n,) its
    lengths, and source_normals (3, n) the source normals. Each dot product
    is a sum of components in a fixed order, so the result does not depend
    on how the arguments are laid out in memory (a strided receiver normal
    rounds like a contiguous one). cos_p is exactly 1.0 for interior
    receivers (receiver_normal None), so the projected solid angle reduces
    to the plain one without rounding.
    """
    d, s = diff, source_normals
    cos_r = -((d[0] * s[0] + d[2] * s[2]) + d[1] * s[1]) / dist
    if receiver_normal is None:
        return 1.0, cos_r
    r = receiver_normal
    return ((d[0] * r[0] + d[1] * r[1]) + d[2] * r[2]) / dist, cos_r


def projected_solid_angle(cos_p, cos_r, dist, weights=1.0):
    """weights * cos_p * cos_r / d^2, the cosines clamped to [0, 1]."""
    return weights * np.clip(cos_p, 0.0, 1.0) * np.clip(cos_r, 0.0, 1.0) / dist**2


def kernel_prefactor(kind: KernelKind, props: RadiativeProperties, dist, scale=1.0):
    """The factor a kernel puts in front of the projected solid angle.

    The direct kernel carries exp(-beta d) / pi, the emission kernel
    scale * sigma_a and the scatter kernel scale * sigma_s / (4 pi), the
    same for wall and interior receivers. scale multiplies the medium
    coefficient first, so a receiver factor folded in through it costs no
    extra rounding; the direct kernel's receiver factor is applied by the
    caller.
    """
    if kind is KernelKind.DIRECT:
        return np.exp(-props.beta * np.asarray(dist, dtype=float)) / np.pi
    if kind is KernelKind.EMISSION:
        return scale * props.sigma_a
    return scale * props.sigma_s / (4.0 * np.pi)
