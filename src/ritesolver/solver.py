"""Two-level fixed-point solution of the assembled exchange system.

Each outer sweep takes the flux vector from the dense wall system with the
current incident-energy field on the right side, then refreshes the field
from the medium equation. The wall matrix never changes, so the system is
solved once for its scatter block and source together, and a sweep costs
one matrix-vector product. A solvability margin and an a priori contraction
bound derived from the operator row-sum estimates let callers screen cases
before iterating and check the observed rate after.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass

import numpy as np

from ritesolver.assembly import SurfaceSystem, VolumeSystem
from ritesolver.kernels import RadiativeProperties, blackbody_emission

__all__ = [
    "SingularInnerSystem",
    "NotConverged",
    "SolverConfig",
    "SolutionState",
    "contraction_bound",
    "solve_rites",
]

log = logging.getLogger(__name__)

# Tail window over which the reported contraction ratio is averaged.
_RATE_WINDOW = 5


class SingularInnerSystem(RuntimeError):
    """The wall system is singular or its solution is non-finite; the
    assembled operator is broken."""


class NotConverged(UserWarning):
    """Outer iteration budget exhausted before meeting the tolerance."""


@dataclass(frozen=True)
class SolverConfig:
    """Outer-loop controls; the wall solve is always direct."""

    tolerance: float = 1e-8
    max_iterations: int = 200

    def __post_init__(self):
        if not (self.tolerance > 0.0 and math.isfinite(self.tolerance)):
            raise ValueError(f"tolerance must be finite and positive, got {self.tolerance}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be at least 1, got {self.max_iterations}")


@dataclass(frozen=True)
class SolutionState:
    """Converged (or best-effort) fields with the iteration record.

    q holds net wall fluxes at the boundary collocation points, positive
    where the wall absorbs more than it emits. incident holds the incident
    energy G at the interior cell centers, ordered like VolumeSystem.cells.
    residual_history records the relative sup-norm change of G per outer
    iteration; contraction_ratio averages the trailing ratios of successive
    changes (nan while fewer than two iterations provide no estimate).
    """

    q: np.ndarray
    incident: np.ndarray
    converged: bool
    iterations: int
    residual_history: tuple[float, ...]
    contraction_ratio: float


def contraction_bound(props: RadiativeProperties, eps_min: float) -> float:
    """A priori outer-iteration rate bound (sigma_s/beta)(1/eps_min - e^-beta R).

    Zero without scattering (the outer update is then a one-shot
    evaluation); below one it guarantees geometric convergence.
    """
    if not 0.0 < eps_min <= 1.0:
        raise ValueError(f"eps_min must lie in (0, 1], got {eps_min}")
    if props.sigma_s == 0.0:
        return 0.0
    return (props.sigma_s / props.beta) * (
        1.0 / eps_min - np.exp(-props.beta * props.domain_diameter)
    )


def _wall_solution(surface: SurfaceSystem) -> np.ndarray:
    """X with (I - Gmat) X = [Fmat | h], so the wall flux is X[:, :-1] @ G + X[:, -1]."""
    a = np.eye(surface.gmat.shape[0]) - surface.gmat
    try:
        x = np.linalg.solve(a, np.column_stack([surface.fmat, surface.h]))
    except np.linalg.LinAlgError as exc:
        raise SingularInnerSystem(f"wall system is singular: {exc}") from exc
    if not np.all(np.isfinite(x)):
        raise SingularInnerSystem("wall system solution is non-finite")
    return x


def solve_rites(
    surface: SurfaceSystem,
    volume: VolumeSystem,
    props: RadiativeProperties,
    config: SolverConfig | None = None,
) -> SolutionState:
    """Run the outer iteration to the configured tolerance.

    The incident field starts from the local-equilibrium guess 4 sigma T^4
    per cell, which is exact for an isothermal cavity. On budget exhaustion
    a NotConverged warning is issued and the best-effort state returned;
    callers decide whether that is fatal.
    """
    config = config if config is not None else SolverConfig()
    x = _wall_solution(surface)

    g = 4.0 * blackbody_emission(volume.cell_temperatures)

    # Without scattering neither block feeds G back into the update, so the
    # first sweep already lands on the exact fixed point.
    feedback = bool(surface.fmat.any() or volume.umat.any())

    history: list[float] = []
    converged = False
    q = np.zeros(surface.gmat.shape[0])
    for outer in range(1, config.max_iterations + 1):
        q = x[:, :-1] @ g + x[:, -1]
        g_next = volume.umat @ g + volume.vmat @ q + volume.t
        scale = float(np.abs(g_next).max(initial=0.0))
        change = float(np.abs(g_next - g).max(initial=0.0))
        residual = change / scale if scale > 0.0 else change
        history.append(residual)
        ratio = history[-1] / history[-2] if len(history) > 1 and history[-2] > 0.0 else np.nan
        log.info("outer %3d: change %.3e ratio %s", outer, residual,
                 f"{ratio:.4f}" if np.isfinite(ratio) else "-")
        g = g_next
        if residual <= config.tolerance or not feedback:
            converged = True
            break
    if not converged:
        warnings.warn(
            f"outer iteration stopped at {config.max_iterations} sweeps with "
            f"relative change {history[-1]:.3e} above tolerance {config.tolerance:g}",
            NotConverged,
            stacklevel=2,
        )
    return SolutionState(
        q=q,
        incident=g,
        converged=converged,
        iterations=len(history),
        residual_history=tuple(history),
        contraction_ratio=_trailing_rate(history),
    )


def _trailing_rate(history: list[float]) -> float:
    """Geometric mean of the last few successive-change ratios."""
    if len(history) < 2:
        return float("nan")
    ratios = [
        history[i] / history[i - 1]
        for i in range(1, len(history))
        if history[i - 1] > 0.0
    ]
    if not ratios:
        return 0.0
    tail = np.array(ratios[-_RATE_WINDOW:])
    if np.any(tail == 0.0):
        return 0.0
    return float(np.exp(np.mean(np.log(tail))))
