"""Direct solution of the assembled exchange system.

The wall matrix is solved once for its scatter block and source together,
X with (I - Gmat) X = [Fmat | h], so the wall flux is q = X_F G + X_h.
Substituted into the medium equation this leaves one dense system
(I - M) G = c with M = Umat + Vmat X_F and c = t + Vmat X_h, solved
directly. The paper's outer iteration G <- M G + c converges to the same G
at the rate rho(M), the spectral radius reported with the solution; a
solvability margin and an a priori contraction bound derived from the
operator row-sum estimates let callers screen cases before assembly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ritesolver.assembly import SurfaceSystem, VolumeSystem
from ritesolver.kernels import RadiativeProperties

__all__ = [
    "SingularInnerSystem",
    "SolverConfig",
    "SolutionState",
    "contraction_bound",
    "solve_rites",
]


class SingularInnerSystem(RuntimeError):
    """The wall or medium system is singular or its solution is non-finite;
    the assembled operator is broken."""


@dataclass(frozen=True)
class SolverConfig:
    """No controls: the solve is direct. Kept, with no fields, because the
    benchmark harness still builds one; a benchmark change can drop it."""


@dataclass(frozen=True)
class SolutionState:
    """Solved fields and the rate of the paper's outer iteration.

    q holds net wall fluxes at the boundary collocation points, positive
    where the wall absorbs more than it emits. incident holds the incident
    energy G at the interior cell centers, ordered like VolumeSystem.cells.
    contraction_ratio is rho(M), the largest |eigenvalue| of the medium
    operator M = Umat + Vmat X_F, 0.0 when M is empty or zero. converged
    (always True) and iterations (always 1) are kept because the benchmark
    harness reads them; a benchmark change can drop them.
    """

    q: np.ndarray
    incident: np.ndarray
    converged: bool
    iterations: int
    contraction_ratio: float


def contraction_bound(props: RadiativeProperties, eps_min: float) -> float:
    """A priori outer-iteration rate bound (sigma_s/beta)(1/eps_min - e^-beta R).

    Zero without scattering (the outer update is then a one-shot
    evaluation); below one it bounds rho(M) and so guarantees that the
    paper's iteration converges geometrically.
    """
    if not 0.0 < eps_min <= 1.0:
        raise ValueError(f"eps_min must lie in (0, 1], got {eps_min}")
    if props.sigma_s == 0.0:
        return 0.0
    return (props.sigma_s / props.beta) * (
        1.0 / eps_min - np.exp(-props.beta * props.domain_diameter)
    )


def _direct_solve(a: np.ndarray, b: np.ndarray, system: str) -> np.ndarray:
    """a^-1 b, raising SingularInnerSystem when a is singular or the result
    non-finite."""
    try:
        x = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SingularInnerSystem(f"{system} system is singular: {exc}") from exc
    if not np.all(np.isfinite(x)):
        raise SingularInnerSystem(f"{system} system solution is non-finite")
    return x


def _wall_solution(surface: SurfaceSystem) -> np.ndarray:
    """X with (I - Gmat) X = [Fmat | h], so the wall flux is X[:, :-1] @ G + X[:, -1]."""
    a = np.eye(surface.gmat.shape[0]) - surface.gmat
    return _direct_solve(a, np.column_stack([surface.fmat, surface.h]), "wall")


def solve_rites(
    surface: SurfaceSystem,
    volume: VolumeSystem,
    props: RadiativeProperties,
    config: SolverConfig | None = None,
) -> SolutionState:
    """Solve the coupled wall and medium system directly.

    G solves (I - M) G = c, then q = X_F G + X_h. props and config are not
    read; both stay in the signature because the benchmark harness passes
    them, until a benchmark change drops them. A singular or non-finite
    wall or medium system raises SingularInnerSystem.
    """
    x = _wall_solution(surface)
    x_f, x_h = x[:, :-1], x[:, -1]
    m = volume.umat + volume.vmat @ x_f
    g = _direct_solve(np.eye(m.shape[0]) - m, volume.t + volume.vmat @ x_h, "medium")
    rho = float(np.abs(np.linalg.eigvals(m)).max()) if m.any() else 0.0
    return SolutionState(q=x_f @ g + x_h, incident=g, converged=True, iterations=1,
                         contraction_ratio=rho)
