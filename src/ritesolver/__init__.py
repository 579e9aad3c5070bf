"""Radiative exchange solver for gray diffuse enclosures with a
participating medium."""

from ritesolver.assembly import (
    Assembler,
    CollocationSet,
    SurfaceSystem,
    VolumeSystem,
    collocation_points,
    operator_row_sums,
)
from ritesolver.cli import CaseConfig, builtin_case, generate_case, run_case
from ritesolver.geometry import (
    GeometryError,
    MeshError,
    SurfaceElement,
    SurfaceMesh,
    VoxelGrid,
    build_element,
    load_mesh,
)
from ritesolver.kernels import (
    KernelKind,
    RadiativeProperties,
    blackbody_emission,
    solvability_margin,
)
from ritesolver.solver import (
    NotConverged,
    SingularInnerSystem,
    SolutionState,
    SolverConfig,
    contraction_bound,
    solve_rites,
)
from ritesolver.validation import (
    OracleReport,
    energy_balance,
    lemma1_identity,
    lemma3_interior_identity,
    standard_suite,
    visibility_oracle,
)
from ritesolver.visibility import build_active_list, classify_visibility

__version__ = "0.1.0"

__all__ = [
    "Assembler",
    "CaseConfig",
    "CollocationSet",
    "GeometryError",
    "KernelKind",
    "MeshError",
    "NotConverged",
    "OracleReport",
    "RadiativeProperties",
    "SingularInnerSystem",
    "SolutionState",
    "SolverConfig",
    "SurfaceElement",
    "SurfaceMesh",
    "SurfaceSystem",
    "VolumeSystem",
    "VoxelGrid",
    "blackbody_emission",
    "build_active_list",
    "build_element",
    "builtin_case",
    "classify_visibility",
    "collocation_points",
    "contraction_bound",
    "energy_balance",
    "generate_case",
    "lemma1_identity",
    "lemma3_interior_identity",
    "load_mesh",
    "operator_row_sums",
    "run_case",
    "solvability_margin",
    "solve_rites",
    "standard_suite",
    "visibility_oracle",
    "__version__",
]
