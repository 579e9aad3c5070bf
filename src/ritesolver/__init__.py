"""Radiative exchange solver for gray diffuse enclosures with a
participating medium."""

from ritesolver.assembly import (
    Assembler,
    CollocationSet,
    SurfaceSystem,
    VolumeSystem,
    assemble_surface,
    assemble_volume,
    collocation_points,
    element_integral,
    operator_row_sums,
)
from ritesolver.cli import CaseConfig, builtin_case, generate_case, run_case
from ritesolver.geometry import (
    GeometryError,
    MeshError,
    OutsideGrid,
    Segment,
    SurfaceElement,
    SurfaceMesh,
    VoxelGrid,
    build_element,
    load_mesh,
    traverse_voxels,
)
from ritesolver.kernels import KernelKind, RadiativeProperties, blackbody_emission
from ritesolver.solver import (
    NotConverged,
    SingularInnerSystem,
    SolutionState,
    SolverConfig,
    contraction_bound,
    solvability_margin,
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
from ritesolver.visibility import (
    build_active_list,
    chi_point,
    classify_visibility,
)

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
    "OutsideGrid",
    "RadiativeProperties",
    "Segment",
    "SingularInnerSystem",
    "SolutionState",
    "SolverConfig",
    "SurfaceElement",
    "SurfaceMesh",
    "SurfaceSystem",
    "VolumeSystem",
    "VoxelGrid",
    "assemble_surface",
    "assemble_volume",
    "blackbody_emission",
    "build_active_list",
    "build_element",
    "builtin_case",
    "chi_point",
    "classify_visibility",
    "collocation_points",
    "contraction_bound",
    "element_integral",
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
    "traverse_voxels",
    "visibility_oracle",
    "__version__",
]
