"""Mod-p cohomology of finite p-groups and central detection invariants."""

from .fplinalg import FpMatrix, FpSubspace, LinSolver
from .pgroup import GroupHom, PcPresentation, Subgroup
from .resolution import (
    BudgetExceededError,
    Cocycle,
    CohomologyFragment,
    ComoduleMap,
    InducedMap,
    MinimalResolution,
    TensorResolution,
    build_minimal_resolution,
    cup_product,
)
from .invariants import Analyzer, GroupType, InvariantReport, Workspace, report
from .catalog import CatalogEntry, builtin, builtin_ids, load_pcp, parse_pcp

__all__ = [
    "Analyzer",
    "BudgetExceededError",
    "CatalogEntry",
    "Cocycle",
    "CohomologyFragment",
    "ComoduleMap",
    "FpMatrix",
    "FpSubspace",
    "GroupHom",
    "GroupType",
    "InducedMap",
    "InvariantReport",
    "LinSolver",
    "MinimalResolution",
    "PcPresentation",
    "Subgroup",
    "TensorResolution",
    "Workspace",
    "build_minimal_resolution",
    "builtin",
    "builtin_ids",
    "cup_product",
    "load_pcp",
    "parse_pcp",
    "report",
]
__version__ = "0.1.0"
