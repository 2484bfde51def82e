"""Mod-p cohomology of finite p-groups and central detection invariants."""

from .fplinalg import FpMatrix, FpSubspace, LinSolver
from .pgroup import GroupHom, PcPresentation, Subgroup
from .resolution import (
    BudgetExceededError,
    Cocycle,
    CohomologyFragment,
    MinimalResolution,
    build_minimal_resolution,
    comodule_map,
    cup_product,
    induced_map,
    kunneth,
)
from .invariants import Analyzer, GroupType, InvariantReport, Workspace, report
from .catalog import CatalogEntry, builtin, builtin_ids, load_pcp, parse_pcp

__all__ = [
    "Analyzer",
    "BudgetExceededError",
    "CatalogEntry",
    "Cocycle",
    "CohomologyFragment",
    "FpMatrix",
    "FpSubspace",
    "GroupHom",
    "GroupType",
    "InvariantReport",
    "LinSolver",
    "MinimalResolution",
    "PcPresentation",
    "Subgroup",
    "Workspace",
    "build_minimal_resolution",
    "builtin",
    "builtin_ids",
    "comodule_map",
    "cup_product",
    "induced_map",
    "kunneth",
    "load_pcp",
    "parse_pcp",
    "report",
]
__version__ = "0.1.0"
