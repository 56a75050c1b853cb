"""Exact homological deciders for the Torelli extension problem on subsurfaces."""

from torelli.exactlin import IntMatrix, IntVector
from torelli.surface_model import ComplementComponent, HomologyModel, SubsurfaceConfig, build_model
from torelli.mapping_class import (
    DifferenceMap,
    TwistFactor,
    TwistWord,
    concat,
    delta_difference,
    invert,
    is_weakly_torelli,
    transvection_action,
)
from torelli.criteria import (
    AnalysisReport,
    DiagonalMap,
    analyze,
    decide_extendable,
    decide_extension_by_identity,
    decide_multitwist_correctable,
    group_ranks,
    guaranteed_correctable,
    is_completely_reducible,
    is_symmetric,
)
from torelli.realization import (
    Realization,
    build_boundary_multitwist,
    realize_delta,
    sym_basis_change,
)

__all__ = [
    "IntMatrix",
    "IntVector",
    "ComplementComponent",
    "SubsurfaceConfig",
    "HomologyModel",
    "build_model",
    "TwistFactor",
    "TwistWord",
    "DifferenceMap",
    "transvection_action",
    "is_weakly_torelli",
    "delta_difference",
    "concat",
    "invert",
    "DiagonalMap",
    "AnalysisReport",
    "analyze",
    "is_symmetric",
    "is_completely_reducible",
    "decide_extension_by_identity",
    "decide_extendable",
    "decide_multitwist_correctable",
    "guaranteed_correctable",
    "group_ranks",
    "sym_basis_change",
    "Realization",
    "realize_delta",
    "build_boundary_multitwist",
]
