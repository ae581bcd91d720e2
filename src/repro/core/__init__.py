"""HYDRA core: candidate generation, structure consistency, and the
multi-objective linkage learner (Sections 3, 6 of the paper).

Public entry point: :class:`repro.core.hydra.HydraLinker`.
"""

from repro.core.kernels import make_kernel, linear_kernel, rbf_kernel, chi_square_kernel
from repro.core.eigen import principal_eigenvector
from repro.core.qp import solve_box_qp, QPResult
from repro.core.svm import LinearSVM
from repro.core.candidates import CandidateGenerator, CandidateSet
from repro.core.consistency import ConsistencyBlock, StructureConsistencyBuilder
from repro.core.moo import MooConfig, MultiObjectiveModel
from repro.core.stages import (
    CandidateStage,
    ConsistencyStage,
    FeaturizeStage,
    LabelStage,
    LinkageContext,
    LinkageStage,
    OptimizeStage,
    run_stages,
)
from repro.core.hydra import HydraLinker, LinkageResult
from repro.core.spectral import SpectralLinker

__all__ = [
    "make_kernel",
    "linear_kernel",
    "rbf_kernel",
    "chi_square_kernel",
    "principal_eigenvector",
    "solve_box_qp",
    "QPResult",
    "LinearSVM",
    "CandidateGenerator",
    "CandidateSet",
    "ConsistencyBlock",
    "StructureConsistencyBuilder",
    "MooConfig",
    "MultiObjectiveModel",
    "LinkageContext",
    "LinkageStage",
    "CandidateStage",
    "LabelStage",
    "FeaturizeStage",
    "ConsistencyStage",
    "OptimizeStage",
    "run_stages",
    "HydraLinker",
    "LinkageResult",
    "SpectralLinker",
]
