"""Matrix imputation by multilinear kernel regression with affine/sparse
latent-geometry constraints, for time-varying graph signals and dynamic MRI."""

from .errors import DataError, InputError, SolverError
from .graphs import GraphOperators, build_graph_operators
from .kernels import KernelSpec, build_kernel_matrix
from .model import FactorModel, ModelDims, SolverConfig, count_unknowns, init_factors, predict
from .navigators import LandmarkSet, NavigatorSet, form_navigators_dmri, form_navigators_tvgs, select_landmarks
from .sampling import SamplingPattern, apply_sampling
from .solver import DMRI, TVGS, SolveReport, solve, solve_from_model

__all__ = [
    "DataError", "InputError", "SolverError",
    "GraphOperators", "build_graph_operators",
    "KernelSpec", "build_kernel_matrix",
    "FactorModel", "ModelDims", "SolverConfig", "count_unknowns", "init_factors", "predict",
    "LandmarkSet", "NavigatorSet", "form_navigators_dmri", "form_navigators_tvgs", "select_landmarks",
    "SamplingPattern", "apply_sampling",
    "DMRI", "TVGS", "SolveReport", "solve", "solve_from_model",
]

__version__ = "0.1.0"
