"""Support matrix machine solvers.

A Newton-based augmented Lagrangian solver that exploits sample sparsity
and solution low rank, two ADMM baselines, an adaptive-sieving path
generator over the hinge weight, a synthetic benchmark generator, and a
batch CLI.
"""

from .problem import (
    DataError,
    Dataset,
    DualPoint,
    Hyperparams,
    PrimalPoint,
    apply_A,
    apply_A_adjoint,
    classify_samples,
    dual_objective,
    kkt_residual,
    primal_objective,
)
from .alm import AlmConfig, Solution, SolveReport, StartPoint, solve
from .admm import AdmmConfig, solve_ispadmm, solve_sgs_ispadmm, warm_start
from .sieving import PathConfig, PathPoint, solve_path, warm_path
from .data import Model, SynthSpec, accuracy, gen_synthetic, load_dataset, predict, save_dataset

__version__ = "0.1.0"

__all__ = [
    "DataError",
    "Dataset",
    "DualPoint",
    "Hyperparams",
    "PrimalPoint",
    "apply_A",
    "apply_A_adjoint",
    "classify_samples",
    "dual_objective",
    "kkt_residual",
    "primal_objective",
    "AlmConfig",
    "Solution",
    "SolveReport",
    "StartPoint",
    "solve",
    "AdmmConfig",
    "solve_ispadmm",
    "solve_sgs_ispadmm",
    "warm_start",
    "PathConfig",
    "PathPoint",
    "solve_path",
    "warm_path",
    "Model",
    "SynthSpec",
    "accuracy",
    "gen_synthetic",
    "load_dataset",
    "predict",
    "save_dataset",
]
