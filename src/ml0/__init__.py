"""Sparse multilinear logistic regression with hard sparsity caps.

Tensors are scored by contracting each mode with a weight vector; training
runs an accelerated block proximal solver whose nonsmooth step is the
projection onto the l0 ball. See README.md for the CLI and file formats.
"""

from .data import (
    Dataset,
    DatasetStream,
    FeatureScaler,
    FormatError,
    SyntheticConfig,
    generate_synthetic,
    load_dataset,
    load_params,
    normalize_per_feature,
    save_dataset,
    save_params,
    split,
)
from .metrics import accuracy, auc
from .model import (
    ModelParams,
    Problem,
    grad_bias,
    grad_block,
    lipschitz_bias,
    lipschitz_block,
    margins,
    objective,
    predict,
    smooth_loss,
)
from .prox import project_l0, prox_block_step
from .solver import (
    IterTrace,
    SolveResult,
    SolverConfig,
    check_stop,
    diagnose_sufficient_decrease,
    nesterov_beta,
    random_init,
    run,
    write_trace_csv,
)
from .tensor import DenseTensor

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "DatasetStream",
    "DenseTensor",
    "FeatureScaler",
    "FormatError",
    "IterTrace",
    "ModelParams",
    "Problem",
    "SolveResult",
    "SolverConfig",
    "SyntheticConfig",
    "accuracy",
    "auc",
    "check_stop",
    "diagnose_sufficient_decrease",
    "generate_synthetic",
    "grad_bias",
    "grad_block",
    "lipschitz_bias",
    "lipschitz_block",
    "load_dataset",
    "load_params",
    "margins",
    "nesterov_beta",
    "normalize_per_feature",
    "objective",
    "predict",
    "project_l0",
    "prox_block_step",
    "random_init",
    "run",
    "save_dataset",
    "save_params",
    "smooth_loss",
    "split",
    "write_trace_csv",
]
