"""Training and evaluation of models that are robust to unseen subpopulations.

The library minimizes worst-case loss over every covariate subpopulation of
proportion at least alpha0, via a convex transport-smoothed dual objective,
next to joint-DRO and ERM baselines, replicate/oracle worst-case risk
evaluation, synthetic benchmark generators, and hyperparameter
cross-validation.
"""

from .datagen import SimSpec, generate, generate_replicates
from .duals import RobustSpec, cvar_dual, pnorm_dual, replicate_worst_case
from .evaluation import (
    RiskReport,
    eval_joint,
    eval_oracle,
    eval_replicates,
)
from .model import Dataset, ParamVector
from .objectives import (
    marginal_objective,
    pairwise_distance_power,
    primal_inner_sup,
    robust_surrogate,
)
from .optim import (
    DivergenceError,
    OptimizerConfig,
    TrainResult,
    train,
)
from .tuning import cross_validate
from .variational import bounded_holder_objective, gram, rkhs_objective

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "DivergenceError",
    "OptimizerConfig",
    "ParamVector",
    "RiskReport",
    "RobustSpec",
    "SimSpec",
    "TrainResult",
    "bounded_holder_objective",
    "cross_validate",
    "cvar_dual",
    "eval_joint",
    "eval_oracle",
    "eval_replicates",
    "generate",
    "generate_replicates",
    "gram",
    "marginal_objective",
    "pairwise_distance_power",
    "pnorm_dual",
    "primal_inner_sup",
    "replicate_worst_case",
    "rkhs_objective",
    "robust_surrogate",
    "train",
]
