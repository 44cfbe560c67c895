"""Cross-validation of the smoothness hyperparameter L/eps.

Each grid point is trained on the training sample and scored on a held-out
dataset by ``evaluation.eval_replicates`` (the CVaR of per-row mean losses
over repeated labels).  Grid points run in turn, in ascending order, and
ties keep the smaller lipschitz_ratio.  A grid point that fails numerically
(ArithmeticError, DivergenceError) is recorded, not fatal, unless every
point fails; any other exception propagates, such as a MemoryError from the
first grid point, or a bug.  Every spec error is a ValueError raised before
the first grid point trains: an objective that does not read lipschitz_ratio
(``duals.PLAN_OBJECTIVES``), a loss kind that cannot be trained, a p the
objective cannot take (``duals.check_p``), a ratio ``RobustSpec`` rejects, a
scoring alpha0 outside (0, 1] and a holdout without replicate labels or with
another feature dimension.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .duals import PLAN_OBJECTIVES, RobustSpec, check_p
from .evaluation import eval_replicates
from .model import Dataset, _check_kind
from .optim import DivergenceError, OptimizerConfig, TrainResult, train


@dataclass
class CVEntry:
    lipschitz_ratio: float
    score: float
    error: str | None = None


@dataclass
class CVResult:
    entries: list[CVEntry]
    best_ratio: float
    best_result: TrainResult


def replicate_score(result: TrainResult, holdout: Dataset, kind: str,
                    alpha0: float) -> float:
    """Held-out replicate estimate of worst-case risk for a trained model."""
    return float(eval_replicates(result.params, holdout, kind, [alpha0]).risks[0])


def cross_validate(dataset: Dataset, kind: str, spec: RobustSpec,
                   opt: OptimizerConfig, grid, holdout: Dataset,
                   score_alpha0: float | None = None, jobs: int = 1) -> CVResult:
    """Train one model per lipschitz_ratio in ``grid`` and keep the best scorer.

    ``jobs`` accepts only 1.  Each grid point is scored as it finishes, and its
    ``TrainResult`` (n x n plan included) is kept only while it is the best."""
    grid = sorted(float(g) for g in grid)
    if not grid:
        raise ValueError("hyperparameter grid is empty")
    # spec errors, not one grid point's failure
    if jobs != 1:
        raise ValueError(f"jobs must be 1 (grid points run in turn), got {jobs}")
    if opt.objective not in PLAN_OBJECTIVES:
        raise ValueError(f"{opt.objective} does not read lipschitz_ratio; cross_validate "
                         f"tunes one of {PLAN_OBJECTIVES}")
    _check_kind(kind, trainable=True)
    check_p(opt.objective, spec)
    if holdout.replicates is None:
        raise ValueError("holdout dataset has no replicates")
    if holdout.d != dataset.d:
        raise ValueError(f"holdout feature dimension {holdout.d} does not match "
                         f"training feature dimension {dataset.d}")
    points = [replace(spec, lipschitz_ratio=ratio) for ratio in grid]
    score_alpha0 = spec.alpha0 if score_alpha0 is None else float(score_alpha0)
    if not 0.0 < score_alpha0 <= 1.0:
        raise ValueError(f"score_alpha0 must be in (0, 1], got {score_alpha0}")
    entries: list[CVEntry] = []
    best = None  # (entry, result)

    def run(point: RobustSpec) -> None:
        # one scope per grid point: a result that is not the best is freed on return
        nonlocal best
        try:
            result = train(dataset, kind, point, opt)
            score = replicate_score(result, holdout, kind, score_alpha0)
            if not np.isfinite(score):
                raise FloatingPointError(f"non-finite score {score}")
        except (ArithmeticError, DivergenceError) as err:  # numeric: record
            entries.append(CVEntry(point.lipschitz_ratio, np.nan, error=str(err)))
            return
        entries.append(entry := CVEntry(point.lipschitz_ratio, float(score)))
        # the grid is ascending, so a strict < keeps the smaller ratio on ties
        if best is None or entry.score < best[0].score:
            best = (entry, result)

    for point in points:
        run(point)

    if best is None:
        raise RuntimeError("every grid point failed: "
                           + "; ".join(f"{e.lipschitz_ratio:g}: {e.error}" for e in entries))
    return CVResult(entries, best[0].lipschitz_ratio, best[1])
