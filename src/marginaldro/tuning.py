"""Cross-validation of the smoothness hyperparameter L/eps.

Each grid point is trained on the training sample and scored by the
replicate estimate of worst-case risk on a held-out dataset (row-mean losses
over repeated labels, then the CVaR tail mean).  Ties break toward the
smaller lipschitz_ratio; grid points that fail numerically (ValueError,
ArithmeticError, DivergenceError) are recorded, not fatal, unless every point
fails.  Any other exception propagates: a MemoryError (the n x n arrays
would not fit) from the first grid point, or a bug.  Spec errors are
raised before the first grid point: an objective that does not read
lipschitz_ratio (``optim.PLAN_OBJECTIVES``), a p it cannot take
(``optim.check_p``) and a holdout without replicate labels.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .duals import RobustSpec, replicate_worst_case
from .evaluation import loss_matrix
from .model import Dataset
from .optim import (PLAN_OBJECTIVES, DivergenceError, OptimizerConfig, TrainResult,
                    check_p, train)


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
    if holdout.replicates is None:
        raise ValueError("holdout dataset has no replicates")
    losses = loss_matrix(kind, result.params, holdout.features, holdout.replicates)
    return replicate_worst_case(losses, alpha0)


def cross_validate(dataset: Dataset, kind: str, spec: RobustSpec,
                   opt: OptimizerConfig, grid, holdout: Dataset,
                   score_alpha0: float | None = None, jobs: int = 1) -> CVResult:
    """Train one model per lipschitz_ratio in ``grid`` and keep the best scorer.

    Each grid point is scored as it finishes, and its ``TrainResult`` (n x n
    plan included) is kept only while it is the best so far."""
    grid = sorted(float(g) for g in grid)
    if not grid:
        raise ValueError("hyperparameter grid is empty")
    # spec errors, not one grid point's failure
    if opt.objective not in PLAN_OBJECTIVES:
        raise ValueError(f"{opt.objective} does not read lipschitz_ratio; cross_validate "
                         f"tunes one of {PLAN_OBJECTIVES}")
    check_p(opt.objective, spec)
    if holdout.replicates is None:
        raise ValueError("holdout dataset has no replicates")
    score_alpha0 = spec.alpha0 if score_alpha0 is None else float(score_alpha0)
    entries: list[CVEntry] = [None] * len(grid)
    best = None  # (score, grid index, result)
    lock = threading.Lock()

    def run(i: int):
        nonlocal best
        ratio = grid[i]
        try:
            result = train(dataset, kind, replace(spec, lipschitz_ratio=ratio), opt)
            score = replicate_score(result, holdout, kind, score_alpha0)
            if not np.isfinite(score):
                raise ValueError(f"non-finite score {score}")
        except (ValueError, ArithmeticError, DivergenceError) as err:  # numeric: record
            entries[i] = CVEntry(ratio, np.nan, error=str(err))
            return
        entries[i] = entry = CVEntry(ratio, float(score))
        with lock:
            # the grid is ascending, so the lower index keeps the smaller ratio on ties
            if best is None or (entry.score, i) < best[:2]:
                best = (entry.score, i, result)

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            list(pool.map(run, range(len(grid))))
    else:
        list(map(run, range(len(grid))))

    if best is None:
        raise RuntimeError("every grid point failed: "
                           + "; ".join(f"{e.lipschitz_ratio:g}: {e.error}" for e in entries))
    return CVResult(entries, grid[best[1]], best[2])
