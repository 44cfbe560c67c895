"""Worst-case subpopulation risk reports over grids of test-time alpha0.

Three estimation routes: the exact conditional-risk oracle (simulation
variants only), the replicate estimate (per-row mean losses over repeated
labels, optionally conditioned on a confounder value), and the joint route
over raw per-example losses (no conditional-risk estimation; always an
upper bound on the other two).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datagen import conditional_risks
from .duals import cvar_dual
from .model import Dataset, ParamVector, loss_values, pointwise_losses, _check_kind

ORACLE_EVAL_ROWS = 20000

# eval_group_split skips a column when either side of its split has fewer rows
GROUP_SPLIT_MIN_ROWS = 10


@dataclass
class RiskReport:
    """Worst-case risk per test-time alpha0; risks fall as alpha0 grows."""

    alphas: np.ndarray
    risks: np.ndarray
    method_tag: str
    mean_risk: float

    def __post_init__(self):
        self.alphas = np.asarray(self.alphas, dtype=float).ravel()
        self.risks = np.asarray(self.risks, dtype=float).ravel()
        if self.alphas.shape != self.risks.shape:
            raise ValueError("alphas and risks must have matching lengths")
        if np.any(self.alphas <= 0) or np.any(self.alphas > 1):
            raise ValueError("test-time alpha0 values must lie in (0, 1]")

    def rows(self):
        """(alpha0, risk, method) tuples sorted by alpha0."""
        order = np.argsort(self.alphas)
        return [(float(self.alphas[i]), float(self.risks[i]), self.method_tag)
                for i in order]


def _sweep(values, alphas, tag) -> RiskReport:
    alphas = np.sort(np.asarray(alphas, dtype=float).ravel())
    risks = np.array([cvar_dual(values, a)[0] for a in alphas])
    return RiskReport(alphas, risks, tag, mean_risk=float(np.mean(values)))


def eval_oracle(params: ParamVector, eval_features, variant: str, alphas) -> RiskReport:
    """Worst-case risk sweep using the exact conditional risk per row."""
    risks = conditional_risks(params, eval_features, variant)
    return _sweep(risks, alphas, "oracle")


def eval_replicates(params: ParamVector, dataset: Dataset, kind: str, alphas,
                    condition: float | None = None) -> RiskReport:
    """Worst-case risk sweep from per-row replicate-mean losses.

    With ``condition`` set, only rows whose confounder equals that value are
    used (the conditional worst-case risk at C = c); an empty match is an
    error, not an empty report.
    """
    if dataset.replicates is None:
        raise ValueError("dataset has no replicates")
    losses = loss_matrix(kind, params, dataset.features, dataset.replicates)
    tag = "replicates"
    if condition is not None:
        if dataset.confounder is None:
            raise ValueError("dataset has no confounder column to condition on")
        mask = np.isclose(dataset.confounder, condition, atol=1e-9)
        if not mask.any():
            raise ValueError(f"no rows have confounder value {condition}")
        losses = losses[mask]
        tag = f"replicates|c={condition:g}"
    return _sweep(losses.mean(axis=1), alphas, tag)


def eval_joint(params: ParamVector, dataset: Dataset, kind: str, alphas) -> RiskReport:
    """Worst-case risk sweep over raw per-example losses."""
    losses = loss_values(kind, params, dataset.features, dataset.labels)
    return _sweep(losses, alphas, "joint")


@dataclass
class GroupSplitResult:
    column: int
    worst_loss: float | None
    n_zero: int
    n_one: int
    skipped: str | None = None


def eval_group_split(params: ParamVector, dataset: Dataset, kind: str,
                     columns) -> list[GroupSplitResult]:
    """Worst of the two group-mean losses for each flagged binary column.

    Splits with fewer than ``GROUP_SPLIT_MIN_ROWS`` rows on either side are
    skipped with a reason rather than scored.
    """
    losses = loss_values(kind, params, dataset.features, dataset.labels)
    out = []
    for col in columns:
        values = dataset.features[:, col]
        if not np.isin(values, (0.0, 1.0)).all():
            raise ValueError(f"column {col} is not binary")
        ones = values == 1.0
        n1, n0 = int(ones.sum()), int((~ones).sum())
        if min(n0, n1) < GROUP_SPLIT_MIN_ROWS:
            out.append(GroupSplitResult(
                col, None, n0, n1, skipped=f"a split side has < {GROUP_SPLIT_MIN_ROWS} rows"))
            continue
        worst = max(float(losses[ones].mean()), float(losses[~ones].mean()))
        out.append(GroupSplitResult(col, worst, n0, n1))
    return out


def loss_matrix(kind: str, params: ParamVector, features, replicates) -> np.ndarray:
    """Per-(row, replicate) losses, vectorized over the replicate matrix."""
    _check_kind(kind)
    return pointwise_losses(kind, params.predict(features)[:, None],
                            np.asarray(replicates, dtype=float))
