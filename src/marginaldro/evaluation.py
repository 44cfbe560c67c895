"""Worst-case subpopulation risk reports over grids of test-time alpha0.

Three estimation routes: the exact conditional-risk oracle (simulation
variants only), the replicate estimate (per-row mean losses over repeated
labels, optionally conditioned on a confounder value), and the joint route
over raw per-example losses (no conditional-risk estimation; always an
upper bound on the other two).

The replicate route, also ``tuning``'s grid-point score, takes per-row means
``model.ROW_BLOCK`` rows at a time, with no n x m loss matrix.  ``loss_matrix``,
the public every-loss matrix and the tests' reference, has no package caller.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datagen import conditional_risks
from .duals import cvar_dual
from .model import (Dataset, ParamVector, loss_values, pointwise_losses, _check_kind,
                    _row_blocks)

ORACLE_EVAL_ROWS = 20000


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
        if not np.all((self.alphas > 0) & (self.alphas <= 1)):  # NaN fails too
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
    _check_kind(kind)
    pred = params.predict(dataset.features)
    means = np.empty_like(pred)
    for rows in _row_blocks(dataset.n):  # no n x m loss matrix: one block of rows at a time
        means[rows] = pointwise_losses(kind, pred[rows, None],
                                       dataset.replicates[rows]).mean(axis=1)
    tag = "replicates"
    if condition is not None:
        if dataset.confounder is None:
            raise ValueError("dataset has no confounder column to condition on")
        mask = np.isclose(dataset.confounder, condition, rtol=0.0, atol=1e-9)
        if not mask.any():
            raise ValueError(f"no rows have confounder value {condition}")
        means = means[mask]
        tag = f"replicates|c={condition:g}"
    return _sweep(means, alphas, tag)


def eval_joint(params: ParamVector, dataset: Dataset, kind: str, alphas) -> RiskReport:
    """Worst-case risk sweep over raw per-example losses."""
    losses = loss_values(kind, params, dataset.features, dataset.labels)
    return _sweep(losses, alphas, "joint")


def loss_matrix(kind: str, params: ParamVector, features, replicates) -> np.ndarray:
    """Per-(row, replicate) losses, vectorized over the replicate matrix; the
    residual matrix becomes the losses in place, so one n x m array is made."""
    _check_kind(kind)
    return pointwise_losses(kind, params.predict(features)[:, None],
                            np.asarray(replicates, dtype=float))
