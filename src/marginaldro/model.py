"""Data containers and per-example losses with their subgradients.

All losses are nonnegative.  Regression uses the absolute deviation loss,
classification the binary logistic loss with labels in {-1, +1}; the 0-1
loss is evaluation-only and has no subgradient.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

ABSOLUTE = "absolute_deviation"
LOGISTIC = "logistic"
ZERO_ONE = "zero_one"

LOSS_KINDS = (ABSOLUTE, LOGISTIC, ZERO_ONE)
TRAINABLE_LOSS_KINDS = (ABSOLUTE, LOGISTIC)

# rows per block of scratch where a whole-sample pass works in row blocks:
# the dataset CSV writer, the covariate draw, the conditional risks, the
# per-row replicate means and the finiteness checks of a Dataset
ROW_BLOCK = 4096


def _row_blocks(n):
    """Slices of ROW_BLOCK consecutive rows (the last one shorter) covering n rows."""
    return [slice(lo, min(lo + ROW_BLOCK, n)) for lo in range(0, n, ROW_BLOCK)]


def _require_finite(message, *arrays):
    """Raise ValueError(message) unless all entries are finite, checked by row blocks."""
    if not all(np.isfinite(a[rows]).all() for a in arrays for rows in _row_blocks(len(a))):
        raise ValueError(message)


def _check_integer(name: str, value, low: int):
    """Raise ValueError unless ``value`` is an integer >= ``low`` (numpy's
    included, bool not)."""
    if not (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and value >= low):
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def _feature_matrix(features) -> np.ndarray:
    """``features`` as a float array, which must be 2-d: one row per point."""
    if (x := np.asarray(features, dtype=float)).ndim != 2:
        raise ValueError(f"features must be a 2-d (n, d) array, got shape {x.shape}")
    return x


def _check_kind(kind, trainable=False):
    allowed = TRAINABLE_LOSS_KINDS if trainable else LOSS_KINDS
    if kind not in allowed:
        raise ValueError(f"unknown loss kind {kind!r}; expected one of {allowed}")


@dataclass
class Dataset:
    """An in-memory sample: feature matrix, labels, and optional side columns.

    Parameters
    ----------
    features : ndarray, shape (n, d)
    labels : ndarray, shape (n,)
        Real-valued for regression, {-1, +1} for classification.
    replicates : ndarray, shape (n, m), optional
        Repeated label draws per row (same covariates).
    group : ndarray, shape (n,), optional
        Latent group indicator in {0, 1}; diagnostics only.
    confounder : ndarray, shape (n,), optional
        Unobserved-confounder column of the confounded generator.
    """

    features: np.ndarray
    labels: np.ndarray
    replicates: np.ndarray | None = None
    group: np.ndarray | None = None
    confounder: np.ndarray | None = None

    def __post_init__(self):
        self.features = _feature_matrix(self.features)
        self.labels = np.asarray(self.labels, dtype=float).ravel()
        n, d = self.features.shape
        if n < 1 or d < 1:
            raise ValueError(f"need n >= 1 and d >= 1, got features of shape {(n, d)}")
        if self.labels.shape != (n,):
            raise ValueError(f"labels shape {self.labels.shape} does not match n={n}")
        _require_finite("features and labels must be finite", self.features, self.labels)
        if self.replicates is not None:
            reps = self.replicates = np.asarray(self.replicates, dtype=float)
            if reps.ndim != 2 or len(reps) != n or reps.shape[1] < 1:
                raise ValueError(f"replicates must be an (n, m) matrix, m >= 1, got {reps.shape}")
            _require_finite("replicates must be finite", self.replicates)
        for name in ("group", "confounder"):
            col = getattr(self, name)
            if col is not None:
                col = np.asarray(col, dtype=float).ravel()
                if col.shape != (n,):
                    raise ValueError(f"{name} must have exactly n={n} entries")
                _require_finite(f"{name} must be finite", col)
                setattr(self, name, col)
        if self.group is not None and not np.isin(self.group, (0.0, 1.0)).all():
            raise ValueError("group entries must be 0 or 1")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


@dataclass
class ParamVector:
    """Linear model parameters: the weights theta and an intercept."""

    theta: np.ndarray
    intercept: float = 0.0

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=float).ravel()
        self.intercept = float(self.intercept)
        if not np.isfinite(self.theta).all() or not np.isfinite(self.intercept):
            raise ValueError("parameters must be finite")

    def predict(self, features: np.ndarray) -> np.ndarray:
        features = _feature_matrix(features)
        if features.shape[1] != self.theta.shape[0]:
            raise ValueError(
                f"feature dimension {features.shape[1]} does not match "
                f"parameter dimension {self.theta.shape[0]}"
            )
        pred = features @ self.theta
        pred += self.intercept
        return pred


def loss_values(kind: str, params: ParamVector, features: np.ndarray,
                labels: np.ndarray) -> np.ndarray:
    """Vector of per-example losses for a whole sample."""
    _check_kind(kind)
    return pointwise_losses(kind, *_prediction(params, features, labels))


def loss_residual_slopes(kind: str, params: ParamVector, features: np.ndarray,
                         labels: np.ndarray) -> np.ndarray:
    """Per-example derivative of the loss with respect to the prediction.

    The full per-example subgradient wrt (theta, intercept) is ``slope[i] * (x_i, 1)``;
    kinks of the absolute loss get slope 0.  The slopes of ``loss_values_and_slopes``.
    """
    return loss_values_and_slopes(kind, params, features, labels)[1]


def loss_values_and_slopes(kind: str, params: ParamVector, features: np.ndarray,
                           labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-example losses and their slopes wrt the prediction, from one prediction."""
    _check_kind(kind, trainable=True)
    pred, labels = _prediction(params, features, labels)
    r = _residual(kind, pred, labels)
    return _losses(kind, r), _slopes(kind, r, labels)


def pointwise_losses(kind: str, pred: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Losses of predictions against labels of a broadcast-compatible shape."""
    if kind == ZERO_ONE:
        _check_binary_labels(labels)
        yhat = np.where(pred >= 0, 1.0, -1.0)
        return (yhat != labels).astype(float)
    r = _residual(kind, pred, labels)
    return _losses(kind, r, out=r)


def _prediction(params, features, labels):
    return params.predict(features), np.asarray(labels, dtype=float).ravel()


def _residual(kind, pred, labels):
    """pred - y for the absolute loss, the margin -y * pred for the logistic."""
    if kind == ABSOLUTE:
        return pred - labels
    _check_binary_labels(labels)
    return -labels * pred


def _losses(kind, r, out=None):
    return np.abs(r, out=out) if kind == ABSOLUTE else np.logaddexp(0.0, r, out=out)


def _slopes(kind, r, labels):
    if kind == ABSOLUTE:
        return np.sign(r)
    # imported on first use, so that importing the package loads no scipy
    from scipy.special import expit

    # d/df log(1 + exp(-y f)) = -y * sigmoid(-y f)
    return -labels * expit(r)


def _check_binary_labels(labels):
    if not np.isin(labels, (-1.0, 1.0)).all():
        raise ValueError("classification labels must be -1 or +1")
