"""Alternative smoothing classes for the inner variational problem.

Two drop-in replacements for the transport-plan dual: an RKHS norm ball
(Gaussian kernel) smoothed by a vector beta, and the bounded-Hölder class
whose dual again uses a transport plan but with a plain hinge sum and no
eps scaling on the penalty.  Both objectives are the inner part of the
worst-case dual; the training problem adds the outer + eta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .duals import RobustSpec
from .objectives import plan_adjustments, squared_distances, _check_inputs, _require_eps

PSD_TOL = 1e-8


@dataclass
class KernelSpec:
    """Gaussian kernel with bandwidth sigma and RKHS norm budget R."""

    bandwidth: float
    radius: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.bandwidth) and self.bandwidth > 0):
            raise ValueError("bandwidth must be positive and finite")
        if not (np.isfinite(self.radius) and self.radius > 0):
            raise ValueError("radius must be positive and finite")


def median_bandwidth(features: np.ndarray) -> float:
    """Median pairwise distance, the usual default kernel scale."""
    d2 = squared_distances(features)
    off = d2[np.triu(np.ones(d2.shape, dtype=bool), k=1)]
    med = float(np.sqrt(np.median(off, overwrite_input=True))) if off.size else 1.0
    return med if med > 0 else 1.0


def gram(features: np.ndarray, kernel: KernelSpec) -> np.ndarray:
    """Gram matrix k_ij = exp(-||x_i - x_j||^2 / (2 sigma^2))."""
    k = squared_distances(features)
    np.negative(k, out=k)
    k /= 2.0 * kernel.bandwidth**2
    np.exp(k, out=k)
    return k


def check_gram(k: np.ndarray):
    """Raise ValueError unless ``k`` is a symmetric positive semidefinite
    matrix, by an attempted Cholesky factorization with a small diagonal
    jitter."""
    k = np.asarray(k, dtype=float)
    if k.ndim != 2 or k.shape[0] != k.shape[1]:
        raise ValueError(f"gram matrix must be square, got {k.shape}")
    if not np.allclose(k, k.T, atol=1e-10):
        raise ValueError("gram matrix must be symmetric")
    jitter = PSD_TOL * k.shape[0]
    try:
        np.linalg.cholesky(k + jitter * np.eye(k.shape[0]))
    except np.linalg.LinAlgError as err:
        raise ValueError("gram matrix is not positive semidefinite") from err


def rkhs_objective(losses, gram_matrix, eta: float, beta, alpha0: float,
                   radius: float) -> float:
    """Hinge sum of beta-shifted losses plus the RKHS-norm penalty.

    (1/(alpha0 n)) sum_i (l_i - eta + beta_i)_+ + (1/n) sqrt(beta' K beta / R)
    """
    losses = np.asarray(losses, dtype=float).ravel()
    beta = np.asarray(beta, dtype=float).ravel()
    k = np.asarray(gram_matrix, dtype=float)
    n = losses.size
    if beta.shape != (n,) or k.shape != (n, n):
        raise ValueError("losses, beta and gram matrix dimensions disagree")
    quad = float(beta @ (k @ beta))
    if quad < -PSD_TOL * max(1.0, float(beta @ beta)):
        raise ValueError(f"beta' K beta = {quad:.3e} < 0: gram matrix is not PSD")
    quad = max(quad, 0.0)
    hinge = np.maximum(losses - eta + beta, 0.0).sum() / (alpha0 * n)
    return hinge + np.sqrt(quad / radius) / n


def bounded_holder_objective(losses, dist, eta: float, plan, spec: RobustSpec) -> float:
    """Transport dual of the bounded-Hölder class.

    (1/(alpha0 n)) sum_i (l_i - c_i - eta)_+
        + (L^(p-1)/n^2) sum_ij ||x_i - x_j||^(p-1) B_ij

    Unlike the Lp variant the penalty carries no 1/eps factor and the
    outer 1/alpha0 multiplies only the hinge sum.  alpha0 is ``spec.alpha0``
    and L is recovered from the spec as lipschitz_ratio * eps.
    """
    losses, plan, dist = _check_inputs(losses, plan, dist)
    n = losses.size
    c = plan_adjustments(plan)
    hinge = np.maximum(losses - c - eta, 0.0).sum() / (spec.alpha0 * n)
    return hinge + holder_constant(spec) * float(np.vdot(dist, plan)) / n**2


def holder_constant(spec: RobustSpec) -> float:
    """L^(p-1) with L = lipschitz_ratio * eps."""
    eps = _require_eps(spec)
    return (spec.lipschitz_ratio * eps) ** (spec.p - 1.0)
