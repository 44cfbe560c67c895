"""Alternative smoothing classes for the inner variational problem.

Two drop-in replacements for the transport-plan dual: an RKHS norm ball
(Gaussian kernel) smoothed by a vector beta, and the bounded-Hölder class
whose dual again uses a transport plan but with a plain hinge sum and no
eps scaling on the penalty.  Both objectives are the inner part of the
worst-case dual; the training problem adds the outer + eta.
"""

from __future__ import annotations

import numpy as np

from .duals import RobustSpec
from .objectives import (_check_inputs, _require_eps, dense_array, plan_adjustments,
                         squared_distances)

PSD_TOL = 1e-8


def median_bandwidth(d2: np.ndarray) -> float:
    """Median pairwise distance of a squared-distance matrix, the usual default
    kernel scale; ``d2`` is left unchanged."""
    n = d2.shape[0]
    off = dense_array(n * (n - 1) // 2)
    for i in range(n - 1):  # the upper triangle, row by row
        off[i * n - i * (i + 1) // 2:][:n - 1 - i] = d2[i, i + 1:]
    med = float(np.sqrt(np.median(off, overwrite_input=True))) if off.size else 1.0
    return med if med > 0 else 1.0


def gram(features: np.ndarray) -> np.ndarray:
    """Gram matrix k_ij = exp(-||x_i - x_j||^2 / (2 sigma^2)) of the Gaussian
    kernel at the median bandwidth sigma, built in the distance matrix."""
    k = squared_distances(features)
    sigma = median_bandwidth(k)
    np.negative(k, out=k)
    k /= 2.0 * sigma**2
    np.exp(k, out=k)
    return k


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
