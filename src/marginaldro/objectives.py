"""Transport-smoothed worst-case objectives over (theta, eta, B).

The core quantity is the dual objective

    ((p-1)/n * sum_i (l_i - c_i - eta)_+^p)^(1/p)
        + (L^(p-1) / (eps n^2)) * sum_ij ||x_i - x_j||^(p-1) B_ij

with nonnegative transport-plan variables B and per-example adjustments
c_i = (1/n) sum_j (B_ij - B_ji); ``B_ij`` moves loss from example i to j at a
distance-dependent cost.  The training surrogate wraps it as
(1/alpha0) * max(objective, eps^(q-1)) + eta.  A confounded variant adds an
entrywise penalty 2 delta^(p-1) / (eps n^2) * sum |B_ij| that interpolates
toward the joint-DRO solution (B = 0) as delta grows.

``TransportKernel`` is the one implementation the solvers use: surrogate
value, hinge weights and the fused projected plan step.  The value-only
functions here are the references it is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .duals import RobustSpec
from .model import ParamVector, loss_values

# default policy: eps is set so the floor term eps^(q-1)/alpha0 stays below
# this fraction of the mean loss
FLOOR_FRACTION = 1e-3

# dense n x n plans are stored in float32 from this sample size on
FLOAT32_PLAN_N = 1024


@dataclass
class DualState:
    """Optimization variables (theta, eta, B) of the robust surrogate."""

    params: ParamVector
    eta: float
    plan: np.ndarray

    def __post_init__(self):
        self.eta = float(self.eta)
        self.plan = np.asarray(self.plan, dtype=float)
        if self.plan.ndim != 2 or self.plan.shape[0] != self.plan.shape[1]:
            raise ValueError(f"plan must be square, got shape {self.plan.shape}")


def pairwise_distance_power(features: np.ndarray, p: float) -> np.ndarray:
    """Matrix of Euclidean distances ||x_i - x_j|| raised to the power p - 1."""
    x = np.atleast_2d(np.asarray(features, dtype=float))
    sq = np.sum(x * x, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    np.maximum(d2, 0.0, out=d2)
    dist = np.sqrt(d2)
    np.fill_diagonal(dist, 0.0)
    if p == 2.0:
        return dist
    return dist ** (p - 1.0)


def plan_adjustments(plan: np.ndarray) -> np.ndarray:
    """Per-example loss adjustments c_i = (1/n) sum_j (B_ij - B_ji)."""
    plan = np.asarray(plan)
    n = plan.shape[0]
    # float64 accumulators regardless of the plan's storage dtype
    return (plan.sum(axis=1, dtype=np.float64) - plan.sum(axis=0, dtype=np.float64)) / n


def penalty_coefficient(spec: RobustSpec) -> float:
    """The factor L^(p-1)/eps with L = lipschitz_ratio * eps.

    Equals lipschitz_ratio^(p-1) * eps^(p-2); for p = 2 this is just the
    lipschitz_ratio, so eps affects only the floor.
    """
    if spec.p == 2.0:
        return spec.lipschitz_ratio
    eps = _require_eps(spec)
    return spec.lipschitz_ratio ** (spec.p - 1.0) * eps ** (spec.p - 2.0)


def confounding_coefficient(spec: RobustSpec) -> float:
    """The factor 2 delta^(p-1)/eps of the confounded entrywise penalty."""
    if spec.delta == 0.0:
        return 0.0
    eps = _require_eps(spec)
    return 2.0 * spec.delta ** (spec.p - 1.0) / eps


def floor_value(spec: RobustSpec) -> float:
    """The risk floor eps^(q-1) = eps^(1/(p-1))."""
    eps = _require_eps(spec)
    return eps ** (1.0 / (spec.p - 1.0))


def resolve_eps(spec: RobustSpec, losses) -> RobustSpec:
    """Return a spec whose eps is set; the default keeps the floor negligible.

    When ``spec.eps`` is unset, eps is chosen so that the floor term
    eps^(q-1)/alpha0 equals FLOOR_FRACTION of the mean loss at the point of
    resolution.
    """
    if spec.eps is not None:
        return spec
    mean_loss = float(np.mean(np.asarray(losses, dtype=float)))
    target = max(FLOOR_FRACTION * spec.alpha0 * mean_loss, 1e-12)
    eps = target ** (spec.p - 1.0)
    return RobustSpec(
        alpha0=spec.alpha0,
        p=spec.p,
        lipschitz_ratio=spec.lipschitz_ratio,
        eps=eps,
        delta=spec.delta,
        loss_bound=spec.loss_bound,
    )


def marginal_objective(losses, dist, eta: float, plan, spec: RobustSpec) -> float:
    """Value of the transport-smoothed dual objective at (eta, B)."""
    losses, plan, dist = _check_inputs(losses, plan, dist)
    c = plan_adjustments(plan)
    block = _hinge_block(losses - c - eta, spec.p)
    pen = penalty_coefficient(spec) * float(np.vdot(dist, plan)) / losses.size**2
    return block + pen


def confounded_objective(losses, dist, eta: float, plan, spec: RobustSpec) -> float:
    """Marginal objective plus the confounding penalty on |B|."""
    value = marginal_objective(losses, dist, eta, plan, spec)
    if spec.delta == 0.0:
        return value
    plan = np.asarray(plan, dtype=float)
    n = plan.shape[0]
    return value + confounding_coefficient(spec) * float(plan.sum()) / n**2


def robust_surrogate(state: DualState, dataset, kind: str, spec: RobustSpec,
                     confounded: bool = False) -> float:
    """Training surrogate (1/alpha0) * max(objective, eps^(q-1)) + eta."""
    losses = loss_values(kind, state.params, dataset.features, dataset.labels)
    dist = pairwise_distance_power(dataset.features, spec.p)
    spec = resolve_eps(spec, losses)
    fn = confounded_objective if confounded else marginal_objective
    value = fn(losses, dist, state.eta, state.plan, spec)
    return max(value, floor_value(spec)) / spec.alpha0 + state.eta


class DensePlanStep:
    """A folded plan penalty and the projected plan step every solver takes.

    A transport surrogate depends on the plan B through a linear penalty
    <pen_dist, B> and through the adjustments c = (B 1 - B^T 1) / n, so its
    plan gradient is always pen_dist_ij + vec_j - vec_i for a per-example
    ``vec`` (None when the gradient vanishes).  The n x n arrays are float32
    from FLOAT32_PLAN_N examples on, halving their memory traffic; values
    and weights stay float64.
    """

    def __init__(self, pen_dist: np.ndarray):
        n = pen_dist.shape[0]
        self.dtype = np.dtype(np.float32 if n >= FLOAT32_PLAN_N else np.float64)
        self.pen_dist = pen_dist.astype(self.dtype, copy=False)
        self._buf = np.empty_like(self.pen_dist)

    def plan_grad(self, vec) -> np.ndarray:
        """The plan gradient as an n x n array, in a buffer reused per call."""
        if vec is None:
            self._buf.fill(0.0)
            return self._buf
        m = (-vec).astype(self.dtype)
        g_plan = np.subtract.outer(m, m, out=self._buf)
        g_plan += self.pen_dist
        return g_plan

    def plan_step(self, plan: np.ndarray, vec, step: float):
        """In-place projected update ``plan = max(plan - step n^2 g_plan, 0)``.

        The n^2 preconditions the plan block: its gradient scales like 1/n^2
        while optimal entries are O(1).  The update is fused into broadcast
        passes on the plan instead of materializing the gradient.
        """
        if vec is None:
            return
        n = plan.shape[0]
        scale = step * n * n
        u = (scale * vec).astype(self.dtype)
        plan += u[:, None]
        plan -= u[None, :]
        np.multiply(self.pen_dist, self.dtype.type(scale), out=self._buf)
        plan -= self._buf
        np.maximum(plan, 0.0, out=plan)


class TransportKernel(DensePlanStep):
    """The floored transport surrogate at fixed distances, as solvers evaluate it.

    ``pen_dist`` folds the penalty coefficient, the confounding constant and
    1/alpha0: (pen_coef dist + conf_coef) / (n^2 alpha0).  The surrogate is
    then (1/alpha0) max(core, floor) + eta with
    core = S(h) + alpha0 <pen_dist, B>, where S is the hinge block of
    h = (l - c - eta)_+; it equals ``robust_surrogate`` up to rounding.
    ``dist`` (float64) is overwritten: folding in place makes no n x n
    temporary.
    """

    def __init__(self, dist: np.ndarray, spec: RobustSpec, confounded: bool = False):
        n = dist.shape[0]
        conf_coef = confounding_coefficient(spec) if confounded else 0.0
        dist *= penalty_coefficient(spec)
        dist += conf_coef
        dist /= n * n * spec.alpha0
        super().__init__(dist)
        self.alpha0 = spec.alpha0
        self.p = spec.p
        self.floor = floor_value(spec)

    def evaluate(self, losses: np.ndarray, eta: float, plan: np.ndarray):
        """Surrogate value, hinge weights v and plan vector at (losses, eta, B).

        v_i = dS/dh_i = (p-1)/n h_i^(p-1) a^((1-p)/p) with a = (p-1) mean(h^p),
        and the plan vector is v / (n alpha0).  Below the floor the surrogate
        is flat in everything but eta: v is zero and the plan vector None.
        """
        p, a0 = self.p, self.alpha0
        n = losses.size
        c = plan_adjustments(plan)
        h = np.maximum(losses - c - eta, 0.0)
        a = (p - 1.0) * float(np.mean(h**p))
        core = a ** (1.0 / p) + a0 * float(np.vdot(self.pen_dist, plan))
        value = max(core, self.floor) / a0 + eta
        if core >= self.floor:
            wt = ((p - 1.0) / n * h ** (p - 1.0) * a ** ((1.0 - p) / p)
                  if a > 0 else np.zeros(n))
            return value, wt, wt / (n * a0)
        return value, np.zeros(n), None


def primal_inner_sup(losses, dist, eta: float, spec: RobustSpec,
                     grid_points: int | None = None, levels: int = 12,
                     max_n: int = 6) -> float:
    """Brute-force value of the inner supremum the transport dual solves.

    Maximizes (1/n) sum_i h_i (l_i - eta) over h >= 0 with
    mean(h^q) <= 1 and h_i - h_j <= (L^(p-1)/eps) ||x_i - x_j||^(p-1), by
    multilevel grid refinement; every grid direction is rescaled onto the
    tightest binding constraint before scoring.  Exponential in n, so only
    small instances are accepted; used as a strong-duality oracle against
    the infimum of ``marginal_objective`` over plans.
    """
    losses = np.asarray(losses, dtype=float).ravel()
    n = losses.size
    if n > max_n:
        raise ValueError(f"primal_inner_sup is combinatorial; n={n} exceeds {max_n}")
    if spec.p <= 1.0:
        raise ValueError("primal_inner_sup needs p > 1")
    if grid_points is None:
        grid_points = {1: 33, 2: 21, 3: 17, 4: 13, 5: 9, 6: 7}[n]
    q = spec.q
    bound = penalty_coefficient(spec) * np.asarray(dist, dtype=float)
    coef = (losses - eta) / n
    hmax = n ** (1.0 / q)

    lo = np.zeros(n)
    hi = np.full(n, hmax)
    best_val = 0.0
    best_h = np.zeros(n)
    for _ in range(levels):
        axes = [np.linspace(lo[i], hi[i], grid_points) for i in range(n)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
        raw = mesh @ coef
        # largest feasible scale along each grid direction
        norm_q = np.mean(mesh**q, axis=1) ** (1.0 / q)
        with np.errstate(divide="ignore"):
            t = np.where(norm_q > 0, 1.0 / norm_q, np.inf)
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                diff = mesh[:, i] - mesh[:, j]
                with np.errstate(divide="ignore", invalid="ignore"):
                    tpair = np.where(diff > 1e-14, bound[i, j] / diff, np.inf)
                np.minimum(t, tpair, out=t)
        t[~np.isfinite(t)] = 0.0
        vals = t * raw
        k = int(np.argmax(vals))
        if vals[k] > best_val:
            best_val = float(vals[k])
            best_h = t[k] * mesh[k]
        spacing = (hi - lo) / (grid_points - 1)
        if np.max(spacing) < 1e-14:
            break
        lo = np.clip(best_h - 2.0 * spacing, 0.0, hmax)
        hi = np.clip(best_h + 2.0 * spacing, 0.0, hmax)
        hi = np.maximum(hi, lo + 1e-15)
    return best_val


def _require_eps(spec: RobustSpec) -> float:
    if spec.eps is None:
        raise ValueError("spec.eps is unset; call resolve_eps first")
    return spec.eps


def _check_inputs(losses, plan, dist):
    losses = np.asarray(losses, dtype=float).ravel()
    plan = np.asarray(plan, dtype=float)
    dist = np.asarray(dist, dtype=float)
    n = losses.size
    if plan.shape != (n, n) or dist.shape != (n, n):
        raise ValueError(
            f"plan {plan.shape} and distances {dist.shape} must both be {(n, n)}"
        )
    if np.any(plan < 0):
        raise ValueError("plan entries must be nonnegative")
    return losses, plan, dist


def _hinge_block(adjusted, p: float) -> float:
    h = np.maximum(adjusted, 0.0)
    return float(((p - 1.0) * np.mean(h**p)) ** (1.0 / p))
