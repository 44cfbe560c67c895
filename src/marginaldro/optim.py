"""Full-batch projected subgradient descent for the robust objectives.

``duals.SPEC_FIELDS`` lists the ``RobustSpec`` fields each objective reads.
Every trainable objective is convex in its variables; the solver keeps the
best iterate seen, projects eta to [0, the largest loss of the current
iterate] and plans to the nonnegative orthant each step, and records the
running-best objective in the trace.
Block updates are preconditioned so their magnitudes do not shrink with the
sample size: plan gradients scale like 1/n^2 while optimal plan entries are
O(1), so plan steps carry an extra n^2 (and the RKHS smoothing vector an
extra n).  The optimum is unchanged; only the step geometry is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .duals import (OBJECTIVES, PLAN_OBJECTIVES, SPEC_FIELDS, RobustSpec, check_p, cvar_dual,
                    pnorm_dual)
from .model import (Dataset, ParamVector, _check_integer, _check_kind, loss_values,
                    loss_values_and_slopes)
from .objectives import (
    DensePlanStep,
    TransportKernel,
    check_memory,
    dense_plan_bytes,
    pairwise_distance_power,
    resolve_eps,
)
from .variational import gram, holder_constant

# the joint objectives reset eta to its exact minimizer every this many steps
ETA_REFRESH = 10


class DivergenceError(RuntimeError):
    """Objective became NaN/inf; carries the iteration where it happened and
    the block that went non-finite first: w, eta, beta, plan or, when every
    iterate is finite, objective."""

    def __init__(self, iteration: int, block: str):
        super().__init__(f"objective diverged (NaN/inf) at iteration {iteration}: "
                         f"{block} is not finite")
        self.iteration = iteration
        self.block = block


@dataclass
class OptimizerConfig:
    """Step sizes follow step0 / sqrt(t + 1)."""

    objective: str = "erm"
    max_iters: int = 400
    step0: float = 0.2
    fit_intercept: bool = True

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {OBJECTIVES}, got {self.objective!r}")
        _check_integer("max_iters", self.max_iters, 1)
        if not (np.isfinite(self.step0) and self.step0 > 0):
            raise ValueError(f"step0 must be finite and > 0, got {self.step0}")
        if not isinstance(self.fit_intercept, (bool, np.bool_)):
            raise ValueError(f"fit_intercept must be a bool, got {self.fit_intercept!r}")


@dataclass
class TrainResult:
    params: ParamVector
    objective: float
    trace: np.ndarray
    eta: float | None = None
    plan: np.ndarray | None = None
    beta: np.ndarray | None = None


class ObjectiveFunction:
    """Value and subgradient of one training objective at (w, eta, plan, beta).

    ``w`` stacks theta and the intercept (last coordinate).  Unused blocks
    are ignored and get gradient None.  Each objective is a loss-space
    kernel in ``_KERNELS`` that returns (value, v, s, extra): per-example
    weights v and a divisor s give g_w = xa^T (v * slopes) / s and
    g_eta = 1 - sum(v) / s, and ``extra`` is the plan vector of
    ``DensePlanStep`` or the beta gradient.  The plan gradient stays in
    that per-example form: ``plan_step`` applies it without building the
    n x n array.  Distances and Gram matrices are precomputed once, so
    repeated evaluation is cheap; a MemoryError is raised before they are
    built when their bytes exceed the machine's memory, and a loss kind that
    cannot be trained or a p the objective cannot take is rejected before
    either.  ``rkhs`` uses the Gaussian kernel at the median pairwise
    distance (``median_bandwidth``) and the RKHS norm budget R = 1.
    """

    def __init__(self, dataset: Dataset, kind: str, spec: RobustSpec, objective: str):
        if objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {OBJECTIVES}, got {objective!r}")
        _check_kind(kind, trainable=True)
        check_p(objective, spec)
        self.uses_eta = "alpha0" in SPEC_FIELDS[objective]
        self.uses_plan = objective in PLAN_OBJECTIVES
        self.uses_beta = objective == "rkhs"
        n = dataset.n
        if self.uses_plan:
            check_memory(n, dense_plan_bytes(n))
        elif self.uses_beta:
            # the Gram matrix and median_bandwidth's upper-triangle copy
            check_memory(n, 8 * (n * n + n * (n - 1) // 2))
        self.dataset = dataset
        self.kind = kind
        self.objective = objective
        self.xa = np.column_stack([dataset.features, np.ones(n)])
        if self.uses_plan:
            spec = resolve_eps(spec, loss_values(kind, ParamVector(np.zeros(dataset.d)),
                                                 dataset.features, dataset.labels))
            dist = pairwise_distance_power(dataset.features, spec.p)
            if objective == "bounded_holder":
                dist *= holder_constant(spec)
                dist /= n * n
                self.transport = DensePlanStep(dist)
            else:
                self.transport = TransportKernel(dist, spec)
        if self.uses_beta:
            self.k = gram(dataset.features)
        self.spec = spec
        self.last_losses: np.ndarray | None = None

    def losses(self, w: np.ndarray) -> np.ndarray:
        params = ParamVector(w[:-1], w[-1])
        return loss_values(self.kind, params, self.dataset.features, self.dataset.labels)

    def value_grad(self, w, eta=None, plan=None, beta=None):
        """Returns (value, g_w, g_eta, plan_vec, g_beta); None for unused blocks.

        ``plan_vec`` is the per-example vector ``vec`` of the plan gradient
        pen_dist_ij + vec_j - vec_i (None when the plan gradient vanishes),
        the argument ``plan_step`` takes; ``transport.plan_grad(plan_vec)``
        builds the n x n gradient.
        """
        w = np.asarray(w, dtype=float)
        params = ParamVector(w[:-1], w[-1])
        ds = self.dataset
        losses, slopes = loss_values_and_slopes(self.kind, params, ds.features, ds.labels)
        self.last_losses = losses
        value, v, s, extra = self._KERNELS[self.objective](self, losses, eta, plan, beta)
        g_w = self.xa.T @ (v * slopes) / s
        g_eta = 1.0 - v.sum() / s if self.uses_eta else None
        plan_vec = extra if self.uses_plan else None
        g_beta = extra if self.uses_beta else None
        return value, g_w, g_eta, plan_vec, g_beta

    def plan_step(self, plan: np.ndarray, plan_vec, step: float, keep=None):
        """The transport's ``plan_step`` for the gradient of ``plan_vec``."""
        return self.transport.plan_step(plan, plan_vec, step, keep)

    # loss-space kernels: (losses, eta, plan, beta) -> (value, v, s, extra)

    def _erm(self, losses, eta, plan, beta):
        return float(losses.mean()), 1.0, self.dataset.n, None

    def _joint_cvar(self, losses, eta, plan, beta):
        n, a0 = self.dataset.n, self.spec.alpha0
        h = np.maximum(losses - eta, 0.0)
        value = float(h.sum()) / (a0 * n) + eta
        return value, (h > 0).astype(float) / n, a0, None

    def _joint_pnorm(self, losses, eta, plan, beta):
        n, a0, p = self.dataset.n, self.spec.alpha0, self.spec.p
        h = np.maximum(losses - eta, 0.0)
        a = float(np.mean(h**p))
        value = a ** (1.0 / p) / a0 + eta
        v = h ** (p - 1.0) * a ** ((1.0 - p) / p) / n if a > 0 else np.zeros(n)
        return value, v, a0, None

    def _transport(self, losses, eta, plan, beta):
        value, v, vec = self.transport.evaluate(losses, eta, plan)
        return value, v, self.spec.alpha0, vec

    def _bounded_holder(self, losses, eta, plan, beta):
        n, a0 = self.dataset.n, self.spec.alpha0
        c, penalty = self.transport.statistics(plan)
        margin = losses - c - eta
        active = (margin > 0).astype(float)
        value = float(np.maximum(margin, 0.0).sum()) / (a0 * n) + penalty + eta
        return value, active, a0 * n, active / (a0 * n * n)

    def _rkhs(self, losses, eta, plan, beta):
        n, a0 = self.dataset.n, self.spec.alpha0
        margin = losses - eta + beta
        active = (margin > 0).astype(float)
        kb = self.k @ beta
        quad = max(float(beta @ kb), 0.0)
        norm = np.sqrt(quad)
        value = float(np.maximum(margin, 0.0).sum()) / (a0 * n) + norm / n + eta
        g_beta = active / (a0 * n)
        if norm > 0:
            g_beta = g_beta + kb / (norm * n)
        return value, active, a0 * n, g_beta

    _KERNELS = {"erm": _erm, "joint_cvar": _joint_cvar, "joint_pnorm": _joint_pnorm,
                "marginal": _transport, "marginal_confounded": _transport,
                "bounded_holder": _bounded_holder, "rkhs": _rkhs}


def train(dataset: Dataset, kind: str, spec: RobustSpec, opt: OptimizerConfig) -> TrainResult:
    """Minimize the configured objective; returns the best iterate.

    The trace holds the running-best objective value per iteration, hence is
    nonincreasing.  Identical inputs give bitwise-identical traces for the
    same BLAS build and thread count: the gradient ``xa.T @ (v * slopes)`` is
    a BLAS product whose summation order follows its threads.  A plan
    objective holds one plan reference: the step (``fn.transport``) makes
    the zero plan and passes the best iterate as ``keep``, so the step
    writes around it and the best plan is never copied.
    """
    fn = ObjectiveFunction(dataset, kind, spec, opt.objective)
    spec = fn.spec
    n = dataset.n

    w = np.zeros(dataset.d + 1)
    eta = plan = beta = None
    if fn.uses_eta:
        eta = cvar_dual(fn.losses(w), spec.alpha0)[1]
    if fn.uses_plan:
        plan = fn.transport.zeros()
    if fn.uses_beta:
        beta = np.zeros(n)

    joint = opt.objective in ("joint_cvar", "joint_pnorm")
    best_value = np.inf
    best = best_plan = None
    trace = []
    for t in range(opt.max_iters):
        if not np.isfinite(w).all():  # d + 1 numbers; ParamVector would refuse them
            raise DivergenceError(t, "w")
        if joint and t % ETA_REFRESH == 0:  # the exact minimizer at the current losses
            losses = fn.losses(w)
            eta = (cvar_dual(losses, spec.alpha0) if opt.objective == "joint_cvar"
                   else pnorm_dual(losses, spec.alpha0, spec.p))[1]
        value, g_w, g_eta, plan_vec, g_beta = fn.value_grad(w, eta, plan, beta)
        if not np.isfinite(value):
            raise DivergenceError(t, _nonfinite_block(eta=eta, beta=beta, plan=plan))
        if value < best_value:
            best_value, best_plan = value, plan
            best = (w.copy(), eta, beta.copy() if beta is not None else None)
        trace.append(best_value)
        step = opt.step0 / np.sqrt(t + 1.0)
        w = w - step * g_w
        if not opt.fit_intercept:
            w[-1] = 0.0
        if fn.uses_eta:
            eta = float(np.clip(eta - step * g_eta, 0.0, fn.last_losses.max()))
        if fn.uses_plan:
            plan = fn.plan_step(plan, plan_vec, step, keep=best_plan)
        if fn.uses_beta:
            beta = beta - step * n * g_beta

    best_w, best_eta, best_beta = best
    return TrainResult(ParamVector(best_w[:-1], best_w[-1]), best_value,
                       np.asarray(trace), eta=best_eta, plan=best_plan, beta=best_beta)


def _nonfinite_block(**blocks) -> str:
    """Name of the first iterate block holding a NaN/inf, else "objective"."""
    for name, x in blocks.items():
        if x is not None and not np.isfinite(x).all():
            return name
    return "objective"
