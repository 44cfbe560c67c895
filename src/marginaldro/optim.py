"""Full-batch projected subgradient descent for the robust objectives.

``SPEC_FIELDS`` lists the ``RobustSpec`` fields each objective reads; which
objectives take eta, need p > 1 or carry a transport plan follows from it.
Every trainable objective is convex in its variables; the solver keeps the
best iterate seen, projects eta to [0, M] and plans to the nonnegative
orthant each step, and records the running-best objective in the trace.
Block updates are preconditioned so their magnitudes do not shrink with the
sample size: plan gradients scale like 1/n^2 while optimal plan entries are
O(1), so plan steps carry an extra n^2 (and the RKHS smoothing vector an
extra n).  The optimum is unchanged; only the step geometry is.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .duals import RobustSpec, cvar_dual, pnorm_dual
from .model import Dataset, ParamVector, loss_values, loss_values_and_slopes
from .objectives import (
    DensePlanStep,
    DISTANCE_BUILD_ARRAYS,
    TransportKernel,
    check_memory,
    dense_plan_bytes,
    pairwise_distance_power,
    resolve_eps,
)
from .variational import KernelSpec, gram, holder_constant, median_bandwidth

# objective -> the RobustSpec fields it reads, among alpha0, p,
# lipschitz_ratio, eps and delta.  "marginal_confounded" is another name for
# "marginal": spec.delta alone sets the confounding penalty
SPEC_FIELDS = {"erm": (), "joint_cvar": ("alpha0",), "joint_pnorm": ("alpha0", "p"),
               "marginal": ("alpha0", "p", "lipschitz_ratio", "eps", "delta"),
               "marginal_confounded": ("alpha0", "p", "lipschitz_ratio", "eps", "delta"),
               "rkhs": ("alpha0",), "bounded_holder": ("alpha0", "p", "lipschitz_ratio", "eps")}
OBJECTIVES = tuple(SPEC_FIELDS)
# the objectives priced by lipschitz_ratio, which carry a dense n x n plan
PLAN_OBJECTIVES = tuple(o for o, fields in SPEC_FIELDS.items() if "lipschitz_ratio" in fields)

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
    ridge: float = 0.0
    fit_intercept: bool = True

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {OBJECTIVES}, got {self.objective!r}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not (np.isfinite(self.step0) and self.step0 > 0):
            raise ValueError(f"step0 must be finite and > 0, got {self.step0}")
        if not (np.isfinite(self.ridge) and self.ridge >= 0):
            raise ValueError(f"ridge must be finite and >= 0, got {self.ridge}")


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
    built when their bytes exceed the machine's memory.
    """

    def __init__(self, dataset: Dataset, kind: str, spec: RobustSpec, objective: str,
                 kernel: KernelSpec | None = None, ridge: float = 0.0):
        if objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {OBJECTIVES}, got {objective!r}")
        check_p(objective, spec)
        self.uses_eta = "alpha0" in SPEC_FIELDS[objective]
        self.uses_plan = objective in PLAN_OBJECTIVES
        self.uses_beta = objective == "rkhs"
        n = dataset.n
        if self.uses_plan:
            check_memory(n, dense_plan_bytes(n))
        elif self.uses_beta:
            check_memory(n, DISTANCE_BUILD_ARRAYS * 8 * n * n)
        self.dataset = dataset
        self.kind = kind
        self.objective = objective
        self.ridge = ridge
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
            if kernel is None:
                kernel = KernelSpec(bandwidth=median_bandwidth(dataset.features))
            self.kernel = kernel
            self.k = gram(dataset.features, kernel)
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
        if self.ridge:
            value += self.ridge * float(w[:-1] @ w[:-1])
            g_w[:-1] += 2.0 * self.ridge * w[:-1]
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
        norm = np.sqrt(quad / self.kernel.radius)
        value = float(np.maximum(margin, 0.0).sum()) / (a0 * n) + norm / n + eta
        g_beta = active / (a0 * n)
        if norm > 0:
            g_beta = g_beta + kb / (self.kernel.radius * norm * n)
        return value, active, a0 * n, g_beta

    _KERNELS = {"erm": _erm, "joint_cvar": _joint_cvar, "joint_pnorm": _joint_pnorm,
                "marginal": _transport, "marginal_confounded": _transport,
                "bounded_holder": _bounded_holder, "rkhs": _rkhs}


def train(dataset: Dataset, kind: str, spec: RobustSpec, opt: OptimizerConfig,
          kernel: KernelSpec | None = None) -> TrainResult:
    """Minimize the configured objective; returns the best iterate.

    The trace holds the running-best objective value per iteration, hence is
    nonincreasing.  Identical inputs give bitwise-identical traces for the
    same BLAS build and thread count: the gradient ``xa.T @ (v * slopes)`` is
    a BLAS product whose summation order follows its threads.  A plan
    objective holds one plan reference: the step (``fn.transport``) makes
    the zero plan and passes the best iterate as ``keep``, so the step
    writes around it and the best plan is never copied.
    """
    fn = ObjectiveFunction(dataset, kind, spec, opt.objective, kernel, opt.ridge)
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
        if joint and t % ETA_REFRESH == 0:
            p_eff = spec.p if "p" in SPEC_FIELDS[opt.objective] else 1.0
            eta = optimal_eta_exact(fn.losses(w), spec.alpha0, p_eff)
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
            eta = float(np.clip(eta - step * g_eta, 0.0, _eta_bound(spec, fn.last_losses)))
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


def optimal_eta_exact(losses, alpha0: float, p: float) -> float:
    """Exact inner-minimizing threshold of the joint dual at fixed losses."""
    if p == 1.0:
        return cvar_dual(losses, alpha0)[1]
    return pnorm_dual(losses, alpha0, p)[1]


def _eta_bound(spec: RobustSpec, losses) -> float:
    if spec.loss_bound is not None:
        return spec.loss_bound
    return float(np.max(losses)) if losses.size else 0.0


def check_p(objective: str, spec: RobustSpec):
    """Raise ValueError at p <= 1 for the objectives that read p
    (``SPEC_FIELDS``): their duals divide by p - 1, and bounded_holder's cost
    ||x_i - x_j||^(p-1) is 1 for every pair there (the diagonal too), so that
    L/eps would have no effect.  joint_cvar is the p = 1 objective."""
    if spec.p <= 1.0 and "p" in SPEC_FIELDS[objective]:
        raise ValueError(f"{objective} needs p > 1, got p = {spec.p:g}; "
                         "joint_cvar is the p = 1 objective")


def minimize_plan(losses, dist, eta: float, spec: RobustSpec, iters: int = 2000,
                  step0: float = 0.2):
    """Infimum of ``marginal_objective`` over plans at fixed losses and eta.

    The frozen-loss descent with eta fixed, alpha0 = 1 and no floor, so the
    surrogate is the bare objective plus eta; the confounding penalty is
    included when ``spec.delta`` > 0.  Returns (best value, best plan).
    """
    check_p("marginal", spec)
    losses = np.asarray(losses, dtype=float).ravel()
    spec = replace(resolve_eps(spec, losses), alpha0=1.0)
    kernel = TransportKernel(np.array(dist, dtype=float), spec)
    kernel.floor = 0.0
    value, _, plan = _frozen_loss_descent(losses, kernel, eta, iters, step0)
    return float(value - eta), plan


def minimize_eta_plan(losses, dist, spec: RobustSpec, iters: int = 3000,
                      step0: float = 0.2):
    """Infimum of the floored surrogate over (eta, plan) at fixed losses.

    Returns (best value, best eta, best plan) of
    (1/alpha0) max(objective, eps^(q-1)) + eta.
    """
    check_p("marginal", spec)
    losses = np.asarray(losses, dtype=float).ravel()
    spec = resolve_eps(spec, losses)
    kernel = TransportKernel(np.array(dist, dtype=float), spec)
    eta = cvar_dual(losses, spec.alpha0)[1]
    value, eta, plan = _frozen_loss_descent(losses, kernel, eta, iters, step0,
                                            eta_bound=_eta_bound(spec, losses))
    return float(value), float(eta), plan


def _frozen_loss_descent(losses, kernel: TransportKernel, eta: float, iters: int,
                         step0: float, eta_bound: float | None = None):
    """Projected subgradient descent on the plan at fixed losses, and on eta
    too unless ``eta_bound`` is None; returns the best (value, eta, plan)."""
    plan = kernel.zeros()
    best_value, best_eta, best_plan = np.inf, eta, plan
    for t in range(iters):
        value, wt, vec = kernel.evaluate(losses, eta, plan)
        if value < best_value:
            best_value, best_eta, best_plan = value, eta, plan
        step = step0 / np.sqrt(t + 1.0)
        plan = kernel.plan_step(plan, vec, step, keep=best_plan)
        if eta_bound is not None:
            g_eta = 1.0 - wt.sum() / kernel.alpha0
            eta = float(np.clip(eta - step * g_eta, 0.0, eta_bound))
    return best_value, best_eta, best_plan

