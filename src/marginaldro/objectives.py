"""Transport-smoothed worst-case objectives over (theta, eta, B).

The core quantity is the dual objective

    ((p-1)/n * sum_i (l_i - c_i - eta)_+^p)^(1/p)
        + (L^(p-1) / (eps n^2)) * sum_ij ||x_i - x_j||^(p-1) B_ij

with nonnegative transport-plan variables B and per-example adjustments
c_i = (1/n) sum_j (B_ij - B_ji); ``B_ij`` moves loss from example i to j at a
distance-dependent cost.  The training surrogate wraps it as
(1/alpha0) * max(objective, eps^(q-1)) + eta.  A postulated confounding
level ``spec.delta`` > 0 adds the entrywise penalty
2 delta^(p-1) / (eps n^2) * sum |B_ij|, which interpolates toward the
joint-DRO solution (B = 0) as delta grows; delta = 0 is the unconfounded
objective.

``TransportKernel`` holds the surrogate value, hinge weights and fused plan
step of ``marginal`` training and the plan minimizers; ``bounded_holder``
shares its ``DensePlanStep``, but its value lives in ``optim``.  The plan
step is one pass over the rows in units, in row order: fixed row blocks
with most rows live, stepped whole, and compacted groups of the other live
rows; it skips the rows it provably leaves at zero and takes each unit's
sums from one float64 copy (``_plan_pass``).  A plan no step wrote gets
its sums on the calling thread, by block.  The value-only functions here
are the references both are checked against.
"""

from __future__ import annotations

import itertools
import mmap
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np

from .duals import RobustSpec, check_p, cvar_dual
from .model import ParamVector, _feature_matrix, loss_values

# default policy: eps is set so the floor term eps^(q-1)/alpha0 stays below
# this fraction of the mean loss
FLOOR_FRACTION = 1e-3

# dense n x n plans are stored in float32 from this sample size on
FLOAT32_PLAN_N = 1024

# n x n arrays train holds at the plan dtype (the plan, the plan step's spare
# and the folded penalty), besides the float64 distance matrix
PLAN_ARRAYS = 3

# rows per block of a pass over a dense plan or a distance build; fixed, so
# block sums reduce in the same order for any worker count
BLOCK_ROWS = 64

# plan blocks run on one thread per CPU this process may use: the calling
# thread and WORKERS - 1 pool threads
WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
           else os.cpu_count() or 1)
_POOL = ThreadPoolExecutor(max(WORKERS - 1, 1))

# bytes of physical memory, or None where os.sysconf cannot tell
MEMORY_BYTES = (os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
                if {"SC_PAGE_SIZE", "SC_PHYS_PAGES"} <= set(getattr(os, "sysconf_names", ()))
                else None)


def dense_array(shape, dtype=np.float64) -> np.ndarray:
    """A zero array in an anonymous memory map of its own, as every n x n array
    is made: malloc reused freed blocks by the order of earlier frees, so peak
    memory varied by a plan's bytes between runs; a map goes with its array."""
    count = int(np.prod(shape))
    private = {"flags": mmap.MAP_PRIVATE} if hasattr(mmap, "MAP_PRIVATE") else {}  # POSIX
    buf = mmap.mmap(-1, max(count * np.dtype(dtype).itemsize, 1), **private)
    if hasattr(mmap, "MADV_HUGEPAGE"):  # as numpy advises its own large arrays
        buf.madvise(mmap.MADV_HUGEPAGE)
    return np.frombuffer(buf, dtype, count).reshape(shape)


def squared_distances(features: np.ndarray) -> np.ndarray:
    """Matrix of squared Euclidean distances ||x_i - x_j||^2, zero on the diagonal.

    Built in place as (-2 x_i.x_j) + |x_i|^2 + |x_j|^2, which has the bits of
    |x_i|^2 + |x_j|^2 - 2 x_i.x_j, so the returned array is the only n x n one.
    """
    x = _feature_matrix(features)
    sq = np.sum(x * x, axis=1)
    d2 = np.matmul(x, x.T, out=dense_array((sq.size,) * 2))
    for r0 in range(0, sq.size, BLOCK_ROWS):
        blk = d2[r0:r0 + BLOCK_ROWS]
        blk *= -2.0
        blk += np.add.outer(sq[r0:r0 + BLOCK_ROWS], sq)
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, 0.0)
    return d2


def pairwise_distance_power(features: np.ndarray, p: float) -> np.ndarray:
    """Matrix of Euclidean distances ||x_i - x_j|| raised to the power p - 1."""
    dist = squared_distances(features)
    np.sqrt(dist, out=dist)
    if p != 2.0:
        np.power(dist, p - 1.0, out=dist)
    return dist


def plan_dtype(n: int) -> np.dtype:
    """Storage dtype of a dense n x n plan and its folded penalty."""
    return np.dtype(np.float32 if n >= FLOAT32_PLAN_N else np.float64)


def dense_plan_bytes(n: int) -> int:
    """Bytes of the n x n arrays ``train`` allocates for a plan objective."""
    return n * n * (PLAN_ARRAYS * plan_dtype(n).itemsize + 8)


def check_memory(n: int, nbytes: int):
    """Raise MemoryError when ``nbytes`` of n x n arrays exceed ``MEMORY_BYTES``."""
    if MEMORY_BYTES is not None and nbytes > MEMORY_BYTES:
        raise MemoryError(f"n = {n} needs {nbytes:,} bytes of n x n arrays, more than "
                          f"the machine's {MEMORY_BYTES:,} bytes of memory")


def plan_adjustments(plan: np.ndarray) -> np.ndarray:
    """Per-example loss adjustments c_i = (1/n) sum_j (B_ij - B_ji)."""
    plan = np.asarray(plan)
    rows = plan.sum(axis=1, dtype=np.float64)
    return (rows - plan.sum(axis=0, dtype=np.float64)) / plan.shape[0]


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
    return replace(spec, eps=target ** (spec.p - 1.0))


def marginal_objective(losses, dist, eta: float, plan, spec: RobustSpec) -> float:
    """Value of the transport-smoothed dual objective at (eta, B), with the
    confounding penalty on |B| when ``spec.delta`` > 0."""
    losses, plan, dist = _check_inputs(losses, plan, dist)
    n = losses.size
    c = plan_adjustments(plan)
    block = _hinge_block(losses - c - eta, spec.p)
    value = block + penalty_coefficient(spec) * float(np.vdot(dist, plan)) / n**2
    if spec.delta > 0.0:
        value += confounding_coefficient(spec) * float(plan.sum()) / n**2
    return value


def robust_surrogate(params: ParamVector, eta: float, plan, dataset, kind: str,
                     spec: RobustSpec) -> float:
    """Training surrogate (1/alpha0) * max(objective, eps^(q-1)) + eta of
    ``marginal_objective`` at (theta, eta, B), confounding penalty included
    when delta > 0; ``spec.eps`` must be set, as ``ObjectiveFunction.spec``'s is."""
    losses = loss_values(kind, params, dataset.features, dataset.labels)
    dist = pairwise_distance_power(dataset.features, spec.p)
    value = marginal_objective(losses, dist, eta, plan, spec)
    return max(value, floor_value(spec)) / spec.alpha0 + eta


class DensePlanStep:
    """A folded plan penalty and the projected plan step every solver takes.

    A transport surrogate depends on the plan B through a linear penalty
    <pen_dist, B> and through the adjustments c = (B 1 - B^T 1) / n, so its
    plan gradient is always pen_dist_ij + vec_j - vec_i for a per-example
    ``vec`` (None when the gradient vanishes).  The n x n arrays are float32
    from FLOAT32_PLAN_N examples on, halving their memory traffic; values
    and weights stay float64.  ``zeros`` makes a solver's first plan, and
    ``plan_step`` steps around the best iterate the solver keeps, into a
    spare buffer of its own, so the solver holds one plan reference.

    ``plan_step`` makes one pass over the plan's rows in units, on the
    module's worker threads, and accumulates c and the penalty of the new
    plan in float64 as it goes; ``statistics`` returns them for that plan
    without reading it again, and sums any other plan on the calling
    thread.  The step keeps the float64 row sums of the plans it made or
    wrote, so it knows their all-zero rows, and skips the rows a step
    provably leaves at zero.  A unit is a fixed row block with
    more than 2/3 of its rows live, stepped whole, or a compacted group of
    the live rows between such blocks, in row order (``_plan_units``; the
    cut comes from the measured cost of a gathered row).  The units follow
    from the live rows, not the worker count, and so do the results.
    """

    def __init__(self, pen_dist: np.ndarray):
        n = pen_dist.shape[0]
        self.dtype = plan_dtype(n)
        self.pen_dist = dense_array(pen_dist.shape, self.dtype)
        self.pen_dist[...] = pen_dist
        # an idle row stays zero only if no penalty entry is negative (or NaN)
        self._skips = n > 0 and bool(self.pen_dist.min() >= 0)
        workers = min(WORKERS, -(-n // BLOCK_ROWS))  # at most one per row block
        self._scratches = dense_array((workers, min(BLOCK_ROWS, n) + 1, n))
        self._spare = self._spare_rows = None  # a plan buffer and its row sums
        self._last = (None, None, None, None)  # (plan last made or written, row sums, c, penalty)

    def zeros(self) -> np.ndarray:
        """A zero plan in the step's shape and dtype."""
        plan = dense_array(self.pen_dist.shape, self.dtype)
        n = plan.shape[0]
        self._last = (plan, np.zeros(n), np.zeros(n), 0.0)
        return plan

    def statistics(self, plan: np.ndarray):
        """(c, <pen_dist, B>) of ``plan``, both accumulated in float64.

        For the array the last ``plan_step`` wrote, or ``zeros`` made, they
        come from that pass (the array must not be modified in between).  Any
        other plan gets the reference, on the calling thread and not cached:
        ``plan_adjustments`` and the in-order sum over BLOCK_ROWS-row blocks
        of each block's penalty from a float64 copy of it, the bits of a
        pass that steps every block whole.
        """
        if plan is self._last[0]:
            return self._last[2:]
        plan = np.asarray(plan)
        penalty = 0.0
        for r0 in range(0, plan.shape[0], BLOCK_ROWS):
            rows = slice(r0, r0 + BLOCK_ROWS)  # one float64 block alive at a time
            penalty += float(np.einsum("ij,ij->", plan[rows].astype(np.float64, copy=False),
                                       self.pen_dist[rows]))
        return plan_adjustments(plan), penalty

    def plan_grad(self, vec) -> np.ndarray:
        """The plan gradient as a new n x n array; no solver builds it, it is
        the reference ``plan_step`` is checked against."""
        if vec is None:
            return np.zeros_like(self.pen_dist)
        m = (-vec).astype(self.dtype)
        g_plan = np.subtract.outer(m, m)
        g_plan += self.pen_dist
        return g_plan

    def plan_step(self, plan: np.ndarray, vec, step: float,
                  keep: np.ndarray | None = None) -> np.ndarray:
        """Projected update ``max(plan - step n^2 g_plan, 0)``; returns the new plan.

        The update is written over ``plan`` unless ``plan is keep`` (the best
        iterate a solver keeps): then it goes to the step's spare buffer,
        made like ``plan`` on first use, and ``plan`` becomes the spare.
        ``plan`` is returned untouched when ``vec`` is None.  The n^2
        preconditions the plan block: its gradient scales like 1/n^2 while
        optimal entries are O(1).  Row i gets
        max(((B_i + u_i) - u) - s pen_dist_i, 0) with u = s vec, s = step n^2,
        and then its statistics, while it is still in cache.  Row i is idle
        when its input is all zero, u_i = 0 and no u_j is negative: before
        the maximum each of its entries is then +0.0 or negative, so it
        comes out all +0.0.  The step knows the zero rows of the plans it
        made or wrote, from their row sums, and passes the live rows to
        ``_plan_pass``: it steps blocks of mostly live rows whole and the
        other live rows in compacted groups, in row order, and clears the
        idle rows of the spare whose old contents were not zero, once per
        step.  Where it cannot prove a row idle (any other plan, a negative
        u_j or pen_dist entry) every row is live and the units are the blocks.
        """
        if vec is None:
            return plan
        known = self._row_sums(plan)
        out, old = plan, None
        if plan is keep:
            if self._spare is None or self._spare is plan:
                self._spare = dense_array(plan.shape, plan.dtype)
                self._spare_rows = np.zeros(plan.shape[0])
            out, old = self._spare, self._spare_rows
            self._spare, self._spare_rows = plan, known
        n = plan.shape[0]
        scale = step * n * n
        u = (scale * vec).astype(self.dtype)
        s = self.dtype.type(scale)
        live, stale = np.ones(n, dtype=bool), None
        if known is not None and self._skips and 0 < s < np.inf and np.all(u >= 0):
            live = (known != 0) | (u != 0)
            if out is not plan:
                stale = ~live if old is None else ~live & (old != 0)
        rows, c, penalty = _plan_pass(plan, out, self.pen_dist, self._scratches,
                                      u, s, live, stale)
        self._last = (out, rows, c, penalty)
        if out is self._spare:
            self._spare_rows = rows
        return out

    def _row_sums(self, plan):
        """Row sums of ``plan`` if the step made or wrote it, else None."""
        if plan is self._last[0]:
            return self._last[1]
        return self._spare_rows if plan is self._spare else None


class TransportKernel(DensePlanStep):
    """The floored transport surrogate at fixed distances, as solvers evaluate it.

    ``pen_dist`` folds the penalty coefficient, the confounding constant (0
    at ``spec.delta`` = 0) and 1/alpha0: (pen_coef dist + conf_coef) /
    (n^2 alpha0).  The surrogate is then (1/alpha0) max(core, floor) + eta with
    core = S(h) + alpha0 <pen_dist, B>, where S is the hinge block of
    h = (l - c - eta)_+; it equals ``robust_surrogate`` up to rounding.
    c and <pen_dist, B> come from ``statistics``, so a plan the last step
    wrote is not read again.  ``dist`` (float64) is overwritten: folding in
    place makes no n x n temporary.
    """

    def __init__(self, dist: np.ndarray, spec: RobustSpec):
        n = dist.shape[0]
        dist *= penalty_coefficient(spec)
        dist += confounding_coefficient(spec)
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
        c, penalty = self.statistics(plan)
        h = np.maximum(losses - c - eta, 0.0)
        a = (p - 1.0) * float(np.mean(h**p))
        core = a ** (1.0 / p) + a0 * penalty
        value = max(core, self.floor) / a0 + eta
        if core >= self.floor:
            wt = ((p - 1.0) / n * h ** (p - 1.0) * a ** ((1.0 - p) / p)
                  if a > 0 else np.zeros(n))
            return value, wt, wt / (n * a0)
        return value, np.zeros(n), None


def _frozen_loss_problem(losses, dist, spec: RobustSpec, eta: float = 0.0):
    """(float64 losses, a float64 copy of the n x n distances, ``spec`` with
    eps resolved from the losses): the plan problem at fixed losses, as
    ``primal_inner_sup``, ``minimize_plan`` and ``minimize_eta_plan`` pose it.
    Raises ValueError at p <= 1, for a NaN or inf ``eta`` (the fixed eta of the
    first two) and for inputs ``_check_losses_and_distances`` rejects."""
    check_p("marginal", spec)
    if not np.isfinite(eta):
        raise ValueError(f"eta must be finite, got {eta}")
    losses, dist = _check_losses_and_distances(losses, np.array(dist, dtype=float))
    return losses, dist, resolve_eps(spec, losses)


def minimize_plan(losses, dist, eta: float, spec: RobustSpec, iters: int):
    """Infimum of ``marginal_objective`` over plans at fixed losses and eta.

    ``iters`` steps of the frozen-loss descent with eta fixed, alpha0 = 1 and
    no floor, so the surrogate is the bare objective plus eta; the confounding
    penalty is included when ``spec.delta`` > 0; posed as ``primal_inner_sup``.
    Returns (best value, best plan).
    """
    losses, dist, spec = _frozen_loss_problem(losses, dist, spec, eta)
    kernel = TransportKernel(dist, replace(spec, alpha0=1.0))
    kernel.floor = 0.0
    value, _, plan = _frozen_loss_descent(losses, kernel, eta, iters)
    return float(value - eta), plan


def minimize_eta_plan(losses, dist, spec: RobustSpec, iters: int):
    """Infimum of the floored surrogate over (eta, plan) at fixed losses.

    Returns (best value, best eta, best plan) of
    (1/alpha0) max(objective, eps^(q-1)) + eta after ``iters`` steps of the
    frozen-loss descent from the CVaR threshold, eta projected onto
    [0, max loss]; posed as ``minimize_plan``.
    """
    losses, dist, spec = _frozen_loss_problem(losses, dist, spec)
    kernel = TransportKernel(dist, spec)
    eta = cvar_dual(losses, spec.alpha0)[1]
    value, eta, plan = _frozen_loss_descent(losses, kernel, eta, iters,
                                            eta_bound=losses.max())
    return float(value), float(eta), plan


def _frozen_loss_descent(losses, kernel: TransportKernel, eta: float, iters: int,
                         eta_bound: float | None = None):
    """``iters`` projected subgradient steps on the plan at fixed losses, and
    on eta too unless ``eta_bound`` is None; step t (from 0) has size
    0.2 / sqrt(t + 1).  Returns the best (value, eta, plan) seen."""
    plan = kernel.zeros()
    best_value, best_eta, best_plan = np.inf, eta, plan
    for t in range(iters):
        value, wt, vec = kernel.evaluate(losses, eta, plan)
        if value < best_value:
            best_value, best_eta, best_plan = value, eta, plan
        step = 0.2 / np.sqrt(t + 1.0)
        plan = kernel.plan_step(plan, vec, step, keep=best_plan)
        if eta_bound is not None:
            g_eta = 1.0 - wt.sum() / kernel.alpha0
            eta = float(np.clip(eta - step * g_eta, 0.0, eta_bound))
    return best_value, best_eta, best_plan


def primal_inner_sup(losses, dist, eta: float, spec: RobustSpec) -> float:
    """Value of the inner supremum the transport dual solves, by one convex solve.

    Maximizes (1/n) sum_i h_i (l_i - eta) over h >= 0 with
    mean(h^q) <= R^q, R = (p-1)^(1/p) (the hinge block's factor), and
    h_i - h_j <= (L^(p-1)/eps) ||x_i - x_j||^(p-1) + 2 delta^(p-1)/eps, by
    SLSQP from h = 0: the bound is the plan cost ``TransportKernel`` folds,
    and an unset eps is resolved from the losses, as the minimizers do.  The
    solver's point is made feasible before it is scored: clipped at 0,
    lowered onto the bounds by n rounds of h_i <- min_j (h_j + bound_ij)
    (one round is exact only for a bound obeying the triangle inequality,
    and the caller's ``dist`` need not be a metric), then scaled into the ball.
    So the value is a lower bound on the supremum, equal to it to solver
    tolerance; used as a strong-duality oracle against the infimum of
    ``marginal_objective`` over plans.
    """
    from scipy.optimize import minimize

    losses, dist, spec = _frozen_loss_problem(losses, dist, spec, eta)
    n = losses.size
    coef = (losses - eta) / n
    if not np.any(coef > 0):
        return 0.0  # h = 0 is optimal
    q = spec.q
    ball = (spec.p - 1.0) ** (q - 1.0)  # R^q
    bound = penalty_coefficient(spec) * dist + confounding_coefficient(spec)
    i, j = np.nonzero(~np.eye(n, dtype=bool))
    rows = np.eye(n)[j] - np.eye(n)[i]
    constraints = [{"type": "ineq", "fun": lambda h: ball - np.mean(h**q),
                    "jac": lambda h: -q / n * h ** (q - 1.0)},
                   {"type": "ineq", "fun": lambda h: bound[i, j] + rows @ h,
                    "jac": lambda h: rows}]
    res = minimize(lambda h: -coef @ h, np.zeros(n), jac=lambda h: -coef, method="SLSQP",
                   bounds=[(0.0, None)] * n, constraints=constraints,
                   options={"ftol": 1e-12, "maxiter": 1000})
    h = np.maximum(res.x, 0.0)
    for _ in range(n):
        h = np.minimum(h, np.min(h + bound, axis=1))
    mean_q = np.mean(h**q)
    if mean_q > ball:
        h *= (ball / mean_q) ** (1.0 / q)
    return float(coef @ h)


def _require_eps(spec: RobustSpec) -> float:
    if spec.eps is None:
        raise ValueError("spec.eps is unset; call resolve_eps first")
    return spec.eps


def _check_losses_and_distances(losses, dist):
    """float64 losses and distances; ValueError unless the distances are n x n,
    both are finite and no distance is negative."""
    losses = np.asarray(losses, dtype=float).ravel()
    dist = np.asarray(dist, dtype=float)
    n = losses.size
    if dist.shape != (n, n):
        raise ValueError(f"distances {dist.shape} must be {(n, n)} for {n} losses")
    if not (np.isfinite(losses).all() and np.isfinite(dist).all()):
        raise ValueError("losses and distances must be finite")
    if np.any(dist < 0):
        raise ValueError("distances must be nonnegative")
    return losses, dist


def _check_inputs(losses, plan, dist):
    """``_check_losses_and_distances``, and a nonnegative n x n float64 plan."""
    losses, dist = _check_losses_and_distances(losses, dist)
    plan = np.asarray(plan, dtype=float)
    if plan.shape != dist.shape or np.any(plan < 0):
        raise ValueError(f"plan must be {dist.shape} with no negative entry, got {plan.shape}")
    return losses, plan, dist


def _hinge_block(adjusted, p: float) -> float:
    h = np.maximum(adjusted, 0.0)
    return float(((p - 1.0) * np.mean(h**p)) ** (1.0 / p))


def _plan_units(live, capacity):
    """The units of a stepping pass, in row order, and the mask of the rows
    stepped whole.

    A ``BLOCK_ROWS`` block with more than 2/3 of its rows ``live`` is a unit
    of its own, a slice stepped whole; the live rows between two such blocks
    are gathered, in row order, into groups of at most ``capacity`` rows,
    each an index array.  Near the cut (32 to 40 of each 64 rows live, the
    groups full, one or two workers on a 2-core Xeon), a gathered row costs
    1.1-1.3 stepped rows in float32 plans at n = 1100 to 4000 and 1.4-1.5
    in float64 plans at n = 300, so gathering pays below 1/1.5 = 2/3 of a
    block live at every size measured.  The units follow from ``live``
    alone, never from the worker count.
    """
    n = live.size
    starts = np.arange(0, n, BLOCK_ROWS)
    sizes = np.minimum(n - starts, BLOCK_ROWS)
    whole = 3 * np.add.reduceat(live, starts, dtype=np.intp) > 2 * sizes
    units, r0 = [], 0
    for b0 in [*starts[whole].tolist(), n]:  # each whole block, then the end
        idx = r0 + np.flatnonzero(live[r0:b0])
        # capacity is 0 only at n = 1, where a live row is a whole block
        units += [idx[j:j + capacity] for j in range(0, idx.size, max(capacity, 1))]
        if b0 < n:
            units.append(slice(b0, min(b0 + BLOCK_ROWS, n)))
        r0 = b0 + BLOCK_ROWS
    return units, np.repeat(whole, sizes)


def _plan_pass(src, out, pen, scratches, u, s, live, stale=None):
    """Writes row i of the n x n plan B = ``out`` as the step
    max(((src_i + u_i) - u) - s pen_i, 0) of ``src`` (``out`` or another
    plan), and returns (row sums, c, <pen, B>) of B from the same pass over
    its rows in units.

    ``live`` marks the rows to step; the caller guarantees that every other
    row comes out all +0.0, and ``stale`` marks those not all zero in
    ``out`` now.  The rows go in units, in row order (``_plan_units``): a
    block with most rows live is stepped whole in place, and the other live
    rows are gathered, in compacted groups that may span blocks, into the
    worker's scratch, stepped there and scattered back; with every row live
    the units are the blocks.  The stale rows outside whole blocks are
    zeroed first, at once.  ``scratches`` are the caller's float64
    (min(BLOCK_ROWS, n) + 1, n) arrays, one per worker, so no pass allocates
    them; a group fills half of one.  The calling thread and a pool thread
    per further one claim units in order.

    The row sums, penalty partial and column sums of each unit come from
    one float64 copy of it in rows 1.. of the scratch.  Column sums run down
    the rows in unit order, the running sums in row 0: the worker that
    finishes the next unit due adds its own copy, then any finished units
    queued behind it, read again, so no worker waits.  Rows in no unit are
    zero, so c has the bits of ``plan_adjustments(B)``.  Penalty partials
    add in unit order; a group's partial sums only its own rows' terms, so
    it can differ from whole blocks' in the last place.  Nothing depends on
    the worker count.
    """
    n = pen.shape[0]
    dtype = pen.dtype
    units, whole = _plan_units(live, (scratches.shape[1] - 1) // 2)
    if stale is not None:
        out[np.flatnonzero(stale & ~whole)] = 0.0
    rows = np.zeros(n)
    penalties = [0.0] * len(units)
    cols = np.zeros(n)
    finished = {}  # unit index -> its rows of ``out``, not yet in cols
    added = 0  # units already in cols
    adding = False  # a worker is adding units to cols
    lock = threading.Lock()

    def unit_rows(a, key, scratch):
        """Rows ``key`` of ``pen`` or of a plan ``a``: a view for a whole
        block; a group's are gathered into ``scratch``.  Scratch rows 1..k
        hold a group's float64 copy (the group itself in a float64 plan),
        then come its pen rows, then a float32 plan's group.  Mode "clip"
        writes the in-range indices directly, where "raise" buffers them."""
        if isinstance(key, slice):
            return a[key]
        k = key.size
        aux = scratch.reshape(-1)[(k + 1) * n:].view(dtype)
        if a is pen:
            buf = aux[:k * n]
        else:
            buf = scratch[1:k + 1] if dtype == np.float64 else aux[k * n:2 * k * n]
        return np.take(a, key, axis=0, out=buf.reshape(k, n), mode="clip")

    def as_float64(blk, scratch):
        """``blk`` itself if it is float64, else its cast into scratch rows 1.."""
        if blk.dtype == np.float64:
            return blk
        copy = scratch[1:len(blk) + 1]
        copy[...] = blk
        return copy

    def step(key, scratch):
        """(float64 copy, pen rows) of the unit ``key`` of ``out``, after
        writing it as the step of ``src``."""
        grouped = not isinstance(key, slice)
        src_rows = unit_rows(src, key, scratch)
        blk = src_rows if grouped else out[key]
        pen_rows = unit_rows(pen, key, scratch)
        # s pen goes to the copy rows, free until the cast: a separate
        # plan-dtype row buffer per worker was slower (dense_2d_variants,
        # seed 0, 15-s pairs on a 2-core Xeon: about 4.13 s against 3.80 s,
        # 4 of 4 pairs) and held 1 MB more.  A float64 group is its own
        # copy, so its pen rows are scaled in place and gathered again
        scaled = (pen_rows if grouped and dtype == np.float64
                  else scratch[1:].reshape(-1).view(dtype)[:blk.size].reshape(blk.shape))
        np.multiply(pen_rows, s, out=scaled)
        np.add(src_rows, u[key][:, None], out=blk)
        blk -= u
        blk -= scaled
        np.maximum(blk, 0.0, out=blk)
        if grouped:
            out[key] = blk
        if scaled is pen_rows:
            pen_rows = unit_rows(pen, key, scratch)
        return as_float64(blk, scratch), pen_rows

    def run(i, scratch):
        nonlocal added, adding
        key = units[i]
        copy, pen_rows = step(key, scratch)
        rows[key] = copy.sum(axis=1)
        penalties[i] = float(np.einsum("ij,ij->", copy, pen_rows))
        with lock:
            if adding or i != added:
                finished[i] = key
                return
            adding = True
        # the adding worker reads queued units again, so no worker waits:
        # workers waiting their turn on a threading.Condition, with no queue
        # and no re-read, were slower (measured the same way: about 4.2 s
        # against 3.86 s, 5 of 6 pairs)
        while True:
            acc = scratch[:len(copy) + 1]
            if not np.may_share_memory(copy, acc):  # a float64 plan's own rows
                acc[1:] = copy
            acc[0] = cols
            acc.sum(axis=0, out=cols)
            added += 1
            with lock:
                if added not in finished:
                    adding = False
                    return
                key = finished.pop(added)
            copy = as_float64(unit_rows(out, key, scratch), scratch)

    def work(claims, scratch):
        while (i := next(claims)) < len(units):
            run(i, scratch)

    claims = itertools.count()
    futures = [_POOL.submit(work, claims, scratch) for scratch in scratches[1:len(units)]]
    work(claims, scratches[0])
    # a pool task that never started has nothing left to claim: drop it, so
    # a busy pool, or one whose threads did not survive a fork, is not awaited
    for future in futures:
        if not future.cancel():
            future.result()
    return rows, (rows - cols) / n, sum(penalties, 0.0)
