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

``TransportKernel`` is the one implementation the solvers use: surrogate
value, hinge weights and the fused projected plan step.  The value-only
functions here are the references it is checked against.
"""

from __future__ import annotations

import itertools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np

from .duals import RobustSpec
from .model import ParamVector, loss_values

# default policy: eps is set so the floor term eps^(q-1)/alpha0 stays below
# this fraction of the mean loss
FLOOR_FRACTION = 1e-3

# dense n x n plans are stored in float32 from this sample size on
FLOAT32_PLAN_N = 1024

# n x n arrays train holds at the plan dtype (the plan, the plan step's spare
# and the folded penalty), and float64 ones alive while distances are built
PLAN_ARRAYS = 3
DISTANCE_BUILD_ARRAYS = 2

# rows per block of a pass over a dense plan; fixed, so block sums reduce in
# the same order for any worker count
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

# primal_inner_sup's grid points per coordinate, by n, and refinement rounds
PRIMAL_GRID_POINTS = {1: 33, 2: 21, 3: 17, 4: 13, 5: 9, 6: 7}
PRIMAL_LEVELS = 12


def squared_distances(features: np.ndarray) -> np.ndarray:
    """Matrix of squared Euclidean distances ||x_i - x_j||^2, zero on the diagonal.

    Built in place from |x_i|^2 + |x_j|^2 - 2 x_i.x_j, so at most two n x n
    float64 arrays are alive at once.
    """
    x = np.atleast_2d(np.asarray(features, dtype=float))
    sq = np.sum(x * x, axis=1)
    d2 = np.add.outer(sq, sq)
    xx = x @ x.T
    xx *= 2.0
    d2 -= xx
    del xx
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
    return n * n * (PLAN_ARRAYS * plan_dtype(n).itemsize + DISTANCE_BUILD_ARRAYS * 8)


def check_memory(n: int, nbytes: int):
    """Raise MemoryError when ``nbytes`` of n x n arrays exceed ``MEMORY_BYTES``."""
    if MEMORY_BYTES is not None and nbytes > MEMORY_BYTES:
        raise MemoryError(f"n = {n} needs {nbytes:,} bytes of n x n arrays, more than "
                          f"the machine's {MEMORY_BYTES:,} bytes of memory")


def plan_adjustments(plan: np.ndarray) -> np.ndarray:
    """Per-example loss adjustments c_i = (1/n) sum_j (B_ij - B_ji)."""
    plan = np.asarray(plan)
    return _plan_pass(plan.shape[0], lambda r0, r1, scratch: plan[r0:r1])[0]


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
    when delta > 0."""
    losses = loss_values(kind, params, dataset.features, dataset.labels)
    dist = pairwise_distance_power(dataset.features, spec.p)
    spec = resolve_eps(spec, losses)
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

    ``plan_step`` makes one pass over fixed row blocks of the plan, on the
    module's worker threads, and accumulates c and the penalty of the new
    plan in float64 as it goes; ``statistics`` returns them for that plan
    without reading it again.  The blocks do not depend on the worker
    count, so neither do the results.
    """

    def __init__(self, pen_dist: np.ndarray):
        self.dtype = plan_dtype(pen_dist.shape[0])
        self.pen_dist = pen_dist.astype(self.dtype, copy=False)
        self._spare = None
        self._stats = (None, None, None)  # (plan plan_step wrote, c, penalty)

    def zeros(self) -> np.ndarray:
        """A zero plan in the step's shape and dtype."""
        return np.zeros(self.pen_dist.shape, dtype=self.dtype)

    def statistics(self, plan: np.ndarray):
        """(c, <pen_dist, B>) of ``plan``, both accumulated in float64.

        For the array the last ``plan_step`` wrote they come from that pass
        (the array must not be modified in between); any other plan gets a
        fresh pass, which is not cached.
        """
        if plan is self._stats[0]:
            return self._stats[1:]
        plan = np.asarray(plan)
        return _plan_pass(plan.shape[0], lambda r0, r1, scratch: plan[r0:r1], self.pen_dist)

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
        optimal entries are O(1).  Each row block gets
        max(((B + u_i) - u_j) - s pen_dist, 0) with u = s vec, s = step n^2,
        and then its statistics, while it is still in cache.
        """
        if vec is None:
            return plan
        out = plan
        if plan is keep:
            if self._spare is None or self._spare is plan:
                self._spare = np.empty_like(plan)
            out, self._spare = self._spare, plan
        n = plan.shape[0]
        scale = step * n * n
        u = (scale * vec).astype(self.dtype)
        s = self.dtype.type(scale)

        def block(r0, r1, scratch):
            pen = _rows_view(scratch, r1 - r0, n, self.dtype)
            np.multiply(self.pen_dist[r0:r1], s, out=pen)
            blk = np.add(plan[r0:r1], u[r0:r1, None], out=out[r0:r1])
            blk -= u
            blk -= pen
            return np.maximum(blk, 0.0, out=blk)

        c, penalty = _plan_pass(n, block, self.pen_dist)
        self._stats = (out, c, penalty)
        return out


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


def primal_inner_sup(losses, dist, eta: float, spec: RobustSpec) -> float:
    """Brute-force value of the inner supremum the transport dual solves.

    Maximizes (1/n) sum_i h_i (l_i - eta) over h >= 0 with
    mean(h^q) <= 1 and h_i - h_j <= (L^(p-1)/eps) ||x_i - x_j||^(p-1), by
    PRIMAL_LEVELS rounds of grid refinement; every grid direction is
    rescaled onto the tightest binding constraint before scoring.
    Exponential in n, so only n <= 6 is accepted; used as a strong-duality
    oracle against the infimum of ``marginal_objective`` over plans.
    """
    losses = np.asarray(losses, dtype=float).ravel()
    n = losses.size
    max_n = max(PRIMAL_GRID_POINTS)
    if n > max_n:
        raise ValueError(f"primal_inner_sup is combinatorial; n={n} exceeds {max_n}")
    if spec.p <= 1.0:
        raise ValueError("primal_inner_sup needs p > 1")
    grid_points = PRIMAL_GRID_POINTS[n]
    q = spec.q
    bound = penalty_coefficient(spec) * np.asarray(dist, dtype=float)
    coef = (losses - eta) / n
    hmax = n ** (1.0 / q)

    lo = np.zeros(n)
    hi = np.full(n, hmax)
    best_val = 0.0
    best_h = np.zeros(n)
    for _ in range(PRIMAL_LEVELS):
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


def _plan_pass(n: int, block_fn, pen: np.ndarray | None = None):
    """(c, <pen, B>) of an n x n plan B from one pass over its fixed row blocks.

    ``block_fn(r0, r1, scratch)`` returns rows r0:r1 of the plan, after
    writing them if it updates the plan; ``scratch`` is a float64
    (BLOCK_ROWS + 1, n) array it may use.  The calling thread and up to
    WORKERS - 1 pool threads claim blocks in order.  Row sums and
    penalty partials are taken per block in float64.  Column sums run down
    the rows in block order: whichever worker finishes the next block due
    adds it, and any finished blocks queued behind it, so no worker waits.
    c thus has the bits of (B.sum(axis=1) - B.sum(axis=0)) / n with float64
    accumulators, penalty partials add in block order, and nothing depends
    on the worker count.  Scratch is allocated here, not in the pool
    threads, so no pool thread's heap grows by a block.
    """
    starts = range(0, n, BLOCK_ROWS)
    rows = np.empty(n)
    penalties = [0.0] * len(starts)
    cols = np.zeros(n)
    finished = {}  # block index -> rows not yet in cols
    added = 0  # blocks already in cols
    adding = False  # a worker is adding blocks to cols
    lock = threading.Lock()

    def run(i, scratch):
        nonlocal added, adding
        r0 = starts[i]
        r1 = min(r0 + BLOCK_ROWS, n)
        blk = block_fn(r0, r1, scratch)
        rows[r0:r1] = blk.sum(axis=1, dtype=np.float64)
        if pen is not None:
            penalties[i] = float(np.einsum("ij,ij->", blk, pen[r0:r1], dtype=np.float64))
        with lock:
            finished[i] = blk
            if adding:
                return
            adding = True
        while True:
            with lock:
                blk = finished.pop(added, None)
                if blk is None:
                    adding = False
                    return
            acc = scratch[:len(blk) + 1]
            acc[0] = cols
            acc[1:] = blk
            acc.sum(axis=0, out=cols)
            added += 1

    def work(claims, scratch):
        while (i := next(claims)) < len(starts):
            run(i, scratch)

    claims = itertools.count()
    scratches = [np.empty((min(BLOCK_ROWS, n) + 1, n))
                 for _ in range(min(WORKERS, len(starts)))]
    futures = [_POOL.submit(work, claims, scratch) for scratch in scratches[1:]]
    work(claims, scratches[0])
    # a pool task that never started has nothing left to claim: drop it, so
    # a busy pool, or one whose threads did not survive a fork, is not awaited
    for future in futures:
        if not future.cancel():
            future.result()
    return (rows - cols) / n, sum(penalties)


def _rows_view(scratch: np.ndarray, m: int, n: int, dtype: np.dtype) -> np.ndarray:
    """A contiguous (m, n) array of ``dtype`` over the start of float64 ``scratch``."""
    return scratch.reshape(-1).view(dtype)[:m * n].reshape(m, n)
