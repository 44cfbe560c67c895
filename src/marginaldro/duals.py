"""One-dimensional dual evaluations of worst-case subpopulation risk.

``cvar_dual`` solves inf_eta { (1/(a0 n)) sum (v_i - eta)_+ + eta }
exactly by selection; ``pnorm_dual`` solves the p-norm variant by
golden-section search; ``replicate_worst_case`` averages repeated
measurements per row before taking the CVaR, the gold-standard estimate of
worst-case subpopulation risk.

``SPEC_FIELDS`` lists the ``RobustSpec`` fields each objective reads; which
objectives take eta, need p > 1 (``check_p``) or carry a transport plan
follows from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0

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


@dataclass
class RobustSpec:
    """Hyperparameters shared by every robust objective.

    Parameters
    ----------
    alpha0 : float in (0, 1]
        Postulated lower bound on the subpopulation proportion.
    p : float in [1, 2]
        Dual exponent of the moment bound.  p = 1 is the CVaR dual
        (``joint_cvar``); ``joint_pnorm``, ``marginal`` and the plan
        minimizers divide by p - 1, and ``bounded_holder``'s cost
        ||x_i - x_j||^(p-1) is 1 for every pair there, so all of them raise
        ValueError at p = 1 (``check_p``).
    lipschitz_ratio : finite float >= 0
        The single smoothness hyperparameter L/eps multiplying the transport
        penalty; joint DRO is its limit as L/eps grows, not a value: the
        joint p-norm dual at level alpha0 / (p-1)**(1/p) (alpha0 itself at
        p = 2), where that level is at most 1.
    eps : finite float > 0, optional
        Risk floor scale; enters the objective only through eps**(q-1) in
        the floor and through L**(p-1)/eps in the penalty.  When left unset
        it is resolved from data, see ``objectives.resolve_eps``.
    delta : finite float >= 0
        Postulated confounding level, the one switch of the confounded
        objective: ``marginal`` (and its other name ``marginal_confounded``)
        adds the entrywise plan penalty 2 delta**(p-1)/eps * sum |B_ij| / n**2
        when delta > 0, and delta = 0 is the unconfounded objective.  The
        other objectives have no such penalty; the CLI rejects --delta there.
    """

    alpha0: float
    p: float = 2.0
    lipschitz_ratio: float = 1.0
    eps: float | None = None
    delta: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.alpha0 <= 1.0:
            raise ValueError(f"alpha0 must be in (0, 1], got {self.alpha0}")
        if not 1.0 <= self.p <= 2.0:
            raise ValueError(f"p must be in [1, 2], got {self.p}")
        # NaN fails every comparison, so each bound also asks for a finite value
        if not (np.isfinite(self.lipschitz_ratio) and self.lipschitz_ratio >= 0):
            raise ValueError(f"lipschitz_ratio must be finite and >= 0, "
                             f"got {self.lipschitz_ratio}")
        if self.eps is not None and not (np.isfinite(self.eps) and self.eps > 0):
            raise ValueError(f"eps must be finite and > 0, got {self.eps}")
        if not (np.isfinite(self.delta) and self.delta >= 0):
            raise ValueError(f"delta must be finite and >= 0, got {self.delta}")

    @property
    def q(self) -> float:
        """Conjugate exponent p/(p-1), for p > 1."""
        return self.p / (self.p - 1.0)


def check_p(objective: str, spec: RobustSpec):
    """Raise ValueError at p <= 1 for the objectives that read p
    (``SPEC_FIELDS``): their duals divide by p - 1, and bounded_holder's cost
    ||x_i - x_j||^(p-1) is 1 for every pair there (the diagonal too), so that
    L/eps would have no effect.  joint_cvar is the p = 1 objective."""
    if spec.p <= 1.0 and "p" in SPEC_FIELDS[objective]:
        raise ValueError(f"{objective} needs p > 1, got p = {spec.p:g}; "
                         "joint_cvar is the p = 1 objective")


def cvar_dual(values, alpha0: float) -> tuple[float, float]:
    """Worst alpha0-tail mean of ``values`` and the minimizing threshold.

    Solves inf_eta { (1/(alpha0 n)) sum_i (v_i - eta)_+ + eta } exactly.
    Fractional tail weight alpha0*n is handled by the exact LP solution, not
    nearest-integer truncation; eta* is the ceil(alpha0*n)-th largest value.

    Returns
    -------
    (risk, eta_star)
    """
    values = np.asarray(values, dtype=float).ravel()
    n = values.shape[0]
    if n == 0:
        raise ValueError("cvar_dual needs at least one value")
    if not 0.0 < alpha0 <= 1.0:
        raise ValueError(f"alpha0 must be in (0, 1], got {alpha0}")
    k = alpha0 * n
    # tolerate floating-point fuzz when alpha0*n is an exact integer
    idx = int(np.ceil(k - 1e-9))
    idx = min(max(idx, 1), n)
    # select the idx largest values; only they can have a positive hinge
    part = np.partition(values, n - idx)
    eta = part[n - idx]
    top = part[n - idx:]
    top.sort()
    # the hinge vector, descending, zero-padded to n: numpy's pairwise sum
    # of the top values alone would round differently
    hinge = np.zeros(n)
    np.subtract(top[::-1], eta, out=hinge[:idx])
    risk = float(np.sum(hinge) / k + eta)
    return risk, float(eta)


def pnorm_dual(values, alpha0: float, p: float) -> tuple[float, float]:
    """Joint-DRO p-norm dual inf_eta { (1/a0) (mean (v-eta)_+^p)^(1/p) + eta }.

    The search is over eta in [0, max(values)]; the objective is convex in
    eta so golden-section search locates the minimum.  p = 1 delegates to
    ``cvar_dual``.
    """
    values = np.asarray(values, dtype=float).ravel()
    if values.size == 0:
        raise ValueError("pnorm_dual needs at least one value")
    if not (np.isfinite(p) and p >= 1.0):  # NaN fails every comparison
        raise ValueError(f"p must be finite and >= 1, got {p}")
    if p == 1.0:
        return cvar_dual(values, alpha0)
    if not 0.0 < alpha0 <= 1.0:
        raise ValueError(f"alpha0 must be in (0, 1], got {alpha0}")

    def objective(eta):
        hinge = np.maximum(values - eta, 0.0)
        return np.mean(hinge**p) ** (1.0 / p) / alpha0 + eta

    hi = float(np.max(values))
    eta_star = _golden_section(objective, 0.0, hi, tol=1e-10 * (1.0 + hi))
    return float(objective(eta_star)), float(eta_star)


def replicate_worst_case(replicated_losses, alpha0: float) -> float:
    """CVaR of per-row mean losses over repeated measurements.

    Each row holds the m losses of one covariate point; averaging over the
    replicates estimates the conditional risk, whose tail mean this returns.
    """
    replicated_losses = np.asarray(replicated_losses, dtype=float)
    if replicated_losses.ndim != 2:
        raise ValueError(
            f"replicated losses must be a 2-d matrix, got ndim={replicated_losses.ndim}"
        )
    if replicated_losses.shape[0] < 1 or replicated_losses.shape[1] < 1:
        raise ValueError("replicated losses must be nonempty")
    row_means = replicated_losses.mean(axis=1)
    risk, _ = cvar_dual(row_means, alpha0)
    return risk


def _golden_section(fn, lo: float, hi: float, tol: float, max_iters: int = 200) -> float:
    """Minimize a convex scalar function on [lo, hi]."""
    a, b = float(lo), float(hi)
    if b <= a:
        return a
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = fn(x1), fn(x2)
    it = 0
    while b - a > tol and it < max_iters:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = fn(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = fn(x2)
        it += 1
    mid = 0.5 * (a + b)
    # endpoints can win when the minimum sits on the boundary
    best = min((fn(lo), lo), (fn(hi), hi), (fn(mid), mid))
    return best[1]
