"""Seeded generators for the synthetic benchmark distributions.

Three variants share the covariate mechanism
Z ~ Bernoulli(alpha_true), X1 = (1 - 2Z) * U[0, 1]:

- ``toy_1d``     d = 1, Y = |X1| + 1{X1 >= 0} * N(0, 1)
- ``simdist``    X2..Xd ~ U[-1, 1], same Y as toy_1d
- ``confounded`` X2..Xd ~ U[0, 1], Y = |X1| + 1{X1 >= 0} * C with C uniform
                 on a symmetric five-point grid.

Rows with X1 < 0 form the noiseless minority group (Y = |X1| exactly).
``generate`` and ``generate_replicates`` share one private draw: numpy's
PCG64 with SeedSequence-spawned streams per column, so for the same spec the
covariates are bit-identical, and ``generate`` is ``generate_replicates``
with m = 1 less its replicate column.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from .model import Dataset, ParamVector

VARIANTS = ("toy_1d", "simdist", "confounded")

# symmetric five-point confounder support
CONFOUNDER_SUPPORT = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])

_SQRT_2_OVER_PI = np.sqrt(2.0 / np.pi)


@dataclass
class SimSpec:
    """Parameters of one synthetic draw."""

    n: int
    d: int = 1
    alpha_true: float = 0.15
    variant: str = "simdist"
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")
        if not 0.0 < self.alpha_true < 1.0:
            raise ValueError(f"alpha_true must be in (0, 1), got {self.alpha_true}")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.variant == "toy_1d" and self.d != 1:
            raise ValueError("toy_1d is one-dimensional; use variant='simdist' for d > 1")


def _draw(spec: SimSpec, m: int):
    """Covariates and m label draws per row: (features, replicates, z, confounder).

    Each column has its own SeedSequence-spawned stream, so the covariates do
    not depend on m.
    """
    z_seq, x1_seq, rest_seq, y_seq = np.random.SeedSequence(spec.seed).spawn(4)
    z = (np.random.default_rng(z_seq).random(spec.n) < spec.alpha_true).astype(float)
    x1 = (1.0 - 2.0 * z) * np.random.default_rng(x1_seq).random(spec.n)
    features = x1[:, None]
    if spec.d > 1:  # X2..Xd only as a temporary, freed before the labels are drawn
        rng_rest, shape = np.random.default_rng(rest_seq), (spec.n, spec.d - 1)
        features = np.column_stack([x1, rng_rest.random(shape) if spec.variant == "confounded"
                                    else rng_rest.uniform(-1.0, 1.0, size=shape)])
    right = (x1 >= 0)[:, None]
    rng_y = np.random.default_rng(y_seq)
    if spec.variant == "confounded":
        conf = rng_y.choice(CONFOUNDER_SUPPORT, size=spec.n)
        reps = np.tile(np.abs(x1)[:, None] + right * conf[:, None], (1, m))
        return features, reps, z, conf
    reps = np.abs(x1)[:, None] + right * rng_y.standard_normal((spec.n, m))
    return features, reps, z, None


def generate(spec: SimSpec) -> Dataset:
    """One seeded draw of the chosen variant, with diagnostics columns."""
    features, reps, z, conf = _draw(spec, 1)
    return Dataset(features, reps[:, 0], group=z, confounder=conf)


def generate_replicates(spec: SimSpec, m: int) -> Dataset:
    """Same covariates as ``generate``, with m label draws per row.

    The noisy variants redraw the noise for every replicate.  In the
    confounded variant the label is deterministic given (X, C), so the
    replicates all equal |x1| + 1{x1 >= 0} * c_i for the row's confounder
    draw; conditioning evaluations filter rows on that stored value.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    features, reps, z, conf = _draw(spec, m)
    return Dataset(features, reps[:, 0], replicates=reps, group=z, confounder=conf)


def conditional_risks(params: ParamVector, features, variant: str) -> np.ndarray:
    """Exact conditional absolute-deviation risks E[|theta'X - Y| given X = x_i].

    One per row of ``features``.  Only the noisy variants are supported; the
    confounded variant has no single conditional law (use replicate
    evaluation instead).
    """
    if variant not in ("toy_1d", "simdist"):
        raise ValueError(
            f"conditional risk oracle supports toy_1d and simdist, got {variant!r}; "
            "evaluate the confounded variant with replicates"
        )
    features = np.atleast_2d(np.asarray(features, dtype=float))
    pred = params.predict(features)
    x1 = features[:, 0]
    # left group: Y = |x1| exactly; right group: Y = x1 + N(0,1), and
    # E|mu - eps| for eps ~ N(0,1) is the folded-normal mean
    mu = pred - x1
    folded = _SQRT_2_OVER_PI * np.exp(-0.5 * mu**2) + mu * erf(mu / np.sqrt(2.0))
    return np.where(x1 < 0, np.abs(pred - np.abs(x1)), folded)
