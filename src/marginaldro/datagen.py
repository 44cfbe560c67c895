"""Seeded generators for the synthetic benchmark distributions.

Three variants share the covariate mechanism
Z ~ Bernoulli(alpha_true), X1 = (1 - 2Z) * U[0, 1]:

- ``toy_1d``     d = 1, Y = |X1| + 1{X1 >= 0} * N(0, 1)
- ``simdist``    X2..Xd ~ U[-1, 1], same Y as toy_1d
- ``confounded`` X2..Xd ~ U[0, 1], Y = |X1| + 1{X1 >= 0} * C with C uniform
                 on a symmetric five-point grid.

Rows with X1 < 0 form the noiseless minority group (Y = |X1| exactly).
So on both noisy variants the conditional risk jumps at X1 = 0 for every
theta: from about 0 on the noiseless side to the folded-normal mean
sqrt(2/pi) ~ 0.798 on the noisy side (theta in {0, 0.65, 1} at x1 = -1e-9
and 1e-9, other coordinates 0, gives 1e-9 and 0.7979).  The generator thus
breaks the Lipschitz assumption on the risk at that one point.

``generate`` and ``generate_replicates`` share one private draw: numpy's
PCG64 with SeedSequence-spawned streams per column, so for the same spec the
covariates are bit-identical, and ``generate`` is ``generate_replicates``
with m = 1 less its replicate column.

A draw allocates each output once; beside them it holds n-vectors (x1 and
its temporaries) and one row block of scratch: the feature matrix is filled
``model.ROW_BLOCK`` rows at a time, and the labels are finished in place.
``conditional_risks`` turns its predictions into risks in place, one row
block at a time.  The bits are those of the whole-array formulas the tests
keep as references.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Dataset, ParamVector, _check_integer, _feature_matrix, _row_blocks

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
        _check_integer("n", self.n, 1)
        _check_integer("d", self.d, 1)
        _check_integer("seed", self.seed, 0)
        if not 0.0 < self.alpha_true < 1.0:
            raise ValueError(f"alpha_true must be in (0, 1), got {self.alpha_true}")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.variant == "toy_1d" and self.d != 1:
            raise ValueError("toy_1d is one-dimensional; use variant='simdist' for d > 1")


def _draw(spec: SimSpec, m: int):
    """Covariates and m label draws per row: (features, replicates, z, confounder).

    Each column has its own SeedSequence-spawned stream, so the covariates do
    not depend on m.  X2..Xd are drawn ``ROW_BLOCK`` rows at a time: a
    float draw takes one value per element, so split by rows it keeps its
    stream.
    """
    z_seq, x1_seq, rest_seq, y_seq = np.random.SeedSequence(spec.seed).spawn(4)
    z = (np.random.default_rng(z_seq).random(spec.n) < spec.alpha_true).astype(float)
    x1 = (1.0 - 2.0 * z) * np.random.default_rng(x1_seq).random(spec.n)
    features = np.empty((spec.n, spec.d))
    features[:, 0] = x1
    rng_rest = np.random.default_rng(rest_seq)
    for rows in _row_blocks(spec.n):
        shape = (rows.stop - rows.start, spec.d - 1)
        features[rows, 1:] = (rng_rest.random(shape) if spec.variant == "confounded"
                              else rng_rest.uniform(-1.0, 1.0, size=shape))
    rng_y = np.random.default_rng(y_seq)
    if spec.variant == "confounded":
        conf = rng_y.choice(CONFOUNDER_SUPPORT, size=spec.n)
        reps = np.repeat(conf[:, None], m, axis=1)
    else:
        conf, reps = None, rng_y.standard_normal((spec.n, m))
    reps *= (x1 >= 0)[:, None]
    reps += np.abs(x1)[:, None]
    return features, reps, z, conf


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
    _check_integer("m", m, 1)
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
    # imported on first use, so that importing the package loads no scipy
    from scipy.special import erf

    features = _feature_matrix(features)
    risks = params.predict(features)
    for rows in _row_blocks(len(risks)):  # each block's predictions become its risks
        pred, x1 = risks[rows], features[rows, 0]
        # left group: Y = |x1| exactly; right group: Y = x1 + N(0,1), and
        # E|mu - eps| for eps ~ N(0,1) is the folded-normal mean
        mu = pred - x1
        folded = _SQRT_2_OVER_PI * np.exp(-0.5 * mu**2) + mu * erf(mu / np.sqrt(2.0))
        risks[rows] = np.where(x1 < 0, np.abs(pred - np.abs(x1)), folded)
    return risks
