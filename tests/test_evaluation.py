import tracemalloc

import numpy as np
import pytest

from marginaldro.datagen import SimSpec, generate, generate_replicates
from marginaldro.evaluation import (
    RiskReport,
    eval_joint,
    eval_oracle,
    eval_replicates,
    loss_matrix,
)
from marginaldro.duals import cvar_dual
from marginaldro.model import ROW_BLOCK, Dataset, ParamVector, loss_values

ALPHAS = (0.05, 0.1, 0.3, 0.5, 1.0)


def test_report_invariants_and_rows():
    ds = generate(SimSpec(n=400, d=1, variant="toy_1d", seed=0))
    report = eval_joint(ParamVector([0.5]), ds, "absolute_deviation", ALPHAS)
    rows = report.rows()
    assert [r[0] for r in rows] == sorted(r[0] for r in rows)
    risks = [r[1] for r in rows]
    assert all(risks[i] >= risks[i + 1] - 1e-12 for i in range(len(risks) - 1))
    assert risks[-1] == pytest.approx(report.mean_risk, abs=1e-10)


def test_report_validation():
    with pytest.raises(ValueError):
        RiskReport([0.5, 1.5], [1.0, 1.0], "x", 1.0)
    with pytest.raises(ValueError):
        RiskReport([0.5], [1.0, 2.0], "x", 1.0)


def test_report_rejects_nan_alpha():
    """A NaN alpha0 is not in (0, 1], so it is rejected like any other."""
    with pytest.raises(ValueError, match=r"\(0, 1\]"):
        RiskReport(np.array([np.nan, 0.5]), np.array([1.0, 0.9]), "x", 0.8)


def test_eval_joint_examples():
    ds = Dataset([[0.0], [1.0]], [0.0, 2.0])
    p0 = ParamVector([0.0])
    report = eval_joint(p0, ds, "absolute_deviation", [0.5, 1.0])
    assert report.risks[0] == pytest.approx(2.0)   # losses are [0, 2]
    assert report.risks[1] == pytest.approx(1.0)   # the mean
    const = Dataset([[0.0], [1.0]], [1.3, 1.3])
    report = eval_joint(ParamVector([0.0]), const, "absolute_deviation", ALPHAS)
    assert np.allclose(report.risks, 1.3)


def test_eval_oracle_permutation_invariant():
    feats = generate(SimSpec(n=2000, d=1, variant="simdist", seed=1)).features
    p = ParamVector([0.7])
    a = eval_oracle(p, feats, "simdist", ALPHAS)
    rng = np.random.default_rng(2)
    b = eval_oracle(p, feats[rng.permutation(2000)], "simdist", ALPHAS)
    assert np.allclose(a.risks, b.risks)
    assert a.mean_risk == pytest.approx(b.mean_risk)


def test_eval_replicates_basics():
    ds = generate_replicates(SimSpec(n=300, d=1, variant="simdist", seed=3), m=1)
    p = ParamVector([0.5])
    rep = eval_replicates(p, ds, "absolute_deviation", ALPHAS)
    # m = 1 replicates evaluated on the replicate draw itself
    joint = eval_joint(ParamVector([0.5]),
                       Dataset(ds.features, ds.replicates[:, 0]),
                       "absolute_deviation", ALPHAS)
    assert np.allclose(rep.risks, joint.risks)
    plain = generate(SimSpec(n=300, d=1, variant="simdist", seed=3))
    with pytest.raises(ValueError):
        eval_replicates(p, plain, "absolute_deviation", ALPHAS)


def test_eval_replicates_condition_filter():
    ds = generate_replicates(SimSpec(n=600, d=2, variant="confounded", seed=4), m=5)
    p = ParamVector([0.3, 0.0])
    for c in (-1.0, 0.0, 1.0):
        report = eval_replicates(p, ds, "absolute_deviation", [0.1, 1.0], condition=c)
        mask = np.isclose(ds.confounder, c)
        losses = loss_matrix("absolute_deviation", p, ds.features[mask],
                             ds.replicates[mask]).mean(axis=1)
        assert report.risks[-1] == pytest.approx(losses.mean())
    with pytest.raises(ValueError):
        eval_replicates(p, ds, "absolute_deviation", [0.1], condition=0.33)
    no_conf = generate_replicates(SimSpec(n=50, d=1, variant="simdist", seed=5), m=2)
    with pytest.raises(ValueError):
        eval_replicates(p, no_conf, "absolute_deviation", [0.1], condition=1.0)


def test_condition_matches_only_that_confounder_value():
    """Nearby confounder values are other rows, however large the value."""
    reps = np.array([[0.9, 0.9], [2.5, 2.5], [3.0, 3.0]])
    ds = Dataset(np.zeros((3, 1)), reps[:, 0], replicates=reps,
                 confounder=np.array([1000.0, 1000.005, 999.993]))
    report = eval_replicates(ParamVector([0.0]), ds, "absolute_deviation", [0.1, 1.0],
                             condition=1000.0)
    assert report.mean_risk == 0.9
    assert list(report.risks) == [0.9, 0.9]


def test_loss_matrix_matches_loss_values_per_column():
    """Each replicate column holds the bits ``loss_values`` gives for it."""
    ds = generate_replicates(SimSpec(n=257, d=3, variant="simdist", seed=8), m=6)
    p = ParamVector([0.4, -0.7, 0.2], 0.05)
    signs = np.where(ds.replicates > np.median(ds.replicates), 1.0, -1.0)
    for kind, reps in (("absolute_deviation", ds.replicates), ("logistic", signs),
                       ("zero_one", signs)):
        got = loss_matrix(kind, p, ds.features, reps)
        assert got.shape == reps.shape and got.dtype == np.float64
        for j in range(reps.shape[1]):
            want = loss_values(kind, p, ds.features, reps[:, j])
            assert got[:, j].tobytes() == want.tobytes(), (kind, j)
        with pytest.raises(ValueError):
            loss_matrix("squared", p, ds.features, reps)
    with pytest.raises(ValueError):
        loss_matrix("logistic", p, ds.features, ds.replicates)


def test_joint_dominates_replicates():
    """Raw-loss worst case is more conservative than the replicate-mean one."""
    ds = generate_replicates(SimSpec(n=800, d=1, variant="simdist", seed=6), m=20)
    p = ParamVector([0.8])
    rep = eval_replicates(p, ds, "absolute_deviation", ALPHAS)
    pooled = Dataset(np.repeat(ds.features, 20, axis=0), ds.replicates.ravel())
    joint = eval_joint(p, pooled, "absolute_deviation", ALPHAS)
    assert np.all(joint.risks >= rep.risks - 1e-10)


def whole_array_loss_matrix(kind, params, features, replicates):
    """The per-(row, replicate) losses as whole arrays, before any in-place step."""
    pred = (features @ params.theta + params.intercept)[:, None]
    if kind == "zero_one":
        return (np.where(pred >= 0, 1.0, -1.0) != replicates).astype(float)
    if kind == "logistic":
        return np.logaddexp(0.0, -replicates * pred)
    return np.abs(pred - replicates)


def whole_array_replicate_report(kind, params, ds, alphas, condition=None):
    """(risks, mean risk) of ``eval_replicates`` from one whole n x m loss matrix."""
    losses = whole_array_loss_matrix(kind, params, ds.features, ds.replicates)
    if condition is not None:
        losses = losses[np.isclose(ds.confounder, condition, rtol=0.0, atol=1e-9)]
    means = losses.mean(axis=1)
    return (np.array([cvar_dual(means, a)[0] for a in np.sort(alphas)]),
            float(np.mean(means)))


def replicate_case(kind, n):
    ds = generate_replicates(SimSpec(n=n, d=3, variant="confounded", seed=n), m=5)
    if kind != "absolute_deviation":
        signs = np.where(ds.replicates > 0.5, 1.0, -1.0)
        ds = Dataset(ds.features, signs[:, 0], replicates=signs, confounder=ds.confounder)
    return ds, ParamVector([0.9, -0.3, 0.2], 0.05)


LOSS_KINDS = ("absolute_deviation", "logistic", "zero_one")


@pytest.mark.parametrize("kind", LOSS_KINDS)
def test_loss_matrix_has_the_whole_array_bits(kind):
    ds, p = replicate_case(kind, ROW_BLOCK + 1)
    got = loss_matrix(kind, p, ds.features, ds.replicates)
    want = whole_array_loss_matrix(kind, p, ds.features, ds.replicates)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("condition", [None, 0.5])
@pytest.mark.parametrize("n", [ROW_BLOCK - 1, ROW_BLOCK, 2 * ROW_BLOCK + 1])
@pytest.mark.parametrize("kind", LOSS_KINDS)
def test_row_block_replicate_means_have_the_whole_array_bits(kind, n, condition):
    ds, p = replicate_case(kind, n)
    report = eval_replicates(p, ds, kind, ALPHAS, condition=condition)
    risks, mean_risk = whole_array_replicate_report(kind, p, ds, ALPHAS, condition)
    assert report.risks.tobytes() == risks.tobytes()
    assert report.mean_risk == mean_risk


def test_eval_replicates_peak_memory_below_half_a_loss_matrix():
    """Per-row replicate means are taken a row block at a time, so no n x m
    loss matrix is made."""
    ds = generate_replicates(SimSpec(n=10**5, d=2, variant="simdist", seed=4), m=50)
    tracemalloc.start()
    try:
        eval_replicates(ParamVector([0.8, 0.1]), ds, "absolute_deviation", ALPHAS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * ds.replicates.nbytes, peak / ds.replicates.nbytes
