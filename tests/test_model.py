import tracemalloc

import numpy as np
import pytest

from marginaldro.model import (
    ROW_BLOCK,
    Dataset,
    ParamVector,
    loss_residual_slopes,
    loss_values,
)


def one_loss(kind, params, x, y):
    """The loss at one example, through the vectorized ``loss_values``."""
    return float(loss_values(kind, params, np.reshape(x, (1, -1)), [y])[0])


def one_subgradient(kind, params, x, y):
    """The loss subgradient wrt (theta, intercept) at one example:
    ``loss_residual_slopes`` times (x, 1)."""
    x = np.ravel(x)
    return loss_residual_slopes(kind, params, x[None, :], [y])[0] * np.append(x, 1.0)


def test_absolute_loss_examples():
    p0 = ParamVector(np.zeros(3))
    assert one_loss("absolute_deviation", p0, [0.1, -0.2, 0.5], 2.0) == 2.0
    p = ParamVector([1.0])
    assert one_loss("absolute_deviation", p, [0.5], 0.5) == 0.0


def test_logistic_loss_at_zero():
    p0 = ParamVector(np.zeros(2))
    assert one_loss("logistic", p0, [1.0, 2.0], 1.0) == pytest.approx(np.log(2.0))


def test_zero_one_loss():
    p = ParamVector([1.0], 0.0)
    assert one_loss("zero_one", p, [2.0], 1.0) == 0.0
    assert one_loss("zero_one", p, [2.0], -1.0) == 1.0
    with pytest.raises(ValueError):
        one_subgradient("zero_one", p, [2.0], 1.0)


def test_losses_nonnegative_random():
    rng = np.random.default_rng(0)
    for _ in range(50):
        d = int(rng.integers(1, 5))
        p = ParamVector(rng.normal(size=d), rng.normal())
        x = rng.normal(size=d)
        assert one_loss("absolute_deviation", p, x, rng.normal()) >= 0.0
        assert one_loss("logistic", p, x, rng.choice([-1.0, 1.0])) >= 0.0


def test_subgradient_sign_cases():
    p = ParamVector([1.0], 0.5)   # pred = x + 0.5
    g = one_subgradient("absolute_deviation", p, [2.0], 1.0)  # pred 2.5 > y
    assert np.allclose(g, [2.0, 1.0])
    g = one_subgradient("absolute_deviation", p, [2.0], 3.0)  # pred 2.5 < y
    assert np.allclose(g, [-2.0, -1.0])
    g = one_subgradient("absolute_deviation", p, [2.0], 2.5)  # at the kink
    assert np.allclose(g, [0.0, 0.0])


def test_logistic_subgradient_at_zero():
    p0 = ParamVector(np.zeros(2))
    x = np.array([0.3, -0.7])
    g = one_subgradient("logistic", p0, x, 1.0)
    assert np.allclose(g, np.append(-x / 2.0, -0.5))


def test_subgradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    checked = 0
    while checked < 100:
        d = int(rng.integers(1, 6))
        kind = "absolute_deviation" if rng.random() < 0.5 else "logistic"
        p = ParamVector(rng.normal(size=d), rng.normal())
        x = rng.normal(size=d)
        y = rng.normal() if kind == "absolute_deviation" else float(rng.choice([-1.0, 1.0]))
        if kind == "absolute_deviation" and abs(p.predict(x[None, :])[0] - y) < 1e-3:
            continue  # too close to the kink for finite differences
        g = one_subgradient(kind, p, x, y)
        h = 1e-6
        fd = np.empty(d + 1)
        for j in range(d + 1):
            for sgn, store in ((1.0, 0), (-1.0, 1)):
                theta = p.theta.copy()
                b = p.intercept
                if j < d:
                    theta[j] += sgn * h
                else:
                    b += sgn * h
                val = one_loss(kind, ParamVector(theta, b), x, y)
                if store == 0:
                    up = val
                else:
                    dn = val
            fd[j] = (up - dn) / (2 * h)
        assert np.allclose(g, fd, rtol=1e-5, atol=1e-7)
        checked += 1


def test_absolute_loss_is_1_lipschitz_in_prediction():
    rng = np.random.default_rng(2)
    y = rng.normal(size=200)
    p1, p2 = rng.normal(size=200), rng.normal(size=200)
    gap = np.abs(np.abs(p1 - y) - np.abs(p2 - y))
    assert np.all(gap <= np.abs(p1 - p2) + 1e-12)


def test_loss_values_match_pointwise():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(20, 3))
    y = rng.normal(size=20)
    p = ParamVector(rng.normal(size=3), 0.2)
    vec = loss_values("absolute_deviation", p, X, y)
    point = [abs(X[i] @ p.theta + p.intercept - y[i]) for i in range(20)]
    assert np.allclose(vec, point)
    slopes = loss_residual_slopes("absolute_deviation", p, X, y)
    assert set(np.unique(slopes)).issubset({-1.0, 0.0, 1.0})


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.empty((0, 2)), np.empty(0))
    with pytest.raises(ValueError):
        Dataset([[1.0, np.nan]], [1.0])
    with pytest.raises(ValueError):
        Dataset([[1.0], [2.0]], [1.0])  # label length mismatch
    with pytest.raises(ValueError):
        Dataset([[1.0], [2.0]], [1.0, 2.0], replicates=[[1.0]])
    with pytest.raises(ValueError):
        Dataset([[1.0], [2.0]], [1.0, 2.0], group=[0.0, 2.0])
    # features are read by the 2-d rule of the distance builds: a vector is
    # neither one d-dimensional point nor n 1-d points
    for features in (np.array([1.0, 2.0, 3.0]), np.ones((3, 1, 1)), np.array(1.0)):
        with pytest.raises(ValueError, match=r"features must be a 2-d \(n, d\) array"):
            Dataset(features, np.array([5.0]))
    # no replicate column, or a 3-d array with n rows, is not m >= 1 labels per row
    for replicates in (np.empty((3, 0)), np.ones((3, 2, 1)), np.ones(3)):
        with pytest.raises(ValueError, match=r"replicates must be an \(n, m\) matrix"):
            Dataset(np.ones((3, 1)), np.ones(3), replicates=replicates)
    ds = Dataset([[1.0], [2.0]], [1.0, 2.0], replicates=[[1.0, 2.0], [3.0, 4.0]])
    assert ds.n == 2 and ds.d == 1 and ds.replicates.shape == (2, 2)


@pytest.mark.parametrize("column, message", [
    ("features", "features and labels must be finite"),
    ("labels", "features and labels must be finite"),
    ("replicates", "replicates must be finite"),
    ("confounder", "confounder must be finite"),
])
def test_dataset_finiteness_checked_past_the_first_row_block(column, message):
    n = 2 * ROW_BLOCK + 1
    cols = dict(features=np.ones((n, 2)), labels=np.ones(n), replicates=np.ones((n, 3)),
                confounder=np.ones(n))
    cols[column][-1] = np.inf
    with pytest.raises(ValueError, match=message):
        Dataset(**cols)


def test_dataset_checks_make_no_whole_size_temporary():
    """Validating an existing float64 sample allocates a row block of scratch,
    not an n x d bool array."""
    features, labels = np.zeros((10**6, 20)), np.zeros(10**6)
    tracemalloc.start()
    try:
        Dataset(features, labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.01 * features.nbytes, peak / features.nbytes


def test_param_vector_validation():
    with pytest.raises(ValueError):
        ParamVector([np.inf])
    p = ParamVector([1.0, 2.0], 3.0)
    with pytest.raises(ValueError):
        p.predict(np.ones((4, 3)))
    assert np.allclose(p.predict(np.array([[1.0, 1.0]])), [6.0])
    # a vector is not read as one point of len(vector) coordinates
    for features in (np.array([0.0, 1.0, 2.0]), np.zeros((1, 3, 1)), np.float64(1.0)):
        with pytest.raises(ValueError, match="features must be a 2-d"):
            ParamVector([0.5, 0.5, 0.5]).predict(features)
