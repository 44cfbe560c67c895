import numpy as np
import pytest

from marginaldro.duals import RobustSpec
from marginaldro.objectives import pairwise_distance_power, plan_adjustments
from marginaldro.variational import (
    KernelSpec,
    bounded_holder_objective,
    check_gram,
    gram,
    median_bandwidth,
    rkhs_objective,
)


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec(bandwidth=0.0)
    with pytest.raises(ValueError):
        KernelSpec(bandwidth=1.0, radius=-1.0)
    with pytest.raises(TypeError):
        KernelSpec(bandwidth=1.0, kind="laplacian")


def test_gram_values():
    sigma = 0.7
    x = np.array([[0.0, 0.0], [sigma * np.sqrt(2.0), 0.0], [0.0, 0.0]])
    k = gram(x, KernelSpec(bandwidth=sigma))
    assert np.allclose(np.diag(k), 1.0)
    assert k[0, 1] == pytest.approx(np.exp(-1.0))
    assert k[0, 2] == pytest.approx(1.0)  # duplicate rows
    assert np.allclose(k, k.T)


def test_check_gram_rejects_indefinite():
    with pytest.raises(ValueError):
        check_gram(np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_median_bandwidth_positive():
    rng = np.random.default_rng(0)
    assert median_bandwidth(rng.normal(size=(30, 2))) > 0
    assert median_bandwidth(np.zeros((5, 2))) == 1.0  # degenerate fallback


def test_rkhs_objective_examples():
    losses = np.array([1.0, 2.0, 0.5])
    k = np.eye(3)
    # beta = 0: the CVaR dual integrand at eta
    v = rkhs_objective(losses, k, 0.8, np.zeros(3), 0.4, 1.0)
    assert v == pytest.approx(np.maximum(losses - 0.8, 0).sum() / (0.4 * 3))
    # hinges inactive: penalty only
    beta = np.array([0.1, -0.1, 0.0])
    v = rkhs_objective(losses, k, 10.0, beta, 0.4, 2.0)
    assert v == pytest.approx(np.sqrt(beta @ beta / 2.0) / 3.0)
    # worked single-point case
    v = rkhs_objective([2.0], [[1.0]], 0.0, [-1.0], 1.0, 1.0)
    assert v == pytest.approx(2.0)


def test_rkhs_objective_psd_violation():
    k = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        rkhs_objective([1.0, 1.0], k, 0.0, [1.0, -1.0], 0.5, 1.0)


def spec_with(**kw):
    base = dict(alpha0=1.0, p=2.0, lipschitz_ratio=1.0, eps=1.0)
    base.update(kw)
    return RobustSpec(**base)


def test_bounded_holder_examples():
    losses = np.array([0.0, 2.0])
    dist = np.array([[0.0, 1.0], [1.0, 0.0]])
    plan = np.array([[0.0, 0.0], [2.0, 0.0]])
    # worked example: hinge sum 1.0 plus penalty 0.5
    v = bounded_holder_objective(losses, dist, 0.0, plan, spec_with(alpha0=1.0))
    assert v == pytest.approx(1.5)
    # B = 0 reduces to the CVaR dual integrand, exactly
    rng = np.random.default_rng(1)
    l2 = rng.uniform(0, 2, 6)
    d2 = pairwise_distance_power(rng.uniform(-1, 1, (6, 2)), 2.0)
    eta = 0.6
    v0 = bounded_holder_objective(l2, d2, eta, np.zeros((6, 6)), spec_with(alpha0=0.3))
    assert v0 == np.maximum(l2 - eta, 0.0).sum() / (0.3 * 6)
    # everything below eta with B = 0: zero
    assert bounded_holder_objective(l2, d2, 10.0, np.zeros((6, 6)), spec_with(alpha0=0.3)) == 0.0


def test_objectives_midpoint_convex():
    rng = np.random.default_rng(2)
    n = 5
    losses = rng.uniform(0, 2, n)
    x = rng.uniform(-1, 1, (n, 2))
    dist = pairwise_distance_power(x, 2.0)
    k = gram(x, KernelSpec(bandwidth=1.0))
    spec = spec_with(alpha0=0.4)
    for _ in range(50):
        e1, e2 = rng.uniform(-0.5, 2.5, size=2)
        b1, b2 = rng.normal(size=(2, n)) * 0.5
        mid = rkhs_objective(losses, k, 0.5 * (e1 + e2), 0.5 * (b1 + b2), 0.4, 1.0)
        ends = 0.5 * (rkhs_objective(losses, k, e1, b1, 0.4, 1.0)
                      + rkhs_objective(losses, k, e2, b2, 0.4, 1.0))
        assert mid <= ends + 1e-10
        p1, p2 = np.abs(rng.normal(size=(2, n, n))) * 0.5
        mid = bounded_holder_objective(losses, dist, 0.5 * (e1 + e2), 0.5 * (p1 + p2), spec)
        ends = 0.5 * (bounded_holder_objective(losses, dist, e1, p1, spec)
                      + bounded_holder_objective(losses, dist, e2, p2, spec))
        assert mid <= ends + 1e-10


def test_smoothing_improves_on_zero():
    """Optimized smoothing variables can only lower the inner objective."""
    rng = np.random.default_rng(3)
    n = 8
    losses = rng.uniform(0, 2, n)
    x = rng.uniform(-1, 1, (n, 2))
    dist = pairwise_distance_power(x, 2.0)
    spec = spec_with(alpha0=0.4, lipschitz_ratio=0.5)
    eta = 0.5
    at_zero = bounded_holder_objective(losses, dist, eta, np.zeros((n, n)), spec)
    # crude projected subgradient descent on the plan
    plan = np.zeros((n, n))
    best = at_zero
    for t in range(300):
        c = plan_adjustments(plan)
        active = (losses - c - eta > 0).astype(float)
        g = -(active[:, None] - active[None, :]) / (0.4 * n * n) + 0.5 * dist / n**2
        plan = np.maximum(plan - (0.3 / np.sqrt(t + 1)) * n * n * g, 0.0)
        best = min(best, bounded_holder_objective(losses, dist, eta, plan, spec))
    assert best <= at_zero + 1e-12

    k = gram(x, KernelSpec(bandwidth=1.0))
    at_zero = rkhs_objective(losses, k, eta, np.zeros(n), 0.4, 1.0)
    beta = np.zeros(n)
    best = at_zero
    for t in range(300):
        active = (losses - eta + beta > 0).astype(float)
        kb = k @ beta
        quad = max(float(beta @ kb), 1e-12)
        g = active / (0.4 * n) + kb / (np.sqrt(quad) * n)
        beta = beta - (0.3 / np.sqrt(t + 1)) * n * g
        best = min(best, rkhs_objective(losses, k, eta, beta, 0.4, 1.0))
    assert best <= at_zero + 1e-12
