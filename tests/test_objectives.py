import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

import marginaldro.objectives as objectives
from marginaldro.duals import RobustSpec
from marginaldro.model import Dataset, ParamVector
from marginaldro.objectives import (
    DensePlanStep,
    TransportKernel,
    floor_value,
    marginal_objective,
    pairwise_distance_power,
    plan_adjustments,
    primal_inner_sup,
    resolve_eps,
    robust_surrogate,
)
from marginaldro.optim import ObjectiveFunction, minimize_eta_plan, minimize_plan
from marginaldro.variational import KernelSpec, gram, median_bandwidth

TWO_POINT = dict(
    losses=np.array([0.0, 2.0]),
    dist=np.array([[0.0, 1.0], [1.0, 0.0]]),
    plan=np.array([[0.0, 0.0], [2.0, 0.0]]),
)


def spec2(**kw):
    base = dict(alpha0=0.5, p=2.0, lipschitz_ratio=1.0, eps=1.0)
    base.update(kw)
    return RobustSpec(**base)


def test_pairwise_distance_power():
    x = np.array([[0.0, 0.0], [3.0, 4.0], [1.0, 0.0]])
    d = pairwise_distance_power(x, 2.0)
    assert np.allclose(d, d.T)
    assert np.allclose(np.diag(d), 0.0)
    assert d[0, 1] == pytest.approx(5.0)
    # triangle inequality on the base distances
    for i in range(3):
        for j in range(3):
            for k in range(3):
                assert d[i, j] <= d[i, k] + d[k, j] + 1e-12
    d15 = pairwise_distance_power(x, 1.5)
    assert np.allclose(d15, d**0.5)


def test_pairwise_distance_power_matches_broadcast_formula():
    """The in-place builds give the bits of the plain broadcast expressions,
    for the distances and for the Gram matrix and median bandwidth."""
    rng = np.random.default_rng(3)
    for n, d, p in [(1, 1, 2.0), (7, 1, 1.5), (60, 2, 2.0), (60, 2, 3.0),
                    (300, 5, 1.5), (1100, 2, 2.0)]:
        x = rng.normal(size=(n, d))
        sq = np.sum(x * x, axis=1)
        d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
        dist = np.sqrt(np.maximum(d2, 0.0))
        np.fill_diagonal(dist, 0.0)
        expected = dist if p == 2.0 else dist ** (p - 1.0)
        assert np.array_equal(pairwise_distance_power(x, p), expected)

        d2 = np.maximum(d2, 0.0)
        kernel = KernelSpec(bandwidth=0.7)
        k = np.exp(-d2 / (2.0 * kernel.bandwidth**2))
        np.fill_diagonal(k, 1.0)
        assert np.array_equal(gram(x, kernel), k)
        off = d2[np.triu_indices(n, k=1)]
        med = float(np.sqrt(np.median(off))) if off.size else 1.0
        assert median_bandwidth(x) == (med if med > 0 else 1.0)


def _kernel_and_plan(n, seed=0):
    rng = np.random.default_rng(seed)
    dist = pairwise_distance_power(rng.normal(size=(n, 2)), 2.0)
    kernel = TransportKernel(dist, RobustSpec(alpha0=0.3, p=2.0, lipschitz_ratio=2.0,
                                              eps=0.1, delta=0.05))
    plan = np.maximum(rng.normal(size=(n, n)), 0.0).astype(kernel.dtype)
    vec = rng.normal(size=n) / (n * n)
    return kernel, plan, vec


@pytest.mark.parametrize("n", [50, 300, 1100])
def test_fused_plan_statistics_match_fresh_pass(n):
    """plan_step's statistics are those of a fresh pass over the plan it wrote."""
    kernel, plan, vec = _kernel_and_plan(n)
    new = kernel.plan_step(plan, vec, 0.3, keep=plan)
    c, penalty = kernel.statistics(new)
    fresh_c, fresh_penalty = DensePlanStep(kernel.pen_dist).statistics(new)
    assert c.dtype == np.float64
    assert np.array_equal(c, fresh_c) and penalty == fresh_penalty
    assert np.array_equal(c, plan_adjustments(new))
    # column sums run down the rows in order, as numpy's own reductions do
    expected = (new.sum(axis=1, dtype=np.float64) - new.sum(axis=0, dtype=np.float64)) / n
    assert np.array_equal(c, expected)
    # a step with a vanishing gradient leaves the plan and its statistics alone
    assert kernel.plan_step(new, None, 0.3, keep=new) is new
    assert kernel.statistics(new)[0] is c


def test_plan_pass_does_not_wait_for_a_busy_pool(monkeypatch):
    """The calling thread takes every block when no pool thread is free."""
    gate = threading.Event()
    done = []
    with ThreadPoolExecutor(1) as pool:
        pool.submit(gate.wait)  # holds the only pool thread, as a fork would
        monkeypatch.setattr(objectives, "WORKERS", 2)
        monkeypatch.setattr(objectives, "_POOL", pool)
        kernel, plan, vec = _kernel_and_plan(300)
        caller = threading.Thread(target=lambda: done.append(kernel.plan_step(plan, vec, 0.3)))
        caller.start()
        caller.join(timeout=60)
        gate.set()
        assert done
        assert np.array_equal(kernel.statistics(done[0])[0], plan_adjustments(done[0]))


def test_fused_penalty_accumulates_in_float64():
    kernel, plan, vec = _kernel_and_plan(1100, seed=1)
    assert kernel.dtype == np.float32
    new = kernel.plan_step(plan, vec, 0.3)
    expected = np.sum(kernel.pen_dist.astype(np.float64) * new.astype(np.float64))
    assert kernel.statistics(new)[1] == pytest.approx(expected, rel=1e-12)


def test_fused_plan_step_entries_match_materialized_formula():
    """Row blocks apply the broadcast update's float32 operations in its order."""
    n, step = 1100, 0.3
    kernel, plan, vec = _kernel_and_plan(n, seed=2)
    scale = step * n * n
    u = (scale * vec).astype(np.float32)
    expected = np.maximum(((plan + u[:, None]) - u[None, :])
                          - kernel.pen_dist * np.float32(scale), 0.0)
    new = kernel.plan_step(plan, vec, step, keep=plan)
    assert new.dtype == expected.dtype == np.float32
    assert np.array_equal(new, expected)


def test_plan_step_writes_around_the_kept_plan():
    """A step from the kept plan goes to the step's spare buffer; others are in place."""
    kernel, plan, vec = _kernel_and_plan(300, seed=3)
    before = plan.copy()
    new = kernel.plan_step(plan, vec, 0.3, keep=plan)
    assert new is not plan and new.dtype == plan.dtype
    assert np.array_equal(plan, before)
    # the old plan becomes the spare: stepping the new plan while it is kept
    # writes there, and an unkept plan is stepped in place
    assert kernel.plan_step(new, vec, 0.3, keep=new) is plan
    assert kernel.plan_step(plan, vec, 0.3, keep=new) is plan
    assert kernel.plan_step(plan, vec, 0.3) is plan
    assert not np.array_equal(plan, before)
    zero = kernel.zeros()
    assert zero.shape == plan.shape and zero.dtype == kernel.dtype and not zero.any()


def test_plan_adjustments_sum_to_zero():
    rng = np.random.default_rng(0)
    plan = np.abs(rng.normal(size=(7, 7)))
    c = plan_adjustments(plan)
    assert c.sum() == pytest.approx(0.0, abs=1e-12)


def test_marginal_objective_examples():
    # transport-free case: plain p-norm of the hinged losses
    losses = np.array([1.0, 3.0, 0.5])
    dist = pairwise_distance_power(np.arange(3.0)[:, None], 2.0)
    value = marginal_objective(losses, dist, 0.5, np.zeros((3, 3)), spec2())
    assert value == pytest.approx(np.sqrt(np.mean(np.maximum(losses - 0.5, 0) ** 2)))

    # single example: self transport is free and null
    v1 = marginal_objective([2.0], np.zeros((1, 1)), 0.5, [[7.0]], spec2())
    assert v1 == pytest.approx(1.5)

    # two-point instance, worked by hand: hinge block 1.0, penalty 0.5
    value = marginal_objective(TWO_POINT["losses"], TWO_POINT["dist"], 0.0,
                               TWO_POINT["plan"], spec2())
    c = plan_adjustments(TWO_POINT["plan"])
    block = np.sqrt(((0.0 - c[0]) ** 2 + (2.0 - c[1]) ** 2) / 2.0)
    assert value == pytest.approx(block + 0.5) == pytest.approx(1.5)


def test_negative_plan_rejected():
    with pytest.raises(ValueError):
        marginal_objective([1.0, 1.0], np.zeros((2, 2)), 0.0,
                           np.array([[0.0, -0.1], [0.0, 0.0]]), spec2())


def test_subgradient_rejects_zero_one_loss():
    ds = Dataset([[0.0], [1.0]], [1.0, -1.0])
    fn = ObjectiveFunction(ds, "zero_one", spec2(), "marginal")
    with pytest.raises(ValueError):
        fn.value_grad(np.zeros(2), 0.0, np.zeros((2, 2)))


def test_confounded_objective():
    value = marginal_objective(TWO_POINT["losses"], TWO_POINT["dist"], 0.0,
                               TWO_POINT["plan"], spec2(delta=1.0))
    assert value == pytest.approx(2.5)
    # delta = 0 is the unconfounded objective
    assert marginal_objective(TWO_POINT["losses"], TWO_POINT["dist"], 0.0,
                              TWO_POINT["plan"], spec2()) == pytest.approx(1.5)
    # B = 0 kills the extra term
    v0 = marginal_objective(TWO_POINT["losses"], TWO_POINT["dist"], 0.3,
                            np.zeros((2, 2)), spec2(delta=5.0))
    assert v0 == pytest.approx(marginal_objective(TWO_POINT["losses"], TWO_POINT["dist"],
                                                  0.3, np.zeros((2, 2)), spec2()))


def test_robust_surrogate_examples():
    # floor active: (1/alpha0) * floor + eta
    ds = Dataset([[0.0], [1.0]], [0.0, 0.0])
    spec = RobustSpec(alpha0=0.5, p=2.0, lipschitz_ratio=1.0, eps=0.01)
    assert robust_surrogate(ParamVector([0.0]), 0.3, np.zeros((2, 2)), ds,
                            "absolute_deviation", spec) == pytest.approx(0.32)

    # constant losses with eta = c: hinge block zero
    ds = Dataset([[0.0], [1.0]], [2.0, 3.0])   # theta=1, b=2 fits exactly... use direct
    ds = Dataset([[1.0], [1.0]], [1.5, 1.5])
    expected = 0.01 / 0.5 + 1.5
    assert robust_surrogate(ParamVector([0.0]), 1.5, np.zeros((2, 2)), ds,
                            "absolute_deviation", spec) == pytest.approx(expected)

    # two-point instance above the floor: 1.5 / 0.5 = 3.0
    ds = Dataset([[0.0], [1.0]], [0.0, 2.0])
    assert robust_surrogate(ParamVector([0.0]), 0.0, TWO_POINT["plan"], ds,
                            "absolute_deviation", spec) == pytest.approx(3.0)


def test_subgradient_hinge_inactive():
    ds = Dataset([[0.0], [1.0]], [0.5, 0.7])
    spec = RobustSpec(alpha0=0.5, p=2.0, lipschitz_ratio=2.0, eps=1e-6)
    plan = np.array([[0.0, 0.4], [0.1, 0.0]])
    fn = ObjectiveFunction(ds, "absolute_deviation", spec, "marginal")
    # theta = 0, intercept = 0, eta = 5: all hinges off
    _, g_theta, g_eta, plan_vec, _ = fn.value_grad(np.zeros(2), 5.0, plan)
    g_plan = fn.transport.plan_grad(plan_vec)
    assert np.allclose(g_theta, 0.0)
    assert g_eta == pytest.approx(1.0)
    dist = pairwise_distance_power(ds.features, 2.0)
    expected = 2.0 * dist / 4.0 / 0.5  # penalty coefficients only, over alpha0
    assert np.allclose(g_plan, expected)


def test_subgradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    confounded = RobustSpec(alpha0=0.4, p=2.0, lipschitz_ratio=1.5, eps=0.05, delta=0.3)
    checked = 0
    while checked < 30:
        n, d = int(rng.integers(2, 6)), 2
        ds = Dataset(rng.uniform(-1, 1, (n, d)), rng.uniform(0, 2, n))
        params = ParamVector(rng.normal(size=d) * 0.5, rng.normal() * 0.2)
        eta = float(rng.uniform(0, 0.5))
        plan = np.abs(rng.normal(size=(n, n))) * 0.3
        for spec in (replace(confounded, delta=0.0), confounded):
            fn = ObjectiveFunction(ds, "absolute_deviation", spec, "marginal")
            w = np.append(params.theta, params.intercept)
            _, g_theta, g_eta, plan_vec, _ = fn.value_grad(w, eta, plan)
            g_plan = fn.transport.plan_grad(plan_vec)

            def val(params, eta, plan):
                return robust_surrogate(params, eta, plan, ds, "absolute_deviation", spec)

            h = 1e-6
            ok = True
            # a few random coordinates of each block
            for _ in range(3):
                j = int(rng.integers(0, d))
                tp, tm = params.theta.copy(), params.theta.copy()
                tp[j] += h
                tm[j] -= h
                fd = (val(ParamVector(tp, params.intercept), eta, plan)
                      - val(ParamVector(tm, params.intercept), eta, plan)) / (2 * h)
                if abs(fd - g_theta[j]) > 1e-4 * max(1.0, abs(fd)):
                    ok = False
            fd = (val(params, eta + h, plan) - val(params, eta - h, plan)) / (2 * h)
            if abs(fd - g_eta) > 1e-4 * max(1.0, abs(fd)):
                ok = False
            i, j = int(rng.integers(0, n)), int(rng.integers(0, n))
            pp, pm = plan.copy(), plan.copy()
            pp[i, j] += h
            pm[i, j] -= h
            fd = (val(params, eta, pp) - val(params, eta, pm)) / (2 * h)
            if abs(fd - g_plan[i, j]) > 1e-4 * max(1.0, abs(fd)):
                ok = False
            assert ok
        checked += 1


def test_primal_inner_sup_trivial_cases():
    spec = spec2(lipschitz_ratio=2.0)
    assert primal_inner_sup([2.0], np.zeros((1, 1)), 0.5, spec) == pytest.approx(1.5, abs=1e-9)
    dist = TWO_POINT["dist"]
    assert primal_inner_sup([0.1, 0.2], dist, 0.5, spec) == 0.0
    with pytest.raises(ValueError):
        primal_inner_sup(np.ones(9), np.zeros((9, 9)), 0.0, spec)


def test_weak_duality_any_feasible_plan():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        x = rng.uniform(-1, 1, (n, 2))
        losses = rng.uniform(0, 2, n)
        eta = float(rng.uniform(0, 1))
        spec = spec2(lipschitz_ratio=float(rng.uniform(0.3, 2.0)))
        dist = pairwise_distance_power(x, 2.0)
        primal = primal_inner_sup(losses, dist, eta, spec)
        for _ in range(5):
            plan = np.abs(rng.normal(size=(n, n)))
            assert marginal_objective(losses, dist, eta, plan, spec) >= primal - 1e-9


def test_strong_duality_small_instances():
    rng = np.random.default_rng(6)
    for _ in range(5):
        n = int(rng.integers(2, 5))
        x = rng.uniform(-1, 1, (n, 2))
        losses = rng.uniform(0, 2, n)
        eta = float(rng.uniform(0, 1))
        spec = spec2(lipschitz_ratio=float(rng.uniform(0.3, 2.0)))
        dist = pairwise_distance_power(x, 2.0)
        dual, _ = minimize_plan(losses, dist, eta, spec, iters=4000)
        primal = primal_inner_sup(losses, dist, eta, spec)
        assert dual == pytest.approx(primal, abs=5e-3)


def test_inf_plan_monotone_in_lipschitz_ratio():
    rng = np.random.default_rng(7)
    n = 12
    x = rng.uniform(-1, 1, (n, 2))
    losses = rng.uniform(0, 2, n)
    dist = pairwise_distance_power(x, 2.0)
    values = [minimize_plan(losses, dist, 0.4, spec2(lipschitz_ratio=r), iters=3000)[0]
              for r in (0.1, 1.0, 10.0)]
    assert values[0] <= values[1] + 1e-6 <= values[2] + 2e-6


def test_joint_dro_limit():
    rng = np.random.default_rng(8)
    n = 25
    losses = rng.uniform(0, 2, n)
    dist = pairwise_distance_power(rng.uniform(-1, 1, (n, 2)), 2.0)
    spec = RobustSpec(alpha0=0.3, p=2.0, lipschitz_ratio=1e6, eps=1e-4)
    val, _, plan = minimize_eta_plan(losses, dist, spec, iters=3000)
    from marginaldro.duals import pnorm_dual

    target = pnorm_dual(losses, 0.3, 2.0)[0]
    assert val == pytest.approx(target, rel=1e-3)
    assert plan.max() <= 1e-6


def test_erm_limit():
    rng = np.random.default_rng(9)
    n = 20
    losses = rng.uniform(0, 2, n)
    dist = pairwise_distance_power(rng.uniform(-1, 1, (n, 2)), 2.0)
    for p in (2.0, 1.5):
        eta = 0.3
        spec = RobustSpec(alpha0=0.3, p=p, lipschitz_ratio=0.0, eps=1e-4)
        val, _ = minimize_plan(losses, dist, eta, spec, iters=5000)
        target = (p - 1.0) ** (1.0 / p) * max(losses.mean() - eta, 0.0)
        assert val == pytest.approx(target, abs=1e-3)


def test_confounding_monotone_in_delta():
    rng = np.random.default_rng(10)
    n = 10
    losses = rng.uniform(0, 2, n)
    dist = pairwise_distance_power(rng.uniform(-1, 1, (n, 2)), 2.0)
    eta = 0.2
    values = []
    for delta in (0.0, 0.05, 0.5, 50.0):
        spec = RobustSpec(alpha0=0.3, p=2.0, lipschitz_ratio=1.0, eps=0.5, delta=delta)
        val, plan = minimize_plan(losses, dist, eta, spec, iters=4000)
        values.append(val)
    assert all(values[i] <= values[i + 1] + 1e-6 for i in range(len(values) - 1))
    # delta = 0 coincides with the unconfounded infimum
    spec0 = RobustSpec(alpha0=0.3, p=2.0, lipschitz_ratio=1.0, eps=0.5)
    unconf, _ = minimize_plan(losses, dist, eta, spec0, iters=4000)
    assert values[0] == pytest.approx(unconf, abs=1e-6)
    # huge delta forces the plan to zero: value matches B = 0
    at_zero = marginal_objective(losses, dist, eta, np.zeros((n, n)), spec0)
    assert values[-1] == pytest.approx(at_zero, abs=1e-6)


def test_minimize_plan_value_includes_the_confounding_penalty():
    rng = np.random.default_rng(3)
    n, eta = 12, 0.2
    losses = rng.uniform(0, 2, n)
    dist = pairwise_distance_power(rng.uniform(-1, 1, (n, 2)), 1.5)
    spec = RobustSpec(alpha0=0.2, p=1.5, lipschitz_ratio=0.1, eps=0.1, delta=1e-4)
    val, plan = minimize_plan(losses, dist, eta, spec, iters=300)
    assert plan.sum() > 0
    assert val == pytest.approx(marginal_objective(losses, dist, eta, plan, spec), rel=1e-12)
    penalty = 2.0 * spec.delta ** (spec.p - 1.0) / spec.eps * plan.sum() / n**2
    unconfounded = marginal_objective(losses, dist, eta, plan, replace(spec, delta=0.0))
    assert val - unconfounded == pytest.approx(penalty, rel=1e-9)


def test_resolve_eps_default_policy():
    losses = np.array([0.5, 1.5, 1.0])
    spec = resolve_eps(RobustSpec(alpha0=0.25, p=2.0), losses)
    assert floor_value(spec) / spec.alpha0 == pytest.approx(1e-3 * losses.mean())
    # explicit eps is left alone
    spec2_ = resolve_eps(RobustSpec(alpha0=0.25, p=2.0, eps=0.7), losses)
    assert spec2_.eps == 0.7
