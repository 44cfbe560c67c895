from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

import marginaldro.objectives as objectives
import marginaldro.optim as optim
from marginaldro.datagen import SimSpec, generate
from marginaldro.duals import (OBJECTIVES, PLAN_OBJECTIVES, SPEC_FIELDS, RobustSpec, cvar_dual,
                               pnorm_dual)
from marginaldro.model import Dataset, ParamVector, loss_residual_slopes, loss_values
from marginaldro.optim import DivergenceError, ObjectiveFunction, OptimizerConfig, train


def linear_dataset(n=60, slope=2.0):
    x = np.linspace(-1.0, 1.0, n)
    return Dataset(x[:, None], slope * x)


def test_erm_recovers_noiseless_line():
    result = train(linear_dataset(), "absolute_deviation", RobustSpec(alpha0=0.5),
                   OptimizerConfig(objective="erm", max_iters=500, step0=0.5,
                                   fit_intercept=False))
    assert result.params.theta[0] == pytest.approx(2.0, abs=1e-2)


def test_joint_cvar_at_alpha1_matches_erm():
    ds = generate(SimSpec(n=300, d=1, variant="toy_1d", seed=5))
    opt = OptimizerConfig(objective="erm", max_iters=400, step0=0.5, fit_intercept=False)
    erm = train(ds, "absolute_deviation", RobustSpec(alpha0=1.0), opt)
    from dataclasses import replace

    cvar = train(ds, "absolute_deviation", RobustSpec(alpha0=1.0),
                 replace(opt, objective="joint_cvar"))
    assert cvar.params.theta[0] == pytest.approx(erm.params.theta[0], abs=0.05)
    # objective values agree too: CVaR at alpha0 = 1 is the mean
    assert cvar.objective == pytest.approx(erm.objective, abs=5e-3)


def test_joint_refresh_eta_is_the_dual_minimizer():
    """The joint objectives refresh eta to the exact minimizer at the current
    losses: cvar_dual's threshold for joint_cvar, pnorm_dual's for joint_pnorm."""
    assert cvar_dual([1, 2, 3, 4], 0.5)[1] == pytest.approx(3.0)
    assert cvar_dual([2.0, 2.0, 2.0], 0.4)[1] == pytest.approx(2.0)
    v = np.array([1.0, 2.0, 3.0])
    risk, eta = pnorm_dual(v, 0.4, 2.0)
    etas = np.linspace(0.0, 3.0, 3001)
    duals = [np.sqrt(np.mean(np.maximum(v - e, 0.0) ** 2)) / 0.4 + e for e in etas]
    assert risk <= min(duals) + 1e-9
    # at alpha0 = 1 the dual objective is flat in eta below the minimum value,
    # so the returned threshold must attain the optimum (the mean)
    v = np.array([1.0, 2.0, 3.0, 4.0])
    eta = cvar_dual(v, 1.0)[1]
    value = np.maximum(v - eta, 0.0).mean() + eta
    assert value == pytest.approx(v.mean())
    # with one iteration, train returns the eta refreshed at w = 0
    ds = linear_dataset()
    losses = loss_values("absolute_deviation", ParamVector(np.zeros(1)), ds.features, ds.labels)
    spec = RobustSpec(alpha0=0.3, p=1.5)
    for objective, expected in (("joint_cvar", cvar_dual(losses, 0.3)[1]),
                                ("joint_pnorm", pnorm_dual(losses, 0.3, 1.5)[1])):
        result = train(ds, "absolute_deviation", spec,
                       OptimizerConfig(objective=objective, max_iters=1))
        assert result.eta == expected


def test_trace_is_nonincreasing_and_deterministic():
    ds = generate(SimSpec(n=200, d=2, variant="simdist", seed=7))
    spec = RobustSpec(alpha0=0.3, p=2.0, lipschitz_ratio=3.0)
    opt = OptimizerConfig(objective="marginal", max_iters=120, step0=0.4)
    r1 = train(ds, "absolute_deviation", spec, opt)
    r2 = train(ds, "absolute_deviation", spec, opt)
    assert np.array_equal(r1.trace, r2.trace)
    assert np.all(np.diff(r1.trace) <= 0.0)
    assert np.array_equal(r1.params.theta, r2.params.theta)


def test_best_iterate_close_to_long_run():
    ds = generate(SimSpec(n=200, d=1, variant="toy_1d", seed=9))
    spec = RobustSpec(alpha0=0.3, p=2.0, lipschitz_ratio=3.0)
    # exact-eta objectives settle to within 1 percent of a 10x reference run
    for objective in ("erm", "joint_cvar", "joint_pnorm"):
        short = train(ds, "absolute_deviation", spec,
                      OptimizerConfig(objective=objective, max_iters=300, step0=0.5,
                                      fit_intercept=False))
        long = train(ds, "absolute_deviation", spec,
                     OptimizerConfig(objective=objective, max_iters=3000, step0=0.5,
                                     fit_intercept=False))
        assert short.objective <= 1.01 * long.objective + 1e-9
    # the transport plan block has the usual slow subgradient tail; guard it
    # with a coarser factor (its 10x gap sits near 9 percent at this horizon)
    short = train(ds, "absolute_deviation", spec,
                  OptimizerConfig(objective="marginal", max_iters=300, step0=0.5,
                                  fit_intercept=False))
    long = train(ds, "absolute_deviation", spec,
                 OptimizerConfig(objective="marginal", max_iters=3000, step0=0.5,
                                 fit_intercept=False))
    assert short.objective <= 1.12 * long.objective + 1e-9


def test_marginal_large_ratio_matches_joint_pnorm():
    ds = generate(SimSpec(n=400, d=1, variant="toy_1d", seed=3))
    opt = OptimizerConfig(objective="joint_pnorm", max_iters=400, step0=0.5,
                          fit_intercept=False)
    joint = train(ds, "absolute_deviation", RobustSpec(alpha0=0.3, p=2.0), opt)
    from dataclasses import replace

    marg = train(ds, "absolute_deviation",
                 RobustSpec(alpha0=0.3, p=2.0, lipschitz_ratio=1e6, eps=1e-5),
                 replace(opt, objective="marginal"))
    # same training risk measured on the joint dual, within 2 percent
    from marginaldro.model import loss_values

    def joint_risk(params):
        losses = loss_values("absolute_deviation", params, ds.features, ds.labels)
        return pnorm_dual(losses, 0.3, 2.0)[0]

    assert joint_risk(marg.params) == pytest.approx(joint_risk(joint.params), rel=0.02)


def test_eta_stays_projected(monkeypatch):
    """Each eta the trainer evaluates lies in [0, the largest loss of the
    previous iterate]; the first, the CVaR threshold at w = 0, in [0, the
    largest loss at w = 0]."""
    real_value_grad, seen = ObjectiveFunction.value_grad, []

    def recorded(fn, w, eta=None, plan=None, beta=None):
        losses = fn.losses(w) if fn.last_losses is None else fn.last_losses
        seen.append((eta, losses.max()))
        return real_value_grad(fn, w, eta, plan, beta)

    monkeypatch.setattr(ObjectiveFunction, "value_grad", recorded)
    ds = generate(SimSpec(n=150, d=1, variant="toy_1d", seed=2))
    spec = RobustSpec(alpha0=0.3, p=2.0, lipschitz_ratio=1.0)
    # step0 = 2 pushes eta past the largest loss, so the projection acts
    result = train(ds, "absolute_deviation", spec,
                   OptimizerConfig(objective="marginal", max_iters=80, step0=2.0))
    assert len(seen) == 80
    assert all(0.0 <= eta <= bound for eta, bound in seen)
    assert any(eta == bound for eta, bound in seen)
    assert result.eta in [eta for eta, _ in seen]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_reports_iteration():
    """The error names the first non-finite block, else the objective."""
    config = OptimizerConfig(objective="erm", max_iters=50, step0=1e308)
    # features in [-4, 4]: the first step puts w[0] past the float64 range
    wide = Dataset(4.0 * linear_dataset().features, linear_dataset().labels)
    with pytest.raises(DivergenceError) as err:
        train(wide, "absolute_deviation", RobustSpec(alpha0=0.5), config)
    assert err.value.iteration > 0
    assert err.value.block == "w"
    assert str(err.value).endswith(": w is not finite")
    # features in [-1, 1]: w[0] is about 5e307, finite, but the mean loss overflows
    with pytest.raises(DivergenceError) as err:
        train(linear_dataset(), "absolute_deviation", RobustSpec(alpha0=0.5), config)
    assert err.value.iteration > 0
    assert err.value.block == "objective"
    # the plan objectives step the plan by the same huge step
    with pytest.raises(DivergenceError) as err:
        train(linear_dataset(), "absolute_deviation", RobustSpec(alpha0=0.5),
              replace(config, objective="marginal"))
    assert err.value.block == "plan"


def test_optimizer_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(objective="nope")
    with pytest.raises(ValueError):
        OptimizerConfig(max_iters=0)
    for max_iters in (3.0, 1e4, True):  # a float fails in train only after its setup
        with pytest.raises(ValueError, match="max_iters must be an integer >= 1"):
            OptimizerConfig(max_iters=max_iters)
    assert OptimizerConfig(max_iters=np.int64(3)).max_iters == 3
    with pytest.raises(ValueError):
        OptimizerConfig(step0=0.0)
    # a truthy string or number would otherwise fit an intercept
    for fit_intercept in ("no", 0, 1.0, None):
        with pytest.raises(ValueError, match="fit_intercept must be a bool"):
            OptimizerConfig(fit_intercept=fit_intercept)
    assert not OptimizerConfig(fit_intercept=np.bool_(False)).fit_intercept


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("field", ["lipschitz_ratio", "eps", "delta", "step0"])
def test_non_finite_hyperparameters_rejected(field, value):
    """NaN fails every comparison, so a range check alone would let it through."""
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        if field == "step0":
            OptimizerConfig(**{field: value})
        else:
            RobustSpec(alpha0=0.3, **{field: value})


@pytest.mark.parametrize("objective", ["joint_pnorm", "marginal", "marginal_confounded",
                                       "bounded_holder"])
def test_p1_rejected_before_distances(monkeypatch, objective):
    """The objectives whose dual divides by p - 1 refuse p = 1 up front, and so
    does bounded_holder, whose cost ||x_i - x_j||^0 = 1 ignores L/eps."""
    def no_distances(*args):
        raise AssertionError("distance matrix built")

    monkeypatch.setattr(optim, "pairwise_distance_power", no_distances)
    ds = generate(SimSpec(n=12, d=1, variant="toy_1d", seed=0))
    spec = RobustSpec(alpha0=0.2, p=1.0, eps=1.0)
    with pytest.raises(ValueError, match="p > 1.*joint_cvar"):
        train(ds, "absolute_deviation", spec, OptimizerConfig(objective=objective, max_iters=2))
    if objective == "marginal":
        losses, dist = np.arange(4.0), np.ones((4, 4))
        for minimizer_spec in (spec, replace(spec, delta=0.05)):
            with pytest.raises(ValueError, match="p > 1.*joint_cvar"):
                objectives.minimize_plan(losses, dist, 0.0, minimizer_spec, iters=2)
            with pytest.raises(ValueError, match="p > 1.*joint_cvar"):
                objectives.minimize_eta_plan(losses, dist, minimizer_spec, iters=2)
    # p = 1 is the joint CVaR objective, which still trains
    train(ds, "absolute_deviation", spec, OptimizerConfig(objective="joint_cvar", max_iters=2))


@pytest.mark.parametrize("objective", ["marginal", "marginal_confounded", "bounded_holder",
                                       "rkhs"])
def test_untrainable_loss_rejected_before_distances(monkeypatch, objective):
    """A loss kind train cannot take is refused before any n x n build."""
    def no_distances(*args):
        raise AssertionError("distance matrix built")

    monkeypatch.setattr(optim, "pairwise_distance_power", no_distances)
    monkeypatch.setattr(optim, "gram", no_distances)
    x = np.linspace(-1.0, 1.0, 12)[:, None]
    ds = Dataset(x, np.where(x[:, 0] >= 0, 1.0, -1.0))
    with pytest.raises(ValueError, match="unknown loss kind 'zero_one'"):
        train(ds, "zero_one", RobustSpec(alpha0=0.3, p=2.0),
              OptimizerConfig(objective=objective, max_iters=2))


def test_marginal_takes_its_confounding_from_delta():
    """delta alone sets the penalty: marginal at delta > 0 is marginal_confounded."""
    ds = generate(SimSpec(n=80, d=2, variant="confounded", seed=0))

    def fit(objective, delta):
        spec = RobustSpec(alpha0=0.1, p=2.0, lipschitz_ratio=10.0, eps=0.05, delta=delta)
        return train(ds, "absolute_deviation", spec,
                     OptimizerConfig(objective=objective, max_iters=40, step0=0.5,
                                     fit_intercept=False))

    confounded, alias, plain = (fit("marginal", 0.05), fit("marginal_confounded", 0.05),
                                fit("marginal", 0.0))
    for a, b in ((confounded.trace, alias.trace), (confounded.plan, alias.plan),
                 (confounded.params.theta, alias.params.theta)):
        assert np.array_equal(a, b)
    assert confounded.eta == alias.eta
    assert not np.array_equal(confounded.trace, plain.trace)


def test_memory_is_checked_before_n_by_n_arrays(monkeypatch):
    """Dense objectives raise MemoryError before any n x n array when their
    bytes exceed the machine's memory, and train at the real figure."""
    # float64 at n = 12: the plan, its spare buffer and the folded penalty,
    # plus the one float64 array of the distance build
    assert optim.dense_plan_bytes(12) == 12 * 12 * (3 * 8 + 8)
    # float32 plans from FLOAT32_PLAN_N on
    assert optim.dense_plan_bytes(20001) == 20001**2 * (3 * 4 + 8)

    def no_n_by_n(*args):
        raise AssertionError("an n x n array was built")

    ds = generate(SimSpec(n=40, d=2, variant="simdist", seed=0))
    spec = RobustSpec(alpha0=0.3, p=2.0)
    # rkhs builds its Gram matrix in the float64 distance matrix, beside a
    # float64 copy of the upper triangle for the median bandwidth
    for objective, nbytes in (("marginal", 40 * 40 * 32), ("bounded_holder", 40 * 40 * 32),
                              ("rkhs", 40 * 40 * 8 + 40 * 39 // 2 * 8)):
        opt = OptimizerConfig(objective=objective, max_iters=3)
        with monkeypatch.context() as m:
            m.setattr(optim, "pairwise_distance_power", no_n_by_n)
            m.setattr(optim, "gram", no_n_by_n)
            m.setattr(objectives, "MEMORY_BYTES", nbytes - 1)
            with pytest.raises(MemoryError, match=f"n = 40 needs {nbytes:,} bytes.*"
                                                  f" {nbytes - 1:,} bytes"):
                train(ds, "absolute_deviation", spec, opt)
        assert np.isfinite(train(ds, "absolute_deviation", spec, opt).objective)


def test_spec_fields_are_the_fields_train_reads():
    """Changing a RobustSpec field moves the train trace iff SPEC_FIELDS lists it."""
    ds = generate(SimSpec(n=60, d=2, variant="confounded", seed=0))
    base = RobustSpec(alpha0=0.3, p=2.0, lipschitz_ratio=2.0, eps=0.05, delta=0.05)
    changed = {"alpha0": 0.5, "p": 1.5, "lipschitz_ratio": 5.0, "eps": 0.2, "delta": 0.3}
    assert set().union(*SPEC_FIELDS.values()) == set(changed)
    for objective in OBJECTIVES:
        opt = OptimizerConfig(objective=objective, max_iters=30)
        trace = train(ds, "absolute_deviation", base, opt).trace
        for field, value in changed.items():
            moved = train(ds, "absolute_deviation", replace(base, **{field: value}), opt).trace
            assert (not np.array_equal(moved, trace)) == (field in SPEC_FIELDS[objective]), \
                (objective, field)


def test_rkhs_and_bounded_holder_train():
    ds = generate(SimSpec(n=120, d=1, variant="toy_1d", seed=4))
    spec = RobustSpec(alpha0=0.3, p=2.0, lipschitz_ratio=1.0)
    for objective in ("rkhs", "bounded_holder"):
        result = train(ds, "absolute_deviation", spec,
                       OptimizerConfig(objective=objective, max_iters=150, step0=0.3,
                                       fit_intercept=False))
        assert np.isfinite(result.objective)
        assert np.all(np.diff(result.trace) <= 0.0)
        if objective == "bounded_holder":
            assert result.plan.min() >= 0.0
        else:
            assert result.beta is not None


def test_objective_function_value_matches_train_trace():
    """The training path's value is the public reference surrogate's."""
    ds = generate(SimSpec(n=60, d=2, variant="simdist", seed=8))
    spec = RobustSpec(alpha0=0.4, p=2.0, lipschitz_ratio=2.0)
    fn = ObjectiveFunction(ds, "absolute_deviation", spec, "marginal")
    w = np.array([0.2, -0.1, 0.05])
    plan = np.abs(np.random.default_rng(0).normal(size=(60, 60))) * 0.2
    v1 = fn.value_grad(w, 0.3, plan)[0]
    from marginaldro.model import ParamVector
    from marginaldro.objectives import robust_surrogate

    assert robust_surrogate(ParamVector(w[:-1], w[-1]), 0.3, plan, ds, "absolute_deviation",
                            fn.spec) == pytest.approx(v1)


def test_robust_surrogate_takes_the_eps_train_resolved():
    """The reference surrogate resolves no eps of its own: at train's best
    iterate it needs train's spec, and then gives train's objective.  Eps
    resolved at the trained params instead of the zero model would read
    1.62198 here, not 1.62116."""
    ds = generate(SimSpec(n=200, d=1, variant="toy_1d", seed=0))
    spec = RobustSpec(alpha0=0.3, p=1.5, lipschitz_ratio=2.0)
    result = train(ds, "absolute_deviation", spec,
                   OptimizerConfig(objective="marginal", max_iters=200, step0=0.5,
                                   fit_intercept=False))
    best = (result.params, result.eta, result.plan, ds, "absolute_deviation")
    with pytest.raises(ValueError, match="spec.eps is unset"):
        objectives.robust_surrogate(*best, spec)
    fn_spec = ObjectiveFunction(ds, "absolute_deviation", spec, "marginal").spec
    assert objectives.robust_surrogate(*best, fn_spec) == pytest.approx(result.objective,
                                                                       rel=1e-12)


def test_plan_step_matches_materialized_step():
    """The fused plan update is max(plan - step n^2 g_plan, 0) on the gradient."""
    rng = np.random.default_rng(12)
    n, step = 30, 0.3
    ds = generate(SimSpec(n=n, d=2, variant="confounded", seed=1))
    w = np.array([0.3, -0.2, 0.1])
    for objective in PLAN_OBJECTIVES:
        # eps = 1e3 puts the floor far above the objective; bounded_holder has none
        for eps in (0.05, 1e3) if objective != "bounded_holder" else (0.05,):
            spec = RobustSpec(alpha0=0.4, p=2.0, lipschitz_ratio=1.5, eps=eps, delta=0.3)
            fn = ObjectiveFunction(ds, "absolute_deviation", spec, objective)
            plan = np.abs(rng.normal(size=(n, n))) * 0.2
            plan_vec = fn.value_grad(w, 0.2, plan)[3]
            g_plan = fn.transport.plan_grad(plan_vec)
            assert g_plan.dtype == np.float64
            fused = plan.copy()
            fn.plan_step(fused, plan_vec, step)
            if eps == 1e3:
                assert not g_plan.any()
                assert np.array_equal(fused, plan)
            else:
                assert not np.array_equal(fused, plan)
                expected = np.maximum(plan - step * n * n * g_plan, 0.0)
                np.testing.assert_allclose(fused, expected, rtol=1e-12, atol=1e-12)


def test_train_bitwise_independent_of_worker_count(monkeypatch):
    """Plan units reduce in row order, so one or two workers give the same bits."""
    spec = RobustSpec(alpha0=0.3, p=2.0, lipschitz_ratio=2.0, delta=0.05)
    toy = generate(SimSpec(n=1100, d=1, variant="toy_1d", seed=3))
    cases = [(generate(SimSpec(n=300, d=2, variant="confounded", seed=3)), spec, 40,
              PLAN_OBJECTIVES),
             (toy, spec, 8, ("marginal",)),
             # most rows idle: the live rows are stepped in compacted groups
             (toy, replace(spec, lipschitz_ratio=100.0, delta=0.0), 40, ("marginal",))]
    for ds, spec, iters, names in cases:
        for objective in names:
            runs = []
            for workers in (1, 2):
                with ThreadPoolExecutor(1) as pool:
                    monkeypatch.setattr(objectives, "WORKERS", workers)
                    monkeypatch.setattr(objectives, "_POOL", pool)
                    runs.append(train(ds, "absolute_deviation", spec,
                                      OptimizerConfig(objective=objective, max_iters=iters)))
            one, two = runs
            assert np.array_equal(one.trace, two.trace)
            assert np.array_equal(one.params.theta, two.params.theta)
            assert one.params.intercept == two.params.intercept and one.eta == two.eta
            assert one.plan.dtype == two.plan.dtype and np.array_equal(one.plan, two.plan)


def test_train_matches_a_plain_dense_plan_step(monkeypatch):
    """The package's plan pass, which skips idle rows, trains to the bits of
    a plain dense step: the broadcast update, ``plan_adjustments`` and a
    float64 penalty; objectives agree to rounding of the penalty's sum."""
    def plain_step(self, plan, vec, step, keep=None):
        if vec is None:
            return plan
        n = plan.shape[0]
        u = (step * n * n * vec).astype(self.dtype)
        return np.maximum(((plan + u[:, None]) - u[None, :])
                          - self.pen_dist * self.dtype.type(step * n * n), 0.0)

    def plain_statistics(self, plan):
        return (objectives.plan_adjustments(plan),
                float(np.sum(self.pen_dist.astype(np.float64) * plan.astype(np.float64))))

    toy = generate(SimSpec(n=1100, d=1, variant="toy_1d", seed=0))
    confounded = generate(SimSpec(n=300, d=2, variant="confounded", seed=1))
    cases = [(toy, "marginal", RobustSpec(alpha0=0.3, p=2.0, lipschitz_ratio=100.0)),
             (confounded, "marginal_confounded",
              RobustSpec(alpha0=0.1, p=2.0, lipschitz_ratio=10.0, eps=0.05, delta=0.05)),
             (confounded, "bounded_holder", RobustSpec(alpha0=0.1, p=1.5, lipschitz_ratio=10.0))]
    for ds, objective, spec in cases:
        opt = OptimizerConfig(objective=objective, max_iters=40, step0=0.5, fit_intercept=False)
        fused = train(ds, "absolute_deviation", spec, opt)
        with monkeypatch.context() as patch:
            patch.setattr(objectives.DensePlanStep, "plan_step", plain_step)
            patch.setattr(objectives.DensePlanStep, "statistics", plain_statistics)
            plain = train(ds, "absolute_deviation", spec, opt)
        assert np.array_equal(fused.params.theta, plain.params.theta), objective
        assert fused.params.intercept == plain.params.intercept and fused.eta == plain.eta
        assert fused.plan.dtype == plain.plan.dtype
        assert fused.plan.tobytes() == plain.plan.tobytes(), objective
        np.testing.assert_allclose(fused.trace, plain.trace, rtol=1e-12, atol=0.0)


def test_value_grad_reads_an_edited_plan_afresh():
    """A plan the caller passes in is not cached: editing it moves the value."""
    ds = generate(SimSpec(n=40, d=2, variant="confounded", seed=2))
    w = np.array([0.3, -0.2, 0.1])
    plan = np.abs(np.random.default_rng(5).normal(size=(40, 40))) * 0.2
    for objective in PLAN_OBJECTIVES:
        spec = RobustSpec(alpha0=0.4, p=2.0, lipschitz_ratio=1.5, eps=0.05, delta=0.3)
        fn = ObjectiveFunction(ds, "absolute_deviation", spec, objective)
        edited = plan.copy()
        fn.value_grad(w, 0.2, edited)
        edited *= 3.0
        fresh = ObjectiveFunction(ds, "absolute_deviation", spec, objective)
        assert fn.value_grad(w, 0.2, edited)[0] == fresh.value_grad(w, 0.2, edited)[0]


def test_returned_plan_is_the_best_iterate():
    """The objective at the returned (w, eta, plan) is the reported best value."""
    ds = generate(SimSpec(n=200, d=2, variant="confounded", seed=5))
    spec = RobustSpec(alpha0=0.3, p=2.0, lipschitz_ratio=2.0, delta=0.05)
    for objective in PLAN_OBJECTIVES:
        result = train(ds, "absolute_deviation", spec,
                       OptimizerConfig(objective=objective, max_iters=60, step0=2.0))
        # the last step did not improve, so a swapped buffer would show
        assert result.trace[-1] == result.trace[-2]
        fn = ObjectiveFunction(ds, "absolute_deviation", spec, objective)
        w = np.append(result.params.theta, result.params.intercept)
        assert fn.value_grad(w, result.eta, result.plan)[0] == result.objective


def _two_call_losses_and_slopes(kind, params, features, labels):
    return (loss_values(kind, params, features, labels),
            loss_residual_slopes(kind, params, features, labels))


def test_value_grad_one_prediction_matches_two_calls(monkeypatch):
    """Losses and slopes from one prediction give value_grad's old bits."""
    n = 120
    ds = generate(SimSpec(n=n, d=2, variant="confounded", seed=4))
    signs = Dataset(ds.features, np.where(ds.labels > np.median(ds.labels), 1.0, -1.0))
    cases = ([(ds, "absolute_deviation", o) for o in OBJECTIVES]
             + [(signs, "logistic", o) for o in ("erm", "marginal")])
    spec = RobustSpec(alpha0=0.3, p=2.0, lipschitz_ratio=2.0, delta=0.05)
    rng = np.random.default_rng(9)
    for data, kind, objective in cases:
        w = rng.normal(size=3) * 0.5
        args = (w, 0.2, np.abs(rng.normal(size=(n, n))) * 0.2, rng.normal(size=n) * 0.1)
        fused = ObjectiveFunction(data, kind, spec, objective).value_grad(*args)
        with monkeypatch.context() as m:
            m.setattr(optim, "loss_values_and_slopes", _two_call_losses_and_slopes)
            split = ObjectiveFunction(data, kind, spec, objective).value_grad(*args)
        for got, want in zip(fused, split):
            assert (got is None) == (want is None), objective
            if want is not None:
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), objective
