import gc
import tracemalloc
import weakref

import numpy as np
import pytest

import marginaldro.objectives as objectives
import marginaldro.optim as optim
import marginaldro.tuning as tuning
from marginaldro.datagen import SimSpec, generate, generate_replicates
from marginaldro.duals import RobustSpec, replicate_worst_case
from marginaldro.evaluation import loss_matrix
from marginaldro.model import ROW_BLOCK, Dataset, ParamVector
from marginaldro.optim import DivergenceError, OptimizerConfig, TrainResult
from marginaldro.tuning import cross_validate, replicate_score


def setup_data(seed=0, n=300):
    ds = generate(SimSpec(n=n, d=1, variant="simdist", seed=seed))
    holdout = generate_replicates(SimSpec(n=200, d=1, variant="simdist", seed=seed + 1),
                                  m=20)
    return ds, holdout


OPT = OptimizerConfig(objective="marginal", max_iters=120, step0=0.5, fit_intercept=False)
SPEC = RobustSpec(alpha0=0.3, p=2.0)


def test_singleton_grid_selected():
    ds, holdout = setup_data()
    result = cross_validate(ds, "absolute_deviation", SPEC, OPT, [7.0], holdout)
    assert result.best_ratio == 7.0
    assert len(result.entries) == 1


def test_argmin_contract():
    ds, holdout = setup_data(seed=2)
    result = cross_validate(ds, "absolute_deviation", SPEC, OPT, [0.1, 1.0, 10.0],
                            holdout, score_alpha0=0.05)
    best_score = min(e.score for e in result.entries if e.error is None)
    chosen = [e for e in result.entries if e.lipschitz_ratio == result.best_ratio][0]
    assert chosen.score == best_score
    # the winner's model really scores best on the held-out replicate estimate
    assert replicate_score(result.best_result, holdout, "absolute_deviation",
                           0.05) == pytest.approx(best_score)


def fitted(params):
    """A TrainResult holding ``params``, all ``replicate_score`` reads."""
    return TrainResult(params, objective=0.0, trace=np.zeros(0))


@pytest.mark.parametrize("alpha0", [0.05, 0.3, 1.0])
@pytest.mark.parametrize("n", [1, ROW_BLOCK - 1, ROW_BLOCK, 2 * ROW_BLOCK + 1, 1000])
@pytest.mark.parametrize("kind", ["absolute_deviation", "logistic", "zero_one"])
def test_replicate_score_has_the_loss_matrix_bits(kind, n, alpha0):
    """The score equals the CVaR of the row means of the whole n x m loss matrix."""
    rng = np.random.default_rng(n)
    reps = rng.normal(size=(n, 7))
    if kind != "absolute_deviation":
        reps = np.where(reps > 0.3, 1.0, -1.0)
    holdout = Dataset(rng.normal(size=(n, 3)), reps[:, 0], replicates=reps)
    params = ParamVector([0.9, -0.3, 0.2], 0.05)
    want = replicate_worst_case(
        loss_matrix(kind, params, holdout.features, holdout.replicates), alpha0)
    assert replicate_score(fitted(params), holdout, kind, alpha0) == want


def test_replicate_score_peak_memory_below_half_a_loss_matrix():
    """The held-out score makes no n x m loss matrix."""
    holdout = generate_replicates(SimSpec(n=10**5, d=2, variant="simdist", seed=4), m=50)
    tracemalloc.start()
    try:
        replicate_score(fitted(ParamVector([0.8, 0.1])), holdout, "absolute_deviation", 0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * holdout.replicates.nbytes, peak / holdout.replicates.nbytes


def test_tie_breaks_toward_smaller_ratio():
    # duplicate covariate rows make transport free, so the ratio cannot matter
    ds = Dataset(np.ones((40, 1)), np.linspace(0, 2, 40))
    holdout = Dataset(np.ones((30, 1)), np.linspace(0, 2, 30),
                      replicates=np.linspace(0, 2, 30)[:, None])
    result = cross_validate(ds, "absolute_deviation", SPEC, OPT, [50.0, 2.0], holdout)
    scores = {e.lipschitz_ratio: e.score for e in result.entries}
    assert scores[2.0] == scores[50.0]
    assert result.best_ratio == 2.0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_all_failures_raise():
    ds, holdout = setup_data(seed=3)
    bad_opt = OptimizerConfig(objective="marginal", max_iters=30, step0=1e308)
    with pytest.raises(RuntimeError, match="every grid point failed"):
        cross_validate(ds, "absolute_deviation", SPEC, bad_opt, [1.0, 10.0], holdout)


def test_partial_failures_recorded(monkeypatch):
    real_train = tuning.train

    def diverging_at_one(dataset, kind, spec, opt):
        if spec.lipschitz_ratio == 1.0:
            raise DivergenceError(3, "plan")
        return real_train(dataset, kind, spec, opt)

    monkeypatch.setattr(tuning, "train", diverging_at_one)
    ds, holdout = setup_data(seed=4)
    result = cross_validate(ds, "absolute_deviation", SPEC, OPT, [1.0, 5.0], holdout)
    errors = {e.lipschitz_ratio: e.error for e in result.entries}
    assert "diverged" in errors[1.0] and errors[5.0] is None
    assert np.isnan(result.entries[0].score)
    assert result.best_ratio == 5.0


def test_empty_grid_rejected():
    ds, holdout = setup_data(seed=6)
    with pytest.raises(ValueError):
        cross_validate(ds, "absolute_deviation", SPEC, OPT, [], holdout)


def test_bug_inside_train_propagates(monkeypatch):
    # only numeric failures are recorded as failed grid points
    def broken(*args, **kwargs):
        raise TypeError("not a numeric failure")

    monkeypatch.setattr(optim, "loss_values_and_slopes", broken)
    ds, holdout = setup_data(seed=7)
    with pytest.raises(TypeError, match="not a numeric failure"):
        cross_validate(ds, "absolute_deviation", SPEC, OPT, [1.0, 10.0], holdout)


def test_value_error_inside_train_propagates(monkeypatch):
    """A ValueError from one grid point's training is a bug, not a failed point."""
    real_train, calls = tuning.train, []

    def value_error_at_ten(dataset, kind, spec, opt):
        calls.append(spec.lipschitz_ratio)
        if spec.lipschitz_ratio == 10.0:
            raise ValueError("not a numeric failure")
        return real_train(dataset, kind, spec, opt)

    monkeypatch.setattr(tuning, "train", value_error_at_ten)
    ds, holdout = setup_data(seed=7, n=60)
    with pytest.raises(ValueError, match="not a numeric failure"):
        cross_validate(ds, "absolute_deviation", SPEC, OPT, [1.0, 10.0, 100.0], holdout)
    assert calls == [1.0, 10.0]


@pytest.mark.parametrize("best_at", [1, 2])
def test_only_the_best_finished_result_is_held(monkeypatch, best_at):
    """While grid point k trains, at most one earlier TrainResult is alive.

    Scores are fixed so that grid point ``best_at`` (1-based) is the best: at 1
    every later result is dropped, at 2 the held best is also replaced once."""
    real_train, real_score = tuning.train, tuning.replicate_score
    grid = [0.1, 1.0, 10.0, 100.0]
    results, alive_at_start, scored = [], [], []

    def probed_train(dataset, kind, spec, opt):
        gc.collect()
        alive_at_start.append(sum(ref() is not None for ref in results))
        result = real_train(dataset, kind, spec, opt)
        results.append(weakref.ref(result))
        return result

    def fixed_score(*args):
        real_score(*args)
        k = len(scored) + 1  # grid points are scored in ascending order
        scored.append(k)
        return 0.0 if k == best_at else float(k)

    monkeypatch.setattr(tuning, "train", probed_train)
    monkeypatch.setattr(tuning, "replicate_score", fixed_score)
    ds, holdout = setup_data(seed=8, n=60)
    opt = OptimizerConfig(objective="marginal", max_iters=10, fit_intercept=False)
    result = cross_validate(ds, "absolute_deviation", SPEC, opt, grid, holdout)
    assert result.best_ratio == grid[best_at - 1]
    assert len(alive_at_start) == 4 and max(alive_at_start) <= 1
    gc.collect()
    assert [ref() for ref in results if ref() is not None] == [result.best_result]


def _no_training(*args):
    raise AssertionError("a grid point was trained")


@pytest.mark.parametrize("grid, kwargs, named", [
    pytest.param([1.0, float("nan")], {}, "lipschitz_ratio must be finite", id="nan-ratio"),
    pytest.param([-1.0, 5.0], {}, "lipschitz_ratio must be finite and >= 0",
                 id="negative-ratio"),
    pytest.param([1.0, 10.0], {"score_alpha0": 0.0}, "alpha0 must be in \\(0, 1\\]",
                 id="score-alpha0-0"),
    pytest.param([1.0, 10.0], {"score_alpha0": 1.5}, "alpha0 must be in \\(0, 1\\]",
                 id="score-alpha0-1.5"),
    pytest.param([1.0, 10.0], {"score_alpha0": float("nan")}, "alpha0 must be in \\(0, 1\\]",
                 id="score-alpha0-nan"),
    pytest.param([1.0, 10.0], {"jobs": 0}, "grid points run in turn", id="jobs-0"),
    pytest.param([1.0, 10.0], {"jobs": 2}, "grid points run in turn", id="jobs-2"),
])
def test_bad_grid_point_score_alpha0_or_jobs_rejected_before_training(monkeypatch, grid,
                                                                      kwargs, named):
    monkeypatch.setattr(tuning, "train", _no_training)
    ds, holdout = setup_data(seed=9, n=40)
    with pytest.raises(ValueError, match=named):
        cross_validate(ds, "absolute_deviation", SPEC, OPT, grid, holdout, **kwargs)


def test_p1_bounded_holder_rejected_before_training(monkeypatch):
    monkeypatch.setattr(tuning, "train", _no_training)
    ds, holdout = setup_data(seed=9, n=40)
    opt = OptimizerConfig(objective="bounded_holder", max_iters=5)
    with pytest.raises(ValueError, match="bounded_holder needs p > 1"):
        cross_validate(ds, "absolute_deviation", RobustSpec(alpha0=0.3, p=1.0), opt,
                       [1.0, 10.0], holdout)


def test_untrainable_loss_rejected_before_training(monkeypatch):
    monkeypatch.setattr(tuning, "train", _no_training)
    ds, holdout = setup_data(seed=9, n=40)
    with pytest.raises(ValueError, match="unknown loss kind 'zero_one'"):
        cross_validate(ds, "zero_one", SPEC, OPT, [1.0, 10.0], holdout)


@pytest.mark.parametrize("objective", ["erm", "joint_cvar", "rkhs"])
def test_objective_without_lipschitz_ratio_rejected_before_training(monkeypatch, objective):
    monkeypatch.setattr(tuning, "train", _no_training)
    ds, holdout = setup_data(seed=9, n=40)
    opt = OptimizerConfig(objective=objective, max_iters=5)
    with pytest.raises(ValueError, match=f"{objective} does not read lipschitz_ratio"):
        cross_validate(ds, "absolute_deviation", SPEC, opt, [0.1, 1.0, 10.0], holdout)


def test_holdout_without_replicates_rejected_before_training(monkeypatch):
    monkeypatch.setattr(tuning, "train", _no_training)
    ds, _ = setup_data(seed=9, n=40)
    with pytest.raises(ValueError, match="holdout dataset has no replicates"):
        cross_validate(ds, "absolute_deviation", SPEC, OPT, [0.1, 1.0, 10.0], ds)


def test_holdout_of_another_feature_dimension_rejected_before_training(monkeypatch):
    monkeypatch.setattr(tuning, "train", _no_training)
    ds = generate(SimSpec(n=40, d=2, variant="simdist", seed=9))
    _, holdout = setup_data(seed=9, n=40)
    with pytest.raises(ValueError, match="holdout feature dimension 1 does not match "
                                         "training feature dimension 2"):
        cross_validate(ds, "absolute_deviation", SPEC, OPT, [0.1, 1.0, 10.0], holdout)


def test_memory_error_propagates_from_the_first_grid_point(monkeypatch):
    """Too little memory is not a numeric failure: the first grid point raises it."""
    real_train, calls = tuning.train, []

    def counted_train(*args):
        calls.append(args)
        return real_train(*args)

    monkeypatch.setattr(tuning, "train", counted_train)
    monkeypatch.setattr(objectives, "MEMORY_BYTES", 1)
    ds, holdout = setup_data(seed=10, n=40)
    with pytest.raises(MemoryError, match="n = 40 needs"):
        cross_validate(ds, "absolute_deviation", SPEC, OPT, [1.0, 10.0], holdout)
    assert len(calls) == 1
