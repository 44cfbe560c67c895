import gc
import itertools
import threading
import weakref

import numpy as np
import pytest

import marginaldro.optim as optim
import marginaldro.tuning as tuning
from marginaldro.datagen import SimSpec, generate, generate_replicates
from marginaldro.duals import RobustSpec
from marginaldro.model import Dataset
from marginaldro.optim import OptimizerConfig
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


def test_partial_failures_recorded():
    ds, holdout = setup_data(seed=4)
    # a negative ratio fails RobustSpec validation inside that grid point only
    result = cross_validate(ds, "absolute_deviation", SPEC, OPT, [-1.0, 5.0], holdout)
    errors = {e.lipschitz_ratio: e.error for e in result.entries}
    assert errors[-1.0] is not None and errors[5.0] is None
    assert result.best_ratio == 5.0


def test_parallel_jobs_match_serial():
    ds, holdout = setup_data(seed=5)
    a = cross_validate(ds, "absolute_deviation", SPEC, OPT, [1.0, 10.0], holdout, jobs=1)
    b = cross_validate(ds, "absolute_deviation", SPEC, OPT, [1.0, 10.0], holdout, jobs=2)
    assert a.best_ratio == b.best_ratio
    assert [e.score for e in a.entries] == [e.score for e in b.entries]


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
    for jobs in (1, 2):
        with pytest.raises(TypeError, match="not a numeric failure"):
            cross_validate(ds, "absolute_deviation", SPEC, OPT, [1.0, 10.0], holdout,
                           jobs=jobs)


@pytest.mark.parametrize("jobs", [1, 2])
def test_only_the_best_finished_result_is_held(monkeypatch, jobs):
    """While grid point k trains, at most one earlier TrainResult is alive."""
    real_train, real_score = tuning.train, tuning.replicate_score
    results, alive_at_start = [], []
    starts, scores = itertools.count(), itertools.count()
    scored = [threading.Event() for _ in range(4)]

    def probed_train(dataset, kind, spec, opt):
        k = next(starts)
        # grid points run one at a time: k starts once k - 1 is scored; the
        # scoring thread then finishes k - 1 without blocking, so it holds
        # the GIL until k - 1's result is dropped or kept as the best
        assert k == 0 or scored[k - 1].wait(timeout=60)
        gc.collect()
        alive_at_start.append(sum(ref() is not None for ref in results))
        result = real_train(dataset, kind, spec, opt)
        results.append(weakref.ref(result))
        return result

    def signalling_score(*args):
        score = real_score(*args)
        scored[next(scores)].set()  # points are scored in the order they start
        return score

    monkeypatch.setattr(tuning, "train", probed_train)
    monkeypatch.setattr(tuning, "replicate_score", signalling_score)
    ds, holdout = setup_data(seed=8, n=60)
    opt = OptimizerConfig(objective="marginal", max_iters=10, fit_intercept=False)
    result = cross_validate(ds, "absolute_deviation", SPEC, opt, [0.1, 1.0, 10.0, 100.0],
                            holdout, jobs=jobs)
    assert len(alive_at_start) == 4 and max(alive_at_start) <= 1
    gc.collect()
    assert [ref() for ref in results if ref() is not None] == [result.best_result]


def test_p1_bounded_holder_rejected_before_training(monkeypatch):
    def no_training(*args):
        raise AssertionError("a grid point was trained")

    monkeypatch.setattr(tuning, "train", no_training)
    ds, holdout = setup_data(seed=9, n=40)
    opt = OptimizerConfig(objective="bounded_holder", max_iters=5)
    with pytest.raises(ValueError, match="bounded_holder needs p > 1"):
        cross_validate(ds, "absolute_deviation", RobustSpec(alpha0=0.3, p=1.0), opt,
                       [1.0, 10.0], holdout)

