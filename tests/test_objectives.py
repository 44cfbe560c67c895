import itertools
import threading
import tracemalloc
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
    minimize_eta_plan,
    minimize_plan,
    primal_inner_sup,
    resolve_eps,
    robust_surrogate,
    squared_distances,
)
from marginaldro.optim import ObjectiveFunction
from marginaldro.variational import bounded_holder_objective, gram, median_bandwidth

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
    for the distances and for the Gram matrix and median bandwidth, around
    the BLOCK_ROWS edges and at small and large scales."""
    rng = np.random.default_rng(3)
    cases = [(1, 1, 2.0), (7, 1, 1.5), (60, 2, 2.0), (60, 2, 3.0), (300, 5, 1.5),
             (1100, 2, 2.0), (2000, 2, 2.0)]
    cases += [(n, 20, 2.0) for n in (63, 64, 65, 129)]
    for (n, d, p), scale in itertools.product(cases, (1e-3, 1.0, 1e3)):
        x = scale * rng.normal(size=(n, d))
        sq = np.sum(x * x, axis=1)
        d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
        dist = np.sqrt(np.maximum(d2, 0.0))
        np.fill_diagonal(dist, 0.0)
        expected = dist if p == 2.0 else dist ** (p - 1.0)
        assert np.array_equal(pairwise_distance_power(x, p), expected)

        d2 = np.maximum(d2, 0.0)
        np.fill_diagonal(d2, 0.0)
        off = d2[np.triu_indices(n, k=1)]
        med = float(np.sqrt(np.median(off))) if off.size else 1.0
        med = med if med > 0 else 1.0
        built = squared_distances(x)
        assert np.array_equal(built, d2)
        assert median_bandwidth(built) == med
        assert np.array_equal(built, d2)  # median_bandwidth leaves d2 as it was
        assert np.array_equal(gram(x), np.exp(-d2 / (2.0 * med**2)))


@pytest.mark.parametrize("features", [np.array([0.0, 1.0, 2.0]), np.zeros((2, 2, 2)),
                                      np.float64(1.0)])
def test_distance_builds_reject_features_that_are_not_2d(features):
    """A vector is not read as one point of len(vector) coordinates."""
    for build in (squared_distances, lambda x: pairwise_distance_power(x, 2.0), gram):
        with pytest.raises(ValueError, match="2-d"):
            build(features)


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
    # column sums run down the rows in order, as numpy's own reduction in
    # plan_adjustments does
    assert np.array_equal(c, plan_adjustments(new))
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


def test_plan_step_reuses_its_row_block_scratch(monkeypatch):
    """Each worker's (BLOCK_ROWS + 1, n) scratch is made with the step, not per
    pass; a step that gathers live rows into compacted groups, across block
    edges and around whole blocks, gathers them there, and allocates no more
    than O(n) index arrays besides."""
    monkeypatch.setattr(objectives, "WORKERS", 2)  # the per-block buffers grow with workers
    for case in ("dense", "sparse", "pattern"):
        kernel, plan, vec = _kernel_and_plan(1100)
        rng = np.random.default_rng(0)
        if case != "dense":  # most rows of the zero plan stay zero under a sparse vec
            plan = kernel.zeros()
            vec = _sparse_vec(rng, 1100, 0.1) if case == "sparse" else _pattern_vec(rng, 1100)
        plan = kernel.plan_step(plan, vec, 0.3)
        tracemalloc.start()
        for _ in range(3):
            plan = kernel.plan_step(plan, vec, 0.3)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 8 * (objectives.BLOCK_ROWS + 1) * 1100, case  # one worker's scratch


def test_fused_penalty_accumulates_in_float64():
    kernel, plan, vec = _kernel_and_plan(1100, seed=1)
    assert kernel.dtype == np.float32
    new = kernel.plan_step(plan, vec, 0.3)
    expected = np.sum(kernel.pen_dist.astype(np.float64) * new.astype(np.float64))
    assert kernel.statistics(new)[1] == pytest.approx(expected, rel=1e-12)


def _materialized_step(kernel, plan, vec, step):
    """The plan step as one broadcast expression in the plan dtype."""
    n = plan.shape[0]
    u = (step * n * n * vec).astype(kernel.dtype)
    return np.maximum(((plan + u[:, None]) - u[None, :])
                      - kernel.pen_dist * kernel.dtype.type(step * n * n), 0.0)


def _sparse_vec(rng, n, share, scale=30.0):
    """A nonnegative plan vector that is zero outside about ``share`` of the
    rows, and on the first row block, so those rows of a zero plan stay zero."""
    vec = np.abs(rng.normal(size=n)) * scale / (n * n)
    vec[rng.random(n) >= share] = 0.0
    vec[:objectives.BLOCK_ROWS] = 0.0
    return vec


@pytest.fixture
def passes(monkeypatch):
    """The ``live`` mask of every stepping pass (all true: every row stepped)."""
    seen = []
    plan_pass = objectives._plan_pass

    def spy(src, out, pen, scratches, u, s, live, stale=None):
        seen.append(live.copy())
        return plan_pass(src, out, pen, scratches, u, s, live, stale)

    monkeypatch.setattr(objectives, "_plan_pass", spy)
    return seen


def _check_step(kernel, plan, vec, step, keep=None):
    """Steps ``plan`` and checks the new plan's bits and statistics."""
    expected = _materialized_step(kernel, plan, vec, step)
    new = kernel.plan_step(plan, vec, step, keep=keep)
    assert new.dtype == expected.dtype == kernel.dtype
    assert new.tobytes() == expected.tobytes()  # -0.0 would differ here
    c, penalty = kernel.statistics(new)
    assert np.array_equal(c, plan_adjustments(new))
    reference = np.sum(kernel.pen_dist.astype(np.float64) * new.astype(np.float64))
    assert penalty == pytest.approx(reference, rel=1e-12, abs=0.0)
    return new


def test_fused_plan_step_entries_match_materialized_formula(passes):
    """Row blocks apply the broadcast update's operations in its order, for
    a plan with no zero row and for plans the step wrote whose idle rows
    (all zero, u_i = 0, no negative u) it skips: in place, around the kept
    plan, and into a spare whose old rows are nonzero where rows are idle now."""
    for n in (300, 1100):  # float64 and float32 plans
        passes.clear()
        kernel, plan, vec = _kernel_and_plan(n, seed=2)
        assert kernel.dtype == (np.float32 if n >= objectives.FLOAT32_PLAN_N else np.float64)
        _check_step(kernel, plan, vec, 0.3, keep=plan)

        rng = np.random.default_rng(4)
        zero = kernel.zeros()
        written = _check_step(kernel, zero, _sparse_vec(rng, n, 1.0), 0.3, keep=zero)
        old = written.copy()
        # a long step zeroes most rows; it goes to the spare, the zero plan's buffer
        sparse = _check_step(kernel, written, _sparse_vec(rng, n, 0.1), 3.0, keep=written)
        assert sparse is zero
        vec = _sparse_vec(rng, n, 0.1)
        idle = (sparse.sum(axis=1) == 0) & (vec == 0)
        assert np.any(idle & (old.sum(axis=1) > 0))  # rows the spare must clear
        new = _check_step(kernel, sparse, vec, 0.3, keep=sparse)
        assert new is written
        assert _check_step(kernel, new, _sparse_vec(rng, n, 0.1), 0.3) is new  # in place

        assert passes[0].all() and not any(live.all() for live in passes[1:])
        # the skipping steps gathered the live rows of some blocks and skipped others
        counts = [live[r0:r0 + objectives.BLOCK_ROWS].sum() for live in passes[2:]
                  for r0 in range(0, n, objectives.BLOCK_ROWS)]
        assert min(counts) == 0 and any(0 < k <= objectives.BLOCK_ROWS // 2 for k in counts)


# live rows per 64-row block, cycled: a whole block (50 > 2/3 of 64), two
# sparse blocks whose 40 rows make a group across their edge and a second
# group, a full block between groups, then a group across an idle block
BLOCK_PATTERN = (50, 20, 20, 64, 10, 0, 30)


def _pattern_vec(rng, n, counts=BLOCK_PATTERN, scale=30.0):
    """A nonnegative plan vector, nonzero on ``counts[b]`` random rows of block b
    (cycled, in proportion in a shorter last block)."""
    vec = np.zeros(n)
    for b, r0 in enumerate(range(0, n, objectives.BLOCK_ROWS)):
        size = min(objectives.BLOCK_ROWS, n - r0)
        k = counts[b % len(counts)] * size // objectives.BLOCK_ROWS
        rows = r0 + rng.choice(size, k, replace=False)
        vec[rows] = np.abs(rng.normal(size=k)) * scale / (n * n)
    return vec


def _unit_rows(unit):
    return np.arange(unit.start, unit.stop) if isinstance(unit, slice) else unit


def _check_units(live, n):
    """The units of a pass over ``live``: rows strictly increasing, groups no
    larger than the scratch holds, and every live row in exactly one unit."""
    capacity = min(objectives.BLOCK_ROWS, n) // 2  # half the (rows + 1, n) scratch
    units, whole = objectives._plan_units(live, capacity)
    rows = np.concatenate([_unit_rows(unit) for unit in units] or [np.zeros(0, int)])
    assert np.all(np.diff(rows) > 0)
    assert np.array_equal(np.isin(np.arange(n), rows), live | whole)
    groups = [unit for unit in units if not isinstance(unit, slice)]
    assert all(0 < group.size <= capacity for group in groups)
    for unit in units:
        if isinstance(unit, slice):
            assert unit.start % objectives.BLOCK_ROWS == 0 and whole[unit].all()
    return units


def test_compacting_steps_match_materialized_formula(passes):
    """Live rows are stepped in compacted groups that span block edges, with
    whole blocks between them; entries keep the broadcast update's bits in
    place, around the kept plan and into a spare with stale rows, and c
    keeps the bits of ``plan_adjustments``."""
    for n in (300, 1100):  # float64 and float32 plans
        passes.clear()
        kernel, _, _ = _kernel_and_plan(n, seed=6)
        rng = np.random.default_rng(7)
        zero = kernel.zeros()
        dense = _check_step(kernel, zero, np.abs(rng.normal(size=n)) * 30 / n**2, 0.3,
                            keep=zero)
        old = dense.copy()
        # one pattern of live rows from here on; a long step zeroes every
        # other row, so each later step's live rows are the pattern
        pattern = _pattern_vec(rng, n) != 0
        vecs = [_pattern_vec(np.random.default_rng(seed), n) for seed in range(3)]
        for vec in vecs:
            vec[~pattern] = 0.0
            vec[pattern & (vec == 0)] = 1.0 / n**2
        first = _check_step(kernel, dense, vecs[0], 30.0, keep=dense)
        assert first is zero
        whole = objectives._plan_units(pattern, min(objectives.BLOCK_ROWS, n) // 2)[1]
        assert np.any(~pattern & ~whole & (old.sum(axis=1) > 0))  # stale rows to clear
        spare = _check_step(kernel, first, vecs[1], 0.3, keep=first)  # into the stale spare
        assert spare is dense
        assert _check_step(kernel, spare, vecs[2], 0.3) is spare  # in place

        assert len(passes) == 4 and all(np.array_equal(live, pattern) for live in passes[2:])
        units = _check_units(pattern, n)
        kinds = "".join("w" if isinstance(unit, slice) else "g" for unit in units)
        assert "gwg" in kinds  # a whole block between groups
        edges = [unit[0] // objectives.BLOCK_ROWS != unit[-1] // objectives.BLOCK_ROWS
                 for unit in units if not isinstance(unit, slice)]
        assert any(edges)  # a group across a block edge


@pytest.mark.parametrize("n", [1, 2, 3, 5, 63, 65, 129])
def test_compacting_steps_at_small_and_edge_sizes(n, passes):
    """Float64 plans of any size, sparse vecs: the groups fit the step's scratch."""
    kernel, _, _ = _kernel_and_plan(n, seed=n)
    assert kernel.dtype == np.float64
    assert kernel._scratches.shape[1:] == (min(objectives.BLOCK_ROWS, n) + 1, n)
    rng = np.random.default_rng(n)
    plan = kernel.zeros()
    for t, share in enumerate((0.6, 0.3, 0.3, 0.5, 0.1)):
        vec = np.abs(rng.normal(size=n)) * 30 / n**2
        vec[rng.random(n) >= share] = 0.0
        plan = _check_step(kernel, plan, vec, 0.3, keep=plan if t % 2 else None)
    for live in passes:
        _check_units(live, n)


def test_compacting_step_bitwise_independent_of_worker_count(monkeypatch):
    """A chain of compacting steps gives the same c and penalty on 1, 2 or 3 workers."""
    for n in (300, 1100):
        runs = []
        for workers in (1, 2, 3):
            with ThreadPoolExecutor(max(workers - 1, 1)) as pool:
                monkeypatch.setattr(objectives, "WORKERS", workers)
                monkeypatch.setattr(objectives, "_POOL", pool)
                kernel, _, _ = _kernel_and_plan(n, seed=8)
                assert len(kernel._scratches) == workers
                rng = np.random.default_rng(9)
                plan, stats = kernel.zeros(), []
                for _ in range(4):
                    plan = kernel.plan_step(plan, _pattern_vec(rng, n), 0.3, keep=plan)
                    c, penalty = kernel.statistics(plan)
                    stats.append((c.tobytes(), penalty))
                runs.append(stats)
        assert runs[0] == runs[1] == runs[2]


def test_plan_step_skips_no_row_it_cannot_prove_idle(passes):
    """A plan the step did not write, or a vec with a negative entry, gets
    every row stepped, and a zero row can then come out nonzero."""
    n = 300
    kernel, _, _ = _kernel_and_plan(n)
    rng = np.random.default_rng(5)
    zero = kernel.zeros()
    written = _check_step(kernel, zero, _sparse_vec(rng, n, 0.1), 0.3)
    vec = _sparse_vec(rng, n, 0.1)
    idle = (written.sum(axis=1) == 0) & (vec == 0)
    assert idle.sum() > n // 2
    lifting = vec.copy()
    lifting[np.flatnonzero(~idle)[0]] = -1.0  # lifts every other row
    new = _check_step(kernel, written, lifting, 0.3, keep=written)
    assert np.all(new[idle].sum(axis=1) > 0)
    _check_step(kernel, written.copy(), vec, 0.3)  # a copy the step did not write
    assert not passes[0].all() and [live.all() for live in passes[1:]] == [True, True]


@pytest.mark.parametrize("n", [300, 1100])
def test_statistics_of_a_plan_no_step_wrote_are_the_reference(n, monkeypatch):
    """A copy of a plan written by compacting steps, and at n = 1100 a float64
    plan given to the float32 kernel, get c with the bits of
    ``plan_adjustments`` and the float64 penalty, on the calling thread:
    with no plan pass, no pool and no n x n float64 temporary."""
    kernel, _, _ = _kernel_and_plan(n, seed=10)
    rng = np.random.default_rng(11)
    plan = kernel.zeros()
    for _ in range(3):
        plan = kernel.plan_step(plan, _pattern_vec(rng, n), 0.3, keep=plan)
    others = [plan.copy()]
    if kernel.dtype == np.float32:
        others.append(plan.astype(np.float64) * (1.0 + 2.0**-40))  # not float32 values

    def refuse(*args, **kwargs):
        raise RuntimeError("statistics of another plan start no pass and no pool task")

    monkeypatch.setattr(objectives, "_plan_pass", refuse)
    monkeypatch.setattr(objectives._POOL, "submit", refuse)
    for other in others:
        tracemalloc.start()
        c, penalty = kernel.statistics(other)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert np.array_equal(c, plan_adjustments(other))
        reference = np.sum(kernel.pen_dist.astype(np.float64) * other.astype(np.float64))
        assert penalty == pytest.approx(reference, rel=1e-12, abs=0.0)
        assert peak < 2 * 8 * objectives.BLOCK_ROWS * n, peak  # two float64 row blocks


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
    """zero_one has no subgradient, so the objective refuses it when built."""
    ds = Dataset([[0.0], [1.0]], [1.0, -1.0])
    with pytest.raises(ValueError, match="unknown loss kind 'zero_one'"):
        ObjectiveFunction(ds, "zero_one", spec2(), "marginal")


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
        primal_inner_sup([2.0], np.zeros((1, 1)), 0.5, spec2(p=1.0))


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


@pytest.mark.parametrize("p", [2.0, 1.5, 1.2])
def test_strong_duality_small_instances(p):
    rng = np.random.default_rng(6)
    for _ in range(5):
        n = int(rng.integers(2, 5))
        x = rng.uniform(-1, 1, (n, 2))
        losses = rng.uniform(0, 2, n)
        eta = float(rng.uniform(0, 1))
        spec = spec2(p=p, lipschitz_ratio=float(rng.uniform(0.3, 2.0)))
        dist = pairwise_distance_power(x, p)
        dual, _ = minimize_plan(losses, dist, eta, spec, iters=4000)
        primal = primal_inner_sup(losses, dist, eta, spec)
        assert dual == pytest.approx(primal, abs=5e-3)


def test_strong_duality_beyond_six_points():
    rng = np.random.default_rng(12)
    n = 12
    x = rng.uniform(-1, 1, (n, 2))
    losses = rng.uniform(0, 2, n)
    dist = pairwise_distance_power(x, 2.0)
    spec = spec2(lipschitz_ratio=1.0)
    dual, _ = minimize_plan(losses, dist, 0.5, spec, iters=20000)
    primal = primal_inner_sup(losses, dist, 0.5, spec)
    assert primal <= dual + 1e-9
    assert dual == pytest.approx(primal, abs=1e-4)


@pytest.mark.parametrize("p", [2.0, 1.5])
def test_primal_inner_sup_closed_form_ends(p):
    """With radius R = (p-1)^(1/p): free transport forces a constant h, so the
    supremum is R (mean(l) - eta)_+; with transport priced out it is the
    hinge block R mean((l - eta)_+^p)^(1/p)."""
    rng = np.random.default_rng(13)
    n, eta = 6, 0.4
    losses = rng.uniform(0, 2, n)
    dist = pairwise_distance_power(rng.uniform(-1, 1, (n, 2)), p)
    radius = (p - 1.0) ** (1.0 / p)
    free = primal_inner_sup(losses, dist, eta, spec2(p=p, lipschitz_ratio=0.0))
    assert free == pytest.approx(radius * max(losses.mean() - eta, 0.0), abs=1e-9)
    priced = primal_inner_sup(losses, dist, eta, spec2(p=p, lipschitz_ratio=1e6))
    hinge = np.maximum(losses - eta, 0.0)
    assert priced == pytest.approx(radius * np.mean(hinge**p) ** (1.0 / p), abs=1e-9)


def test_primal_inner_sup_resolves_an_unset_eps():
    """Below p = 2 the bound reads eps; an unset eps is resolved from the
    losses, as the plan minimizers resolve it."""
    rng = np.random.default_rng(15)
    n, p, eta = 6, 1.5, 0.3
    losses = rng.uniform(0, 2, n)
    dist = pairwise_distance_power(rng.uniform(-1, 1, (n, 2)), p)
    spec = RobustSpec(alpha0=0.3, p=p, lipschitz_ratio=0.01)
    primal = primal_inner_sup(losses, dist, eta, spec)
    assert primal == primal_inner_sup(losses, dist, eta, resolve_eps(spec, losses))
    dual, _ = minimize_plan(losses, dist, eta, spec, iters=4000)
    assert dual == pytest.approx(primal, abs=5e-3)
    hinge = (p - 1.0) ** (1.0 / p) * np.mean(np.maximum(losses - eta, 0.0) ** p) ** (1.0 / p)
    assert primal < hinge - 0.01  # transport is priced, not priced out


FROZEN_LOSS_SOLVERS = {
    "primal_inner_sup": lambda losses, dist, spec: primal_inner_sup(losses, dist, 0.2, spec),
    "minimize_plan": lambda losses, dist, spec: minimize_plan(losses, dist, 0.2, spec, iters=2),
    "minimize_eta_plan": lambda losses, dist, spec: minimize_eta_plan(losses, dist, spec,
                                                                      iters=2),
    "marginal_objective": lambda losses, dist, spec: marginal_objective(
        losses, dist, 0.2, np.zeros((len(losses),) * 2), spec),
    "bounded_holder_objective": lambda losses, dist, spec: bounded_holder_objective(
        losses, dist, 0.2, np.zeros((len(losses),) * 2), spec),
}
OFF_DIAGONAL = TWO_POINT["dist"]
BAD_FROZEN_LOSS_INPUTS = {
    "dist not n x n": ([0.5, 1.0, 1.5], OFF_DIAGONAL, r"must be \(3, 3\)"),
    "NaN loss": ([0.5, np.nan], OFF_DIAGONAL, "finite"),
    "inf loss": ([0.5, np.inf], OFF_DIAGONAL, "finite"),
    "NaN distance": ([0.5, 1.5], np.where(OFF_DIAGONAL > 0, np.nan, 0.0), "finite"),
    "inf distance": ([0.5, 1.5], np.where(OFF_DIAGONAL > 0, np.inf, 0.0), "finite"),
    "negative distance": ([0.5, 1.5], -OFF_DIAGONAL, "nonnegative"),
}


@pytest.mark.parametrize("case", BAD_FROZEN_LOSS_INPUTS)
@pytest.mark.parametrize("solver", FROZEN_LOSS_SOLVERS)
def test_frozen_loss_solvers_check_their_inputs(solver, case):
    """The oracle, both plan minimizers and the value-only references share
    one check of the losses and distances."""
    losses, dist, match = BAD_FROZEN_LOSS_INPUTS[case]
    with pytest.raises(ValueError, match=match):
        FROZEN_LOSS_SOLVERS[solver](losses, dist, spec2())


NON_FINITE_ETAS = [np.nan, np.inf, -np.inf]


@pytest.mark.parametrize("eta", NON_FINITE_ETAS)
def test_primal_inner_sup_rejects_a_non_finite_eta(eta):
    """A NaN eta is not read as "no positive coefficient", a supremum of 0."""
    with pytest.raises(ValueError, match="eta must be finite"):
        primal_inner_sup(TWO_POINT["losses"], TWO_POINT["dist"], eta, spec2())


@pytest.mark.parametrize("eta", NON_FINITE_ETAS)
def test_minimize_plan_rejects_a_non_finite_eta(eta):
    with pytest.raises(ValueError, match="eta must be finite"):
        minimize_plan(TWO_POINT["losses"], TWO_POINT["dist"], eta, spec2(), iters=2)


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


def test_joint_dro_limit_level_below_p2():
    """Below p = 2 the limit is the joint p-norm dual at level
    alpha0 / (p-1)^(1/p), not alpha0; acceptance criterion 4's draw."""
    from marginaldro.duals import pnorm_dual

    rng = np.random.default_rng(104)
    n, p = 40, 1.5
    losses = rng.uniform(0, 2, n)
    dist = pairwise_distance_power(rng.uniform(-1, 1, (n, 2)), p)
    spec = RobustSpec(alpha0=0.3, p=p, lipschitz_ratio=1e6, eps=1e-4)
    val, _, plan = minimize_eta_plan(losses, dist, spec, iters=4000)
    target = pnorm_dual(losses, 0.3 / (p - 1.0) ** (1.0 / p), p)[0]
    assert val == pytest.approx(target, rel=1e-4)
    assert abs(val - pnorm_dual(losses, 0.3, p)[0]) > 0.05
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
    """The plan infimum rises with delta, and the strong-duality oracle
    follows it: its difference bounds carry the same price 2 delta^(p-1)/eps."""
    rng = np.random.default_rng(10)
    n = 10
    losses = rng.uniform(0, 2, n)
    dist = pairwise_distance_power(rng.uniform(-1, 1, (n, 2)), 2.0)
    eta = 0.2
    values = []
    for delta in (0.0, 0.05, 0.3, 0.5, 50.0):
        spec = RobustSpec(alpha0=0.3, p=2.0, lipschitz_ratio=1.0, eps=0.5, delta=delta)
        val, plan = minimize_plan(losses, dist, eta, spec, iters=4000)
        assert val == pytest.approx(primal_inner_sup(losses, dist, eta, spec), abs=5e-3)
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
