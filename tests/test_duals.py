import numpy as np
import pytest

from marginaldro.duals import RobustSpec, cvar_dual, pnorm_dual, replicate_worst_case


def grid_cvar(values, alpha0, step_frac=1e-4):
    """Brute-force reference: minimize the dual objective over a dense eta grid."""
    values = np.asarray(values, dtype=float)
    lo, hi = values.min(), values.max()
    span = max(hi - lo, 1e-12)
    grid = np.union1d(np.arange(lo, hi + step_frac * span, step_frac * span), values)
    obj = np.maximum(values[:, None] - grid[None, :], 0.0).mean(axis=0) / alpha0 + grid
    return float(obj.min())


def test_cvar_examples():
    risk, eta = cvar_dual([1, 2, 3, 4], 0.5)
    assert risk == pytest.approx(3.5)
    assert eta == pytest.approx(3.0)
    risk, _ = cvar_dual([2.5] * 7, 0.3)
    assert risk == pytest.approx(2.5)
    risk, _ = cvar_dual([1, 2, 3, 4], 1.0)
    assert risk == pytest.approx(2.5)


def test_cvar_matches_eta_grid():
    rng = np.random.default_rng(0)
    for _ in range(40):
        n = int(rng.integers(2, 60))
        v = rng.uniform(0, 5, size=n)
        a0 = float(rng.uniform(0.05, 1.0))
        risk, _ = cvar_dual(v, a0)
        assert risk == pytest.approx(grid_cvar(v, a0), abs=1e-6)


def test_cvar_monotone_in_alpha0_and_max_tail():
    rng = np.random.default_rng(1)
    v = rng.uniform(0, 3, size=25)
    risks = [cvar_dual(v, a)[0] for a in (0.05, 0.1, 0.3, 0.6, 1.0)]
    assert all(risks[i] >= risks[i + 1] - 1e-12 for i in range(len(risks) - 1))
    assert cvar_dual(v, 1.0 / len(v))[0] == pytest.approx(v.max())
    assert cvar_dual(v, 0.01)[0] == pytest.approx(v.max())


def sorted_cvar(values, alpha0):
    """Reference: the CVaR dual through a full descending sort."""
    values = np.asarray(values, dtype=float).ravel()
    n = values.shape[0]
    k = alpha0 * n
    idx = min(max(int(np.ceil(k - 1e-9)), 1), n)
    desc = np.sort(values)[::-1]
    eta = desc[idx - 1]
    return float(np.sum(np.maximum(desc - eta, 0.0)) / k + eta), float(eta)


def test_cvar_dual_matches_sort_reference_bitwise():
    rng = np.random.default_rng(7)
    checked = 0
    for n in (1, 2, 3, 10, 100, 1000, 4099):
        samples = (rng.exponential(size=n),
                   rng.integers(0, 4, size=n).astype(float),  # heavy ties
                   np.full(n, 0.7),
                   rng.normal(size=n) * 1e3)
        alphas = {1.0, 0.3, 0.1, 0.05, float(rng.uniform(0.0, 1.0)),
                  0.5 / n, 1.0 / n, max(1, n // 3) / n}  # k < 1, k = 1, integral k
        for values in samples:
            for alpha0 in sorted(a for a in alphas if 0.0 < a <= 1.0):
                got = np.array(cvar_dual(values, alpha0))
                want = np.array(sorted_cvar(values, alpha0))
                assert got.tobytes() == want.tobytes(), (n, alpha0)
                checked += 1
    assert checked > 150


def test_cvar_input_validation():
    with pytest.raises(ValueError):
        cvar_dual([], 0.5)
    with pytest.raises(ValueError):
        cvar_dual([1.0], 0.0)
    with pytest.raises(ValueError):
        cvar_dual([1.0], 1.5)


def test_pnorm_examples():
    risk, eta = pnorm_dual([3.0, 3.0, 3.0], 0.5, 2.0)
    assert risk == pytest.approx(3.0, abs=1e-8)
    risk, eta = pnorm_dual([0.0, 2.0], 0.5, 2.0)
    assert risk == pytest.approx(2.0, abs=1e-8)
    assert eta == pytest.approx(2.0, abs=1e-6)
    risk, _ = pnorm_dual([1, 2, 3, 4], 1.0, 1.0)
    assert risk == pytest.approx(2.5)


def test_pnorm_dominates_cvar():
    rng = np.random.default_rng(2)
    for _ in range(200):
        n = int(rng.integers(1, 40))
        v = rng.uniform(0, 4, size=n)
        a0 = float(rng.uniform(0.05, 1.0))
        p = float(rng.choice([1.2, 1.5, 2.0]))
        assert pnorm_dual(v, a0, p)[0] >= cvar_dual(v, a0)[0] - 1e-8


def test_pnorm_objective_midpoint_convex_in_eta():
    rng = np.random.default_rng(3)
    v = rng.uniform(0, 3, size=30)
    a0, p = 0.3, 1.7

    def obj(eta):
        return np.mean(np.maximum(v - eta, 0.0) ** p) ** (1 / p) / a0 + eta

    for _ in range(100):
        e1, e2 = rng.uniform(-1, 4, size=2)
        assert obj(0.5 * (e1 + e2)) <= 0.5 * (obj(e1) + obj(e2)) + 1e-10


def test_pnorm_rejects_bad_p():
    with pytest.raises(ValueError):
        pnorm_dual([1.0], 0.5, 0.8)


@pytest.mark.parametrize("p", [float("nan"), float("inf")])
def test_pnorm_rejects_non_finite_p(p):
    # NaN used to return (nan, 0.0) and inf (2.0, 0.0), though the limit's minimum is 3.0
    with pytest.raises(ValueError, match="p must be finite and >= 1"):
        pnorm_dual([1.0, 2.0, 3.0], 0.5, p)


def test_replicate_worst_case():
    v = np.array([0.5, 1.5, 2.5, 0.1])
    assert replicate_worst_case(v[:, None], 0.4) == pytest.approx(cvar_dual(v, 0.4)[0])
    assert replicate_worst_case(np.full((3, 4), 1.7), 0.5) == pytest.approx(1.7)
    assert replicate_worst_case([[0.0, 2.0], [4.0, 6.0]], 0.5) == pytest.approx(5.0)
    with pytest.raises(ValueError):
        replicate_worst_case([1.0, 2.0], 0.5)  # not a matrix


def test_robust_spec_validation():
    spec = RobustSpec(alpha0=0.3, p=1.5)
    assert spec.q * (spec.p - 1.0) == pytest.approx(spec.p)
    with pytest.raises(ValueError):
        RobustSpec(alpha0=0.0)
    with pytest.raises(ValueError):
        RobustSpec(alpha0=0.5, p=2.5)
    with pytest.raises(ValueError):
        RobustSpec(alpha0=0.5, eps=0.0)
    with pytest.raises(ValueError):
        RobustSpec(alpha0=0.5, delta=-1.0)
