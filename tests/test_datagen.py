import numpy as np
import pytest

from marginaldro.datagen import (
    CONFOUNDER_SUPPORT,
    SimSpec,
    conditional_risks,
    generate,
    generate_replicates,
)
from marginaldro.model import ParamVector


def test_spec_validation():
    with pytest.raises(ValueError):
        SimSpec(n=0)
    with pytest.raises(ValueError):
        SimSpec(n=5, d=0)
    with pytest.raises(ValueError):
        SimSpec(n=5, alpha_true=1.0)
    with pytest.raises(ValueError):
        SimSpec(n=5, variant="bogus")
    with pytest.raises(ValueError):
        SimSpec(n=5, d=3, variant="toy_1d")


def test_generation_is_deterministic():
    spec = SimSpec(n=50, d=3, variant="simdist", seed=42)
    a, b = generate(spec), generate(spec)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)


def test_simdist_structure():
    spec = SimSpec(n=20000, d=4, variant="simdist", seed=1, alpha_true=0.15)
    ds = generate(spec)
    x1 = ds.features[:, 0]
    frac_left = np.mean(x1 < 0)
    sigma = np.sqrt(0.15 * 0.85 / spec.n)
    assert abs(frac_left - 0.15) <= 3 * sigma + 1e-12
    # left group is exactly noiseless
    left = x1 < 0
    assert np.allclose(ds.labels[left], np.abs(x1[left]))
    # the group column records Z = 1 on the left
    assert np.array_equal(ds.group[left], np.ones(left.sum()))
    # nuisance coordinates are centered uniforms on [-1, 1]
    rest = ds.features[:, 1:]
    assert rest.min() >= -1.0 and rest.max() <= 1.0
    se_mean = (2.0 / np.sqrt(12.0)) / np.sqrt(rest.size)
    assert abs(rest.mean()) <= 4 * se_mean
    se_var = 4.0 / np.sqrt(rest.size)  # loose bound on the variance deviation
    assert abs(rest.var() - 1.0 / 3.0) <= 4 * se_var


def test_confounded_structure():
    ds = generate(SimSpec(n=5000, d=3, variant="confounded", seed=3))
    x1 = ds.features[:, 0]
    assert ds.confounder is not None
    assert np.isin(ds.confounder, CONFOUNDER_SUPPORT).all()
    gap = ds.labels - np.abs(x1)
    left = x1 < 0
    assert np.allclose(gap[left], 0.0)
    assert np.isin(np.round(gap[~left], 12), CONFOUNDER_SUPPORT).all()
    # nuisance coordinates on [0, 1] for this variant
    assert ds.features[:, 1:].min() >= 0.0


def test_replicates_left_group_constant():
    ds = generate_replicates(SimSpec(n=500, d=1, variant="simdist", seed=5), m=7)
    x1 = ds.features[:, 0]
    left = x1 < 0
    assert np.allclose(ds.replicates[left], np.abs(x1[left])[:, None])


def test_replicates_clt_right_group():
    m = 400
    ds = generate_replicates(SimSpec(n=400, d=1, variant="simdist", seed=6), m=m)
    x1 = ds.features[:, 0]
    right = x1 >= 0
    gap = np.abs(ds.replicates[right].mean(axis=1) - x1[right])
    assert np.mean(gap <= 3.0 / np.sqrt(m)) >= 0.99


def test_confounded_replicates_share_row_confounder():
    ds = generate_replicates(SimSpec(n=300, d=2, variant="confounded", seed=7), m=6)
    x1 = ds.features[:, 0]
    expected = np.abs(x1) + (x1 >= 0) * ds.confounder
    assert np.allclose(ds.replicates, expected[:, None])


def test_replicates_share_covariates_with_generate():
    spec = SimSpec(n=80, d=2, variant="simdist", seed=8)
    assert np.array_equal(generate(spec).features, generate_replicates(spec, 3).features)


@pytest.mark.parametrize("n", [1, 3001])
@pytest.mark.parametrize("variant", ["toy_1d", "simdist", "confounded"])
def test_generate_is_the_single_replicate_draw(variant, n):
    """generate(spec) is generate_replicates(spec, 1) without its replicate column."""
    spec = SimSpec(n=n, d=1 if variant == "toy_1d" else 3, variant=variant, seed=11)
    one, rep = generate(spec), generate_replicates(spec, 1)
    assert one.replicates is None and rep.replicates.shape == (n, 1)
    assert rep.replicates[:, 0].tobytes() == rep.labels.tobytes()
    for name in ("features", "labels", "group", "confounder"):
        got, want = getattr(one, name), getattr(rep, name)
        assert (got is None) == (want is None) == (name == "confounder" and variant != "confounded")
        if want is not None:
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


def test_oracle_known_values():
    # prediction equal to x1 on the right group: folded-normal mean sqrt(2/pi)
    p = ParamVector([1.0])
    assert conditional_risks(p, [[0.4]], "toy_1d")[0] == pytest.approx(np.sqrt(2 / np.pi))
    # left group is deterministic
    p0 = ParamVector([0.0])
    assert conditional_risks(p0, [[-0.5]], "toy_1d")[0] == pytest.approx(0.5)
    # unit offset on the right group
    p2 = ParamVector([2.0])
    val = conditional_risks(p2, [[1.0]], "toy_1d")[0]  # mu = 1
    assert val == pytest.approx(1.1666, abs=2e-3)


def test_oracle_rejects_confounded():
    with pytest.raises(ValueError):
        conditional_risks(ParamVector([1.0]), [[0.5]], "confounded")


def test_oracle_matches_monte_carlo():
    rng = np.random.default_rng(9)
    eps = rng.standard_normal(100_000)
    for _ in range(50):
        d = int(rng.integers(1, 4))
        params = ParamVector(rng.normal(size=d), rng.normal() * 0.3)
        x = rng.uniform(-1, 1, size=d)
        exact = conditional_risks(params, x[None, :], "simdist")[0]
        pred = float(params.predict(x[None, :])[0])
        if x[0] < 0:
            mc = abs(pred - abs(x[0]))
        else:
            mc = np.mean(np.abs(pred - (x[0] + eps)))
        assert exact == pytest.approx(mc, abs=0.01)
