import tracemalloc

import numpy as np
import pytest

from marginaldro.datagen import (
    CONFOUNDER_SUPPORT,
    VARIANTS,
    SimSpec,
    conditional_risks,
    generate,
    generate_replicates,
)
import marginaldro.model as model
from marginaldro.model import ROW_BLOCK, ParamVector

# row counts on both sides of the row-block edges
BLOCK_EDGE_NS = [1, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 1]


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


def test_sizes_and_seed_must_be_integers():
    """A float or bool size or seed is refused up front, not by numpy mid-draw."""
    for kwargs in ({"n": 1e3}, {"n": 100, "d": 2.0}, {"n": 5, "seed": 1.5},
                   {"n": 5, "seed": True}, {"n": True}, {"n": 5, "seed": -1}):
        with pytest.raises(ValueError, match="must be an integer >= "):
            SimSpec(**kwargs)
    for m in (2.0, True, 0):
        with pytest.raises(ValueError, match="m must be an integer >= 1"):
            generate_replicates(SimSpec(n=5), m=m)
    spec = SimSpec(n=np.int64(5), d=np.int32(2), seed=np.uint8(3))
    assert generate_replicates(spec, m=np.int64(2)).replicates.shape == (5, 2)


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


def test_oracle_rejects_features_that_are_not_2d():
    """Three x1 values are not one 3-d point: the caller must pass an (n, d) matrix."""
    with pytest.raises(ValueError, match="features must be a 2-d"):
        conditional_risks(ParamVector([0.5, 0.5, 0.5]), np.array([0.0, 1.0, 2.0]),
                          "simdist")


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


def whole_array_draw(spec, m):
    """The whole-array draw that row blocks replaced: (features, replicates, z,
    confounder), the bitwise reference for ``generate_replicates``."""
    z_seq, x1_seq, rest_seq, y_seq = np.random.SeedSequence(spec.seed).spawn(4)
    z = (np.random.default_rng(z_seq).random(spec.n) < spec.alpha_true).astype(float)
    x1 = (1.0 - 2.0 * z) * np.random.default_rng(x1_seq).random(spec.n)
    features = x1[:, None]
    if spec.d > 1:
        rng_rest, shape = np.random.default_rng(rest_seq), (spec.n, spec.d - 1)
        features = np.column_stack([x1, rng_rest.random(shape) if spec.variant == "confounded"
                                    else rng_rest.uniform(-1.0, 1.0, size=shape)])
    right = (x1 >= 0)[:, None]
    rng_y = np.random.default_rng(y_seq)
    if spec.variant == "confounded":
        conf = rng_y.choice(CONFOUNDER_SUPPORT, size=spec.n)
        reps = np.tile(np.abs(x1)[:, None] + right * conf[:, None], (1, m))
        return features, reps, z, conf
    return features, np.abs(x1)[:, None] + right * rng_y.standard_normal((spec.n, m)), z, None


def whole_array_conditional_risks(params, features):
    """The whole-array conditional risks that row blocks replaced."""
    from scipy.special import erf

    pred = features @ params.theta + params.intercept
    x1 = features[:, 0]
    mu = pred - x1
    folded = np.sqrt(2.0 / np.pi) * np.exp(-0.5 * mu**2) + mu * erf(mu / np.sqrt(2.0))
    return np.where(x1 < 0, np.abs(pred - np.abs(x1)), folded)


def same_bits(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


DRAW_CASES = [(v, d) for v in VARIANTS for d in (1, 2, 20) if v != "toy_1d" or d == 1]


@pytest.mark.parametrize("n", BLOCK_EDGE_NS)
@pytest.mark.parametrize("variant,d", DRAW_CASES)
def test_row_block_draw_has_the_whole_array_bits(variant, d, n):
    spec = SimSpec(n=n, d=d, variant=variant, seed=n + d)
    for m in (1, 3):
        features, reps, z, conf = whole_array_draw(spec, m)
        ds = generate_replicates(spec, m)
        assert same_bits(ds.replicates, reps) and same_bits(ds.labels, reps[:, 0]), m
        for got in (ds, generate(spec)):
            assert same_bits(got.features, features) and same_bits(got.group, z)
            assert (got.confounder is None if conf is None
                    else same_bits(got.confounder, conf))
    assert same_bits(generate(spec).labels, whole_array_draw(spec, 1)[1][:, 0])


@pytest.mark.parametrize("block", [1, 3, 7])
@pytest.mark.parametrize("variant,d", DRAW_CASES)
def test_draw_bits_do_not_depend_on_the_row_block(monkeypatch, variant, d, block):
    """The draw's bits do not depend on the block size, odd sizes included."""
    monkeypatch.setattr(model, "ROW_BLOCK", block)
    spec = SimSpec(n=40, d=d, variant=variant, seed=block)
    features, reps, z, conf = whole_array_draw(spec, 3)
    ds = generate_replicates(spec, 3)
    assert same_bits(ds.features, features) and same_bits(ds.replicates, reps)
    assert same_bits(ds.group, z)
    assert ds.confounder is None if conf is None else same_bits(ds.confounder, conf)


@pytest.mark.parametrize("n", BLOCK_EDGE_NS)
@pytest.mark.parametrize("variant,d", [("toy_1d", 1), ("simdist", 3)])
def test_row_block_conditional_risks_have_the_whole_array_bits(variant, d, n):
    features = generate(SimSpec(n=n, d=d, variant=variant, seed=n)).features
    params = ParamVector(np.linspace(1.2, -0.4, d), 0.1)
    assert same_bits(conditional_risks(params, features, variant),
                     whole_array_conditional_risks(params, features))


def test_generate_peak_memory_near_its_output():
    """A 10^6-row draw allocates its arrays once plus a row block of scratch."""
    tracemalloc.start()
    try:
        ds = generate(SimSpec(n=10**6, d=20))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    returned = ds.features.nbytes + ds.labels.nbytes + ds.group.nbytes
    assert peak <= 1.25 * returned, peak / returned
