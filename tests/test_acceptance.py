"""End-to-end acceptance checks, one test per criterion.

Each test prints a [PASS]/[FAIL] line (run with ``pytest -s`` to see them
all).

Criteria 6 and 7 compare the robust fit against baselines on the
one-dimensional mixture (85% of rows at x in [0, 1] with y = x + N(0, 1),
15% at x in [-1, 0] with y = -x).  Their thresholds come from exact
minimizers, not from an assumed baseline geometry:

- The least-absolute-deviation line through the origin does not land at
  slope 1.  Its population first-order condition,
  0.85 E[U (2 Phi((theta - 1) U) - 1)] + 0.15 E[U] = 0 with U ~ U[0, 1],
  gives theta* = 0.6645: the noiseless minority pulls the fit down.  On a
  finite draw the exact minimizer is the weighted median of y_i / x_i with
  weights |x_i| (``lad_through_origin``, cross-checked against a HiGHS
  linear program); it is 0.647 on criterion 6's draw.  Criterion 6 checks
  the ERM trainer against it: objective within 1e-3 (relative) of the exact
  minimum and slope within 0.05.  Slope 1 sits 0.8-1.8% above the minimum
  on every draw used here, so a slope-1 fit fails this check.
- No single slope gets the alpha0 = 0.05 oracle risk below 1.067 (at slope
  0.18), while the exact ERM slope has risk 1.371, so no model can reach a
  risk ratio below 0.778 against ERM.  A fixed factor of 0.7 against ERM
  presumed a slope-1 ERM (risk 1.665, of which the best slope reaches
  0.64), so it allowed the marginal fit a margin of 0.7 / 0.64 above the
  best achievable risk.  Criterion 6 keeps that margin,
  0.7 x risk(slope 1) / best, computing both risks on its own evaluation
  rows; against the exact ERM risk the bound is a factor of about 0.85.
- The paper promises that marginal DRO beats ERM and joint DRO on the
  worst subpopulation; it does not order joint DRO against ERM.  Under
  label noise joint DRO chases noisy examples: its exact minimizer sits
  near slope 0.84 (oracle risk about 1.53), above the exact ERM slopes of
  0.64-0.76 (risks 1.36-1.46).  Criterion 7 therefore checks only
  marginal < 0.97 x joint and marginal < 0.97 x ERM.
"""

import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import linprog

from marginaldro.datagen import SimSpec, generate, generate_replicates
from marginaldro.duals import RobustSpec, cvar_dual, pnorm_dual
from marginaldro.evaluation import eval_joint, eval_oracle, eval_replicates
from marginaldro.model import Dataset, ParamVector, loss_values
from marginaldro.objectives import (
    minimize_eta_plan,
    minimize_plan,
    pairwise_distance_power,
    primal_inner_sup,
)
from marginaldro.optim import ObjectiveFunction, OptimizerConfig, train
from marginaldro.tuning import cross_validate

EVAL_ALPHA = 0.05
EVAL_ROWS = 20000


def report(num, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    return ok


def oracle_risk(params, feats, variant, alpha0):
    return eval_oracle(params, feats, variant, [alpha0]).risks[0]


def lad_through_origin(x, y):
    """Exact minimizer of mean |y_i - theta x_i| over the slope theta.

    Each row with x_i != 0 contributes |x_i| |y_i / x_i - theta|, so a
    minimizer is the weighted median of y_i / x_i with weights |x_i|; rows
    with x_i = 0 do not depend on theta.
    """
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    keep = x != 0.0
    ratios = y[keep] / x[keep]
    order = np.argsort(ratios)
    cum = np.cumsum(np.abs(x[keep])[order])
    return float(ratios[order][np.searchsorted(cum, 0.5 * cum[-1])])


def lad_objective(slope, ds):
    return float(loss_values("absolute_deviation", ParamVector([slope]), ds.features,
                             ds.labels).mean())


def lad_through_origin_lp(x, y):
    """The same minimization as a linear program: min sum t_i, |y_i - theta x_i| <= t_i."""
    n = x.size
    eye = np.eye(n)
    res = linprog(np.r_[0.0, np.ones(n)],
                  A_ub=np.block([[-x[:, None], -eye], [x[:, None], -eye]]),
                  b_ub=np.r_[-y, y], bounds=[(None, None)] + [(0.0, None)] * n,
                  method="highs")
    assert res.status == 0, res.message
    return float(res.x[0]), float(res.fun) / n


def test_criterion_1_cvar_matches_eta_grid():
    rng = np.random.default_rng(101)
    t0 = time.time()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 101))
        values = rng.uniform(0, 1, n) * float(rng.uniform(0.5, 5.0))
        alpha0 = float(rng.uniform(0.05, 1.0))
        exact, _ = cvar_dual(values, alpha0)
        lo, hi = values.min(), values.max()
        span = max(hi - lo, 1e-12)
        # dense grid at the stated step; the breakpoints are grid candidates
        # too, since the objective is piecewise linear with kinks there
        grid = np.union1d(np.arange(lo, hi + 1e-4 * span, 1e-4 * span), values)
        obj = (np.maximum(values[:, None] - grid[None, :], 0.0).mean(axis=0) / alpha0
               + grid)
        worst = max(worst, abs(exact - obj.min()))
    elapsed = time.time() - t0
    ok = worst <= 1e-6 and elapsed < 5.0
    assert report(1, ok, f"cvar vs eta-grid, 200 instances: worst gap {worst:.2e}, "
                         f"{elapsed:.1f}s"), (worst, elapsed)


def test_criterion_2_pnorm_matches_eta_grid_and_dominates_cvar():
    rng = np.random.default_rng(102)
    worst_grid = 0.0
    worst_dom = -np.inf
    for k in range(100):
        n = int(rng.integers(2, 60))
        values = rng.uniform(0, 2, n)
        alpha0 = float(rng.uniform(0.05, 1.0))
        p = 1.5 if k % 2 == 0 else 2.0
        risk, _ = pnorm_dual(values, alpha0, p)

        def objective(eta):
            return np.mean(np.maximum(values - eta, 0.0) ** p) ** (1 / p) / alpha0 + eta

        hi = values.max()
        coarse = np.linspace(0.0, hi, 10001)
        vals = [objective(e) for e in coarse]
        j = int(np.argmin(vals))
        fine = np.linspace(coarse[max(j - 2, 0)], coarse[min(j + 2, len(coarse) - 1)],
                           4001)
        grid_min = min(min(objective(e) for e in fine), vals[j])
        worst_grid = max(worst_grid, abs(risk - grid_min))
        worst_dom = max(worst_dom, cvar_dual(values, alpha0)[0] - risk)
    ok = worst_grid <= 1e-5 and worst_dom <= 1e-8
    assert report(2, ok, f"pnorm vs eta-grid: worst gap {worst_grid:.2e}; "
                         f"max(cvar - pnorm) = {worst_dom:.2e}"), (worst_grid, worst_dom)


def test_criterion_3_strong_duality_small_instances():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 5))
        x = rng.uniform(-1, 1, (n, 2))
        losses = rng.uniform(0, 2, n)
        eta = float(rng.uniform(0, 1))
        spec = RobustSpec(alpha0=0.5, p=2.0, lipschitz_ratio=float(rng.uniform(0.3, 3.0)),
                          eps=1.0)
        dist = pairwise_distance_power(x, 2.0)
        dual, _ = minimize_plan(losses, dist, eta, spec, iters=10000)
        primal = primal_inner_sup(losses, dist, eta, spec)
        worst = max(worst, abs(dual - primal))
    ok = worst <= 1e-3
    assert report(3, ok, f"inf over plans vs convex-solve supremum, 20 instances with n <= 4: "
                         f"worst gap {worst:.2e}"), worst


def test_criterion_4_limit_reductions():
    rng = np.random.default_rng(104)
    n = 40
    losses = rng.uniform(0, 2, n)
    feats = rng.uniform(-1, 1, (n, 2))

    # L/eps huge: the plan vanishes and the surrogate becomes the joint dual
    spec = RobustSpec(alpha0=0.3, p=2.0, lipschitz_ratio=1e6, eps=1e-4)
    dist = pairwise_distance_power(feats, 2.0)
    val, _, plan = minimize_eta_plan(losses, dist, spec, iters=4000)
    target = pnorm_dual(losses, 0.3, 2.0)[0]
    rel = abs(val - target) / target

    # L/eps zero: free transport equalizes the adjusted losses to their mean
    worst_erm = 0.0
    for p in (2.0, 1.5):
        eta = 0.3
        spec0 = RobustSpec(alpha0=0.3, p=p, lipschitz_ratio=0.0, eps=1e-4)
        dist_p = pairwise_distance_power(feats, p)
        block, _ = minimize_plan(losses, dist_p, eta, spec0, iters=6000)
        flat = (p - 1.0) ** (1.0 / p) * max(losses.mean() - eta, 0.0)
        worst_erm = max(worst_erm, abs(block - flat))
    ok = rel <= 1e-3 and worst_erm <= 1e-3 and plan.max() <= 1e-6
    assert report(4, ok, f"joint limit rel gap {rel:.2e} (plan max {plan.max():.1e}); "
                         f"free-transport limit gap {worst_erm:.2e}"), (rel, worst_erm)


def test_criterion_5_gradients_match_finite_differences():
    rng = np.random.default_rng(105)
    cases = [("erm", "absolute_deviation"), ("erm", "logistic"),
             ("joint_cvar", "absolute_deviation"), ("joint_pnorm", "absolute_deviation"),
             ("marginal", "absolute_deviation"), ("marginal", "logistic"),
             ("marginal_confounded", "absolute_deviation"),
             ("rkhs", "absolute_deviation"), ("bounded_holder", "absolute_deviation")]
    worst = floor = 0.0
    total = 0
    for objective, kind in cases:
        checked = 0
        attempts = 0
        while checked < 12 and attempts < 600:
            attempts += 1
            n, d = int(rng.integers(4, 9)), int(rng.integers(1, 4))
            X = rng.uniform(-1, 1, (n, d))
            y = (rng.uniform(-1, 1, n) if kind == "absolute_deviation"
                 else rng.choice([-1.0, 1.0], n))
            spec = RobustSpec(alpha0=0.4, p=2.0, lipschitz_ratio=1.2, eps=0.05, delta=0.7)
            fn = ObjectiveFunction(Dataset(X, y), kind, spec, objective)
            w = rng.normal(size=d + 1) * 0.5
            eta = float(rng.uniform(0.05, 0.6)) if fn.uses_eta else None
            plan = np.abs(rng.normal(size=(n, n))) * 0.4 if fn.uses_plan else None
            beta = rng.normal(size=n) * 0.3 if fn.uses_beta else None
            value, g_w, g_eta, plan_vec, g_beta = fn.value_grad(w, eta, plan, beta)

            pieces = [w]
            grads = [g_w]
            if fn.uses_eta:
                pieces.append(np.array([eta]))
                grads.append(np.array([g_eta]))
            if fn.uses_plan:
                pieces.append(plan.ravel())
                g_plan = fn.transport.plan_grad(plan_vec)
                grads.append(np.asarray(g_plan, dtype=float).ravel())
            if fn.uses_beta:
                pieces.append(beta)
                grads.append(g_beta)
            flat = np.concatenate(pieces)
            gflat = np.concatenate(grads)

            def value_at(v):
                i = d + 1
                wv = v[:i]
                ev, pv, bv = eta, plan, beta
                if fn.uses_eta:
                    ev = float(v[i])
                    i += 1
                if fn.uses_plan:
                    pv = v[i:i + n * n].reshape(n, n)
                    i += n * n
                if fn.uses_beta:
                    bv = v[i:i + n]
                return fn.value_grad(wv, ev, pv, bv)[0]

            u = rng.normal(size=flat.size)
            u /= np.linalg.norm(u)
            h = 1e-6
            up, dn = value_at(flat + h * u), value_at(flat - h * u)
            if abs(up + dn - 2 * value) / h > 1e-3:
                continue  # straddles a kink: not a differentiable point
            fd = (up - dn) / (2 * h)
            an = float(gflat @ u)
            rel = abs(fd - an) / max(abs(an), 1e-3)
            worst = max(worst, rel)
            # the relative error rounding alone can give: an error of eps |value|
            # in up or dn moves fd by about that over h
            floor = max(floor, np.finfo(float).eps * abs(value) / h / max(abs(an), 1e-3))
            checked += 1
            total += 1
        assert checked == 12, f"could not sample differentiable points for {objective}"
    ok = worst <= 1e-4 and total >= 100
    assert report(5, ok, f"directional finite differences at {total} points over "
                         f"{len(cases)} objective/loss pairs: worst rel err {worst:.2e} "
                         f"(rounding noise floor {floor:.2e})"), worst


@pytest.mark.slow
def test_criterion_6_toy_problem_geometry():
    # the exact LAD solver agrees with HiGHS before it serves as the reference
    rng = np.random.default_rng(106)
    for _ in range(5):
        n = int(rng.integers(3, 40))
        x, y = rng.uniform(-1, 1, n), rng.normal(size=n)
        slope = lad_through_origin(x, y)
        lp_slope, lp_obj = lad_through_origin_lp(x, y)
        assert abs(slope - lp_slope) <= 1e-7, (slope, lp_slope)
        assert abs(np.abs(y - slope * x).mean() - lp_obj) <= 1e-9 * max(lp_obj, 1.0)

    t0 = time.time()
    seed = 0
    ds = generate(SimSpec(n=5000, d=1, variant="toy_1d", seed=seed))
    holdout = generate_replicates(SimSpec(n=1000, d=1, variant="toy_1d",
                                          seed=seed + 10_000), m=100)
    feats = generate(SimSpec(n=EVAL_ROWS, d=1, variant="toy_1d",
                             seed=seed + 20_000)).features

    # cross-validate L/eps on a subsample, retrain at full size
    idx = np.random.default_rng(seed).choice(ds.n, 1500, replace=False)
    sub = Dataset(ds.features[idx], ds.labels[idx])
    opt = OptimizerConfig(objective="marginal", max_iters=300, step0=0.5,
                          fit_intercept=False)
    cv = cross_validate(sub, "absolute_deviation", RobustSpec(alpha0=0.3, p=2.0), opt,
                        grid=[0.1, 1.0, 10.0, 100.0, 1000.0], holdout=holdout,
                        score_alpha0=EVAL_ALPHA)
    marginal = train(ds, "absolute_deviation",
                     RobustSpec(alpha0=0.3, p=2.0, lipschitz_ratio=cv.best_ratio),
                     replace(opt, max_iters=250))
    erm = train(ds, "absolute_deviation", RobustSpec(alpha0=0.3),
                replace(opt, objective="erm", max_iters=400))
    elapsed = time.time() - t0

    erm_slope = float(erm.params.theta[0])
    marg_slope = float(marginal.params.theta[0])
    exact_slope = lad_through_origin(ds.features[:, 0], ds.labels)
    exact_obj = lad_objective(exact_slope, ds)
    obj_gap = lad_objective(erm_slope, ds) / exact_obj - 1.0

    risk_marg = oracle_risk(marginal.params, feats, "toy_1d", EVAL_ALPHA)
    risk_erm = oracle_risk(erm.params, feats, "toy_1d", EVAL_ALPHA)
    risk_exact_erm = oracle_risk(ParamVector([exact_slope]), feats, "toy_1d", EVAL_ALPHA)
    # best single slope, over a grid as in criterion 8; the factor 0.7 was
    # calibrated against a slope-1 baseline, which fixes the slack above it
    risk_best = min(oracle_risk(ParamVector([s]), feats, "toy_1d", EVAL_ALPHA)
                    for s in np.linspace(-0.25, 1.25, 76))
    slack = 0.7 * oracle_risk(ParamVector([1.0]), feats, "toy_1d", EVAL_ALPHA) / risk_best
    risk_bound = slack * risk_best

    clauses = {
        "runtime < 120 s": elapsed < 120.0,
        "ERM objective within 1e-3 of exact LAD minimum": obj_gap <= 1e-3,
        "ERM slope within 0.05 of exact LAD slope": abs(erm_slope - exact_slope) <= 0.05,
        "marginal |slope| <= 0.35": abs(marg_slope) <= 0.35,
        f"marginal risk <= {slack:.3f} x best single-slope risk": risk_marg <= risk_bound,
    }
    detail = (f"ERM slope {erm_slope:+.3f} (exact {exact_slope:+.3f}, objective gap "
              f"{obj_gap:.1e}), marginal slope {marg_slope:+.3f} (L/eps={cv.best_ratio:g}); "
              f"risk marginal {risk_marg:.3f} / ERM {risk_erm:.3f} / exact ERM "
              f"{risk_exact_erm:.3f} / best slope {risk_best:.3f}, bound {risk_bound:.3f} "
              f"(= {risk_bound / risk_exact_erm:.3f} x exact ERM, floor "
              f"{risk_best / risk_exact_erm:.3f}); {elapsed:.0f}s")
    ok = all(clauses.values())
    report(6, ok, detail)
    failed = [name for name, good in clauses.items() if not good]
    assert ok, f"failed clauses: {failed}; {detail}"


@pytest.mark.slow
def test_criterion_7_ordering_across_seeds():
    wins = 0
    details = []
    for seed in range(5):
        ds = generate(SimSpec(n=2000, d=1, variant="simdist", seed=seed))
        feats = generate(SimSpec(n=EVAL_ROWS, d=1, variant="simdist",
                                 seed=seed + 20_000)).features
        opt = OptimizerConfig(objective="marginal", max_iters=300, step0=0.5,
                              fit_intercept=False)
        marginal = train(ds, "absolute_deviation",
                         RobustSpec(alpha0=0.3, p=2.0, lipschitz_ratio=10.0), opt)
        joint = train(ds, "absolute_deviation", RobustSpec(alpha0=0.3, p=2.0),
                      replace(opt, objective="joint_pnorm", max_iters=400))
        erm = train(ds, "absolute_deviation", RobustSpec(alpha0=0.3),
                    replace(opt, objective="erm", max_iters=400))
        r = {name: oracle_risk(m.params, feats, "simdist", EVAL_ALPHA)
             for name, m in (("marginal", marginal), ("joint", joint), ("erm", erm))}
        ordered = (r["marginal"] < 0.97 * r["joint"]) and (r["marginal"] < 0.97 * r["erm"])
        wins += ordered
        exact_slope = lad_through_origin(ds.features[:, 0], ds.labels)
        details.append(f"seed {seed}: marginal {r['marginal']:.3f} / joint "
                       f"{r['joint']:.3f} / erm {r['erm']:.3f} (slope "
                       f"{erm.params.theta[0]:.3f}, exact {exact_slope:.3f})")
    ok = wins >= 4
    report(7, ok, f"marginal < 0.97 x joint and < 0.97 x erm on {wins}/5 seeds; "
                  + "; ".join(details))
    assert ok, f"marginal beat both baselines by 3% on only {wins}/5 seeds: {details}"


@pytest.mark.slow
def test_criterion_8_alpha_sweep_within_oracle_factor():
    seed = 1
    alphas = (0.05, 0.1, 0.15, 0.3, 0.5, 1.0)
    ds = generate(SimSpec(n=2000, d=1, variant="simdist", seed=seed))
    holdout = generate_replicates(SimSpec(n=1000, d=1, variant="simdist",
                                          seed=seed + 10_000), m=100)
    feats = generate(SimSpec(n=EVAL_ROWS, d=1, variant="simdist",
                             seed=seed + 20_000)).features
    opt = OptimizerConfig(objective="marginal", max_iters=300, step0=0.5,
                          fit_intercept=False)
    cv = cross_validate(ds, "absolute_deviation", RobustSpec(alpha0=0.3, p=2.0), opt,
                        grid=[0.1, 1.0, 10.0, 100.0], holdout=holdout,
                        score_alpha0=EVAL_ALPHA)
    model = cv.best_result.params
    sweep = eval_oracle(model, feats, "simdist", alphas)

    # single-slope oracle, minimized per test-time alpha0 over a dense grid
    best = {a: np.inf for a in alphas}
    for slope in np.linspace(-0.25, 1.25, 76):
        rep = eval_oracle(ParamVector([slope]), feats, "simdist", alphas)
        for a, r, _ in rep.rows():
            best[a] = min(best[a], r)
    ratios = {a: r / best[a] for a, r, _ in sweep.rows()}
    worst = max(ratios.values())
    ok = worst <= 1.3
    assert report(8, ok, f"risk vs per-alpha slope oracle (L/eps={cv.best_ratio:g}): "
                         f"worst ratio {worst:.3f} at alpha0="
                         f"{max(ratios, key=ratios.get)}"), ratios


@pytest.mark.slow
def test_criterion_9_confounded_interpolation():
    wins = 0
    details = []
    deltas = (0.0, 0.5, 1.0)
    for seed in range(5):
        ds = generate(SimSpec(n=2000, d=2, variant="confounded", seed=seed))
        holdout = generate_replicates(SimSpec(n=2000, d=2, variant="confounded",
                                              seed=seed + 13), m=10)
        risk = {}
        for delta in deltas:
            spec = RobustSpec(alpha0=0.1, p=2.0, lipschitz_ratio=10.0, delta=delta)
            objective = "marginal" if delta == 0.0 else "marginal_confounded"
            result = train(ds, "absolute_deviation", spec,
                           OptimizerConfig(objective=objective, max_iters=300,
                                           step0=0.5, fit_intercept=False))
            risk[delta] = max(
                eval_replicates(result.params, holdout, "absolute_deviation",
                                [EVAL_ALPHA], condition=c).risks[0]
                for c in (-1.0, 1.0))
        wins += risk[1.0] < risk[0.0]
        details.append(f"seed {seed}: " + ", ".join(f"d={d:g}: {risk[d]:.3f}"
                                                    for d in deltas))
    ok = wins >= 4
    assert report(9, ok, f"delta-matched beats delta=0 at |c|=1 on {wins}/5 seeds; "
                         + "; ".join(details)), details


def test_criterion_10_joint_dominates_replicates():
    params = ParamVector([0.7])
    ds = generate_replicates(SimSpec(n=2000, d=1, variant="simdist", seed=42), m=100)
    alphas = (0.05, 0.1, 0.3, 0.5, 1.0)
    rep = eval_replicates(params, ds, "absolute_deviation", alphas)
    pooled = Dataset(np.repeat(ds.features, 100, axis=0), ds.replicates.ravel())
    joint = eval_joint(params, pooled, "absolute_deviation", alphas)
    margin = float(np.min(joint.risks - rep.risks * (1.0 - 0.02)))
    ok = margin >= 0.0
    assert report(10, ok, f"joint >= replicate risk at every alpha0 within 2% slack "
                          f"(min margin {margin:.4f})"), margin
