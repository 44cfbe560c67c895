"""
What the transport plan actually does
=====================================

The inner objective smooths per-example losses with a nonnegative matrix B:
entry B_ij moves loss from example i to example j at cost proportional to
||x_i - x_j||^(p-1).  One hyperparameter, L/eps, prices that movement:

* L/eps = 0      moving loss is free, everything averages out -> plain ERM
* L/eps = inf    moving loss is impossible, B = 0            -> joint DRO

This script sweeps the price on a tiny instance and shows the two limits,
plus the strong-duality check against one convex solve of the inner
maximization.
"""

import numpy as np

from marginaldro import RobustSpec, pairwise_distance_power, pnorm_dual, primal_inner_sup
from marginaldro.objectives import minimize_eta_plan, minimize_plan, plan_adjustments

rng = np.random.default_rng(3)
n = 4
x = rng.uniform(-1, 1, size=(n, 2))
losses = rng.uniform(0, 2, size=n)
dist = pairwise_distance_power(x, 2.0)
eta = 0.25
print("losses:", losses.round(3))

print("\ninfimum of the smoothed objective over plans, as moving loss gets pricier:")
for ratio in (0.0, 0.3, 1.0, 3.0, 10.0, 1e6):
    spec = RobustSpec(alpha0=0.5, p=2.0, lipschitz_ratio=ratio, eps=1.0)
    value, plan = minimize_plan(losses, dist, eta, spec, iters=4000)
    c = plan_adjustments(plan)
    print(f"  L/eps = {ratio:>9.1f}: value {value:.4f}   adjustments {np.round(c, 3)}")

# The two limits in closed form:
flat = max(losses.mean() - eta, 0.0)
print(f"\nfree-transport limit  (mean - eta)_+          = {flat:.4f}")
h = np.maximum(losses - eta, 0.0)
print(f"no-transport limit    sqrt(mean hinge^2)      = {np.sqrt(np.mean(h**2)):.4f}")

# Strong duality: the plan infimum equals the maximum over the smoothed
# reweighting functions it was derived from, found by one convex solve.
spec = RobustSpec(alpha0=0.5, p=2.0, lipschitz_ratio=1.0, eps=1.0)
dual, _ = minimize_plan(losses, dist, eta, spec, iters=8000)
primal = primal_inner_sup(losses, dist, eta, spec)
print(f"\nstrong duality check: inf over plans {dual:.6f} "
      f"vs primal supremum {primal:.6f}")
# A postulated confounding level delta prices each unit of plan mass at
# 2 delta^(p-1)/eps; in the primal it loosens every difference bound by that.
spec_conf = RobustSpec(alpha0=0.5, p=2.0, lipschitz_ratio=1.0, eps=1.0, delta=0.1)
dual, _ = minimize_plan(losses, dist, eta, spec_conf, iters=8000)
primal = primal_inner_sup(losses, dist, eta, spec_conf)
print(f"at delta = 0.1:       inf over plans {dual:.6f} "
      f"vs primal supremum {primal:.6f}")

# Adding the threshold eta back in and minimizing over it gives the full
# training surrogate; at a huge price it coincides with the joint p-norm dual.
spec_inf = RobustSpec(alpha0=0.5, p=2.0, lipschitz_ratio=1e6, eps=1e-4)
val, eta_star, _ = minimize_eta_plan(losses, dist, spec_inf, iters=4000)
print(f"\nsurrogate optimum at L/eps = 1e6: {val:.5f} "
      f"(joint p-norm dual: {pnorm_dual(losses, 0.5, 2.0)[0]:.5f})")
