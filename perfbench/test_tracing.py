"""Self-checks of the benchmark's tracer: binding coverage and count identities.

    python3 -m pytest -q perfbench
"""

import json

import numpy as np
import pytest

import run
import tracing
import workloads

md = run.load_package()
DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def declared_units(kind):
    return {m["name"]: m["unit"] for m in DECLARED[kind]}


@pytest.fixture
def tracer():
    tr = tracing.Tracer(extra_modules=[workloads])
    tr.install()
    try:
        yield tr
    finally:
        tr.uninstall()


def test_every_binding_is_wrapped(tracer):
    assert tracer.unwrapped_bindings() == []
    for owner, name in [(md.optim, "cvar_dual"), (md.evaluation, "cvar_dual"),
                        (md.duals, "cvar_dual"), (md.tuning, "train"), (md.cli, "train"),
                        (md.cli, "cross_validate"), (md, "train"), (md.optim, "loss_values"),
                        (md.objectives, "loss_values"), (md.cli, "generate_replicates"),
                        (md.optim.ObjectiveFunction, "value_grad")]:
        assert hasattr(getattr(owner, name), "__wrapped__"), (owner, name)


def test_uninstall_restores_originals():
    original = md.optim.cvar_dual
    tr = tracing.Tracer()
    tr.install()
    assert md.optim.cvar_dual is not original
    tr.uninstall()
    assert md.optim.cvar_dual is original is md.duals.cvar_dual
    assert not hasattr(md.optim.ObjectiveFunction.value_grad, "__wrapped__")


def test_missed_binding_is_reported(tracer):
    wrapped = md.tuning.train
    md.tuning.train = wrapped.__wrapped__
    try:
        assert tracer.unwrapped_bindings() == ["marginaldro.tuning.train"]
    finally:
        md.tuning.train = wrapped


def test_counts_on_a_small_plan_objective(tracer):
    data = md.generate(md.SimSpec(n=50, d=1, variant="toy_1d", seed=3))
    holdout = md.generate_replicates(md.SimSpec(n=40, d=1, variant="toy_1d", seed=4), m=5)
    opt = md.OptimizerConfig(objective="marginal", max_iters=20, fit_intercept=False)
    md.cross_validate(data, "absolute_deviation", md.RobustSpec(alpha0=0.3), opt,
                      [1.0, 10.0], holdout)
    m = {k: v for k, (v, _) in tracing.layer_metrics(tracer.summary(),
                                                       tracer.counters).items()}
    assert m["optim.iterations"] == m["optim.value_grad_calls"] == 40
    assert m["optim.plan_step_calls"] == tracer.counters["plan_iterations"] == 40
    assert m["tuning.grid_points"] == 2 and m["tuning.grid_failed"] == 0
    assert m["objectives.pairwise_distance_power_calls"] == 2
    # n < 1024 keeps the plan in float64
    assert m["optim.plan_bytes"] == tracing.PLAN_ARRAYS_HELD * 50 * 50 * 8
    summary = tracer.summary()
    for name in ("optim.train", "optim.value_grad"):
        assert 0 < summary["self"][name] <= summary["total"][name]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_traced_pass(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    passes, metrics, detail, checks, spans = run.traced_run(
        md, wl, seed=0, seconds=0, reference={}, workdir=tmp_path)
    assert [c for c in checks if c[1] is not None] == []
    assert all(p.failed == 0 for p in passes), [p.ops for p in passes]
    assert {k: v["unit"] for k, v in metrics.items()} == declared_units("per_layer")
    m = {k: v["value"] for k, v in metrics.items()}
    assert m["bench.span_share"] > 0.95
    if name == "cv_toy_1d":
        covered = (m["optim.value_grad_s"] + m["optim.plan_step_s"] + m["optim.train_self_s"]
                   + m["optim.objective_init_s"])
        assert covered >= 0.95 * detail["traced_wall_s"][0]
        assert m["objectives.pairwise_distance_power_calls"] == len(wl.grid)
        assert m["optim.plan_bytes"] == tracing.PLAN_ARRAYS_HELD * 2000 * 2000 * 4
    if name == "plan_free_large_n":
        assert m["optim.plan_step_calls"] == 0 and m["optim.plan_bytes"] == 0
    if name == "cli_csv_roundtrip":
        assert m["cli.csv_bytes_written"] > 0
    assert np.isfinite(list(m.values())).all()


def test_timed_run_reports_every_end_to_end_metric(tmp_path):
    wl = workloads.WORKLOADS["cli_csv_roundtrip"]
    passes, metrics, _, _ = run.timed_run(md, wl, seed=0, seconds=0, reference={},
                                          workdir=tmp_path, import_s=0.0)
    assert all(p.failed == 0 for p in passes), [p.ops for p in passes]
    assert {k: v["unit"] for k, v in metrics.items()} == declared_units("end_to_end")
    assert all(v["value"] > 0 for v in metrics.values())
