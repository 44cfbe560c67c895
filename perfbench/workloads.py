"""The benchmark's four workloads.

Each workload has ``setup(md, seed, workdir)``, which makes the inputs from
the seed through ``datagen`` only, and ``run(md, inputs, rec)``, one pass of
the timed body.  A pass is a closed loop: each library call starts when the
previous one returns.  Every train, eval, CV grid point and CLI command is an
operation: it is timed into ``rec``, its outputs are checked, and it counts as
failed if it raises, exits non-zero, returns non-finite values or misses a
check.  Library functions are looked up on the package at call time, so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from time import perf_counter

import numpy as np

AD = "absolute_deviation"

# relative tolerance of an objective or worst-case risk above its reference
REL_TOL = 1e-6


class PassAborted(Exception):
    """An operation raised, so the operations after it in the pass cannot run."""


class Pass:
    """Timings, operation outcomes and checked outputs of one pass.

    ``reference`` holds the outputs recorded for this seed, if any, and
    ``previous`` the outputs of the run's first pass.  An objective or risk
    may not exceed its reference by more than ``REL_TOL``, and every output
    must equal the first pass's exactly.
    """

    def __init__(self, reference=None, previous=None):
        self.reference = reference or {}
        self.previous = previous or {}
        self.ops: list[tuple[str, str | None]] = []
        self.outputs: dict[str, float] = {}
        self.excess: list[float] = []
        self.train_s = 0.0
        self.eval_s = 0.0
        self.eval_units = 0
        self.worst_risk = None
        self.wall_s = None

    def call(self, name, fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except Exception as err:  # recorded as a failed operation; the pass stops
            self.ops.append((name, f"{type(err).__name__}: {err}"))
            raise PassAborted(name) from err

    def done(self, name, problems):
        self.ops.append((name, "; ".join(problems) or None))

    def expect(self, name, value, kind) -> list[str]:
        """Check one output; ``kind`` is "objective", "risk" or "exact"."""
        value = float(value)
        self.outputs[name] = value
        if not math.isfinite(value):
            return [f"{name} is not finite"]
        problems = []
        ref = self.reference.get(name)
        if ref is not None:
            if kind == "exact":
                if value != ref:
                    problems.append(f"{name} = {value!r}, reference {ref!r}")
            else:
                excess = (value - ref) / max(abs(ref), 1e-12)
                if kind == "objective":
                    self.excess.append(excess)
                if excess > REL_TOL:
                    problems.append(f"{name} = {value!r} exceeds reference {ref!r}")
        prev = self.previous.get(name)
        if prev is not None and value != prev:
            problems.append(f"{name} changed between passes: {prev!r} -> {value!r}")
        return problems


def _train(rec, md, name, dataset, spec, opt):
    t = perf_counter()
    result = rec.call(name, md.train, dataset, AD, spec, opt)
    rec.train_s += perf_counter() - t
    problems = check_trace(result.trace, opt.max_iters)
    if result.objective != result.trace[-1]:
        problems.append("objective is not the last trace value")
    rec.done(name, problems + rec.expect(f"{name}.objective", result.objective, "objective"))
    return result


def check_trace(trace, iters) -> list[str]:
    trace = np.asarray(trace, dtype=float)
    if trace.size != iters:
        return [f"trace has {trace.size} of {iters} iterations"]
    if not np.isfinite(trace).all():
        return ["trace is not finite"]
    if np.any(np.diff(trace) > 0):
        return ["trace increases"]
    return []


def _evaluate(rec, name, fn, params, data, *args, rows, **kwargs):
    """One eval_* call; returns (report, problems) for the caller to record."""
    t = perf_counter()
    report = rec.call(name, fn, params, data, *args, **kwargs)
    rec.eval_s += perf_counter() - t
    rec.eval_units += rows * report.alphas.size
    return report, check_risks(report.alphas, report.risks, report.mean_risk)


def check_risks(alphas, risks, mean_risk) -> list[str]:
    """Worst-case risk is finite, falls as alpha grows, and is the mean at 1."""
    alphas, risks = np.asarray(alphas, dtype=float), np.asarray(risks, dtype=float)
    if not np.isfinite(risks).all():
        return ["risks are not finite"]
    if np.any(np.diff(risks) > 1e-12 * (1.0 + np.abs(risks[:-1]))):
        return ["risk increases with alpha"]
    if alphas[-1] == 1.0 and not math.isclose(risks[-1], mean_risk, rel_tol=1e-9):
        return [f"risk at alpha 1 is {risks[-1]!r}, mean loss {mean_risk!r}"]
    return []


class CvToy1d:
    """The library calls ``repro fig_toy`` makes: CV of L/eps on 1-d data."""

    name = "cv_toy_1d"
    ops_per_pass = 10  # 4 grid points, the CV selection, 2 trains, 3 evals
    grid = (0.1, 1.0, 10.0, 100.0)
    eval_alphas = (0.05, 1.0)

    def setup(self, md, seed, workdir):
        spec = md.SimSpec
        return {
            "train": md.generate(spec(n=2000, d=1, variant="toy_1d", seed=seed)),
            "holdout": md.generate_replicates(
                spec(n=1000, d=1, variant="toy_1d", seed=seed + 100_003), m=100),
            "eval_x": md.generate(spec(n=20_000, d=1, variant="toy_1d",
                                       seed=seed + 77)).features,
        }

    def run(self, md, inp, rec):
        base = md.RobustSpec(alpha0=0.3, p=2.0)
        opt = md.OptimizerConfig(objective="marginal", max_iters=300, step0=0.5,
                                 fit_intercept=False)
        t = perf_counter()
        cv = rec.call("cv", md.cross_validate, inp["train"], AD, base, opt, self.grid,
                      inp["holdout"], score_alpha0=0.05, jobs=1)
        rec.train_s += perf_counter() - t
        for entry in cv.entries:
            name = f"cv[{entry.lipschitz_ratio:g}]"
            problems = [f"failed: {entry.error}"] if entry.error is not None else []
            rec.done(name, problems + rec.expect(f"{name}.score", entry.score, "risk"))
        scores = [e.score for e in cv.entries]
        problems = check_trace(cv.best_result.trace, opt.max_iters)
        if cv.best_ratio != self.grid[int(np.nanargmin(scores))]:
            problems.append(f"selected {cv.best_ratio} is not the best scorer")
        problems += rec.expect("cv.best_ratio", cv.best_ratio, "exact")
        problems += rec.expect("cv.best.objective", cv.best_result.objective, "objective")
        rec.done("cv.select", problems)

        erm = _train(rec, md, "train.erm", inp["train"], base,
                     md.OptimizerConfig(objective="erm", max_iters=400, step0=0.5,
                                        fit_intercept=False))
        joint = _train(rec, md, "train.joint_pnorm", inp["train"], base,
                       md.OptimizerConfig(objective="joint_pnorm", max_iters=400,
                                          step0=0.5, fit_intercept=False))
        rows = inp["eval_x"].shape[0]
        for name, result in (("marginal", cv.best_result), ("erm", erm),
                             ("joint_pnorm", joint)):
            report, problems = _evaluate(rec, f"eval_oracle.{name}", md.eval_oracle,
                                         result.params, inp["eval_x"], "toy_1d",
                                         self.eval_alphas, rows=rows)
            if name == "marginal":
                rec.worst_risk = float(report.risks[0])
                problems += rec.expect("worst_risk", rec.worst_risk, "risk")
            rec.done(f"eval_oracle.{name}", problems)

    def identities(self, m):
        return [("tuning.grid_points", m["tuning.grid_points"], len(self.grid)),
                ("tuning.grid_failed", m["tuning.grid_failed"], 0)]


class Dense2dVariants:
    """Dense paths a 1-d chain cannot replace: d = 2, p < 2, confounding."""

    name = "dense_2d_variants"
    ops_per_pass = 18  # 3 trains, 5 conditional evals each

    def setup(self, md, seed, workdir):
        spec = md.SimSpec
        return {
            "train": md.generate(spec(n=2000, d=2, variant="confounded", seed=seed)),
            "holdout": md.generate_replicates(
                spec(n=2000, d=2, variant="confounded", seed=seed + 13), m=10),
        }

    def run(self, md, inp, rec):
        runs = (
            ("marginal_confounded", md.RobustSpec(alpha0=0.1, p=2.0, lipschitz_ratio=10.0,
                                                  eps=0.05, delta=0.05)),
            ("bounded_holder", md.RobustSpec(alpha0=0.1, p=1.5, lipschitz_ratio=10.0)),
            ("rkhs", md.RobustSpec(alpha0=0.1, p=2.0)),
        )
        holdout = inp["holdout"]
        for objective, spec in runs:
            opt = md.OptimizerConfig(objective=objective, max_iters=300, step0=0.5,
                                     fit_intercept=False)
            result = _train(rec, md, f"train.{objective}", inp["train"], spec, opt)
            worst = -math.inf
            for c in md.datagen.CONFOUNDER_SUPPORT:
                name = f"eval_replicates.{objective}[c={c:g}]"
                report, problems = _evaluate(rec, name, md.eval_replicates, result.params,
                                             holdout, AD, [0.05], rows=holdout.n,
                                             condition=float(c))
                worst = max(worst, float(report.risks[0]))
                if objective == "marginal_confounded" and c == md.datagen.CONFOUNDER_SUPPORT[-1]:
                    rec.worst_risk = worst
                    problems += rec.expect("worst_risk", worst, "risk")
                rec.done(name, problems)

    def identities(self, m):
        return []


class PlanFreeLargeN:
    """Large n with no n x n array: model, duals and evaluation carry the cost."""

    name = "plan_free_large_n"
    ops_per_pass = 6  # 3 trains, 3 eval sweeps
    iters = 400
    # 50 test-time alpha0 values in [0.01, 1], 0.05 among them
    alphas = tuple(np.round(0.01 + 0.02 * np.arange(50), 2))

    def setup(self, md, seed, workdir):
        spec = md.SimSpec
        return {
            "train": md.generate_replicates(spec(n=100_000, d=20, variant="simdist",
                                                 seed=seed), m=50),
            "eval_x": md.generate(spec(n=1_000_000, d=20, variant="simdist",
                                       seed=seed + 77)).features,
        }

    def run(self, md, inp, rec):
        ds = inp["train"]
        spec = md.RobustSpec(alpha0=0.1, p=2.0)
        for objective in ("erm", "joint_cvar", "joint_pnorm"):
            result = _train(rec, md, f"train.{objective}", ds, spec,
                            md.OptimizerConfig(objective=objective, max_iters=self.iters))
        eval_x = inp["eval_x"]
        sweeps = (  # all three score the joint_pnorm model trained last
            ("eval_oracle", md.eval_oracle, eval_x, eval_x.shape[0], "simdist"),
            ("eval_replicates", md.eval_replicates, ds, ds.n, AD),
            ("eval_joint", md.eval_joint, ds, ds.n, AD),
        )
        for name, fn, data, rows, kind in sweeps:
            report, problems = _evaluate(rec, name, fn, result.params, data, kind,
                                         self.alphas, rows=rows)
            if name == "eval_oracle":
                rec.worst_risk = float(report.risks[self.alphas.index(0.05)])
                problems += rec.expect("worst_risk", rec.worst_risk, "risk")
            rec.done(name, problems)

    def identities(self, m):
        # one eta init per eta-using train, a cvar_dual refresh every
        # eta_refresh iterations of joint_cvar, and one call per swept alpha
        refreshes = math.ceil(self.iters / 10)
        return [("duals.cvar_dual_calls", m["duals.cvar_dual_calls"],
                 2 + refreshes + 3 * len(self.alphas)),
                ("duals.pnorm_dual_calls", m["duals.pnorm_dual_calls"], refreshes)]


class CliCsvRoundtrip:
    """In-process CLI: gen writes a CSV that train and eval each read back."""

    name = "cli_csv_roundtrip"
    ops_per_pass = 3  # gen, train, eval
    n, d, replicates, iters = 100_000, 5, 20, 200
    eval_alphas = (0.05, 0.1, 0.15, 0.3, 0.5, 1.0)  # the CLI's default --alphas

    def setup(self, md, seed, workdir):
        return {"seed": seed, "data": workdir / "data.csv", "model": workdir / "model.txt",
                "eval": workdir / "eval.csv"}

    def _main(self, rec, md, argv):
        name = f"cli.{argv[0]}"
        out, err = io.StringIO(), io.StringIO()
        t = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = rec.call(name, md.cli.main, argv)
        elapsed = perf_counter() - t
        if code != 0:
            rec.ops.append((name, f"exit code {code}: {err.getvalue().strip()}"))
            raise PassAborted(name)
        return elapsed

    def run(self, md, inp, rec):
        data, model = str(inp["data"]), str(inp["model"])
        self._main(rec, md, ["gen", "--variant", "simdist", "--n", str(self.n),
                             "--d", str(self.d), "--replicates", str(self.replicates),
                             "--seed", str(inp["seed"]), "--out-csv", data])
        with open(data, "rb") as fh:
            header = fh.readline().decode().strip().split(",")
            rows = 1 + sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))
        problems = []
        if rows != self.n + 1:
            problems.append(f"gen wrote {rows} lines, expected {self.n + 1}")
        if len(header) != self.d + 2 + self.replicates:  # x0..x{d-1}, y, z, y_rep*
            problems.append(f"gen wrote {len(header)} columns")
        rec.done("cli.gen", problems)

        rec.train_s += self._main(rec, md, [
            "train", "--in-csv", data, "--objective", "joint_cvar", "--alpha0", "0.1",
            "--iters", str(self.iters), "--out-model", model])
        with open(model) as fh:
            model_lines = fh.read().split()
        with open(model + ".trace.jsonl") as fh:
            trace = [json.loads(line)["objective"] for line in fh]
        problems = check_trace(trace, self.iters)
        if len(model_lines) != self.d + 1:
            problems.append(f"model file has {len(model_lines)} lines")
        if trace:
            problems += rec.expect("cli.train.objective", trace[-1], "objective")
        rec.done("cli.train", problems)

        rec.eval_s += self._main(rec, md, [
            "eval", "--model", model, "--mode", "replicates", "--in-csv", data,
            "--out-csv", str(inp["eval"])])
        rec.eval_units += self.n * len(self.eval_alphas)
        with open(inp["eval"]) as fh:
            lines = fh.read().splitlines()
        table = [line.split(",") for line in lines[1:]]
        alphas = [float(row[0]) for row in table]
        risks = [float(row[1]) for row in table]
        if lines[0] != "alpha0,risk,method" or alphas != list(self.eval_alphas):
            problems = [f"eval wrote {len(lines)} lines with alphas {alphas}"]
        else:
            # the CSV carries no mean loss; alpha 1 is checked against itself
            problems = check_risks(alphas, risks, risks[-1])
            rec.worst_risk = risks[0]
            problems += rec.expect("worst_risk", rec.worst_risk, "risk")
        rec.done("cli.eval", problems)

    def identities(self, m):
        return [("cli.read_dataset_csv_calls", m["cli.read_dataset_csv_calls"], 2)]


WORKLOADS = {w.name: w for w in (CvToy1d(), Dense2dVariants(), PlanFreeLargeN(),
                                 CliCsvRoundtrip())}
