"""Command-line front end: data generation, training, evaluation, CV, repro.

Subcommands
-----------
gen     write a synthetic dataset (optionally with replicate labels) as CSV
train   fit a model on a CSV and save it as a plain-text parameter file
eval    sweep worst-case risk over test-time alpha0 values, write CSV
cv      grid-search lipschitz_ratio scored by held-out replicate risk
repro   run a scripted desk-scale experiment and emit plot-ready CSVs

Every command is deterministic given its flags and config file; a command
that draws takes --seed (environment variable DRO_SEED is the fallback).
Rows come from --in-csv or a seeded --variant draw (``_dataset``); a flag
the run would ignore is a usage error, among them each hyperparameter flag
whose field the objective does not read (``optim.SPEC_FIELDS``).  Exit
codes: 0 on success, 1 on numeric failure, 2 on usage or I/O errors and on
a MemoryError raised before the n x n arrays are built.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from .datagen import SimSpec, generate, generate_replicates, CONFOUNDER_SUPPORT
from .duals import RobustSpec
from .evaluation import eval_joint, eval_oracle, eval_replicates, ORACLE_EVAL_ROWS
from .model import Dataset, ParamVector
from .optim import OBJECTIVES, PLAN_OBJECTIVES, SPEC_FIELDS, OptimizerConfig, train
from .tuning import cross_validate

USAGE_EXIT = 2
NUMERIC_EXIT = 1

CONFIG_KEYS = ("objective", "loss", "alpha0", "p", "lipschitz_ratio", "eps", "delta",
               "n", "d", "seed", "iters", "step0", "ridge", "in_csv", "out_csv",
               "alphas")

EVAL_ALPHAS_DEFAULT = "0.05,0.1,0.15,0.3,0.5,1.0"

# dataset CSV rows formatted per write; bounds the writer's memory
CSV_CHUNK_ROWS = 4096


class UsageError(Exception):
    pass


def main(argv=None) -> int:
    parser, subparsers = _build_parser()
    try:
        args = parser.parse_args(argv)
        subparser = subparsers[args.command]
        # flags set on the command line; config-file values count as defaults
        given = {act.option_strings[-1] for act in subparser._actions  # noqa: SLF001
                 if act.option_strings and getattr(args, act.dest, act.default) != act.default}
        if args.config:
            _apply_config_defaults(subparser, args.config)
            args = parser.parse_args(argv)  # command-line flags still win
        args.given = given
        return args.func(args)
    except SystemExit as err:
        return USAGE_EXIT if err.code not in (0, None) else 0
    except (UsageError, OSError, ValueError, MemoryError) as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE_EXIT
    except (RuntimeError, ArithmeticError) as err:  # DivergenceError is a RuntimeError
        print(f"error: {err}", file=sys.stderr)
        return NUMERIC_EXIT


def _build_parser():
    parser = argparse.ArgumentParser(prog="marginaldro",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary, func, seeded=True):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", help="flat key=value config file; flags override it")
        if seeded:
            p.add_argument("--seed", type=int, default=None,
                           help="random seed (fallback: DRO_SEED, then 0)")
        p.set_defaults(func=func)
        return p

    def synthetic(p, variant, n):
        p.add_argument("--variant", choices=("toy_1d", "simdist", "confounded"),
                       default=variant)
        p.add_argument("--n", type=int, default=n)
        p.add_argument("--d", type=int, default=1)
        p.add_argument("--alpha-true", type=float, default=0.15)

    def training(p, ratio, ratio_help, iters):
        p.add_argument("--loss", choices=("absolute_deviation", "logistic"),
                       default="absolute_deviation")
        p.add_argument("--alpha0", type=float, default=0.3)
        p.add_argument("--p", type=float, default=2.0)
        p.add_argument("--lipschitz-ratio", default=ratio, help=ratio_help)
        p.add_argument("--eps", type=float, default=None)
        p.add_argument("--delta", type=float, default=0.0)
        p.add_argument("--iters", type=int, default=iters)
        p.add_argument("--step0", type=float, default=0.5)
        p.add_argument("--ridge", type=float, default=0.0)
        p.add_argument("--no-intercept", action="store_true")

    g = command("gen", "generate a synthetic dataset CSV", cmd_gen)
    synthetic(g, "simdist", 1000)
    g.add_argument("--replicates", type=int, default=0, metavar="M",
                   help="also draw M replicate labels per row")
    g.add_argument("--out-csv", default="-", help="output path ('-' for stdout)")

    t = command("train", "train a model on a CSV dataset", cmd_train, seeded=False)
    t.add_argument("--in-csv", required=False)
    t.add_argument("--objective", choices=OBJECTIVES, default="erm")
    training(t, "1.0", "L/eps (a single value here; a comma grid in cv)", 400)
    t.add_argument("--out-model", default="model.txt")
    t.add_argument("--out-trace", default=None,
                   help="JSON-lines objective trace (default: <out-model>.trace.jsonl)")

    e = command("eval", "evaluate worst-case risk over alpha0 grid", cmd_eval)
    e.add_argument("--model", required=True)
    e.add_argument("--mode", choices=("oracle", "replicates", "joint"), default="joint")
    e.add_argument("--loss", choices=("absolute_deviation", "logistic", "zero_one"),
                   default="absolute_deviation")
    e.add_argument("--alphas", default=EVAL_ALPHAS_DEFAULT)
    e.add_argument("--in-csv", default=None, help="dataset CSV (else synthetic variant)")
    synthetic(e, None, ORACLE_EVAL_ROWS)
    e.add_argument("--replicates", type=int, default=10, metavar="M")
    e.add_argument("--condition", type=float, default=None,
                   help="restrict replicate evaluation to rows with this confounder value")
    e.add_argument("--out-csv", default="-")

    c = command("cv", "cross-validate lipschitz_ratio on a grid", cmd_cv)
    c.add_argument("--in-csv", default=None)
    synthetic(c, "simdist", 2000)
    c.add_argument("--objective", choices=PLAN_OBJECTIVES, default="marginal")
    training(c, "0.1,1,10,100", "comma-separated grid of L/eps values", 300)
    c.add_argument("--cv-alpha0", type=float, default=None,
                   help="alpha0 for the held-out replicate score (default: --alpha0)")
    c.add_argument("--holdout-frac", type=float, default=0.25,
                   help="held-out row fraction when scoring a CSV dataset")
    c.add_argument("--out-csv", default="-")

    r = command("repro", "run a scripted experiment, write CSV bundle", cmd_repro)
    r.add_argument("figure", help=f"one of {', '.join(FIGURES)}")
    r.add_argument("--outdir", default=".")
    return parser, sub.choices


def _apply_config_defaults(subparser, path):
    """Install config-file values as subcommand defaults; flags override them."""
    if not os.path.exists(path):
        raise UsageError(f"config file not found: {path}")
    overrides = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in CONFIG_KEYS:
                raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
            overrides[key] = value
    dests = {act.dest for act in subparser._actions}  # noqa: SLF001
    # string defaults go through each flag's type when parsed, so a bad value
    # is reported against its flag; valid keys this subcommand lacks are skipped
    subparser.set_defaults(**{k: v for k, v in overrides.items() if k in dests})


def _seed_of(args) -> int:
    if args.seed is not None:
        return args.seed
    return int(os.environ.get("DRO_SEED", "0"))


# ---------------------------------------------------------------- CSV I/O

def write_dataset_csv(dataset: Dataset, path):
    """Header x0..x{d-1},y[,z][,c][,y_rep0..]; numeric cells, LF endings.

    Cells are ``repr`` of the float64 values.  Rows are formatted and written
    ``CSV_CHUNK_ROWS`` at a time, so memory beyond the dataset itself stays
    bounded by the chunk, not by n.
    """
    cols = [f"x{i}" for i in range(dataset.d)] + ["y"]
    mats = [dataset.features, dataset.labels[:, None]]
    if dataset.group is not None:
        cols.append("z")
        mats.append(dataset.group[:, None])
    if dataset.confounder is not None:
        cols.append("c")
        mats.append(dataset.confounder[:, None])
    if dataset.replicates is not None:
        m = dataset.replicates.shape[1]
        cols.extend(f"y_rep{j}" for j in range(m))
        mats.append(dataset.replicates)
    if path == "-":
        _write_csv_chunks(sys.stdout, cols, mats, dataset.n)
    else:
        with open(path, "w", newline="\n") as fh:
            _write_csv_chunks(fh, cols, mats, dataset.n)


def _write_csv_chunks(fh, cols, mats, n):
    fh.write(",".join(cols) + "\n")
    row_fmt = ",".join(["%r"] * len(cols)) + "\n"
    block = np.empty((min(n, CSV_CHUNK_ROWS), len(cols)))
    chunk_fmt = row_fmt * len(block)
    for lo in range(0, n, len(block)):
        part = block[:n - lo]
        np.concatenate([mat[lo:lo + len(part)] for mat in mats], axis=1, out=part)
        fmt = chunk_fmt if len(part) == len(block) else row_fmt * len(part)
        fh.write(fmt % tuple(part.ravel().tolist()))


def read_dataset_csv(path, loss_kind: str = "absolute_deviation") -> Dataset:
    """Parse a dataset CSV written by ``write_dataset_csv`` (or compatible).

    For classification losses, {0, 1} labels (and replicate labels) are
    mapped to {-1, +1}.
    """
    if not os.path.exists(path):
        raise UsageError(f"input CSV not found: {path}")
    with open(path) as fh:
        header = fh.readline().strip()
        if not header:
            raise UsageError(f"{path}: empty file")
        names = header.split(",")
        try:
            body = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as err:
            raise UsageError(f"{path}: could not parse numeric body: {err}") from None
    if body.size == 0:
        raise UsageError(f"{path}: no data rows")
    if body.shape[1] != len(names):
        raise UsageError(f"{path}: header has {len(names)} columns, rows have {body.shape[1]}")
    cols = {name: body[:, i] for i, name in enumerate(names)}
    feat_names = [n for n in names if n.startswith("x")]
    if not feat_names or "y" not in cols:
        raise UsageError(f"{path}: expected columns x0..x{{d-1}} and y")
    features = np.column_stack([cols[n] for n in feat_names])
    labels = cols["y"]
    rep_names = [n for n in names if n.startswith("y_rep")]
    replicates = np.column_stack([cols[n] for n in rep_names]) if rep_names else None
    if loss_kind in ("logistic", "zero_one"):
        labels = _map_binary(labels, path)
        if replicates is not None:
            replicates = _map_binary(replicates, path)
    return Dataset(features, labels, replicates=replicates,
                   group=cols.get("z"), confounder=cols.get("c"))


def _map_binary(values, path):
    uniq = np.unique(values)
    if np.isin(uniq, (0.0, 1.0)).all():
        return 2.0 * values - 1.0
    if np.isin(uniq, (-1.0, 1.0)).all():
        return values
    raise UsageError(f"{path}: classification labels must be 0/1 or -1/+1")


def write_model(params: ParamVector, path):
    values = list(params.theta) + [params.intercept]
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(repr(float(v)) for v in values) + "\n")


def read_model(path) -> ParamVector:
    if not os.path.exists(path):
        raise UsageError(f"model file not found: {path}")
    values = np.loadtxt(path, ndmin=1)
    if values.size < 2:
        raise UsageError(f"{path}: model file needs >= 2 lines (theta then intercept)")
    return ParamVector(values[:-1], values[-1])


def _write_rows(path, header, rows):
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    text = "\n".join(lines) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.10g}"
    return str(v)


# ---------------------------------------------------------------- commands

def _dataset(args, m=None) -> Dataset:
    """The command's rows: ``--in-csv``, else a seeded ``--variant`` draw with
    m replicate labels per row when m is given."""
    if getattr(args, "in_csv", None) is not None:
        _reject_given(args, ("--variant", "--n", "--d", "--alpha-true", "--replicates"),
                      "sets the synthetic draw, which --in-csv replaces")
        return read_dataset_csv(args.in_csv, args.loss)
    if args.variant is None:
        raise UsageError(f"{args.command} needs --in-csv or --variant")
    spec = _sim_spec(args)
    return generate(spec) if m is None else generate_replicates(spec, m)


def _sim_spec(args) -> SimSpec:
    return SimSpec(n=args.n, d=args.d, alpha_true=args.alpha_true, variant=args.variant,
                   seed=_seed_of(args))


def _reject_given(args, flags, why):
    """Raise a UsageError naming the first of ``flags`` the command line set."""
    for flag in flags:
        if flag in args.given:
            raise UsageError(f"{flag} {why}")


def _float_list(text, flag):
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise UsageError(f"bad {flag} list: {text!r}") from None
    if not values:
        raise UsageError(f"empty {flag} list")
    return values


def _robust_spec(args):
    """The training flags' RobustSpec at the first --lipschitz-ratio, and the list.

    Setting a field the objective does not read is a usage error."""
    _reject_given(args, [f"--{field.replace('_', '-')}"
                         for field in ("alpha0", "p", "lipschitz_ratio", "eps", "delta")
                         if field not in SPEC_FIELDS[args.objective]],
                  f"has no effect on {args.objective}")
    ratios = _float_list(args.lipschitz_ratio, "--lipschitz-ratio")
    spec = RobustSpec(alpha0=args.alpha0, p=args.p, lipschitz_ratio=ratios[0],
                      eps=args.eps, delta=args.delta)
    return spec, ratios


def _opt_config(args) -> OptimizerConfig:
    return OptimizerConfig(objective=args.objective, max_iters=args.iters,
                           step0=args.step0, ridge=args.ridge,
                           fit_intercept=not args.no_intercept)


def cmd_gen(args) -> int:
    if args.replicates < 0:
        raise UsageError(f"--replicates must be >= 0, got {args.replicates}")
    write_dataset_csv(_dataset(args, args.replicates or None), args.out_csv)
    return 0


def cmd_train(args) -> int:
    if not args.in_csv:
        raise UsageError("train requires --in-csv (or in_csv in the config file)")
    spec, ratios = _robust_spec(args)
    if len(ratios) > 1:
        raise UsageError("train takes a single lipschitz_ratio; use cv for grids")
    result = train(_dataset(args), args.loss, spec, _opt_config(args))
    write_model(result.params, args.out_model)
    trace_path = args.out_trace or args.out_model + ".trace.jsonl"
    with open(trace_path, "w", newline="\n") as fh:
        for i, value in enumerate(result.trace):
            fh.write(json.dumps({"iter": i, "objective": float(value)}) + "\n")
    print(f"wrote {args.out_model} (objective {result.objective:.6g}, "
          f"{len(result.trace)} iterations)")
    return 0


def cmd_eval(args) -> int:
    if args.mode != "replicates":
        _reject_given(args, ("--condition", "--replicates"), "applies only to --mode replicates")
    if args.in_csv is not None:  # cv keeps --seed: it seeds the split of its CSV rows
        _reject_given(args, ("--seed",), "seeds the synthetic draw, which --in-csv replaces")
    params = read_model(args.model)
    alphas = _float_list(args.alphas, "--alphas")
    if args.mode == "oracle":
        if args.in_csv is not None:
            raise UsageError("oracle mode evaluates a synthetic variant, not a CSV")
        if args.loss != "absolute_deviation":
            raise UsageError(f"oracle mode scores absolute deviation; --loss {args.loss} "
                             "needs --mode replicates or joint")
        args.variant = args.variant or "simdist"
        report = eval_oracle(params, _dataset(args).features, args.variant, alphas)
    elif args.mode == "replicates":
        ds = _dataset(args, args.replicates)
        if ds.replicates is None:
            raise UsageError(f"{args.in_csv}: no y_rep columns for replicate evaluation")
        report = eval_replicates(params, ds, args.loss, alphas, condition=args.condition)
    else:
        report = eval_joint(params, _dataset(args), args.loss, alphas)
    _write_rows(args.out_csv, ("alpha0", "risk", "method"), report.rows())
    return 0


def cmd_cv(args) -> int:
    if args.in_csv is None:
        _reject_given(args, ("--holdout-frac",), "applies only with --in-csv")
    if not 0.0 < args.holdout_frac < 1.0:
        raise UsageError(f"--holdout-frac must lie in (0, 1), got {args.holdout_frac:g}")
    spec, grid = _robust_spec(args)
    ds = _dataset(args)
    if args.in_csv is None:
        holdout = _replicate_holdout(_sim_spec(args))
    else:
        n_hold = max(1, int(round(args.holdout_frac * ds.n)))
        order = np.random.default_rng(_seed_of(args)).permutation(ds.n)
        hold_idx, train_idx = order[:n_hold], order[n_hold:]
        if train_idx.size == 0:
            raise UsageError("holdout fraction leaves no training rows")
        ds, holdout = _subset(ds, train_idx), _subset(ds, hold_idx)
        if holdout.replicates is None:
            # fall back to single-draw replicates (the m=1 estimate)
            holdout = replace(holdout, replicates=holdout.labels[:, None])
    result = cross_validate(ds, args.loss, spec, _opt_config(args), grid, holdout,
                            score_alpha0=args.cv_alpha0)
    rows = [(e.lipschitz_ratio, e.score, "ok" if e.error is None else "failed")
            for e in result.entries]
    _write_rows(args.out_csv, ("lipschitz_ratio", "score", "status"), rows)
    print(f"selected lipschitz_ratio={result.best_ratio:g}")
    return 0


def _subset(ds: Dataset, idx) -> Dataset:
    return Dataset(**{name: None if col is None else col[idx] for name, col in vars(ds).items()})


# ---------------------------------------------------------------- repro

def cmd_repro(args) -> int:
    if args.figure not in FIGURES:
        raise UsageError(f"unknown figure id {args.figure!r}; valid ids: "
                         + ", ".join(FIGURES))
    os.makedirs(args.outdir, exist_ok=True)
    header, rows = FIGURES[args.figure](_seed_of(args))
    path = os.path.join(args.outdir, f"{args.figure}.csv")
    _write_rows(path, header, rows)
    print(f"wrote {path}")
    return 0


def _replicate_holdout(spec: SimSpec) -> Dataset:
    """The held-out replicate sample CV scores on: 1000 rows, 100 labels each,
    drawn like the training ``spec`` under another seed."""
    return generate_replicates(replace(spec, n=1000, seed=spec.seed + 100_003), m=100)


def _baselines(ds, alpha0) -> dict:
    """ERM and joint p = 2 DRO parameters (400 iterations, no intercept)."""
    spec = RobustSpec(alpha0=alpha0, p=2.0)
    return {objective: train(ds, "absolute_deviation", spec,
                             OptimizerConfig(objective=objective, max_iters=400, step0=0.5,
                                             fit_intercept=False)).params
            for objective in ("erm", "joint_pnorm")}


def _fit_models(spec: SimSpec, iters=300) -> dict:
    """ERM / joint p = 2 / CV'd marginal DRO parameters on one draw of ``spec``.

    Marginal DRO trains at alpha0 = 0.3 over L/eps in {0.1, 1, 10, 100} and
    is selected by its held-out replicate risk at alpha0 = 0.05.
    """
    ds = generate(spec)
    opt = OptimizerConfig(objective="marginal", max_iters=iters, step0=0.5,
                          fit_intercept=False)
    cv = cross_validate(ds, "absolute_deviation", RobustSpec(alpha0=0.3, p=2.0), opt,
                        (0.1, 1.0, 10.0, 100.0), _replicate_holdout(spec),
                        score_alpha0=0.05)
    return {**_baselines(ds, 0.3), "marginal": cv.best_result.params}


def _oracle_reports(models: dict, spec: SimSpec, alphas=(0.05,)) -> dict:
    """Oracle risk report of each named ParamVector on one fresh draw like ``spec``."""
    feats = generate(replace(spec, n=ORACLE_EVAL_ROWS, seed=spec.seed + 77)).features
    return {name: eval_oracle(params, feats, spec.variant, alphas)
            for name, params in models.items()}


def _repro_toy(seed):
    spec = SimSpec(n=2000, d=1, variant="toy_1d", seed=seed)
    models = _fit_models(spec)
    reports = _oracle_reports(models, spec, (0.05, 1.0))
    rows = [(name, float(models[name].theta[0]), models[name].intercept,
             report.risks[0], report.mean_risk) for name, report in reports.items()]
    return ("method", "slope", "intercept", "risk_alpha005", "mean_risk"), rows


def _repro_alpha_sweep(seed):
    alphas = (0.05, 0.1, 0.15, 0.3, 0.5, 1.0)
    spec = SimSpec(n=2000, d=1, variant="simdist", seed=seed)
    reports = _oracle_reports(_fit_models(spec), spec, alphas)
    rows = [(name, a, r) for name, report in reports.items() for a, r, _ in report.rows()]
    # single-slope oracle reference per test alpha0
    slopes = {s: ParamVector([s]) for s in np.linspace(-0.25, 1.25, 76)}
    best = np.min([r.risks for r in _oracle_reports(slopes, spec, alphas).values()],
                  axis=0)
    rows.extend(("oracle_best_slope", a, float(r)) for a, r in zip(alphas, best))
    return ("method", "alpha0", "risk"), rows


def _repro_lip_sensitivity(seed):
    spec = SimSpec(n=2000, d=1, variant="simdist", seed=seed)
    ds = generate(spec)
    opt = OptimizerConfig(objective="marginal", max_iters=300, step0=0.5,
                          fit_intercept=False)
    models = {("marginal", ratio): train(ds, "absolute_deviation",
                                         RobustSpec(alpha0=0.3, p=2.0, lipschitz_ratio=ratio),
                                         opt).params
              for ratio in (0.1, 1.0, 10.0, 100.0, 1000.0)}
    models.update(((name, ""), params) for name, params in _baselines(ds, 0.3).items())
    rows = [(*key, report.risks[0])
            for key, report in _oracle_reports(models, spec).items()]
    return ("method", "lipschitz_ratio", "risk_alpha005"), rows


def _repro_dimdep(seed):
    rows = []
    for d in (1, 10):
        for n in (200, 500, 2000):
            spec = SimSpec(n=n, d=d, variant="simdist", seed=seed)
            rows.extend((d, n, name, report.risks[0]) for name, report
                        in _oracle_reports(_fit_models(spec, iters=250), spec).items())
    return ("d", "n", "method", "risk_alpha005"), rows


def _repro_confounded(seed):
    ds = generate(SimSpec(n=2000, d=2, variant="confounded", seed=seed))
    holdout = generate_replicates(SimSpec(n=2000, d=2, variant="confounded",
                                          seed=seed + 13), m=10)
    models = {}
    # delta is priced as delta^(p-1)/eps, so eps is pinned to keep the
    # postulated confounding levels on an interpretable scale
    for delta in (0.0, 0.02, 0.05, 0.2):
        spec = RobustSpec(alpha0=0.1, p=2.0, lipschitz_ratio=10.0, eps=0.05, delta=delta)
        opt = OptimizerConfig(objective="marginal", max_iters=300, step0=0.5,
                              fit_intercept=False)
        models[f"marginal_delta{delta:g}"] = train(ds, "absolute_deviation", spec, opt).params
    models.update(_baselines(ds, 0.1))
    rows = [(name, float(c), eval_replicates(params, holdout, "absolute_deviation", [0.05],
                                             condition=float(c)).risks[0])
            for name, params in models.items() for c in CONFOUNDER_SUPPORT]
    return ("method", "c", "risk_alpha005"), rows


# figure id -> runner returning the (header, rows) of <figure id>.csv
FIGURES = {"fig_toy": _repro_toy, "fig_dimdep": _repro_dimdep,
           "fig_alpha_sweep": _repro_alpha_sweep,
           "fig_lip_sensitivity": _repro_lip_sensitivity,
           "fig_confounded": _repro_confounded}


if __name__ == "__main__":
    sys.exit(main())
