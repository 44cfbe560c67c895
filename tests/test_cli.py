import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import fields

import numpy as np
import pytest

import marginaldro.objectives as objectives
from marginaldro import OptimizerConfig, RobustSpec, cli, tuning
from marginaldro.cli import (
    main,
    read_dataset_csv,
    read_model,
    write_dataset_csv,
)
from marginaldro.duals import SPEC_FIELDS
from marginaldro.model import ROW_BLOCK, Dataset


def run_cli(*args, env=None, cwd=None):
    full_env = dict(os.environ)
    full_env.update(env or {})
    return subprocess.run([sys.executable, "-m", "marginaldro.cli", *args],
                          capture_output=True, text=True, env=full_env, cwd=cwd)


@pytest.fixture()
def workdir(tmp_path):
    return tmp_path


def write_line_csv(path, slope=2.0, n=60):
    x = np.linspace(-1.0, 1.0, n)
    with open(path, "w") as fh:
        fh.write("x0,y\n")
        for xi in x:
            fh.write(f"{xi},{slope * xi}\n")


def test_gen_rows_and_determinism(workdir):
    a = run_cli("gen", "--variant", "toy_1d", "--n", "3", "--seed", "7")
    b = run_cli("gen", "--variant", "toy_1d", "--n", "3", "--seed", "7")
    assert a.returncode == 0
    assert a.stdout == b.stdout
    lines = a.stdout.strip().splitlines()
    assert lines[0] == "x0,y,z"
    assert len(lines) == 4  # header + 3 rows


def test_gen_round_trip(workdir):
    out = workdir / "data.csv"
    r = run_cli("gen", "--variant", "confounded", "--n", "25", "--d", "3",
                "--replicates", "4", "--seed", "5", "--out-csv", str(out))
    assert r.returncode == 0
    ds = read_dataset_csv(str(out))
    from marginaldro.datagen import SimSpec, generate_replicates

    ref = generate_replicates(SimSpec(n=25, d=3, variant="confounded", seed=5), 4)
    assert np.array_equal(ds.features, ref.features)
    assert np.array_equal(ds.labels, ref.labels)
    assert np.array_equal(ds.replicates, ref.replicates)
    assert np.array_equal(ds.confounder, ref.confounder)
    assert np.array_equal(ds.group, ref.group)


def whole_file_csv_text(dataset):
    """Reference: the dataset CSV built in one piece, one ``repr`` per cell."""
    cols = [f"x{i}" for i in range(dataset.d)] + ["y"]
    mats = [dataset.features, dataset.labels[:, None]]
    if dataset.group is not None:
        cols.append("z")
        mats.append(dataset.group[:, None])
    if dataset.confounder is not None:
        cols.append("c")
        mats.append(dataset.confounder[:, None])
    if dataset.replicates is not None:
        cols.extend(f"y_rep{j}" for j in range(dataset.replicates.shape[1]))
        mats.append(dataset.replicates)
    lines = [",".join(cols)]
    lines.extend(",".join(repr(v) for v in row) for row in np.hstack(mats).tolist())
    return "\n".join(lines) + "\n"


def random_dataset(n, d=2, group=True, confounder=True, replicates=3, seed=0):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-300, 300, size=(n, d))
    features[::7] = np.round(features[::7])  # integral cells print as 3.0, -0.0
    return Dataset(features, rng.normal(size=n),
                   replicates=rng.normal(size=(n, replicates)) if replicates else None,
                   group=rng.integers(0, 2, size=n) if group else None,
                   confounder=rng.choice([-1.0, 0.5, 1.0], size=n) if confounder else None)


COLUMN_SETS = {"xy": dict(group=False, confounder=False, replicates=0),
               "xy_zc_rep": dict(group=True, confounder=True, replicates=3),
               "xy_rep": dict(group=False, confounder=False, replicates=2)}


@pytest.mark.parametrize("n", [1, ROW_BLOCK, ROW_BLOCK + 1])
@pytest.mark.parametrize("columns", sorted(COLUMN_SETS))
def test_write_dataset_csv_matches_whole_file_text(tmp_path, n, columns):
    ds = random_dataset(n, **COLUMN_SETS[columns])
    path = tmp_path / "data.csv"
    write_dataset_csv(ds, str(path))
    assert path.read_bytes() == whole_file_csv_text(ds).encode()
    back = read_dataset_csv(str(path))
    for name in ("features", "labels", "replicates", "group", "confounder"):
        got, want = getattr(back, name), getattr(ds, name)
        assert (got is None) == (want is None), name
        if want is not None:
            assert got.tobytes() == want.tobytes(), name


def test_write_dataset_csv_to_stdout(capsys):
    ds = random_dataset(ROW_BLOCK + 1, seed=1)
    write_dataset_csv(ds, "-")
    assert capsys.readouterr().out == whole_file_csv_text(ds)


def test_write_dataset_csv_memory_bounded_by_chunk(tmp_path):
    """The writer's allocation peak is set by the row chunk, not by n."""
    peaks = []
    for n in (10_000, 50_000):
        ds = random_dataset(n)
        tracemalloc.start()
        try:
            write_dataset_csv(ds, str(tmp_path / f"data{n}.csv"))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.2 * peaks[0], peaks


def test_gen_usage_errors():
    assert run_cli("gen", "--variant", "simdist", "--d", "0").returncode == 2
    assert run_cli("gen", "--variant", "simdist", "--n", "0").returncode == 2


def test_train_and_model_file(workdir):
    csv = workdir / "lin.csv"
    write_line_csv(csv)
    model = workdir / "model.txt"
    r = run_cli("train", "--in-csv", str(csv), "--objective", "erm", "--iters", "500",
                "--no-intercept", "--out-model", str(model))
    assert r.returncode == 0
    params = read_model(str(model))
    assert params.theta[0] == pytest.approx(2.0, abs=1e-2)
    assert params.intercept == 0.0
    # one value per line, intercept last
    lines = model.read_text().strip().splitlines()
    assert len(lines) == 2
    trace = model.with_name(model.name + ".trace.jsonl")
    assert trace.exists()
    import json

    records = [json.loads(line) for line in trace.read_text().splitlines()]
    objs = [rec["objective"] for rec in records]
    assert objs == sorted(objs, reverse=True)  # running best is nonincreasing


def test_train_missing_csv_names_path(workdir):
    r = run_cli("train", "--in-csv", str(workdir / "nope.csv"))
    assert r.returncode == 2
    assert "nope.csv" in r.stderr


def test_csv_columns_are_placed_by_number(workdir):
    csv = workdir / "d.csv"
    csv.write_text("y_rep1,x1,y,x0,y_rep0\n1,2,3,4,5\n6,7,8,9,10\n")
    ds = read_dataset_csv(str(csv))
    assert ds.features.tolist() == [[4.0, 2.0], [9.0, 7.0]]
    assert ds.labels.tolist() == [3.0, 8.0]
    assert ds.replicates.tolist() == [[5.0, 1.0], [10.0, 6.0]]


@pytest.mark.parametrize("kind, text, flags, message", [
    ("csv", "", (), "empty file"),
    ("csv", "x0,y\n", (), "no data rows"),
    ("csv", "x0,y\n1,a\n", (), "could not parse numeric body"),
    ("csv", "x0,y,z\n1,2\n", (), "header has 3 columns, rows have 2"),
    ("csv", "x0,x1\n1,2\n", (), "expected columns x0..x{d-1} and y"),
    ("csv", "x1,y\n1,2\n", (), "expected columns x0..x{d-1} and y"),
    ("csv", "x0,y\n1,0.5\n", ("--loss", "logistic"),
     "classification labels must be 0/1 or -1/+1"),
    ("csv", "x0,y,xtra\n1,2,3\n", (), "unexpected column 'xtra'"),
    ("csv", "x0,x2,y\n1,2,3\n", (), "unexpected column 'x2'"),
    ("csv", "x0,y,x0\n1,2,3\n", (), "unexpected column 'x0'"),
    ("csv", "x0,y,y_rep1\n1,2,3\n", (), "unexpected column 'y_rep1'"),
    ("csv", "x0,y,w\n1,2,3\n", (), "unexpected column 'w'"),
    ("model", "1.0\n", (), "model file needs >= 2 lines"),
    ("model", "", (), "model file needs >= 2 lines"),
    ("model", "abc\n1.0\n", (), "could not convert string 'abc'"),
    ("model", "1.0\nnan\n", (), "parameters must be finite"),
])
def test_bad_input_file_is_one_error_line(workdir, capsys, kind, text, flags, message):
    """Each exits 2 with one ``error:`` line that names the file, and no numpy warning."""
    path = workdir / "input"
    path.write_text(text)
    if kind == "csv":
        argv = ["train", "--in-csv", str(path), "--iters", "2",
                "--out-model", str(workdir / "m.txt")]
    else:
        write_line_csv(workdir / "lin.csv")
        argv = ["eval", "--model", str(path), "--in-csv", str(workdir / "lin.csv"),
                "--out-csv", str(workdir / "out.csv")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([*argv, *flags])
    err = capsys.readouterr().err
    assert code == 2 and [str(w.message) for w in caught] == []
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1, err
    assert message in err, err


def test_train_divergence_exit_code(workdir):
    csv = workdir / "lin.csv"
    write_line_csv(csv)
    r = run_cli("train", "--in-csv", str(csv), "--step0", "1e308",
                "--out-model", str(workdir / "m.txt"))
    assert r.returncode == 1
    assert "diverged" in r.stderr


@pytest.mark.parametrize("flags, named", [(["train", "--eps", "nan"], "eps must be finite"),
                                          (["cv", "--jobs", "2"], "--jobs")])
def test_dropped_or_non_finite_flag_is_a_usage_error(workdir, capsys, flags, named):
    write_line_csv(workdir / "lin.csv")
    argv = [*flags, "--objective", "marginal", "--in-csv", str(workdir / "lin.csv")]
    if flags[0] == "train":
        argv += ["--out-model", str(workdir / "m.txt")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "error: " in err and named in err
    assert not (workdir / "m.txt").exists()


@pytest.mark.parametrize("flags, named", [
    pytest.param(["--lipschitz-ratio", "1,nan"], "lipschitz_ratio must be finite",
                 id="ratio-nan"),
    pytest.param(["--lipschitz-ratio", "1,-1"], "lipschitz_ratio must be finite and >= 0",
                 id="ratio-negative"),
    pytest.param(["--lipschitz-ratio", "1,10", "--cv-alpha0", "0"], "alpha0 must be in (0, 1]",
                 id="cv-alpha0-0"),
    pytest.param(["--lipschitz-ratio", "1,10", "--cv-alpha0", "1.5"],
                 "alpha0 must be in (0, 1]", id="cv-alpha0-1.5"),
])
def test_cv_spec_error_is_a_usage_error_before_training(workdir, capsys, monkeypatch,
                                                        flags, named):
    def no_training(*args):
        raise AssertionError("a grid point was trained")

    monkeypatch.setattr(tuning, "train", no_training)
    out = workdir / "cv.csv"
    assert main(["cv", "--n", "100", *flags, "--out-csv", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert not out.exists()


def test_eval_joint_mean_row(workdir):
    csv = workdir / "lin.csv"
    write_line_csv(csv, slope=2.0)
    model = workdir / "m.txt"
    model.write_text("0.0\n0.0\n")
    r = run_cli("eval", "--model", str(model), "--in-csv", str(csv), "--mode", "joint",
                "--alphas", "1.0")
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert lines[0] == "alpha0,risk,method"
    alpha, risk, method = lines[1].split(",")
    ds = read_dataset_csv(str(csv))
    mean_loss = np.abs(ds.labels).mean()
    assert float(risk) == pytest.approx(mean_loss, rel=1e-9)
    assert method == "joint"


def test_eval_rows_sorted_and_monotone(workdir):
    model = workdir / "m.txt"
    model.write_text("0.5\n0.0\n")
    r = run_cli("eval", "--model", str(model), "--mode", "oracle", "--variant", "simdist",
                "--n", "4000", "--alphas", "0.5,0.05,1.0,0.15", "--seed", "3")
    assert r.returncode == 0
    rows = [line.split(",") for line in r.stdout.strip().splitlines()[1:]]
    alphas = [float(r_[0]) for r_ in rows]
    risks = [float(r_[1]) for r_ in rows]
    assert alphas == sorted(alphas)
    assert all(risks[i] >= risks[i + 1] - 1e-12 for i in range(len(risks) - 1))


def test_eval_oracle_confounded_unsupported(workdir):
    model = workdir / "m.txt"
    model.write_text("0.5\n0.0\n")
    r = run_cli("eval", "--model", str(model), "--mode", "oracle",
                "--variant", "confounded")
    assert r.returncode == 2
    assert "confounded" in r.stderr


def test_eval_replicates_conditioned(workdir):
    data = workdir / "conf.csv"
    r = run_cli("gen", "--variant", "confounded", "--n", "300", "--d", "2",
                "--replicates", "5", "--seed", "3", "--out-csv", str(data))
    assert r.returncode == 0
    model = workdir / "m.txt"
    model.write_text("0.2\n0.0\n0.0\n")
    r = run_cli("eval", "--model", str(model), "--in-csv", str(data),
                "--mode", "replicates", "--alphas", "0.1,1.0", "--condition", "1.0")
    assert r.returncode == 0
    assert "replicates|c=1" in r.stdout
    r = run_cli("eval", "--model", str(model), "--in-csv", str(data),
                "--mode", "replicates", "--alphas", "0.1", "--condition", "0.37")
    assert r.returncode == 2


def test_eval_condition_needs_replicates_mode(workdir, capsys):
    csv = workdir / "lin.csv"
    write_line_csv(csv)
    model = workdir / "m.txt"
    model.write_text("0.0\n0.0\n")
    for mode, source in (("joint", ["--in-csv", str(csv)]),
                         ("oracle", ["--variant", "simdist"])):
        code = main(["eval", "--model", str(model), "--mode", mode, *source,
                     "--condition", "1.0"])
        assert code == 2, mode
        assert "--condition" in capsys.readouterr().err


def test_gen_rejects_negative_replicates(workdir, capsys):
    out = workdir / "data.csv"
    assert main(["gen", "--n", "5", "--replicates", "-3", "--out-csv", str(out)]) == 2
    assert "--replicates" in capsys.readouterr().err
    assert not out.exists()


def test_cv_holdout_frac_must_be_a_proper_fraction(workdir, capsys):
    csv = workdir / "lin.csv"
    write_line_csv(csv)
    for frac in ("0", "1", "-0.2", "1.5"):
        code = main(["cv", "--in-csv", str(csv), "--holdout-frac", frac,
                     "--out-csv", os.devnull])
        assert code == 2, frac
        assert "--holdout-frac" in capsys.readouterr().err


IGNORED_FLAG_CASES = [
    # (command and mode, flag a run would ignore, its value)
    (["eval", "--mode", "oracle"], "--loss", "logistic"),
    (["eval", "--mode", "oracle"], "--replicates", "5"),
    (["eval", "--mode", "joint", "--variant", "simdist"], "--replicates", "5"),
    (["eval", "--mode", "joint", "--in-csv", "lin.csv"], "--variant", "simdist"),
    (["eval", "--mode", "joint", "--in-csv", "lin.csv"], "--n", "7"),
    (["eval", "--mode", "joint", "--in-csv", "lin.csv"], "--d", "2"),
    (["eval", "--mode", "joint", "--in-csv", "lin.csv"], "--alpha-true", "0.3"),
    (["eval", "--mode", "replicates", "--in-csv", "rep.csv"], "--replicates", "99"),
    (["cv", "--in-csv", "lin.csv"], "--variant", "toy_1d"),
    (["cv", "--in-csv", "lin.csv"], "--n", "7"),
    (["cv", "--in-csv", "lin.csv"], "--d", "2"),
    (["cv", "--in-csv", "lin.csv"], "--alpha-true", "0.3"),
    (["cv", "--variant", "simdist"], "--holdout-frac", "0.3"),
    (["cv", "--in-csv", "lin.csv", "--objective", "bounded_holder"], "--delta", "0.5"),
]


@pytest.mark.parametrize("command, flag, value", IGNORED_FLAG_CASES,
                         ids=[" ".join([*c, f]) for c, f, _ in IGNORED_FLAG_CASES])
def test_flag_the_command_would_ignore_is_rejected(workdir, capsys, command, flag, value):
    write_line_csv(workdir / "lin.csv")
    assert main(["gen", "--n", "20", "--replicates", "3",
                 "--out-csv", str(workdir / "rep.csv")]) == 0
    (workdir / "m.txt").write_text("0.5\n0.0\n")
    argv = [str(workdir / a) if a.endswith(".csv") else a for a in command]
    if argv[0] == "eval":
        argv += ["--model", str(workdir / "m.txt")]
    out = workdir / "out.csv"
    assert main([*argv, flag, value, "--out-csv", str(out)]) == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_seed_is_rejected_where_nothing_is_drawn(workdir, capsys):
    """train always reads its CSV and eval --in-csv draws nothing: --seed is an error."""
    csv = str(workdir / "lin.csv")
    write_line_csv(csv)
    (workdir / "m.txt").write_text("0.5\n0.0\n")
    out = workdir / "out.csv"
    assert main(["train", "--in-csv", csv, "--seed", "1",
                 "--out-model", str(workdir / "model.txt")]) == 2
    assert "--seed" in capsys.readouterr().err
    assert not (workdir / "model.txt").exists()
    assert main(["eval", "--model", str(workdir / "m.txt"), "--in-csv", csv, "--seed", "1",
                 "--out-csv", str(out)]) == 2
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()
    # a config seed is a default, skipped by the command that has no --seed
    cfg = workdir / "cfg.txt"
    cfg.write_text("seed=9\n")
    assert main(["train", "--in-csv", csv, "--config", str(cfg), "--iters", "5",
                 "--out-model", str(workdir / "model.txt")]) == 0


HYPERPARAMETER_FLAGS = {"--alpha0": "0.9", "--p": "1.5", "--lipschitz-ratio": "50",
                        "--eps": "0.3", "--delta": "5"}
# the hyperparameter flags each objective ignores; marginal reads them all
UNREAD_FLAGS = {"erm": ("--alpha0", "--p", "--lipschitz-ratio", "--eps", "--delta"),
                "joint_cvar": ("--p", "--lipschitz-ratio", "--eps", "--delta"),
                "joint_pnorm": ("--lipschitz-ratio", "--eps", "--delta"),
                "rkhs": ("--p", "--lipschitz-ratio", "--eps", "--delta"),
                "bounded_holder": ("--delta",)}


@pytest.mark.parametrize("objective", ["erm", "joint_cvar", "joint_pnorm", "rkhs",
                                       "bounded_holder"])
def test_delta_without_a_confounding_penalty_is_rejected(workdir, capsys, objective):
    """Every hyperparameter flag the objective does not read is a usage error
    (--delta without a confounding penalty among them); the flags it reads
    and config-file values of the others still train."""
    csv, model = str(workdir / "lin.csv"), workdir / "m.txt"
    write_line_csv(csv)
    argv = ["train", "--in-csv", csv, "--objective", objective, "--iters", "5",
            "--out-model", str(model)]
    for flag in UNREAD_FLAGS[objective]:
        assert main([*argv, flag, HYPERPARAMETER_FLAGS[flag]]) == 2, flag
        err = capsys.readouterr().err
        assert err == f"error: {flag} has no effect on {objective}\n"
        assert not model.exists()
    if objective == "joint_cvar":  # p = 1 is what joint_cvar computes, still unread
        assert main([*argv, "--p", "1"]) == 2
        assert capsys.readouterr().err == "error: --p has no effect on joint_cvar\n"
    read = [a for flag, value in HYPERPARAMETER_FLAGS.items()
            if flag not in UNREAD_FLAGS[objective] for a in (flag, value)]
    assert main([*argv, *read]) == 0
    model.unlink()
    # a config-file value is a default, which such an objective ignores
    cfg = workdir / "cfg.txt"
    cfg.write_text("".join(f"{flag[2:].replace('-', '_')}={HYPERPARAMETER_FLAGS[flag]}\n"
                           for flag in UNREAD_FLAGS[objective]))
    assert main([*argv, "--config", str(cfg)]) == 0


def test_too_little_memory_is_a_usage_error(workdir, capsys, monkeypatch):
    monkeypatch.setattr(objectives, "MEMORY_BYTES", 1)
    write_line_csv(workdir / "lin.csv")
    model = workdir / "m.txt"
    assert main(["train", "--in-csv", str(workdir / "lin.csv"), "--objective", "marginal",
                 "--out-model", str(model)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: n = 60 needs") and "1 bytes of memory" in err
    assert not model.exists()


def test_marginal_trains_the_delta_it_is_given(workdir):
    csv = str(workdir / "conf.csv")
    assert main(["gen", "--variant", "confounded", "--d", "2", "--n", "60", "--seed", "3",
                 "--out-csv", csv]) == 0
    models = {}
    for delta in ("0", "5"):
        out = workdir / f"m{delta}.txt"
        assert main(["train", "--in-csv", csv, "--objective", "marginal", "--eps", "0.05",
                     "--lipschitz-ratio", "0.1", "--delta", delta, "--iters", "40",
                     "--no-intercept", "--out-model", str(out)]) == 0
        models[delta] = out.read_text()
    assert models["0"] != models["5"]


def test_robust_spec_holds_the_hyperparameters_train_takes():
    """RobustSpec's fields are the ones the objectives read (SPEC_FIELDS),
    and each is a train flag, so the CLI can take its list from RobustSpec."""
    names = [field.name for field in fields(RobustSpec)]
    assert set(names) == set().union(*SPEC_FIELDS.values())
    _, subparsers = cli._build_parser()
    train_flags = {flag for action in subparsers["train"]._actions  # noqa: SLF001
                   for flag in action.option_strings}
    assert {f"--{name.replace('_', '-')}" for name in names} <= train_flags


def test_config_values_are_defaults_not_flags(workdir, capsys):
    """A config value for a flag the command ignores passes, like the default."""
    write_line_csv(workdir / "lin.csv")
    (workdir / "m.txt").write_text("0.0\n0.0\n")
    cfg = workdir / "cfg.txt"
    cfg.write_text("n=50\nd=3\n")
    argv = ["eval", "--model", str(workdir / "m.txt"), "--in-csv", str(workdir / "lin.csv"),
            "--alphas", "1.0"]
    assert main(argv) == 0
    plain = capsys.readouterr().out
    assert main([*argv, "--config", str(cfg)]) == 0
    assert capsys.readouterr().out == plain
    assert main([*argv, "--n", "50"]) == 2


def test_bad_config_value_names_its_flag(workdir, capsys):
    cfg = workdir / "cfg.txt"
    cfg.write_text("alpha0=abc\n")
    write_line_csv(workdir / "lin.csv")
    assert main(["train", "--in-csv", str(workdir / "lin.csv"), "--config", str(cfg)]) == 2
    assert "--alpha0" in capsys.readouterr().err


def test_bad_ratio_list_names_its_flag(capsys):
    assert main(["cv", "--lipschitz-ratio", "1,abc"]) == 2
    assert "bad --lipschitz-ratio list" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["train", "--objective", "marginal"],
                                     ["train", "--objective", "marginal_confounded"],
                                     ["train", "--objective", "joint_pnorm"],
                                     ["cv", "--objective", "marginal"],
                                     ["train", "--objective", "bounded_holder"],
                                     ["cv", "--objective", "bounded_holder"]])
def test_p1_is_a_usage_error(workdir, capsys, command):
    write_line_csv(workdir / "lin.csv")
    argv = [*command, "--in-csv", str(workdir / "lin.csv"), "--p", "1"]
    if command[0] == "train":
        argv += ["--out-model", str(workdir / "m.txt")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "p > 1" in err and "joint_cvar" in err


def test_arithmetic_error_is_a_numeric_failure(workdir, capsys, monkeypatch):
    def divide_by_zero(*args):
        return 1.0 / 0

    monkeypatch.setattr(cli, "train", divide_by_zero)
    write_line_csv(workdir / "lin.csv")
    assert main(["train", "--in-csv", str(workdir / "lin.csv"),
                 "--out-model", str(workdir / "m.txt")]) == 1
    assert capsys.readouterr().err == "error: float division by zero\n"


def test_cv_singleton_and_table(workdir):
    out = workdir / "cv.csv"
    r = run_cli("cv", "--variant", "simdist", "--n", "300", "--d", "1",
                "--lipschitz-ratio", "5", "--iters", "80", "--no-intercept",
                "--seed", "1", "--out-csv", str(out))
    assert r.returncode == 0
    assert "selected lipschitz_ratio=5" in r.stdout
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "lipschitz_ratio,score,status"
    assert len(lines) == 2 and lines[1].endswith("ok")


def test_cv_selects_argmin(workdir):
    out = workdir / "cv.csv"
    r = run_cli("cv", "--variant", "simdist", "--n", "400", "--d", "1",
                "--lipschitz-ratio", "0.1,1,10", "--iters", "120", "--no-intercept",
                "--cv-alpha0", "0.05", "--seed", "2", "--out-csv", str(out))
    assert r.returncode == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    scores = {float(a): float(b) for a, b, status in rows}
    selected = float(r.stdout.split("=")[-1])
    assert scores[selected] == min(scores.values())


def test_config_file_and_overrides(workdir):
    cfg = workdir / "cfg.txt"
    cfg.write_text("# comment\nn=4\nseed=9\n")
    a = run_cli("gen", "--variant", "toy_1d", "--config", str(cfg))
    b = run_cli("gen", "--variant", "toy_1d", "--n", "4", "--seed", "9")
    assert a.returncode == 0 and a.stdout == b.stdout
    c = run_cli("gen", "--variant", "toy_1d", "--config", str(cfg), "--n", "2")
    assert len(c.stdout.strip().splitlines()) == 3  # flag wins over config
    bad = workdir / "bad.txt"
    bad.write_text("not_a_key=1\n")
    r = run_cli("gen", "--config", str(bad))
    assert r.returncode == 2 and "not_a_key" in r.stderr


def test_config_keys_are_the_value_flags(workdir, capsys):
    """Any subcommand's option that takes a value is a config key, and its value
    must be one of the option's choices; switches, config, figure and the required
    --model, which argparse wants on the command line, are not keys."""
    cfg = workdir / "cfg.txt"
    cfg.write_text("variant=toy_1d\n")
    assert main(["gen", "--n", "3", "--config", str(cfg)]) == 0
    from_config = capsys.readouterr().out
    assert main(["gen", "--n", "3", "--variant", "toy_1d"]) == 0
    assert capsys.readouterr().out == from_config
    (workdir / "m.txt").write_text("0.0\n0.0\n")
    cfg.write_text("mode=bogus\n")
    assert main(["eval", "--model", str(workdir / "m.txt"), "--variant", "toy_1d",
                 "--n", "5", "--config", str(cfg)]) == 2
    assert "mode=bogus is not one of oracle, replicates, joint" in capsys.readouterr().err
    for key in ("no_intercept", "not_a_key", "config", "figure", "model"):
        cfg.write_text(f"{key}=1\n")
        assert main(["gen", "--n", "2", "--config", str(cfg)]) == 2, key
        assert f"unknown config key {key!r}" in capsys.readouterr().err


def test_ridge_is_not_a_setting(workdir, capsys):
    """The objectives have no ridge term, so no field, flag or config key sets one."""
    with pytest.raises(TypeError):
        OptimizerConfig(ridge=0.1)
    csv, model = str(workdir / "lin.csv"), workdir / "m.txt"
    write_line_csv(csv)
    argv = ["train", "--in-csv", csv, "--iters", "5", "--out-model", str(model)]
    assert main([*argv, "--ridge", "0.1"]) == 2
    cfg = workdir / "cfg.txt"
    cfg.write_text("ridge=0.1\n")
    assert main([*argv, "--config", str(cfg)]) == 2
    assert "unknown config key 'ridge'" in capsys.readouterr().err
    assert not model.exists()


def test_dro_seed_env_fallback():
    a = run_cli("gen", "--variant", "toy_1d", "--n", "2", env={"DRO_SEED": "9"})
    b = run_cli("gen", "--variant", "toy_1d", "--n", "2", "--seed", "9")
    assert a.stdout == b.stdout


def test_bad_dro_seed_names_the_variable():
    r = run_cli("gen", "--variant", "toy_1d", "--n", "5", env={"DRO_SEED": "abc"})
    assert r.returncode == 2
    assert r.stderr == "error: DRO_SEED must be an integer, got 'abc'\n"


def test_binary_label_mapping(workdir):
    csv = workdir / "cls.csv"
    with open(csv, "w") as fh:
        fh.write("x0,y\n1.0,1\n-1.0,0\n2.0,1\n-2.0,0\n")
    ds = read_dataset_csv(str(csv), "logistic")
    assert set(np.unique(ds.labels)) == {-1.0, 1.0}
    model = workdir / "m.txt"
    r = run_cli("train", "--in-csv", str(csv), "--loss", "logistic", "--iters", "200",
                "--out-model", str(model))
    assert r.returncode == 0
    params = read_model(str(model))
    assert params.theta[0] > 0  # positive slope separates the labels


def test_repro_unknown_id_lists_valid(workdir):
    r = run_cli("repro", "fig_nope", "--outdir", str(workdir))
    assert r.returncode == 2
    assert "invalid choice" in r.stderr and "fig_toy" in r.stderr
    assert list(workdir.iterdir()) == []


@pytest.mark.slow
def test_repro_fig_toy(workdir):
    r = run_cli("repro", "fig_toy", "--outdir", str(workdir), "--seed", "0")
    assert r.returncode == 0, r.stderr
    path = workdir / "fig_toy.csv"
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "method,slope,intercept,risk_alpha005,mean_risk"
    methods = {line.split(",")[0] for line in lines[1:]}
    assert methods == {"erm", "joint_pnorm", "marginal"}
    by = {line.split(",")[0]: line.split(",") for line in lines[1:]}
    # the robust model flattens the slope and lowers tail risk vs ERM
    assert abs(float(by["marginal"][1])) < abs(float(by["erm"][1]))
    assert float(by["marginal"][3]) < float(by["erm"][3])


@pytest.mark.slow
def test_repro_fig_confounded(workdir):
    """The one figure that evaluates conditional replicate risks."""
    r = run_cli("repro", "fig_confounded", "--outdir", str(workdir), "--seed", "0")
    assert r.returncode == 0, r.stderr
    lines = (workdir / "fig_confounded.csv").read_text().strip().splitlines()
    assert lines[0] == "method,c,risk_alpha005"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 30  # 6 models x 5 confounder values
    assert len({row[0] for row in rows}) == 6 and len({row[1] for row in rows}) == 5
    risks = np.array([float(row[2]) for row in rows])
    assert np.isfinite(risks).all() and (risks >= 0).all()


@pytest.mark.slow
def test_repro_fig_alpha_sweep(workdir):
    """Each model's oracle risk at the eval default alphas, and the best slope's."""
    r = run_cli("repro", "fig_alpha_sweep", "--outdir", str(workdir), "--seed", "0")
    assert r.returncode == 0, r.stderr
    lines = (workdir / "fig_alpha_sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "method,alpha0,risk"
    rows = [line.split(",") for line in lines[1:]]
    methods = ("erm", "joint_pnorm", "marginal", "oracle_best_slope")
    alphas = [float(a) for a in cli.EVAL_ALPHAS_DEFAULT.split(",")]
    assert len(rows) == 24
    for method in methods:
        by_alpha = {float(a): float(risk) for name, a, risk in rows if name == method}
        assert sorted(by_alpha) == alphas
        risks = np.array([by_alpha[a] for a in alphas])
        assert np.isfinite(risks).all() and (np.diff(risks) <= 0).all(), (method, risks)


def test_main_function_entry():
    assert main(["gen", "--variant", "toy_1d", "--n", "1", "--out-csv", os.devnull]) == 0
    assert main(["gen", "--variant", "nope"]) == 2
