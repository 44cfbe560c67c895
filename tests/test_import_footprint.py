"""Which commands load scipy, and what ``from marginaldro import *`` binds.

Only the conditional-risk oracle (``scipy.special.erf``), the logistic
loss (``scipy.special.expit``) and the strong-duality oracle
``objectives.primal_inner_sup`` (``scipy.optimize``) need scipy, and they
import it on first use: importing the package or its CLI, and every other
command, leaves it unloaded.  Each scipy check runs in a fresh interpreter, since
this one has imported scipy long ago.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import marginaldro
from marginaldro.cli import write_dataset_csv
from marginaldro.datagen import SimSpec, generate_replicates
from marginaldro.model import Dataset

# runs cli.main(argv), then prints its exit code and the scipy modules loaded
RUN_MAIN = """
import json, sys
from marginaldro import cli
code = cli.main(json.loads(sys.argv[1]))
scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps({"code": code, "scipy": scipy}))
"""


def run_python(args, cwd=None):
    """Run this interpreter on ``args`` with this process's marginaldro first on the path."""
    env = dict(os.environ)
    src = str(Path(marginaldro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                          env=env)


def run_main(argv, cwd):
    """(exit code, scipy modules loaded) of ``cli.main(argv)`` in a fresh process."""
    r = run_python(["-c", RUN_MAIN, json.dumps(argv)], cwd)
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout.strip().splitlines()[-1])
    return out["code"], out["scipy"]


@pytest.fixture()
def files(tmp_path):
    """A replicate CSV, a binary-label CSV and a model, written in this process."""
    ds = generate_replicates(SimSpec(n=40, d=2, variant="simdist", seed=4), m=3)
    write_dataset_csv(ds, tmp_path / "rep.csv")
    write_dataset_csv(Dataset(ds.features, (ds.features[:, 0] >= 0) * 2.0 - 1.0),
                      tmp_path / "bin.csv")
    (tmp_path / "m.txt").write_text("0.5\n0.0\n0.1\n")
    return tmp_path


def test_star_import_binds_each_public_name_once():
    names = marginaldro.__all__
    assert len(set(names)) == len(names)
    namespace = {}
    exec("from marginaldro import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(names)


def test_import_loads_no_scipy():
    r = run_python(["-c", "import sys, marginaldro, marginaldro.cli; "
                          "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"])
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


@pytest.mark.parametrize("argv", [
    ["gen", "--variant", "simdist", "--n", "30", "--d", "2", "--replicates", "2",
     "--out-csv", "gen.csv"],
    ["train", "--in-csv", "rep.csv", "--loss", "absolute_deviation", "--objective",
     "joint_cvar", "--iters", "20", "--out-model", "t.txt"],
    ["eval", "--model", "m.txt", "--in-csv", "rep.csv", "--mode", "replicates",
     "--alphas", "0.2,1.0"],
    ["eval", "--model", "m.txt", "--in-csv", "rep.csv", "--mode", "joint",
     "--alphas", "0.2,1.0"],
], ids=["gen", "train_absolute_deviation", "eval_replicates", "eval_joint"])
def test_command_loads_no_scipy(files, argv):
    assert run_main(argv, files) == (0, [])


@pytest.mark.parametrize("argv", [
    ["eval", "--model", "m.txt", "--mode", "oracle", "--variant", "simdist", "--n", "50",
     "--d", "2", "--alphas", "0.2,1.0"],
    ["train", "--in-csv", "bin.csv", "--loss", "logistic", "--iters", "20",
     "--out-model", "t.txt"],
], ids=["eval_oracle", "train_logistic"])
def test_oracle_and_logistic_load_scipy_special(files, argv):
    code, scipy = run_main(argv, files)
    assert code == 0
    assert "scipy.special" in scipy
