#!/usr/bin/env python3
"""Run one benchmark workload of marginaldro and print its metrics as JSON.

    python3 perfbench/run.py --workload cv_toy_1d --seed 0 --seconds 15 --trace 0

Run it from anywhere inside a checkout; it imports the checkout's own
``src/marginaldro`` and refuses any other copy, so it fails (non-zero exit, no
result) where the sources are absent.  With ``--trace 0`` it sets the inputs
up several times, then runs whole passes of the workload until ``--seconds``
have elapsed, and reports the end-to-end metrics.  With ``--trace 1`` it
alternates untraced and traced passes and reports the per-layer metrics.
The last line of standard output is the result object; the lines before it
record the environment and the per-pass detail.  See README.md.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
REFERENCES = BENCH_DIR / "references.json"

# input set-ups per timed run; setup_s reports their median
SETUP_REPEATS = 3


def load_package():
    """Import the checkout's marginaldro (and its CLI); refuse any other copy."""
    pkg_dir = SRC / "marginaldro"
    if not (pkg_dir / "__init__.py").is_file():
        raise SystemExit(f"error: {pkg_dir} is missing; run inside a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import marginaldro
    import marginaldro.cli  # noqa: F401  (the cli layer is traced too)

    if Path(marginaldro.__file__).resolve().parent != pkg_dir.resolve():
        raise SystemExit(f"error: imported marginaldro from {marginaldro.__file__}, "
                         f"not from {pkg_dir}")
    return marginaldro


def environment(workload, seed):
    import numpy as np
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": _openblas_threads(),
        "git_commit": _git_commit(),
    }


def _openblas_threads():
    """Thread count of the OpenBLAS numpy loaded, read from the library."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_commit():
    """HEAD of the checkout, read from .git without running git; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def one_pass(md, wl, inputs, reference, previous):
    rec = workloads.Pass(reference, previous)
    t = time.perf_counter()
    try:
        wl.run(md, inputs, rec)
    except workloads.PassAborted:
        pass  # the failed operation is recorded; later ones count as failed below
    rec.wall_s = time.perf_counter() - t
    rec.attempted = max(len(rec.ops), wl.ops_per_pass)
    rec.failed = rec.attempted - sum(err is None for _, err in rec.ops)
    return rec


def percentile_summary(values):
    """Median, and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    top = None
    if n >= 11:
        top = {"percentile": round(100.0 * (n - 10) / n, 2), "value": ordered[n - 11]}
    return {"median": statistics.median(ordered), "samples": n, "top": top}


def metric(value, unit):
    if value is None or not math.isfinite(value):
        return {"value": None, "unit": unit}
    return {"value": value, "unit": unit}


def timed_run(md, wl, seed, seconds, reference, workdir, import_s):
    setup_times = []
    for _ in range(SETUP_REPEATS):
        inputs = None  # free the previous inputs so peak memory holds one copy
        t = time.perf_counter()
        inputs = wl.setup(md, seed, workdir)
        setup_times.append(time.perf_counter() - t)

    passes = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        previous = passes[0].outputs if passes else None
        passes.append(one_pass(md, wl, inputs, reference, previous))

    med = statistics.median
    metrics = {
        "setup_s": metric(import_s + med(setup_times), "s"),
        "wall_s": metric(med(p.wall_s for p in passes), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "worst_risk": metric(passes[0].worst_risk, "risk"),
    }
    detail = {
        "import_s": import_s,
        "setup_s_samples": setup_times,
        "wall_s": percentile_summary([p.wall_s for p in passes]),
        # seconds in training per pass; not a metric, since every metric is
        # reported on every workload and the CLI's train command cannot be
        # timed steadily in the passes one run holds
        "train_s": percentile_summary([p.train_s for p in passes]),
        # rows x test alphas scored per second in eval_* calls; not a metric,
        # since a few milliseconds of eval per pass cannot be timed steadily
        "eval_rows_per_s_samples": [p.eval_units / p.eval_s for p in passes if p.eval_s > 0],
    }
    return passes, metrics, detail, []


def traced_run(md, wl, seed, seconds, reference, workdir):
    tracer = tracing.Tracer(extra_modules=[workloads])
    checks = []  # (label, problem or None), each counted as an operation

    tracer.install()
    missed = tracer.unwrapped_bindings()
    checks.append(("trace.bindings", f"unwrapped: {missed}" if missed else None))
    inputs = wl.setup(md, seed, workdir)
    tracer.uninstall()
    setup_layers = tracing.layer_metrics(tracer.summary(), tracer.counters)
    setup_spans = list(tracer.spans)

    untraced, traced, layer_samples, span_shares = [], [], [], []
    last_spans = []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        previous = untraced[0].outputs if untraced else None
        untraced.append(one_pass(md, wl, inputs, reference, previous))
        tracer.reset()
        tracer.install()
        try:
            traced.append(one_pass(md, wl, inputs, reference, untraced[0].outputs))
        finally:
            tracer.uninstall()
        summary = tracer.summary()
        layers = tracing.layer_metrics(summary, tracer.counters)
        layer_samples.append(layers)
        span_shares.append(summary["top_level_s"] / traced[-1].wall_s)
        last_spans = list(tracer.spans)
        values = {k: v for k, (v, _) in layers.items()}
        identities = [
            ("optim.value_grad_calls", values["optim.value_grad_calls"],
             values["optim.iterations"]),
            ("optim.plan_step_calls", values["optim.plan_step_calls"],
             tracer.counters["plan_iterations"]),
        ] + wl.identities(values)
        for label, got, want in identities:
            checks.append((f"trace.identity[{label}]",
                           None if got == want else f"{label} = {got}, expected {want}"))

    med = statistics.median
    metrics = {}
    for name, (setup_value, unit) in setup_layers.items():
        metrics[name] = metric(setup_value + med(s[name][0] for s in layer_samples), unit)
    overhead = med(p.wall_s for p in traced) / med(p.wall_s for p in untraced)
    metrics["bench.trace_overhead"] = metric(overhead, "ratio")
    metrics["bench.span_share"] = metric(med(span_shares), "ratio")
    metrics["bench.peak_rss_mb"] = metric(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    detail = {
        "untraced_wall_s": [p.wall_s for p in untraced],
        "traced_wall_s": [p.wall_s for p in traced],
        "plan_bytes": "computed: n^2 x plan itemsize x arrays held by train",
    }
    spans = {"setup": _relative(setup_spans), "last_traced_pass": _relative(last_spans)}
    return untraced + traced, metrics, detail, checks, spans


def _relative(spans):
    if not spans:
        return []
    t0 = spans[0][1]
    return [[name, start - t0, end - t0, parent] for name, start, end, parent in spans]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    md = load_package()
    import_s = time.perf_counter() - _START

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"one of {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    refs = json.loads(REFERENCES.read_text())
    reference = refs.get(str(args.seed), {}).get(wl.name, {})

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT_DIR))
    try:
        if args.trace:
            passes, metrics, detail, checks, spans = traced_run(
                md, wl, args.seed, args.seconds, reference, workdir)
        else:
            passes, metrics, detail, checks = timed_run(
                md, wl, args.seed, args.seconds, reference, workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(wl.name, args.seed)
    attempted = sum(p.attempted for p in passes) + len(checks)
    failed = sum(p.failed for p in passes) + sum(problem is not None for _, problem in checks)
    errors = [f"{name}: {err}" for p in passes for name, err in p.ops if err is not None]
    errors += [f"{label}: {problem}" for label, problem in checks if problem is not None]
    excess = [e for p in passes for e in p.excess]
    detail.update({
        "passes": len(passes),
        "failed_frac": failed / attempted,
        "objective_excess": max(excess) if excess else None,
        "reference_seed": bool(reference),
        "errors": errors[:20],
    })
    if args.trace:
        trace_file = OUT_DIR / f"trace-{wl.name}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({"environment": env, "spans": spans}))
        detail["trace_file"] = str(trace_file.relative_to(ROOT))

    print(json.dumps({"environment": env}))
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
