"""Outside-in span tracer for the benchmark's traced runs.

The package's modules import each other with ``from .x import f``, so one
function is reachable through several module bindings (``duals.cvar_dual``,
``optim.cvar_dual``, ``evaluation.cvar_dual``, ...).  ``Tracer.install``
replaces the function at every binding in every loaded ``marginaldro``
module (and any extra module given, such as the benchmark's own), so no
call path escapes the span.  Methods of ``optim.ObjectiveFunction`` are
wrapped on the class.  ``unwrapped_bindings`` lists any binding that still
holds an original function; the tests require it to be empty.

Spans are kept in memory as [name, start, end, parent index] and written out
by the caller when the run ends.  Self time is a span minus its children.
Nothing here runs unless a tracer is installed, so timed runs pay nothing.
"""

from __future__ import annotations

import functools
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

PACKAGE = "marginaldro"

# layer -> public functions timed at every binding; the span is "layer.name"
LAYER_FUNCTIONS = {
    "datagen": ("generate", "generate_replicates", "conditional_risks"),
    "model": ("loss_values", "loss_residual_slopes"),
    "objectives": ("pairwise_distance_power", "plan_adjustments"),
    "variational": ("gram", "median_bandwidth"),
    "duals": ("cvar_dual", "pnorm_dual", "replicate_worst_case"),
    "evaluation": ("eval_oracle", "eval_replicates", "eval_joint", "loss_matrix"),
    "optim": ("train",),
    "tuning": ("cross_validate", "replicate_score"),
    "cli": ("main", "write_dataset_csv", "read_dataset_csv"),
}

# ObjectiveFunction methods -> span names in the optim layer
OBJECTIVE_METHODS = {"__init__": "optim.objective_init",
                     "value_grad": "optim.value_grad",
                     "plan_step": "optim.plan_step"}

# n x n arrays train holds at the plan dtype on plan objectives: the plan,
# the best-plan copy, the gradient buffer and the folded penalty matrix
PLAN_ARRAYS_HELD = 4


def _count_train(counters, args, kwargs, result):
    iters = len(result.trace)
    counters["optim.iterations"] += iters
    if result.plan is not None:
        counters["plan_iterations"] += iters
        counters["optim.plan_bytes"] = max(counters["optim.plan_bytes"],
                                           PLAN_ARRAYS_HELD * result.plan.nbytes)


def _count_cross_validate(counters, args, kwargs, result):
    counters["tuning.grid_points"] += len(result.entries)
    counters["tuning.grid_failed"] += sum(e.error is not None for e in result.entries)


def _count_csv_write(counters, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    if path != "-":
        counters["cli.csv_bytes_written"] += os.path.getsize(path)


# counts taken where the work happens, from the wrapped call's result
RETURN_HOOKS = {
    "optim.train": _count_train,
    "tuning.cross_validate": _count_cross_validate,
    "cli.write_dataset_csv": _count_csv_write,
}


class Tracer:
    """Span recorder for the loaded ``marginaldro`` package."""

    def __init__(self, extra_modules=()):
        self.extra_modules = tuple(extra_modules)
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._originals: dict[int, object] = {}  # id -> original function
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ install

    def _modules(self):
        mods = [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        return mods + [m for m in self.extra_modules if m not in mods]

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer, names in LAYER_FUNCTIONS.items():
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for name in names:
                fn = getattr(mod, name)
                self._originals[id(fn)] = fn
                wrappers[id(fn)] = self._wrap(f"{layer}.{name}", fn)
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if self._originals.get(id(value)) is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)])
        cls = sys.modules[f"{PACKAGE}.optim"].ObjectiveFunction
        for method, span in OBJECTIVE_METHODS.items():
            fn = cls.__dict__[method]
            self._originals[id(fn)] = fn
            self._patches.append((cls, method, fn))
            setattr(cls, method, self._wrap(span, fn))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self._originals.clear()

    def unwrapped_bindings(self) -> list[str]:
        """Module or class attributes that still hold an unwrapped original."""
        owners = self._modules() + [sys.modules[f"{PACKAGE}.optim"].ObjectiveFunction]
        return [f"{owner.__name__}.{attr}" for owner in owners
                for attr, value in vars(owner).items()
                if self._originals.get(id(value)) is value]

    def _wrap(self, span: str, fn):
        hook = RETURN_HOOKS.get(span)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([span, perf_counter(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(self.counters, args, kwargs, result)
            return result

        return traced

    # ------------------------------------------------------------ results

    def reset(self):
        self.spans.clear()
        self.counters.clear()

    def summary(self):
        """Per span name: total seconds, self seconds and call count."""
        total = defaultdict(float)
        self_s = defaultdict(float)
        calls = Counter()
        child = defaultdict(float)
        for idx, (name, start, end, parent) in enumerate(self.spans):
            dur = end - start
            total[name] += dur
            calls[name] += 1
            if parent >= 0:
                child[parent] += dur
        for idx, (name, start, end, _) in enumerate(self.spans):
            self_s[name] += (end - start) - child[idx]
        top_level = sum(end - start for _, start, end, parent in self.spans if parent < 0)
        return {"total": total, "self": self_s, "calls": calls, "top_level_s": top_level}


def layer_metrics(summary, counters) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, as (value, unit), from one traced pass."""
    t, s, c = summary["total"], summary["self"], summary["calls"]
    return {
        "optim.value_grad_s": (t["optim.value_grad"], "s"),
        "optim.value_grad_self_s": (s["optim.value_grad"], "s"),
        "optim.value_grad_calls": (c["optim.value_grad"], "count"),
        "optim.plan_step_s": (t["optim.plan_step"], "s"),
        "optim.plan_step_calls": (c["optim.plan_step"], "count"),
        "optim.train_self_s": (s["optim.train"], "s"),
        "optim.iterations": (counters["optim.iterations"], "count"),
        "optim.objective_init_s": (t["optim.objective_init"], "s"),
        "optim.plan_bytes": (counters["optim.plan_bytes"], "computed_bytes"),
        "objectives.pairwise_distance_power_s": (t["objectives.pairwise_distance_power"], "s"),
        "objectives.pairwise_distance_power_calls": (
            c["objectives.pairwise_distance_power"], "count"),
        "objectives.plan_adjustments_s": (t["objectives.plan_adjustments"], "s"),
        "variational.gram_s": (t["variational.gram"], "s"),
        "variational.median_bandwidth_s": (t["variational.median_bandwidth"], "s"),
        "model.loss_values_s": (t["model.loss_values"], "s"),
        "model.loss_values_calls": (c["model.loss_values"], "count"),
        "model.loss_residual_slopes_s": (t["model.loss_residual_slopes"], "s"),
        "duals.cvar_dual_s": (t["duals.cvar_dual"], "s"),
        "duals.cvar_dual_calls": (c["duals.cvar_dual"], "count"),
        "duals.pnorm_dual_s": (t["duals.pnorm_dual"], "s"),
        "duals.pnorm_dual_calls": (c["duals.pnorm_dual"], "count"),
        "duals.replicate_worst_case_s": (t["duals.replicate_worst_case"], "s"),
        "evaluation.eval_oracle_s": (t["evaluation.eval_oracle"], "s"),
        "evaluation.eval_replicates_s": (t["evaluation.eval_replicates"], "s"),
        "evaluation.eval_joint_s": (t["evaluation.eval_joint"], "s"),
        "evaluation.loss_matrix_s": (t["evaluation.loss_matrix"], "s"),
        "datagen.generate_s": (t["datagen.generate"], "s"),
        "datagen.generate_replicates_s": (t["datagen.generate_replicates"], "s"),
        "datagen.conditional_risks_s": (t["datagen.conditional_risks"], "s"),
        "tuning.cross_validate_s": (t["tuning.cross_validate"], "s"),
        "tuning.replicate_score_s": (t["tuning.replicate_score"], "s"),
        "tuning.grid_points": (counters["tuning.grid_points"], "count"),
        "tuning.grid_failed": (counters["tuning.grid_failed"], "count"),
        "cli.write_dataset_csv_s": (t["cli.write_dataset_csv"], "s"),
        "cli.read_dataset_csv_s": (t["cli.read_dataset_csv"], "s"),
        "cli.read_dataset_csv_calls": (c["cli.read_dataset_csv"], "count"),
        "cli.csv_bytes_written": (counters["cli.csv_bytes_written"], "bytes"),
    }
