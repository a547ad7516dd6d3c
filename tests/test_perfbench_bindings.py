"""The traced benchmark's workloads run on this tree.

``perfbench/spans.py`` wraps every function in its ``TARGETS`` table by
name, and the workloads build budgets with ``tensor_core.ParamBudget``. A
deletion or a signature change that breaks either fails here, not in a
benchmark run. Each workload of ``perfbench/workloads.py`` also runs one
operation here, and its checks must pass, so a renamed field that
``perfbench/checks.py`` reads fails here too; it runs once more inside the
span hooks, as a ``--trace 1`` run takes it. ``perfbench/selftest.py``
must pass. The tests only read ``perfbench/``.
"""

import importlib
import importlib.util
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# the modules perfbench/run.py hands to the workloads
MODULES = ("model", "tensor_core", "tn_decompositions", "sensitivity", "planner")


def load(name: str, **imports):
    """Load ``perfbench/<name>.py`` without writing bytecode into ``perfbench/``.

    ``imports`` are the modules it imports by bare name; they are visible to
    ``import`` only while it loads.
    """
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave perfbench/ as it is
    shadowed = {key: sys.modules.get(key) for key in imports}
    sys.modules.update(imports)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
        for key, previous in shadowed.items():
            if previous is None:
                del sys.modules[key]
            else:
                sys.modules[key] = previous
    return module


def leading_positionals(hook, skip: int = 0) -> int:
    """Number of named positional parameters of a hook, after the first ``skip``."""
    kinds = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
    params = [p for p in inspect.signature(hook).parameters.values() if p.kind in kinds]
    return len(params) - skip


SPANS = load("spans")
TARGETS = SPANS.TARGETS
WORKLOAD_MODULE = load("workloads", checks=load("checks"))
WORKLOADS = WORKLOAD_MODULE.WORKLOADS


@pytest.mark.parametrize("target", TARGETS, ids=lambda t: f"{t[0]}.{t[1]}")
def test_traced_function_exists_and_takes_the_hooked_arguments(target):
    home, attr, name, before, after, _ = target
    fn = getattr(importlib.import_module(f"minima.{home}"), attr)
    assert callable(fn)
    signature = inspect.signature(fn)
    # each hook reads the call's leading positional arguments by position
    hooks = [(before, 0), (after, 2)] + ([(name, 0)] if callable(name) else [])
    for hook, skip in hooks:
        if hook is not None:
            signature.bind_partial(*range(leading_positionals(hook, skip)))


def test_param_budget_exists():
    budget = importlib.import_module("minima.tensor_core").ParamBudget(8)
    assert budget.budget == 8


@pytest.mark.parametrize("name", ["analyze", "plan", "compress"])
def test_workload_operation_passes_its_checks(name):
    mods = {module: importlib.import_module(f"minima.{module}") for module in MODULES}
    work = WORKLOADS[name](mods, 1)
    model, patches = work.setup()
    work.prepare(model, patches)
    assert work.check(work.run()) == []


@pytest.mark.parametrize("name", ["analyze", "plan", "compress"])
def test_traced_operation_gives_its_layer_metrics(name):
    # as a --trace 1 run takes them: the operation inside the span hooks,
    # then the metrics of its spans; a hook that raises fails here
    mods = {module: importlib.import_module(f"minima.{module}") for module in MODULES}
    work = WORKLOADS[name](mods, 1)
    model, patches = work.setup()
    work.prepare(model, patches)
    tracer = SPANS.Tracer()
    with SPANS.installed(tracer, mods):
        out = work.run()
    metrics = SPANS.layer_metrics(tracer.take())
    assert work.check(out) == []
    if name == "plan":
        # 160 compressible patches, each with 3 families x 4 ratios that fit
        assert metrics["planner.build_options.candidates"] == 1920


def test_workloads_use_the_programs_analysis_policy():
    # workloads.py calls these "the program's default"; a change to the
    # program's policy would otherwise leave the benchmark checking another one
    sensitivity = importlib.import_module("minima.sensitivity")
    assert WORKLOAD_MODULE.FAMILIES == sensitivity.FAMILIES
    assert WORKLOAD_MODULE.RATIOS == sensitivity.RATIO_GRID
    assert WORKLOAD_MODULE.CAP == sensitivity.DEGRADATION_CAP
    analyze = WORKLOADS["analyze"]
    assert analyze.exclude_kinds == sensitivity.EXCLUDED_KINDS
    assert analyze.probe_stride == inspect.signature(sensitivity.analyze).parameters["probe_stride"].default


def test_selftest_passes():
    # each check accepts a real output and rejects every corrupted copy of it;
    # -B leaves perfbench/ without bytecode
    done = subprocess.run(
        [sys.executable, "-B", str(PERFBENCH / "selftest.py")],
        cwd=PERFBENCH.parent,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
