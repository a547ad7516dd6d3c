"""The traced benchmark's workloads run on this tree.

``perfbench/spans.py`` wraps every function in its ``TARGETS`` table by
name, and the workloads build budgets with ``tensor_core.ParamBudget``. A
deletion or a signature change that breaks either fails here, not in a
benchmark run. Each workload of ``perfbench/workloads.py`` also runs one
operation here, and its checks must pass, so a renamed field that
``perfbench/checks.py`` reads fails here too. The test only reads
``perfbench/``.
"""

import importlib
import importlib.util
import inspect
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


TARGETS = load("spans").TARGETS
WORKLOADS = load("workloads", checks=load("checks")).WORKLOADS


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
