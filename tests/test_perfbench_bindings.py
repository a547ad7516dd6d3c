"""The names the traced benchmark binds in ``minima`` exist in this tree.

``perfbench/spans.py`` wraps every function in its ``TARGETS`` table by
name, and the workloads build budgets with ``tensor_core.ParamBudget``. A
deletion or a signature change that breaks either fails here, not in a
benchmark run. The test only reads ``perfbench/``.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave perfbench/ as it is
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
    return module


def leading_positionals(hook, skip: int = 0) -> int:
    """Number of named positional parameters of a hook, after the first ``skip``."""
    kinds = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
    params = [p for p in inspect.signature(hook).parameters.values() if p.kind in kinds]
    return len(params) - skip


TARGETS = load_spans().TARGETS


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
