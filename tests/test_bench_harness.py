"""The timing rule, alternation, digest and checkout loader of ``bench/harness.py``.

The harness is loaded in-process without writing bytecode, and the import
path, modules and environment variables it sets up for the bench scripts
are put back after it loads.
"""

import importlib
import importlib.util
import os
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_harness():
    spec = importlib.util.spec_from_file_location("bench_harness", ROOT / "bench" / "harness.py")
    module = importlib.util.module_from_spec(spec)
    path, modules, environ = list(sys.path), set(sys.modules), dict(os.environ)
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave bench/ and perfbench/ as they are
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
        sys.path[:] = path
        for key in set(sys.modules) - modules:
            del sys.modules[key]
        os.environ.clear()
        os.environ.update(environ)
    return module


harness = load_harness()


def fixed(seconds: float, order: list | None = None):
    """A pass function whose one stage reports ``seconds``, logging the sides it runs."""

    def run_pass(side, *inputs):
        if order is not None:
            order.append(side)
        return (side, inputs), {"stage_s": seconds}

    return run_pass


def test_passes_alternate_the_side_that_runs_first():
    order = []
    outs, runs = harness.passes({"against": "A", "this": "T"}, fixed(0.5, order), 7)
    assert outs == {"against": ("A", (7,)), "this": ("T", (7,))}
    assert order[:2] == ["A", "T"]  # the warm-up pass
    firsts = [r["first"] for r in runs]
    assert firsts == ["against", "this"] * (len(runs) // 2) + ["against"] * (len(runs) % 2)
    assert order[2:] == [s for f in firsts for s in (("A", "T") if f == "against" else ("T", "A"))]


def test_three_sides_rotate():
    _, runs = harness.passes({"a": 0, "b": 1, "c": 2}, fixed(0.5))
    assert [r["first"] for r in runs[:6]] == ["a", "b", "c", "a", "b", "c"]


@pytest.mark.parametrize(
    "repeats, min_seconds, seconds, sides, expected",
    [
        (10, 2.0, 0.25, 1, 10),  # the pass count binds
        (3, 2.0, 0.25, 1, 8),  # the time binds
        (3, 2.0, 0.25, 2, 4),  # both sides' time counts
        (3, 0.5, 0.25, 1, 3),
    ],
)
def test_passes_stop_once_both_bounds_are_met(monkeypatch, repeats, min_seconds, seconds, sides, expected):
    monkeypatch.setattr(harness, "REPEATS", repeats)
    monkeypatch.setattr(harness, "MIN_SECONDS", min_seconds)
    _, runs = harness.passes({f"side{i}": i for i in range(sides)}, fixed(seconds))
    assert len(runs) == expected


def test_each_stage_summary_is_ordered_and_counted():
    times = iter(np.random.default_rng(3).exponential(0.05, size=10_000).tolist())

    def run_pass(side):
        return None, {"a_s": next(times), "b_s": next(times)}

    _, runs = harness.passes({"this": None}, run_pass)
    summary = harness.summary(runs)
    assert set(summary) == {"a_s", "b_s", "total_s"}
    for stats in summary.values():
        assert stats["q1"] <= stats["median"] <= stats["q3"]
        assert stats["count"] == len(runs)


def test_against_entry_counts_the_passes_this_side_won():
    runs = [
        {"first": "against", "against": {"s": 2.0}, "this": {"s": 1.0}},
        {"first": "this", "against": {"s": 1.0}, "this": {"s": 3.0}},
        {"first": "against", "against": {"s": 5.0}, "this": {"s": 4.0}},
    ]
    entry = harness.against_entry(runs)
    assert entry["this_faster"] == {"s": 2, "total_s": 2}
    assert entry["s"]["count"] == 3


def test_equal_inputs_give_equal_digests():
    values = [(3, "tt", 0.25), 0.125, np.float64(1e-300), "x"]
    assert harness.digest(values) == harness.digest(list(values))
    assert harness.digest([0.1 + 0.2]) != harness.digest([0.3])


def test_a_float_is_digested_by_its_bytes():
    assert harness.digest([0.0]) != harness.digest([-0.0])
    assert harness.digest([0.5]) == harness.digest([np.float64(0.5)])


def test_load_checkout_imports_beside_this_checkout():
    ours = {name: importlib.import_module(f"minima.{name}") for name in harness.MODULES}
    before = {k: v for k, v in sys.modules.items() if k == "minima" or k.startswith("minima.")}
    mods = harness.load_checkout(ROOT)
    after = {k: v for k, v in sys.modules.items() if k == "minima" or k.startswith("minima.")}
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    for name, mod in mods.items():
        assert Path(mod.__file__).resolve().is_relative_to(ROOT / "src")
        assert mod is not ours[name]
