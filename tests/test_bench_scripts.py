"""Every script under ``bench/`` imports and parses its options on this tree.

A script is a ``bench/*.py`` file that defines ``main``; the shared
``bench/harness.py`` has none and is tested in ``test_bench_harness.py``.
Each script runs with ``--help`` in a fresh interpreter under ``python -B``,
so no bytecode lands in ``bench/``, ``src/`` or ``tests/``. A deletion or a
rename of a name a script or the harness imports fails here, not in a
benchmark run.

Each script's ``measure`` also runs once on its smallest input, all four in
one such interpreter, with ``harness.REPEATS`` / ``MIN_SECONDS`` at 2 / 0.
Its rows must carry the fields of the committed ``BENCH_*.json`` rows (less
``against``, which only ``--against`` writes), so a name that only a bench
run reads fails here too; ``measure`` writes no file. ``decompose_scale.py``
also runs ``--against`` this same checkout, loaded a second time, and its
rows' ``against`` entries must carry the committed ones' fields.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


SCRIPTS = sorted(p.name for p in BENCH.glob("*.py") if "\ndef main(" in p.read_text())


def test_every_scale_script_is_run():
    assert SCRIPTS == sorted(p.name for p in BENCH.glob("*_scale.py"))


@pytest.mark.parametrize("script", SCRIPTS)
def test_help_exits_cleanly(script):
    done = subprocess.run(
        [sys.executable, "-B", str(BENCH / script), "--help"],
        cwd=BENCH.parent,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage:"), done.stdout


# each script's measure on its smallest input, its rows as ``fields`` gives them
MEASURE = """
import json, harness
harness.REPEATS, harness.MIN_SECONDS = 2, 0
import analyze_scale, decompose_scale, plan_scale, train_scale
fields = lambda row: [sorted(row), sorted(row.get("against", {}))]
rows = {
    "analyze_scale.py": [analyze_scale.measure("small", harness.sides(None), None)],
    "decompose_scale.py": decompose_scale.measure(32, harness.sides(harness.ROOT)),
    "plan_scale.py": [plan_scale.measure(192, harness.sides(None))],
    "train_scale.py": [train_scale.measure(5)],
}
print(json.dumps({script: [fields(row) for row in got] for script, got in rows.items()}))
"""
AGAINST = {"decompose_scale.py"}  # the scripts MEASURE runs with --against


def fields(row: dict) -> list:
    """A row's sorted fields and those of its ``against`` entry, as MEASURE lists them."""
    return [sorted(row), sorted(row.get("against", {}))]


# script -> the report it writes, and the field and value of the smallest input's rows
REPORTS = {
    "analyze_scale.py": ("BENCH_analyze.json", "model", "small"),
    "decompose_scale.py": ("BENCH_decompose.json", "patch", [32, 32]),
    "plan_scale.py": ("BENCH_plan_scale.json", "patches", 192),
    "train_scale.py": ("BENCH_train.json", "patches", 5),
}


def snapshot() -> dict:
    """Every file under ``bench/`` and at the root, with its modification time."""
    files = [*BENCH.rglob("*"), *ROOT.glob("*")]
    return {p: p.stat().st_mtime_ns for p in files if p.is_file()}


@pytest.fixture(scope="module")
def measured_fields():
    before = snapshot()
    done = subprocess.run([sys.executable, "-B", "-c", MEASURE], cwd=BENCH, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert snapshot() == before
    return json.loads(done.stdout.splitlines()[-1])


def test_every_script_is_measured(measured_fields):
    assert sorted(measured_fields) == sorted(REPORTS) == SCRIPTS


@pytest.mark.parametrize("script", sorted(REPORTS))
def test_measure_writes_the_reported_fields(measured_fields, script):
    report, key, value = REPORTS[script]
    committed = [r for r in json.loads((ROOT / report).read_text())["rows"] if r[key] == value]
    assert committed, (report, key, value)
    if script not in AGAINST:
        committed = [{k: v for k, v in r.items() if k != "against"} for r in committed]
    assert measured_fields[script] == [fields(r) for r in committed]
