"""Every script under ``bench/`` imports and parses its options on this tree.

A script is a ``bench/*.py`` file that defines ``main``; the shared
``bench/harness.py`` has none and is tested in ``test_bench_harness.py``.
Each script runs with ``--help`` in a fresh interpreter under ``python -B``,
so no bytecode lands in ``bench/``, ``src/`` or ``tests/``. A deletion or a
rename of a name a script or the harness imports fails here, not in a
benchmark run.
"""

import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


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
