"""What the bench scripts share: the BLAS pin, the timing rule, the
``--against`` alternation, memory peaks, output digests and the report.

A script imports this module before numpy. The import pins the BLAS to one
thread, as ``perfbench/`` does, and puts ``src/``, ``tests/`` and
``perfbench/`` on the import path.

Timing. A script's pass runs each of its stages once on one side and gives
each stage's wall time. Each side first runs one untimed warm-up pass, whose
outputs the script keeps. Then passes repeat until there are at least
``REPEATS`` of them and the stages of all sides have taken at least
``MIN_SECONDS`` together, so a stage of microseconds runs thousands of times
and one of half a second ten. Within a pass the sides run in turn, and the
side that runs first rotates from pass to pass. Each stage is reported as
its median and quartiles over the passes (``statistics.quantiles``, n=4)
with their count; ``total_s`` is the same for the sum of a pass's stages.

Alternation. With ``--against CHECKOUT``, the sides are the ``minima``
package of a second checkout (the root of another working tree of this
repository), loaded into the same process beside this checkout's, and this
checkout's. Both run the same stages on the same inputs. The machine's speed
drifts by up to 1.5x between runs minutes apart, so a before/after claim
compares the two sides within these passes, not across processes. A row's
``against`` entry holds the other side's summaries and, per stage, the
number of passes in which this checkout was faster (``this_faster``).

Memory. ``traced`` runs one more pass under ``tracemalloc``, and gives each
stage's peak and the memory it leaves held, both above the memory held when
the stage starts. Peaks depend on the interpreter's tuple and float free
lists, which earlier calls in the process fill, so one stage's peak can move
by a third between identical passes.

Outputs. ``digest`` hashes outputs, each float by its bytes and anything
else by its ``repr``, so two checkouts can be compared for equal outputs.

Report. The JSON a script writes to ``--out`` starts with the command (the
other checkout's path replaced by its git commit), that commit, and the
environment as ``perfbench/run.py`` records it: the Python and numpy
versions, the BLAS build and thread count, the SVD path and the CPU count.
``REPEATS``, ``MIN_SECONDS``, the script's settings and its rows follow.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
for _dir in ("src", "tests", "perfbench"):
    sys.path.insert(0, str(ROOT / _dir))

from run import MODULES, environment  # noqa: E402  (perfbench/run.py)

REPEATS = 10  # passes at least; ten pairs resolve a 1.5x change within a process
MIN_SECONDS = 2.0  # of all sides' stages, so fast stages take more passes


def timed(fn):
    """``fn()`` and its wall time."""
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def passes(sides: dict, run_pass, *inputs) -> tuple[dict, list[dict]]:
    """Each side's output of its warm-up pass, and the timed passes, each
    with the side that ran first and every side's stage times.
    ``run_pass(side, *inputs)`` gives an output and ``{stage: seconds}``."""
    outs = {name: run_pass(side, *inputs)[0] for name, side in sides.items()}
    names, runs, spent = list(sides), [], 0.0
    while len(runs) < REPEATS or spent < MIN_SECONDS:
        k = len(runs) % len(names)
        run = {"first": names[k]}
        for name in names[k:] + names[:k]:
            run[name] = run_pass(sides[name], *inputs)[1]
            spent += sum(run[name].values())
        runs.append(run)
    return outs, runs


def quartiles(times) -> dict:
    times = list(times)
    q1, median, q3 = statistics.quantiles(times, n=4)
    return {"median": median, "q1": q1, "q3": q3, "count": len(times)}


def stage_times(runs, side: str) -> dict:
    """``side``'s times per stage over ``runs``, with each pass's sum as ``total_s``."""
    times = {stage: [r[side][stage] for r in runs] for stage in runs[0][side]}
    times["total_s"] = [sum(r[side].values()) for r in runs]
    return times


def summary(runs, side: str = "this") -> dict:
    return {stage: quartiles(ts) for stage, ts in stage_times(runs, side).items()}


def against_entry(runs, this: str = "this", against: str = "against") -> dict:
    """The other checkout's summaries, and per stage the passes this one
    won; a script whose sides are more than the two checkouts names the
    pair of sides to compare."""
    mine, other = stage_times(runs, this), stage_times(runs, against)
    won = {stage: sum(a < b for a, b in zip(ts, other[stage])) for stage, ts in mine.items()}
    return {**summary(runs, against), "this_faster": won}


def traced_stage(fn):
    """``fn()``, with its peak and the memory it leaves held, above the memory held when it starts."""
    start = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    out = fn()
    held, peak = tracemalloc.get_traced_memory()
    return out, (peak - start, held - start)


def traced(run_pass, side, *inputs):
    """``run_pass`` on ``side`` under ``tracemalloc``, each stage measured by ``traced_stage``."""
    tracemalloc.start()
    try:
        return run_pass(side, *inputs, measure=traced_stage)
    finally:
        tracemalloc.stop()


def digest(values) -> str:
    h = hashlib.sha256()
    for v in values:
        h.update(np.float64(v).tobytes() if isinstance(v, float) else repr(v).encode())
    return h.hexdigest()[:16]


def load_checkout(root: Path) -> dict:
    """The ``minima`` modules of the checkout at ``root``, imported beside
    this checkout's: its modules are taken out of ``sys.modules`` for the
    import and put back after, so each package keeps its own modules."""
    src = root / "src"
    if not (src / "minima" / "__init__.py").is_file():
        sys.exit(f"bench: no minima package under {src}")
    ours = {k: v for k, v in sys.modules.items() if k == "minima" or k.startswith("minima.")}
    for k in ours:
        del sys.modules[k]
    sys.path.insert(0, str(src))
    try:
        mods = {name: importlib.import_module(f"minima.{name}") for name in MODULES}
    finally:
        sys.path.remove(str(src))
        for k in [k for k in sys.modules if k == "minima" or k.startswith("minima.")]:
            del sys.modules[k]
        sys.modules.update(ours)
    if not Path(mods["sensitivity"].__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"bench: minima imported from {mods['sensitivity'].__file__}, not {src}")
    return mods


def sides(against: Path | None) -> dict:
    """This checkout's ``minima`` modules as ``"this"``, after the other
    checkout's as ``"against"`` if there is one."""
    this = {name: importlib.import_module(f"minima.{name}") for name in MODULES}
    return {"this": this} if against is None else {"against": load_checkout(against), "this": this}


def git_commit(root: Path) -> str | None:
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() or None


def report(out: Path, rows: list, against: Path | None = None, **settings):
    """Write the report of ``rows`` to ``out``."""
    commit = git_commit(against) if against else None
    # the other checkout's path is local to the machine; its commit is not
    args = [f"<checkout of {commit}>" if a == str(against) else a for a in sys.argv[1:]]
    header = {
        "command": " ".join([f"python3 bench/{Path(sys.argv[0]).name}", *args]),
        "against_commit": commit,
        "environment": environment(),
        "repeats": REPEATS,
        "min_seconds": MIN_SECONDS,
    }
    out.write_text(json.dumps({**header, **settings, "rows": rows}, indent=2) + "\n")


def show(row: dict):
    """Print ``row`` without its passes."""
    print(json.dumps({k: v for k, v in row.items() if k != "runs"}), flush=True)
