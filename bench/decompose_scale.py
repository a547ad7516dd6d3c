"""Decomposition wall times per family and patch size.

Usage, from the root of the repository:

    python3 bench/decompose_scale.py [--sizes 32 64 128] [--out BENCH_decompose.json]

For each square patch size it builds one synthetic weight matrix (random
orthonormal singular vectors, singular values decaying as exp(-0.1 k)) and,
for each of Tucker, TT and TR at ratio 0.25, times ``compress_matrix`` at
its defaults (``HOOI_SWEEPS`` HOOI sweeps for Tucker) and ``select_ranks``
on the patch's mode shape. ``select_ranks`` is timed cold, its process-wide
memo cleared before each call so that every call runs the search (a TR
search runs the TT search it takes its ranks from), and warm, every call a
memo hit. ``compress_matrix`` is timed as a caller meets it: its first call
of a (shape, family, budget) runs the search, later ones hit the memo.
Calls repeat until there are at least ``REPEATS`` of them and they have
taken ``MIN_SECONDS``; each time is recorded as the median with its
quartiles, beside the number of calls. Each row also records the selected
ranks and the relative reconstruction error ||W - What|| / ||W||, so two
checkouts can be compared for equal outputs. The JSON written
to ``--out`` records the numpy version, the BLAS build and the BLAS thread
count, read as ``perfbench/run.py`` reads them; the BLAS is pinned to one
thread as in ``perfbench/``.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from minima.tn_decompositions import (  # noqa: E402
    FAMILIES,
    HOOI_SWEEPS,
    _rank_search,
    compress_matrix,
    default_mode_shape,
    layer_to_matrix,
    ratio_budget,
    select_ranks,
)
from run import environment  # noqa: E402  (perfbench/run.py)

RATIO = 0.25
DECAY = 0.1
REPEATS = 40  # calls at least
MIN_SECONDS = 1.0  # per timing, so a fast call is taken thousands of times


def synthetic(n: int) -> np.ndarray:
    rng = np.random.default_rng(n)
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (u * np.exp(-DECAY * np.arange(n))) @ v.T


def timed_runs(fn, before=None):
    """``fn``'s last output and the quartiles and count of its call times,
    each call after an untimed ``before()``."""
    times, total = [], 0.0  # a running total: a warm search takes microseconds, so its calls run to the hundred thousands
    while len(times) < REPEATS or total < MIN_SECONDS:
        if before is not None:
            before()
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
        total += times[-1]
    return out, {**dict(zip(("q1", "median", "q3"), statistics.quantiles(times, n=4))), "calls": len(times)}


def measure(n: int) -> list[dict]:
    w = synthetic(n)
    mode_shape, _ = default_mode_shape(n, n)
    budget = ratio_budget(RATIO, n * n)
    rows = []
    for family in FAMILIES:
        layer, compress_s = timed_runs(lambda: compress_matrix(w, family, budget))
        spec, cold_s = timed_runs(lambda: select_ranks(mode_shape, family, budget), before=_rank_search.cache_clear)
        _, warm_s = timed_runs(lambda: select_ranks(mode_shape, family, budget))
        rows.append(
            {
                "patch": [n, n],
                "mode_shape": list(mode_shape),
                "family": family,
                "ranks": list(spec.ranks),
                "relative_error": float(np.linalg.norm(w - layer_to_matrix(layer)) / np.linalg.norm(w)),
                "compress_matrix_s": compress_s,
                "select_ranks_cold_s": cold_s,
                "select_ranks_warm_s": warm_s,
            }
        )
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[32, 64, 128])
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_decompose.json")
    args = parser.parse_args()
    compress_matrix(synthetic(8), "tucker", ratio_budget(RATIO, 64))  # warm-up
    rows = []
    for n in args.sizes:
        for row in measure(n):
            rows.append(row)
            print(json.dumps(row), flush=True)
    report = {
        "command": " ".join(["python3 bench/decompose_scale.py", *sys.argv[1:]]),
        "environment": environment(),
        "ratio": RATIO,
        "hooi_iters": HOOI_SWEEPS,
        "repeats": REPEATS,
        "min_seconds": MIN_SECONDS,
        "rows": rows,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")


if __name__ == "__main__":
    main()
