"""Predictor training wall times at three record-set sizes.

Usage, from the root of the repository:

    python3 bench/train_scale.py [--patches 5 40 320] [--out BENCH_train.json]

For each size it builds synthetic probe records: every patch has 12 normal
features and one probe per (family, ratio) of Tucker, TT and TR at ratios
0.5 / 0.35 / 0.25 / 0.15, about 10% of which are missing, as skipped
probes leave them. It times ``train_predictor``, the closed-form ridge
fit with one solve per set of patches that its heads share: 5, 12 and 13
solves for the 13 heads at the default sizes, since the missing probes
give most heads a set of their own. Calls repeat until there are at
least ``REPEATS`` of them and they have taken ``MIN_SECONDS``; each row
records the number of calls and the median time with its quartiles.
Each row also records the fit's
training errors and the per-head means'. The JSON written to ``--out``
records the numpy version, the BLAS build and the BLAS thread count, read
as ``perfbench/run.py`` reads them; the BLAS is pinned to one thread as in
``perfbench/``.
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

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))
sys.path.insert(0, str(ROOT / "perfbench"))

from minima.sensitivity import train_predictor  # noqa: E402
from run import environment  # noqa: E402  (perfbench/run.py)
from test_sensitivity import masked_records  # noqa: E402

REPEATS = 40  # calls at least
MIN_SECONDS = 1.0  # so the small sizes, each under 2 ms, take hundreds of calls


def timed_runs(fn):
    times = []
    while len(times) < REPEATS or sum(times) < MIN_SECONDS:
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return out, times


def measure(n_patches: int) -> dict:
    records = masked_records(n_patches, n_patches=n_patches)
    predictor, runs = timed_runs(lambda: train_predictor(records))
    return {
        "patches": n_patches,
        "records": len(records),
        "train_predictor_s": dict(zip(("q1", "median", "q3"), statistics.quantiles(runs, n=4))),
        "calls": len(runs),
        "initial_mse": predictor.training_log["initial_mse"],
        "final_mse": predictor.training_log["final_mse"],
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--patches", type=int, nargs="+", default=[5, 40, 320])
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_train.json")
    args = parser.parse_args()
    train_predictor(masked_records(0, n_patches=5))  # warm-up
    rows = []
    for n in args.patches:
        rows.append(measure(n))
        print(json.dumps(rows[-1]), flush=True)
    report = {
        "command": " ".join(["python3 bench/train_scale.py", *sys.argv[1:]]),
        "environment": environment(),
        "repeats": REPEATS,
        "min_seconds": MIN_SECONDS,
        "rows": rows,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")


if __name__ == "__main__":
    main()
