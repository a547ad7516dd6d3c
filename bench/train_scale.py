"""Predictor training wall times at three record-set sizes.

Usage, from the root of the repository:

    python3 bench/train_scale.py [--patches 5 40 320] [--out BENCH_train.json]

For each size it builds synthetic probe records: every patch has 12 normal
features and one probe per (family, ratio) of Tucker, TT and TR at ratios
0.5 / 0.35 / 0.25 / 0.15, about 10% of which are missing, as skipped
probes leave them. It times ``train_predictor``, the closed-form ridge
fit with one solve per set of patches that its heads share: 5, 12 and 13
solves for the 13 heads at the default sizes, since the missing probes
give most heads a set of their own. Each time is the median of five calls
and every call's time is kept. Each row also records the fit's
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

REPEATS = 5


def timed_runs(fn):
    times = []
    for _ in range(REPEATS):
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
        "train_predictor_s": statistics.median(runs),
        "initial_mse": predictor.training_log["initial_mse"],
        "final_mse": predictor.training_log["final_mse"],
        "runs": {"train_predictor_s": runs},
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
        print(json.dumps({k: v for k, v in rows[-1].items() if k != "runs"}), flush=True)
    report = {
        "command": " ".join(["python3 bench/train_scale.py", *sys.argv[1:]]),
        "environment": environment(),
        "repeats": REPEATS,
        "rows": rows,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")


if __name__ == "__main__":
    main()
