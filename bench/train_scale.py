"""Predictor training wall times at three record-set sizes.

Usage, from the root of the repository:

    python3 bench/train_scale.py [--patches 5 40 320] [--out BENCH_train.json]

For each size it builds synthetic probe records: every patch has 12 normal
features and one probe per (family, ratio) of Tucker, TT and TR at ratios
0.5 / 0.35 / 0.25 / 0.15, about 10% of which are missing, as skipped
probes leave them. A pass times ``train_predictor``, the closed-form ridge
fit with one solve per set of patches that its heads share: 5, 12 and 13
solves for the 13 heads at the default sizes, since the missing probes
give most heads a set of their own. The timing rule is
``bench/harness.py``'s. Each row also records the fit's training errors
and the per-head means'.
"""

import argparse
from pathlib import Path

import harness  # first: pins the BLAS and sets the import path

from minima.sensitivity import train_predictor
from test_sensitivity import masked_records


def run_pass(train, records):
    predictor, seconds = harness.timed(lambda: train(records))
    return predictor, {"train_predictor_s": seconds}


def measure(n_patches: int) -> dict:
    records = masked_records(n_patches, n_patches=n_patches)
    outs, runs = harness.passes({"this": train_predictor}, run_pass, records)
    return {
        "patches": n_patches,
        "records": len(records),
        "train_predictor_s": harness.quartiles(r["this"]["train_predictor_s"] for r in runs),
        "initial_mse": outs["this"].training_log["initial_mse"],
        "final_mse": outs["this"].training_log["final_mse"],
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--patches", type=int, nargs="+", default=[5, 40, 320])
    parser.add_argument("--out", type=Path, default=harness.ROOT / "BENCH_train.json")
    args = parser.parse_args()
    rows = []
    for n in args.patches:
        rows.append(measure(n))
        harness.show(rows[-1])
    harness.report(args.out, rows)


if __name__ == "__main__":
    main()
