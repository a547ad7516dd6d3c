"""Planner wall times at model scale.

Usage, from the root of the repository:

    python3 bench/plan_scale.py [--sizes 192 1536 6144] [--out BENCH_plan_scale.json]

For each size it builds synthetic 64x64 patches (layers of 256x256, one
eighth of the patches fragile) and sensitivity records, then times
``build_options``, ``allocate`` in ``sensitivity_mixed`` mode and
``allocate`` in ``uniform`` mode with TT, all at target ratio 0.45. Each
time is the median of three runs; every run's time is kept. Up to 192
patches the mixed plan is also compared with the full-rescan greedy of
``tests/test_planner.py``, whose cost grows with the square of the patch
count. The JSON written to ``--out`` records the numpy
version, the BLAS build and the BLAS thread count, read as
``perfbench/run.py`` reads them. Planning makes no SVD call; the BLAS is
pinned to one thread as in ``perfbench/``.
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
sys.path.insert(0, str(ROOT / "tests"))
sys.path.insert(0, str(ROOT / "perfbench"))

from minima import planner  # noqa: E402
from minima.sensitivity import Patch, SensitivityRecord  # noqa: E402
from minima.tn_decompositions import FAMILIES  # noqa: E402
from run import environment  # noqa: E402  (perfbench/run.py)
from test_planner import reference_greedy  # noqa: E402

PATCH = 64
LAYER = 256  # 16 patches of 64 x 64 per layer
RATIOS = (0.5, 0.35, 0.25, 0.15)
FAMILY_FACTOR = {"tucker": 1.25, "tt": 1.0, "tr": 1.1}
TARGET = 0.45
REPEATS = 3
REFERENCE_MAX = 192  # patches; the reference rescans every candidate per step


def synthetic(n_patches: int):
    """Patches and records: prediction = level x family factor x (0.5 / ratio)^2
    x jitter, with levels below the cap for 7/8 of the patches and above it
    (pinned) for 1/8."""
    rng = np.random.default_rng(n_patches)
    per_row = LAYER // PATCH
    patches = []
    for pid in range(n_patches):
        layer, tile = divmod(pid, per_row * per_row)
        r0, c0 = PATCH * (tile // per_row), PATCH * (tile % per_row)
        kind = ("attention_proj", "ffn")[layer % 2]
        patches.append(Patch(pid, f"layer{layer}.{kind}", layer, kind, (r0, r0 + PATCH), (c0, c0 + PATCH)))
    n_fragile = n_patches // 8
    levels = np.concatenate(
        [np.geomspace(1e-3, 1.5e-2, n_patches - n_fragile), np.geomspace(3e-2, 8e-2, n_fragile)]
    )
    levels = rng.permutation(levels)
    records = []
    for p, level in zip(patches, levels.tolist()):
        jitter = np.exp(0.03 * rng.standard_normal((len(FAMILIES), len(RATIOS))))
        predictions = {
            f: {r: level * FAMILY_FACTOR[f] * (0.5 / r) ** 2 * jitter[i, j] for j, r in enumerate(RATIOS)}
            for i, f in enumerate(FAMILIES)
        }
        records.append(SensitivityRecord(p.patch_id, 0.0, predictions, {}))
    return patches, records


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def measure(n_patches: int) -> dict:
    patches, records = synthetic(n_patches)
    times = {"build_options_s": [], "greedy_mixed_s": [], "uniform_tt_s": []}
    for _ in range(REPEATS):
        options, t = timed(lambda: planner.build_options(records, patches))
        times["build_options_s"].append(t)
        mixed, t = timed(lambda: planner.allocate(options, TARGET, mode="sensitivity_mixed"))
        times["greedy_mixed_s"].append(t)
        uniform, t = timed(lambda: planner.allocate(options, TARGET, mode="uniform", single_family="tt"))
        times["uniform_tt_s"].append(t)
    row = {"patches": n_patches}
    row.update({name: statistics.median(ts) for name, ts in times.items()})
    row["total_s"] = sum(row[name] for name in times)
    row["runs"] = times
    row["candidates"] = sum(len(o.candidates) for o in options)
    row["mixed_achieved_ratio"] = mixed.achieved_ratio
    row["uniform_achieved_ratio"] = uniform.achieved_ratio
    if n_patches <= REFERENCE_MAX:
        row["mixed_equals_reference"] = reference_greedy(options, TARGET, "sensitivity_mixed", "tt") == mixed
    return row


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[192, 1536, 6144])
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_plan_scale.json")
    args = parser.parse_args()
    rows = []
    for n in args.sizes:
        rows.append(measure(n))
        print(json.dumps({k: v for k, v in rows[-1].items() if k != "runs"}), flush=True)
    report = {
        "command": " ".join(["python3 bench/plan_scale.py", *sys.argv[1:]]),
        "environment": environment(),
        "patch": [PATCH, PATCH],
        "target_ratio": TARGET,
        "repeats": REPEATS,
        "rows": rows,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")


if __name__ == "__main__":
    main()
