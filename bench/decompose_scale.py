"""Decomposition wall times per family and patch size.

Usage, from the root of the repository:

    python3 bench/decompose_scale.py [--sizes 32 64 128] [--out BENCH_decompose.json]

For each square patch size it builds one synthetic weight matrix (random
orthonormal singular vectors, singular values decaying as exp(-0.1 k)).
The sides of ``bench/harness.py``'s timing rule are Tucker, TT and TR at
ratio 0.25, so the three families run in turn within each pass and the
machine's drift falls on all three alike. A family's pass times
``select_ranks`` on the patch's mode shape cold, its process-wide memo
cleared first so that the call runs the search (a TR search runs the TT
search it takes its ranks from), then warm, a memo hit, then
``compress_matrix`` (``HOOI_SWEEPS`` HOOI sweeps for Tucker), whose search
is then a memo hit too. Each row also records the selected ranks, the
relative reconstruction error ||W - What|| / ||W|| and ``layer_digest``, a
``harness.digest`` of the layer's arrays and its reconstruction, so two
checkouts can be compared for equal outputs.
"""

import argparse
from pathlib import Path

import harness  # first: pins the BLAS and sets the import path
import numpy as np

from minima.tn_decompositions import (
    FAMILIES,
    HOOI_SWEEPS,
    _rank_search,
    compress_matrix,
    default_mode_shape,
    layer_to_matrix,
    ratio_budget,
    reconstruct,
    select_ranks,
)

RATIO = 0.25
DECAY = 0.1
STAGES = ("select_ranks_cold_s", "select_ranks_warm_s", "compress_matrix_s")


def synthetic(n: int) -> np.ndarray:
    rng = np.random.default_rng(n)
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (u * np.exp(-DECAY * np.arange(n))) @ v.T


def layer_digest(layer) -> str:
    arrays = [layer.core, *layer.factors] if layer.family == "tucker" else list(layer.cores)
    arrays.append(reconstruct(layer))
    return harness.digest(v for a in arrays for v in (a.shape, *a.ravel().tolist()))


def run_pass(family, w, mode_shape, budget):
    _rank_search.cache_clear()
    ranks, cold_s = harness.timed(lambda: select_ranks(mode_shape, family, budget))
    _, warm_s = harness.timed(lambda: select_ranks(mode_shape, family, budget))
    layer, compress_s = harness.timed(lambda: compress_matrix(w, family, budget))
    return (ranks, layer), dict(zip(STAGES, (cold_s, warm_s, compress_s)))


def measure(n: int) -> list[dict]:
    w = synthetic(n)
    mode_shape, _ = default_mode_shape(n, n)
    budget = ratio_budget(RATIO, n * n)
    outs, runs = harness.passes({f: f for f in FAMILIES}, run_pass, w, mode_shape, budget)
    rows = []
    for family, (ranks, layer) in outs.items():
        row = {"patch": [n, n], "mode_shape": list(mode_shape), "family": family, "ranks": list(ranks)}
        row["relative_error"] = float(np.linalg.norm(w - layer_to_matrix(layer)) / np.linalg.norm(w))
        row["layer_digest"] = layer_digest(layer)
        row.update({stage: harness.quartiles(r[family][stage] for r in runs) for stage in STAGES})
        rows.append(row)
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[32, 64, 128])
    parser.add_argument("--out", type=Path, default=harness.ROOT / "BENCH_decompose.json")
    args = parser.parse_args()
    rows = []
    for n in args.sizes:
        for row in measure(n):
            rows.append(row)
            harness.show(row)
    harness.report(args.out, rows, ratio=RATIO, hooi_sweeps=HOOI_SWEEPS)


if __name__ == "__main__":
    main()
