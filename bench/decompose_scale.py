"""Decomposition wall times per family and patch size.

Usage, from the root of the repository:

    python3 bench/decompose_scale.py [--sizes 32 64 128] [--out BENCH_decompose.json]
                                     [--against CHECKOUT]

For each square patch size it builds one synthetic weight matrix (random
orthonormal singular vectors, singular values decaying as exp(-0.1 k)).
The sides of ``bench/harness.py``'s timing rule are Tucker, TT and TR at
ratio 0.25, and under ``--against`` each family on each checkout, so every
side runs in turn within each pass and the machine's drift falls on all
of them alike. A side's pass times ``select_ranks`` on the patch's mode
shape cold, its process-wide memo cleared first so that the call runs the
search (a TR search runs the TT search it takes its ranks from), then
warm, a memo hit, then ``compress_matrix`` (the HOSVD and one HOOI sweep
for Tucker), whose search is then a memo hit too. Each row also records the
selected ranks, the relative reconstruction error ||W - What|| / ||W|| and
``layer_digest``, a ``harness.digest`` of the layer's arrays and its
reconstruction, so two checkouts can be compared for equal outputs. Under
``--against``, the row's ``against`` entry holds the other checkout's
stage times, its relative error and layer digest, and per stage the
passes in which this checkout was faster (``this_faster``).
"""

import argparse
from pathlib import Path

import harness  # first: pins the BLAS and sets the import path
import numpy as np

RATIO = 0.25
DECAY = 0.1
STAGES = ("select_ranks_cold_s", "select_ranks_warm_s", "compress_matrix_s")


def synthetic(n: int) -> np.ndarray:
    rng = np.random.default_rng(n)
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (u * np.exp(-DECAY * np.arange(n))) @ v.T


def layer_digest(tn, layer) -> str:
    arrays = [layer.core, *layer.factors] if layer.family == "tucker" else list(layer.cores)
    arrays.append(tn.reconstruct(layer))
    return harness.digest(v for a in arrays for v in (a.shape, *a.ravel().tolist()))


def run_pass(side, w, mode_shape):
    """One family on one checkout's modules: the ranks and layer, and the stage times."""
    mods, family = side
    tn = mods["tn_decompositions"]
    budget = tn.ratio_budget(RATIO, w.size)  # each checkout's own ParamBudget
    tn._rank_search.cache_clear()
    ranks, cold_s = harness.timed(lambda: tn.select_ranks(mode_shape, family, budget))
    _, warm_s = harness.timed(lambda: tn.select_ranks(mode_shape, family, budget))
    layer, compress_s = harness.timed(lambda: tn.compress_matrix(w, family, budget))
    return (ranks, layer), dict(zip(STAGES, (cold_s, warm_s, compress_s)))


def outputs(tn, w, layer) -> dict:
    """The relative error and digest of one side's layer, by its own module."""
    return {
        "relative_error": float(np.linalg.norm(w - tn.layer_to_matrix(layer)) / np.linalg.norm(w)),
        "layer_digest": layer_digest(tn, layer),
    }


def measure(n: int, sides: dict) -> list[dict]:
    w = synthetic(n)
    tn = sides["this"]["tn_decompositions"]
    mode_shape, _ = tn.default_mode_shape(n, n)
    pairs = {f"{name}:{family}": (mods, family) for name, mods in sides.items() for family in tn.FAMILIES}
    outs, runs = harness.passes(pairs, run_pass, w, mode_shape)
    rows = []
    for family in tn.FAMILIES:
        this = f"this:{family}"
        ranks, layer = outs[this]
        row = {"patch": [n, n], "mode_shape": list(mode_shape), "family": family, "ranks": list(ranks)}
        row.update(outputs(tn, w, layer))
        row.update({stage: harness.quartiles(r[this][stage] for r in runs) for stage in STAGES})
        if "against" in sides:
            other = f"against:{family}"
            row["against"] = {
                **harness.against_entry(runs, this, other),
                **outputs(sides["against"]["tn_decompositions"], w, outs[other][1]),
            }
        rows.append(row)
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[32, 64, 128])
    parser.add_argument("--out", type=Path, default=harness.ROOT / "BENCH_decompose.json")
    parser.add_argument("--against", type=Path, help="root of a second checkout to time alternately")
    args = parser.parse_args()
    sides = harness.sides(args.against)
    rows = []
    for n in args.sizes:
        for row in measure(n, sides):
            rows.append(row)
            harness.show(row)
    harness.report(args.out, rows, args.against, ratio=RATIO)


if __name__ == "__main__":
    main()
