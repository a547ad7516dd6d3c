"""Planner wall times and memory at model scale.

Usage, from the root of the repository:

    python3 bench/plan_scale.py [--sizes 192 1536 6144] [--out BENCH_plan_scale.json]
                                [--against CHECKOUT]

For each size it builds synthetic 64x64 patches (layers of 256x256, one
eighth of the patches fragile) and sensitivity records. A pass times
``build_options``, ``allocate`` in ``sensitivity_mixed`` mode, ``allocate``
in ``sensitivity`` mode with TT (as the ``plan`` workload of ``perfbench/``
calls it) and ``allocate`` in ``uniform`` mode with TT, all at target ratio
0.45; the timing rule and ``--against`` are ``bench/harness.py``'s, and
``runs`` keeps every pass. Up to 192 patches the mixed plan is also
compared with the full-rescan greedy of ``tests/test_planner.py``, whose
cost grows with the square of the patch count.

One more pass runs under ``tracemalloc``. ``bytes_per_candidate`` and
``bytes_per_patch`` are what the options ``build_options`` returns hold,
over their candidates and over the patches; ``peak_mb`` is each stage's
traced peak. ``plan_digest`` digests every candidate, read through the
options' per-patch views, and every entry of the three greedy and uniform
plans. Under ``--against``, the row's ``against`` entry also holds the
other side's memory and plan digest.
"""

import argparse
from pathlib import Path

import harness  # first: pins the BLAS and sets the import path
import numpy as np

from minima.sensitivity import Patch, SensitivityRecord
from minima.tn_decompositions import FAMILIES
from test_planner import reference_greedy

PATCH = 64
LAYER = 256  # 16 patches of 64 x 64 per layer
RATIOS = (0.5, 0.35, 0.25, 0.15)
FAMILY_FACTOR = {"tucker": 1.25, "tt": 1.0, "tr": 1.1}
TARGET = 0.45
REFERENCE_MAX = 192  # patches; the reference rescans every candidate per step
STAGES = ("build_options_s", "greedy_mixed_s", "greedy_tt_s", "uniform_tt_s")


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


def run_pass(mods, patches, records, measure=harness.timed):
    """One pass: the options, the three plans, and what ``measure`` gives for
    each stage."""
    plan = mods["planner"]
    options, m0 = measure(lambda: plan.build_options(records, patches))
    mixed, m1 = measure(lambda: plan.allocate(options, TARGET, mode="sensitivity_mixed"))
    tt, m2 = measure(lambda: plan.allocate(options, TARGET, mode="sensitivity", single_family="tt"))
    uniform, m3 = measure(lambda: plan.allocate(options, TARGET, mode="uniform", single_family="tt"))
    return (options, mixed, tt, uniform), dict(zip(STAGES, (m0, m1, m2, m3)))


def memory(mods, patches, records) -> dict:
    """Bytes the options hold per candidate and per patch, and each stage's peak in MB."""
    (options, *_), stages = harness.traced(run_pass, mods, patches, records)
    held = stages["build_options_s"][1]
    return {
        "bytes_per_candidate": held / sum(len(o.candidates) for o in options),
        "bytes_per_patch": held / len(patches),
        "peak_mb": {stage.removesuffix("_s"): peak / 1e6 for stage, (peak, _) in stages.items()},
    }


def plan_digest(options, plans) -> str:
    """Digest of every candidate and plan entry."""

    def values():
        for o in options:
            yield from (o.patch_id, o.compressible, o.pinned)
            for c in o.candidates:
                yield from (c.family, c.ratio, c.params, c.predicted_degradation, c.ranks)
        for plan in plans:
            yield from (plan.mode, plan.achieved_params)
            for e in plan.entries:
                yield from (e.patch_id, e.family, e.target_ratio, e.ranks, e.params, e.predicted_degradation)

    return harness.digest(values())


def measure(n_patches: int, sides: dict) -> dict:
    patches, records = synthetic(n_patches)
    outs, runs = harness.passes(sides, run_pass, patches, records)
    options, mixed, tt, uniform = outs["this"]
    row = {"patches": n_patches, "candidates": sum(len(o.candidates) for o in options), "passes": len(runs)}
    row.update(harness.summary(runs))
    row.update(memory(sides["this"], patches, records))
    row["plan_digest"] = plan_digest(options, (mixed, tt, uniform))
    row["mixed_achieved_ratio"] = mixed.achieved_ratio
    row["tt_achieved_ratio"] = tt.achieved_ratio
    row["uniform_achieved_ratio"] = uniform.achieved_ratio
    if n_patches <= REFERENCE_MAX:
        row["mixed_equals_reference"] = reference_greedy(options, TARGET, "sensitivity_mixed", "tt") == mixed
    if "against" in sides:
        row["against"] = {
            **harness.against_entry(runs),
            **memory(sides["against"], patches, records),
            "plan_digest": plan_digest(outs["against"][0], outs["against"][1:]),
        }
    row["runs"] = runs
    return row


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[192, 1536, 6144])
    parser.add_argument("--out", type=Path, default=harness.ROOT / "BENCH_plan_scale.json")
    parser.add_argument("--against", type=Path, help="root of a second checkout to time alternately")
    args = parser.parse_args()
    sides = harness.sides(args.against)
    rows = []
    for n in args.sizes:
        rows.append(measure(n, sides))
        harness.show(rows[-1])
    harness.report(args.out, rows, args.against, patch=[PATCH, PATCH], target_ratio=TARGET)


if __name__ == "__main__":
    main()
