"""Planner wall times and memory at model scale.

Usage, from the root of the repository:

    python3 bench/plan_scale.py [--sizes 192 1536 6144] [--out BENCH_plan_scale.json]
                                [--against CHECKOUT]

For each size it builds synthetic 64x64 patches (layers of 256x256, one
eighth of the patches fragile) and sensitivity records, then times
``build_options``, ``allocate`` in ``sensitivity_mixed`` mode, ``allocate``
in ``sensitivity`` mode with TT (as the ``plan`` workload of ``perfbench/``
calls it) and ``allocate`` in ``uniform`` mode with TT, all at target ratio
0.45. A pass runs the four stages once. After one warm-up pass, passes
repeat until there are at least ``REPEATS`` of them and this checkout's
passes have taken ``MIN_SECONDS``, so the smallest size runs over a
hundred passes and the largest ten. Each stage's row entry is its median
over the passes, with its quartiles; every pass's times are kept in
``runs``. Up to 192 patches the mixed plan is also compared with the
full-rescan greedy of ``tests/test_planner.py``, whose cost grows with the
square of the patch count.

One more pass runs under ``tracemalloc``. ``bytes_per_candidate`` is what
the options ``build_options`` returns hold, over their candidates;
``peak_mb`` is each stage's traced peak above the memory held when the
stage starts. Peaks depend on the interpreter's tuple and float free
lists, which earlier calls in the process fill, so one stage's peak can
move by a third between identical passes. ``plan_digest`` digests every
candidate and every entry of the three greedy and uniform plans, each
float by its bytes, so two checkouts can be compared for equal plans.

``--against CHECKOUT`` loads the ``minima`` package of a second checkout
(the root of another working tree of this repository) into the same process,
and every pass then runs that checkout's stages and this one's on the same
inputs, the side that runs first alternating from pass to pass. The
machine's speed drifts by up to 1.5x between runs minutes apart, so a
before/after claim compares the two sides within these passes, not across
processes. Each pass in ``runs`` then holds both sides' times, and the
row's ``against`` entry holds the other checkout's summaries, traced memory
and plan digest, with the number of passes in which this checkout was
faster per stage; the file records the other checkout's git commit if it
has one.

The JSON written to ``--out`` records the numpy version, the BLAS build and
the BLAS thread count, read as ``perfbench/run.py`` reads them. Planning
makes no SVD call; the BLAS is pinned to one thread as in ``perfbench/``.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))
sys.path.insert(0, str(ROOT / "perfbench"))

from analyze_scale import git_commit, load_checkout  # noqa: E402  (bench/analyze_scale.py)
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
REPEATS = 10  # passes at least; ten pairs resolve a 1.5x change within a process
MIN_SECONDS = 2.0  # of this checkout's stages, so small sizes take more passes
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


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def traced_stage(fn):
    """``fn()``, with its ``tracemalloc`` peak and the memory it leaves held,
    both above the memory held when it starts."""
    start = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    out = fn()
    held, peak = tracemalloc.get_traced_memory()
    return out, (peak - start, held - start)


def run_once(plan_mod, patches, records, measure=timed):
    """One pass: the options, the three plans, and what ``measure`` gives for
    each stage (its wall time, by default)."""
    options, m0 = measure(lambda: plan_mod.build_options(records, patches))
    mixed, m1 = measure(lambda: plan_mod.allocate(options, TARGET, mode="sensitivity_mixed"))
    tt, m2 = measure(lambda: plan_mod.allocate(options, TARGET, mode="sensitivity", single_family="tt"))
    uniform, m3 = measure(lambda: plan_mod.allocate(options, TARGET, mode="uniform", single_family="tt"))
    return (options, mixed, tt, uniform), dict(zip(STAGES, (m0, m1, m2, m3)))


def traced(plan_mod, patches, records):
    """Bytes the options hold per candidate, and each stage's peak in MB."""
    tracemalloc.start()
    try:
        (options, *_), stages = run_once(plan_mod, patches, records, traced_stage)
    finally:
        tracemalloc.stop()
    peaks = {stage.removesuffix("_s"): peak / 1e6 for stage, (peak, _) in stages.items()}
    return stages["build_options_s"][1] / sum(len(o.candidates) for o in options), peaks


def plan_digest(options, plans) -> str:
    """Digest of every candidate and plan entry, each float by its bytes."""
    h = hashlib.sha256()

    def add(*values):
        for v in values:
            h.update(np.float64(v).tobytes() if isinstance(v, float) else repr(v).encode())

    for o in options:
        add(o.patch_id, o.compressible, o.pinned)
        for c in o.candidates:
            add(c.family, c.ratio, c.params, c.predicted_degradation, c.ranks)
    for plan in plans:
        add(plan.mode, plan.achieved_params)
        for e in plan.entries:
            add(e.patch_id, e.family, e.target_ratio, e.ranks, e.params, e.predicted_degradation)
    return h.hexdigest()[:16]


def passes(sides: dict, patches, records) -> list[dict]:
    """Timed passes of every side, alternating which runs first, until there
    are ``REPEATS`` and this checkout's have taken ``MIN_SECONDS``."""
    names = list(sides)
    runs, spent = [], 0.0
    while len(runs) < REPEATS or spent < MIN_SECONDS:
        order = names if len(runs) % 2 == 0 else names[::-1]
        run = {"first": order[0]}
        for side in order:
            run[side] = run_once(sides[side], patches, records)[1]
        spent += sum(run["this"].values())
        runs.append(run)
    return runs


def summary(times) -> dict:
    q1, median, q3 = statistics.quantiles(times, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def measure(n_patches: int, against=None) -> dict:
    patches, records = synthetic(n_patches)
    sides = {"this": planner} if against is None else {"against": against["planner"], "this": planner}
    outs = {side: run_once(mod, patches, records)[0] for side, mod in sides.items()}  # also a warm-up
    runs = passes(sides, patches, records)
    options, mixed, tt, uniform = outs["this"]
    row = {"patches": n_patches, "candidates": sum(len(o.candidates) for o in options), "passes": len(runs)}
    for stage in STAGES:
        row[stage] = summary(r["this"][stage] for r in runs)
    row["total_s"] = summary(sum(r["this"].values()) for r in runs)
    row["bytes_per_candidate"], row["peak_mb"] = traced(planner, patches, records)
    row["plan_digest"] = plan_digest(options, (mixed, tt, uniform))
    row["mixed_achieved_ratio"] = mixed.achieved_ratio
    row["tt_achieved_ratio"] = tt.achieved_ratio
    row["uniform_achieved_ratio"] = uniform.achieved_ratio
    if n_patches <= REFERENCE_MAX:
        row["mixed_equals_reference"] = reference_greedy(options, TARGET, "sensitivity_mixed", "tt") == mixed
    if against is not None:
        bytes_per_candidate, peak_mb = traced(against["planner"], patches, records)
        faster = {stage: sum(r["this"][stage] < r["against"][stage] for r in runs) for stage in STAGES}
        faster["total_s"] = sum(sum(r["this"].values()) < sum(r["against"].values()) for r in runs)
        row["against"] = {
            **{stage: summary(r["against"][stage] for r in runs) for stage in STAGES},
            "total_s": summary(sum(r["against"].values()) for r in runs),
            "this_faster": faster,
            "bytes_per_candidate": bytes_per_candidate,
            "peak_mb": peak_mb,
            "plan_digest": plan_digest(outs["against"][0], outs["against"][1:]),
        }
    row["runs"] = runs
    return row


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[192, 1536, 6144])
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_plan_scale.json")
    parser.add_argument("--against", type=Path, help="root of a second checkout to time alternately")
    args = parser.parse_args()
    against = load_checkout(args.against) if args.against else None
    rows = []
    for n in args.sizes:
        rows.append(measure(n, against))
        print(json.dumps({k: v for k, v in rows[-1].items() if k != "runs"}), flush=True)
    commit = git_commit(args.against) if args.against else None
    # the other checkout's path is local to the machine; its commit is not
    command = [f"<checkout of {commit}>" if a == str(args.against) else a for a in sys.argv[1:]]
    report = {
        "command": " ".join(["python3 bench/plan_scale.py", *command]),
        "against_commit": commit,
        "environment": environment(),
        "patch": [PATCH, PATCH],
        "target_ratio": TARGET,
        "repeats": REPEATS,
        "min_seconds": MIN_SECONDS,
        "rows": rows,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")


if __name__ == "__main__":
    main()
