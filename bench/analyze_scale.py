"""End-to-end wall times of analyze and planning on two synthetic models.

Usage, from the root of the repository:

    python3 bench/analyze_scale.py [--models small large] [--out BENCH_analyze.json]
                                   [--against CHECKOUT]

Two fixed models of 64x64 patches: ``small`` is 8 layers of 256x256 (128
patches, 32 of them probed at ``analyze``'s default stride 4) and ``large``
is 8 layers of 512x512 (512 patches, 128 probed). Layers alternate
attention projection and FFN; each has random orthonormal singular vectors
and singular values exp(-decay k), with the decay fixed per layer, and 64
calibration samples. A pass times ``analyze`` with its defaults, then
``build_options`` and ``allocate`` in ``sensitivity_mixed`` mode and in
``uniform`` mode with TT, both at target ratio 0.6; the timing rule and
``--against`` are ``bench/harness.py``'s, and ``runs`` keeps every pass.
``peak_mb`` is the ``tracemalloc`` peak of ``analyze`` in one more pass.
``first_call_peak_mb`` is that peak on the first ``analyze`` call of a
fresh process, which ``perfbench/run.py`` measures as ``peak_alloc_mb``:
the warm ``peak_mb`` finds the rank memo filled and can miss a change there.

One more run, untimed, counts LAPACK SVD calls (``np.linalg.svd``): all of
them, the values-only ones, and those whose input (shape and bytes) an
earlier call of the run already had. A call on a stack of matrices counts
once in ``calls``; ``stacked_calls`` counts the calls that took a stack and
``slices`` the matrices that all calls took, so a plain call adds one to
each of ``calls`` and ``slices``. It counts the eigendecompositions
(``np.linalg.eigh``) that give Tucker's factors and the wide TT splits
the same way. The same run is traced with ``perfbench/spans.py``;
``traced`` holds the rank searches' calls and time and the predictor
training's time, the only wrapped functions that ``analyze`` calls. Each
row also records the plans' achieved ratios, a digest of the probe
records (``probe_digest``), one of the sensitivity records' scores,
predictions and recommendations (``record_digest``) and one of the two
plans' entries, each entry's patch id, family, ratio, ranks and params
(``plan_digest``). Under ``--against``, the row's ``against`` entry also
holds both sides' digests and the other side's ``analyze`` peaks.
"""

import argparse
import math
import subprocess
import sys
from pathlib import Path

import harness  # first: pins the BLAS and sets the import path
import numpy as np

from minima.model import ModelContainer
from spans import Tracer, installed, layer_metrics  # perfbench/spans.py

MODELS = {"small": 256, "large": 512}  # layer size; 8 layers each
LAYERS = 8
DECAYS = (0.05, 0.3, 0.5, 0.8, 0.1, 0.4, 0.6, 1.0)
SAMPLES = 64
PATCH = (64, 64)
TARGET = 0.6
STAGES = ("analyze_s", "build_options_s", "allocate_mixed_s", "allocate_uniform_tt_s")
# per-layer metrics of the traced run, as perfbench names them; the others read 0 on analyze
TRACED = (
    "tn_decompositions.select_ranks.calls",
    "tn_decompositions.select_ranks.self_s",
    "sensitivity.train.self_s",
)


def orthonormal(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def synthetic(size: int):
    rng = np.random.default_rng(size)
    model = ModelContainer()
    calib = {}
    for i, decay in enumerate(DECAYS[:LAYERS]):
        kind = ("attention_proj", "ffn")[i % 2]
        s = np.exp(-decay * np.arange(size))
        w = (orthonormal(rng, size) * s) @ orthonormal(rng, size).T
        name = f"layer{i}.{kind}"
        model.add(name, w, layer_index=i, submodule_kind=kind)
        calib[name] = rng.standard_normal((size, SAMPLES))
    return model, calib


def run_pass(mods, model, calib, measure=harness.timed):
    """One pass: the analysis, the options, the two plans, and what
    ``measure`` gives for each stage."""
    plan = mods["planner"]
    result, m0 = measure(lambda: mods["sensitivity"].analyze(model, calib, patch_size=PATCH))
    options, m1 = measure(lambda: plan.build_options(result.records, result.patches))
    mixed, m2 = measure(lambda: plan.allocate(options, TARGET, mode="sensitivity_mixed"))
    uniform, m3 = measure(lambda: plan.allocate(options, TARGET, mode="uniform", single_family="tt"))
    return (result, options, mixed, uniform), dict(zip(STAGES, (m0, m1, m2, m3)))


def counting(fn, counts: dict, seen: set):
    """``fn`` counting into ``counts`` its calls, the stacked ones, the
    matrices they took, values-only calls and repeated inputs."""

    def call(a, *args, **kwargs):
        a = np.ascontiguousarray(a)
        key = (a.shape, a.tobytes())
        counts["calls"] += 1
        counts["stacked_calls"] += a.ndim > 2
        counts["slices"] += math.prod(a.shape[:-2])
        if "values_only" in counts:
            counts["values_only"] += kwargs.get("compute_uv") is False
        counts["repeated_inputs"] += key in seen
        seen.add(key)
        return fn(a, *args, **kwargs)

    return call


def counted_run(mods, model, calib) -> tuple[dict, dict, dict]:
    """LAPACK SVD and eigendecomposition counts and traced per-layer metrics
    of one pass."""
    svd, eigh = np.linalg.svd, np.linalg.eigh
    svd_counts = {"calls": 0, "stacked_calls": 0, "slices": 0, "values_only": 0, "repeated_inputs": 0}
    eigh_counts = {"calls": 0, "stacked_calls": 0, "slices": 0, "repeated_inputs": 0}
    tracer = Tracer()
    np.linalg.svd = counting(svd, svd_counts, set())
    np.linalg.eigh = counting(eigh, eigh_counts, set())
    try:
        with installed(tracer, mods):
            run_pass(mods, model, calib)
    finally:
        np.linalg.svd, np.linalg.eigh = svd, eigh
    metrics = layer_metrics(tracer.take())
    return svd_counts, eigh_counts, {name: metrics[name] for name in TRACED}


def probe_digest(probes) -> str:
    return harness.digest(
        v for q in probes for v in ((q.patch_id, q.family, q.target_ratio), q.measured_degradation)
    )


def record_digest(records) -> str:
    """Digest of each sensitivity record's patch id, score, predictions and
    recommendations."""

    def values(r):
        yield r.patch_id
        yield r.score
        for family, curve in r.predictions.items():
            for ratio, deg in curve.items():
                yield from ((family, ratio), deg)
        for family, rec in r.recommendations.items():
            yield from ((family, rec.target_ratio), rec.predicted_degradation)

    return harness.digest(v for r in records for v in values(r))


def plan_digest(plans) -> str:
    """Digest of each plan entry's patch id, family, ratio, ranks and params."""
    return harness.digest(
        v for plan in plans for e in plan.entries for v in (e.patch_id, e.family, e.target_ratio, e.ranks, e.params)
    )


def peak_mb(mods, model, calib) -> float:
    return harness.traced(run_pass, mods, model, calib)[1]["analyze_s"][0] / 1e6


def first_call_peak_mb(name: str, against: Path | None = None) -> float:
    """``peak_mb`` of model ``name`` in a new interpreter, on this checkout
    or the one at ``against``: its ``analyze`` call is the process's first."""
    code = "import sys, analyze_scale as a; print(a.fresh_peak_mb(*sys.argv[1:]))"
    args = [sys.executable, "-B", "-c", code, name, *([str(against.resolve())] if against else [])]
    done = subprocess.run(args, cwd=Path(__file__).parent, capture_output=True, text=True, check=True)
    return float(done.stdout.split()[-1])


def fresh_peak_mb(name: str, against: str | None = None) -> float:
    mods = harness.load_checkout(Path(against)) if against else harness.sides(None)["this"]
    return peak_mb(mods, *synthetic(MODELS[name]))


def measure(name: str, sides: dict, against: Path | None) -> dict:
    size = MODELS[name]
    model, calib = synthetic(size)
    outs, runs = harness.passes(sides, run_pass, model, calib)
    result, options, mixed, uniform = outs["this"]
    svd_counts, eigh_counts, traced = counted_run(sides["this"], model, calib)
    row = {"model": name, "layers": LAYERS, "layer": [size, size], "patches": len(result.patches)}
    row["probed_patches"] = len(result.probed_ids)
    row.update(harness.summary(runs))
    row["lapack_svd"] = svd_counts
    row["lapack_eigh"] = eigh_counts
    row["traced"] = traced
    row["probes"] = len(result.probes)
    row["probe_digest"] = probe_digest(result.probes)
    row["record_digest"] = record_digest(result.records)
    row["plan_digest"] = plan_digest((mixed, uniform))
    row["candidates"] = sum(len(o.candidates) for o in options)
    row["pinned"] = sum(o.pinned for o in options)
    row["mixed_achieved_ratio"] = mixed.achieved_ratio
    row["uniform_achieved_ratio"] = uniform.achieved_ratio
    row["peak_mb"] = peak_mb(sides["this"], model, calib)
    row["first_call_peak_mb"] = first_call_peak_mb(name)
    if against:
        other, _, *other_plans = outs["against"]
        row["against"] = {
            **harness.against_entry(runs),
            # this checkout's are the row's peak_mb and first_call_peak_mb
            "against_peak_mb": peak_mb(sides["against"], model, calib),
            "against_first_call_peak_mb": first_call_peak_mb(name, against),
            "against_probe_digest": probe_digest(other.probes),
            "this_probe_digest": row["probe_digest"],
            "against_record_digest": record_digest(other.records),
            "this_record_digest": row["record_digest"],
            "against_plan_digest": plan_digest(other_plans),
            "this_plan_digest": row["plan_digest"],
        }
    row["runs"] = runs
    return row


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--models", nargs="+", choices=sorted(MODELS), default=list(MODELS))
    parser.add_argument("--out", type=Path, default=harness.ROOT / "BENCH_analyze.json")
    parser.add_argument("--against", type=Path, help="root of a second checkout to time alternately")
    args = parser.parse_args()
    sides = harness.sides(args.against)
    rows = []
    for name in args.models:
        rows.append(measure(name, sides, args.against))
        harness.show(rows[-1])
    harness.report(args.out, rows, args.against, patch=list(PATCH), target_ratio=TARGET)


if __name__ == "__main__":
    main()
