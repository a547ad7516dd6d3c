"""End-to-end wall times of analyze and planning on two synthetic models.

Usage, from the root of the repository:

    python3 bench/analyze_scale.py [--models small large] [--out BENCH_analyze.json]
                                   [--against CHECKOUT]

Two fixed models of 64x64 patches: ``small`` is 8 layers of 256x256 (128
patches, 32 of them probed at ``analyze``'s default stride 4) and ``large``
is 8 layers of 512x512 (512 patches, 128 probed). Layers alternate
attention projection and FFN; each has random orthonormal singular vectors
and singular values exp(-decay k), with the decay fixed per layer, and 64
calibration samples. For each model it times ``analyze`` with its defaults,
then ``build_options`` and ``allocate`` in ``sensitivity_mixed`` mode and in
``uniform`` mode with TT, both at target ratio 0.6. Each time is the median
of three runs; every run's time is kept. ``peak_mb`` is the ``tracemalloc``
peak of one more ``analyze`` call.

One more run, untimed, counts LAPACK SVD calls (``np.linalg.svd``): all of
them, the values-only ones, and those whose input (shape and bytes) an
earlier call of the run already had. A call on a stack of matrices counts
once in ``calls``; ``stacked_calls`` counts the calls that took a stack and
``slices`` the matrices that all calls took, so a plain call adds one to
each of ``calls`` and ``slices``. It counts the eigendecompositions
(``np.linalg.eigh``) that give Tucker's factors the same way. The same run
is traced with ``perfbench/spans.py``, and its per-layer metrics give the
split of ``analyze``'s time; the trace wraps ``extract_features``,
``truncated_svd``, ``tucker_decompose``, ``reconstruct`` and ``predict``,
which ``analyze``'s stacked features, probes and records do not call, so
their metrics read 0 and their time falls into the spans around them. Each
row also records the plans' achieved ratios, a digest of the probe records
(``probe_digest``) and one of the sensitivity records' scores, predictions
and recommendations (``record_digest``), so two checkouts can be compared
for equal outputs.

``--against CHECKOUT`` loads the ``minima`` package of a second checkout
(the root of another working tree of this repository) into the same process
and, per model, times that checkout's ``analyze`` and this one's
alternately, ten times (``PAIRS``) on the same inputs; the side that runs first
alternates from pair to pair. The machine's speed drifts by up to 1.5x
between runs minutes apart, so a before/after claim compares the two sides
within these pairs, not across processes. The row's ``against`` entry keeps
every pair, each side's median, the number of pairs this checkout won, each
side's probe and record digests and the other checkout's ``tracemalloc``
peak (this checkout's is the row's ``peak_mb``); the file records the other
checkout's git commit if it has one.

The JSON written to ``--out`` records the numpy version, the BLAS build and
the BLAS thread count, read as ``perfbench/run.py`` reads them; the BLAS is
pinned to one thread as in ``perfbench/``.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from minima import planner, sensitivity  # noqa: E402
from minima.model import ModelContainer  # noqa: E402
from run import MODULES, environment  # noqa: E402  (perfbench/run.py)
from spans import Tracer, installed, layer_metrics  # noqa: E402  (perfbench/spans.py)

MODELS = {"small": 256, "large": 512}  # layer size; 8 layers each
LAYERS = 8
DECAYS = (0.05, 0.3, 0.5, 0.8, 0.1, 0.4, 0.6, 1.0)
SAMPLES = 64
PATCH = (64, 64)
TARGET = 0.6
REPEATS = 3
PAIRS = 10
# per-layer metrics of the traced run, as perfbench names them
TRACED = (
    "sensitivity.features.self_s",
    "sensitivity.probe.self_s",
    "tn_decompositions.tucker.self_s",
    "tn_decompositions.tt.self_s",
    "tn_decompositions.tr.self_s",
    "tn_decompositions.reconstruct.self_s",
    "tn_decompositions.select_ranks.calls",
    "tn_decompositions.select_ranks.self_s",
    "tensor_core.svd.calls",
    "tensor_core.svd.self_s",
    "tensor_core.svd.repeat_share",
    "sensitivity.train.self_s",
    "sensitivity.predict.self_s",
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


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def run_once(model, calib):
    """One pass of the pipeline, with each stage's wall time."""
    result, analyze_s = timed(lambda: sensitivity.analyze(model, calib, patch_size=PATCH))
    options, options_s = timed(lambda: planner.build_options(result.records, result.patches))
    mixed, mixed_s = timed(lambda: planner.allocate(options, TARGET, mode="sensitivity_mixed"))
    uniform, uniform_s = timed(lambda: planner.allocate(options, TARGET, mode="uniform", single_family="tt"))
    times = {
        "analyze_s": analyze_s,
        "build_options_s": options_s,
        "allocate_mixed_s": mixed_s,
        "allocate_uniform_tt_s": uniform_s,
    }
    return (result, options, mixed, uniform), times


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


def counted_run(model, calib) -> tuple[dict, dict, dict]:
    """LAPACK SVD and eigendecomposition counts and traced per-layer metrics
    of one run."""
    svd, eigh = np.linalg.svd, np.linalg.eigh
    svd_counts = {"calls": 0, "stacked_calls": 0, "slices": 0, "values_only": 0, "repeated_inputs": 0}
    eigh_counts = {"calls": 0, "stacked_calls": 0, "slices": 0, "repeated_inputs": 0}
    tracer = Tracer()
    mods = {name: importlib.import_module(f"minima.{name}") for name in MODULES}
    np.linalg.svd = counting(svd, svd_counts, set())
    np.linalg.eigh = counting(eigh, eigh_counts, set())
    try:
        with installed(tracer, mods):
            run_once(model, calib)
    finally:
        np.linalg.svd, np.linalg.eigh = svd, eigh
    metrics = layer_metrics(tracer.take())
    return svd_counts, eigh_counts, {name: metrics[name] for name in TRACED}


def load_checkout(root: Path) -> dict:
    """The ``minima`` modules of the checkout at ``root``, imported beside
    this checkout's: its modules are taken out of ``sys.modules`` for the
    import and put back after, so each package keeps its own modules."""
    src = root / "src"
    if not (src / "minima" / "__init__.py").is_file():
        sys.exit(f"analyze_scale: no minima package under {src}")
    ours = {k: v for k, v in sys.modules.items() if k == "minima" or k.startswith("minima.")}
    for k in ours:
        del sys.modules[k]
    sys.path.insert(0, str(src))
    try:
        mods = {name: importlib.import_module(f"minima.{name}") for name in MODULES}
    finally:
        sys.path.remove(str(src))
        for k in [k for k in sys.modules if k == "minima" or k.startswith("minima.")]:
            del sys.modules[k]
        sys.modules.update(ours)
    if not Path(mods["sensitivity"].__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"analyze_scale: minima imported from {mods['sensitivity'].__file__}, not {src}")
    return mods


def git_commit(root: Path) -> str | None:
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() or None


def traced_peak_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def alternate(model, calib, against: dict) -> dict:
    """This checkout's ``analyze`` against another's, alternating in one process."""
    calls = {
        "this": lambda: sensitivity.analyze(model, calib, patch_size=PATCH),
        "against": lambda: against["sensitivity"].analyze(model, calib, patch_size=PATCH),
    }
    results = {side: call() for side, call in calls.items()}  # also a warm-up
    runs = []
    for i in range(PAIRS):
        order = ("against", "this") if i % 2 == 0 else ("this", "against")
        times = {side: timed(calls[side])[1] for side in order}
        runs.append({"first": order[0], "against_s": times["against"], "this_s": times["this"]})
    return {
        "pairs": runs,
        "against_analyze_s": statistics.median(r["against_s"] for r in runs),
        "this_analyze_s": statistics.median(r["this_s"] for r in runs),
        "this_faster": sum(r["this_s"] < r["against_s"] for r in runs),
        "against_peak_mb": traced_peak_mb(calls["against"]),  # this checkout's is the row's peak_mb
        "against_probe_digest": probe_digest(results["against"].probes),
        "this_probe_digest": probe_digest(results["this"].probes),
        "against_record_digest": record_digest(results["against"].records),
        "this_record_digest": record_digest(results["this"].records),
    }


def probe_digest(probes) -> str:
    h = hashlib.sha256()
    for q in probes:
        h.update(repr((q.patch_id, q.family, q.target_ratio)).encode())
        h.update(np.float64(q.measured_degradation).tobytes())
    return h.hexdigest()[:16]


def record_digest(records) -> str:
    """Digest of each sensitivity record's patch id, score, predictions and
    recommendations, every float by its bytes."""
    h = hashlib.sha256()
    for r in records:
        h.update(repr(r.patch_id).encode())
        h.update(np.float64(r.score).tobytes())
        for family, curve in r.predictions.items():
            for ratio, deg in curve.items():
                h.update(repr((family, ratio)).encode())
                h.update(np.float64(deg).tobytes())
        for family, rec in r.recommendations.items():
            h.update(repr((family, rec.target_ratio)).encode())
            h.update(np.float64(rec.predicted_degradation).tobytes())
    return h.hexdigest()[:16]


def measure(name: str, against: dict | None = None) -> dict:
    size = MODELS[name]
    model, calib = synthetic(size)
    run_once(model, calib)  # warm-up
    runs = {}
    for _ in range(REPEATS):
        (result, options, mixed, uniform), times = run_once(model, calib)
        for stage, t in times.items():
            runs.setdefault(stage, []).append(t)
    svd_counts, eigh_counts, traced = counted_run(model, calib)
    row = {"model": name, "layers": LAYERS, "layer": [size, size], "patches": len(result.patches)}
    row["probed_patches"] = len(result.probed_ids)
    row.update({stage: statistics.median(ts) for stage, ts in runs.items()})
    row["total_s"] = sum(row[stage] for stage in runs)
    row["lapack_svd"] = svd_counts
    row["lapack_eigh"] = eigh_counts
    row["traced"] = traced
    row["probes"] = len(result.probes)
    row["probe_digest"] = probe_digest(result.probes)
    row["record_digest"] = record_digest(result.records)
    row["candidates"] = sum(len(o.candidates) for o in options)
    row["pinned"] = sum(o.pinned for o in options)
    row["mixed_achieved_ratio"] = mixed.achieved_ratio
    row["uniform_achieved_ratio"] = uniform.achieved_ratio
    row["peak_mb"] = traced_peak_mb(lambda: sensitivity.analyze(model, calib, patch_size=PATCH))
    row["runs"] = runs
    if against is not None:
        row["against"] = alternate(model, calib, against)
    return row


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--models", nargs="+", choices=sorted(MODELS), default=list(MODELS))
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_analyze.json")
    parser.add_argument("--against", type=Path, help="root of a second checkout to time alternately")
    args = parser.parse_args()
    against = load_checkout(args.against) if args.against else None
    rows = []
    for name in args.models:
        rows.append(measure(name, against))
        print(json.dumps({k: v for k, v in rows[-1].items() if k != "runs"}), flush=True)
    commit = git_commit(args.against) if args.against else None
    # the other checkout's path is local to the machine; its commit is not
    command = [f"<checkout of {commit}>" if a == str(args.against) else a for a in sys.argv[1:]]
    report = {
        "command": " ".join(["python3 bench/analyze_scale.py", *command]),
        "against_commit": commit,
        "environment": environment(),
        "patch": list(PATCH),
        "target_ratio": TARGET,
        "repeats": REPEATS,
        "pairs": PAIRS if args.against else 0,
        "rows": rows,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")


if __name__ == "__main__":
    main()
