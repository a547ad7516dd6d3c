"""Benchmark of the minima analyze / plan / compress pipeline.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload {analyze,plan,compress} --seed N --seconds S --trace {0,1}

One process, one BLAS thread. After a warm-up set-up and one untimed warm-up
operation under tracemalloc, the workload's operation repeats until
``--seconds`` have passed, at least three times, with five timed set-ups and
one run of the fixed reference computation (``reference.py``) after each.
Times are reported at the reference speed: the run's median time x
``reference.NOMINAL_S`` / the run's median reference time. Every operation's
output is checked. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the
metrics are the end-to-end ones. With ``--trace 1`` untraced and traced
operations alternate, and the metrics are the per-layer ones from the traced
operations plus the tracing overhead. A fuller record, with the environment
and, when traced, the spans of one operation, goes to ``perfbench/results/``.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import reference  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
MODULES = ("model", "tensor_core", "tn_decompositions", "sensitivity", "planner")
SETUPS_PER_OP = 5
MIN_OPS = 3


def load_program() -> dict:
    """Import the minima modules from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "minima" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    mods = {name: importlib.import_module(f"minima.{name}") for name in MODULES}
    if not Path(mods["model"].__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: minima imported from {mods['model'].__file__}, not {SRC}")
    return mods


def blas_threads():
    """Threads of the OpenBLAS that numpy loaded, asked of the library itself."""
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.split()[-1].lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    if importlib.util.find_spec("minima._backend") is not None:
        svd_path = "minima._backend: " + importlib.import_module("minima._backend").backend_name()
    else:
        svd_path = "no minima._backend module"
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": blas_threads(),
        "svd_path": svd_path,
        "cpus": os.cpu_count(),
    }


def time_setups(work, times: list, tracer=None):
    """Set up SETUPS_PER_OP times; append each wall time, or with a tracer the container's self time."""
    for _ in range(SETUPS_PER_OP):
        t0 = time.perf_counter()
        state = work.setup(tracer.span) if tracer else work.setup()
        elapsed = time.perf_counter() - t0
        if tracer:
            elapsed = sum(sp.self_s for sp in tracer.take() if sp.name == "model.container")
        times.append(elapsed)
    return state


class Runner:
    """Attempts operations, times them, and checks every output."""

    def __init__(self, work):
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.deviations: list[float] = []

    def attempt(self):
        """One operation: (seconds, output), or (None, None) if it raised."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = self.work.run()
        except Exception:  # counted as failed; the run goes on
            traceback.print_exc()
            self.failed += 1
            return None, None
        elapsed = time.perf_counter() - t0
        self.problems += self.work.check(out)
        self.deviations.append(self.work.deviation(out))
        return elapsed, out


def measure(work, seconds: float, trace: bool, mods: dict):
    """Run the workload for ``seconds``; returns the runner and the run's record with its metrics."""
    tracer = spans.Tracer()
    model, patches = time_setups(work, [])  # first set-ups warm up, untimed
    work.prepare(model, patches)
    runner = Runner(work)

    tracemalloc.start()
    runner.attempt()  # warm-up, untimed
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()

    plain, traced, per_op, extra, span_log = [], [], [], [], None
    setup_times, container = [], []
    tries = {False: 0, True: 0}  # attempts, untraced and traced
    ref_times = [reference.seconds()]
    end = time.perf_counter() + seconds
    while time.perf_counter() < end or tries[False] < MIN_OPS or (trace and tries[True] < MIN_OPS):
        tracing = trace and tries[True] < tries[False]
        tries[tracing] += 1
        if tracing:
            with spans.installed(tracer, mods):
                elapsed, out = runner.attempt()
            op_spans = tracer.take()
            if elapsed is not None:
                traced.append(elapsed)
                per_op.append(spans.layer_metrics(op_spans))
                extra.append(work.extra_layer_metrics(out))
                span_log = span_log or spans.span_records(op_spans)
            time_setups(work, container, tracer)
        else:
            elapsed, _ = runner.attempt()
            if elapsed is not None:
                plain.append(elapsed)
            # set-ups spread over the run see the same machine as the operations
            time_setups(work, setup_times)
        ref_times.append(reference.seconds())

    if not plain or (trace and not traced):
        sys.exit(f"perfbench: every timed {work.name} operation failed")
    if len(set(runner.deviations)) > 1:
        runner.problems.append(f"the same inputs gave different deviations: {sorted(set(runner.deviations))}")

    # times at the reference speed: measured x NOMINAL_S / the run's reference time
    scale = reference.NOMINAL_S / statistics.median(ref_times)
    op_s = statistics.median(plain) * scale
    record = {
        "ops": len(plain),
        "op_s": plain,
        "setup_s_samples": setup_times,
        "reference_s": ref_times,
        "problems": runner.problems[:50],
    }
    if not trace:
        metrics = {
            "setup_s": (statistics.median(setup_times) * scale, "s"),
            "patches_per_s": (work.patches_per_op() / op_s, "patches/s"),
            "peak_alloc_mb": (peak / 1e6, "MB"),
            "deviation": (runner.deviations[0], "1"),
        }
    else:
        rows = [dict(a, **b) for a, b in zip(per_op, extra)]
        metrics = {key: (statistics.median(r[key] for r in rows), unit_of(key)) for key in rows[0]}
        plain_s, traced_s = statistics.median(plain), statistics.median(traced)
        metrics["model.container.self_s"] = (statistics.median(container), "s")
        metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
        metrics["trace.overhead_share"] = ((traced_s - plain_s) / plain_s, "1")
        record.update(traced_ops=len(traced), traced_op_s=traced, spans_of_one_op=span_log)
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return runner, record


def unit_of(metric: str) -> str:
    for suffix, unit in (("gflop_per_s", "Gflop/s"), ("gflop", "Gflop"), ("_share", "1"), ("_s", "s")):
        if metric.endswith(suffix):
            return unit
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("analyze", "plan", "compress"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    mods = load_program()
    env = environment()
    work = WORKLOADS[args.workload](mods, args.seed)
    runner, record = measure(work, args.seconds, bool(args.trace), mods)

    result = {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": record.pop("metrics"),
    }
    for problem in runner.problems[:20]:
        print("check failed:", problem, file=sys.stderr)
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"args": vars(args), "env": env, **result, **record}, indent=1))
    print("env " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
