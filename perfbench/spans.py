"""Spans around the calls into each minima module, recorded from outside the program.

The tracer replaces a function under its name in every module that binds it
(the defining module and each module that imported it with ``from ... import``),
so a call made through any of those names opens a span. Wrapping only the
defining module would miss, for instance, every SVD the decompositions make
through ``tn_decompositions.truncated_svd``. The originals are restored when
the ``installed`` block ends.

A span records its name, start, end, parent and a few attributes. Self time is
the span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import hashlib
import time
from contextlib import contextmanager

import numpy as np

SVD = "tensor_core.svd"


class Span:
    __slots__ = ("name", "parent", "attrs", "start", "end", "child_s")

    def __init__(self, name: str, parent: "Span | None", attrs: dict):
        self.name = name
        self.parent = parent
        self.attrs = attrs
        self.start = 0.0
        self.end = 0.0
        self.child_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Keeps the spans of the current operation in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else None
        sp = Span(name, parent, attrs)
        self.spans.append(sp)
        self._stack.append(sp)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.child_s += sp.end - sp.start


# --- what to record for each wrapped function --------------------------------


def _svd_attrs(matrix, *args, **kwargs) -> dict:
    a = np.ascontiguousarray(matrix)
    digest = hashlib.blake2b(a.tobytes(), digest_size=16).digest()
    return {"shape": a.shape, "key": (a.shape, str(a.dtype), digest)}


def _tr_attrs(t, ranks, *args, **kwargs) -> dict:
    return {"as_tt": int(ranks[0]) == 1}


def _select_ranks_attrs(mode_shape, family, target, *args, **kwargs) -> dict:
    return {"key": (tuple(int(s) for s in mode_shape), family, repr(target))}


def _probe_after(sp: Span, result, w, families, ratio_grid, *args, **kwargs) -> None:
    tried = len(set(families)) * len(ratio_grid)
    sp.attrs["decompositions"] = len(result)
    sp.attrs["skipped"] = tried - len(result)


def _build_options_after(sp: Span, result, *args, **kwargs) -> None:
    sp.attrs["candidates"] = sum(len(o.candidates) for o in result)


def _allocate_after(sp: Span, result, *args, **kwargs) -> None:
    sp.attrs["compressed"] = sum(1 for e in result.entries if e.family != "dense")


def _allocate_name(options, target_ratio, mode="sensitivity_mixed", *args, **kwargs) -> str:
    return f"planner.allocate.{mode}"


# (defining module, function, span name, attrs before the call, hook after the
# call, modules whose binding is replaced: None = every module that binds it).
# param_count_formula is wrapped only where the planner imported it: inside
# select_ranks it is an inner helper called dozens of times per call.
TARGETS = (
    ("tensor_core", "truncated_svd", SVD, _svd_attrs, None, None),
    ("tensor_core", "full_svd", SVD, _svd_attrs, None, None),
    ("tn_decompositions", "tucker_decompose", "tn_decompositions.tucker", None, None, None),
    ("tn_decompositions", "tt_decompose", "tn_decompositions.tt", None, None, None),
    ("tn_decompositions", "tr_decompose", "tn_decompositions.tr", _tr_attrs, None, None),
    ("tn_decompositions", "reconstruct", "tn_decompositions.reconstruct", None, None, None),
    ("tn_decompositions", "select_ranks", "tn_decompositions.select_ranks", _select_ranks_attrs, None, None),
    ("tn_decompositions", "param_count_formula", "tn_decompositions.param_count_formula", None, None, ("planner",)),
    ("tn_decompositions", "compress_matrix", "tn_decompositions.compress_matrix", None, None, None),
    ("sensitivity", "partition_patches", "sensitivity.partition", None, None, None),
    ("sensitivity", "extract_features", "sensitivity.features", None, None, None),
    ("sensitivity", "probe_patch", "sensitivity.probe", None, _probe_after, None),
    ("sensitivity", "train_predictor", "sensitivity.train", None, None, None),
    ("sensitivity", "predict", "sensitivity.predict", None, None, None),
    ("sensitivity", "analyze", "sensitivity.analyze", None, None, None),
    ("planner", "build_options", "planner.build_options", None, _build_options_after, None),
    ("planner", "allocate", _allocate_name, None, _allocate_after, None),
)


def _wrapper(tracer: Tracer, fn, name, before, after):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        attrs = before(*args, **kwargs) if before else {}
        label = name(*args, **kwargs) if callable(name) else name
        with tracer.span(label, **attrs) as sp:
            result = fn(*args, **kwargs)
        if after:
            after(sp, result, *args, **kwargs)
        return result

    return traced


@contextmanager
def installed(tracer: Tracer, modules: dict):
    """Wrap every TARGETS function in ``modules`` (name -> module) for the block."""
    replaced = []
    try:
        for home, attr, name, before, after, where in TARGETS:
            fn = getattr(modules[home], attr)
            wrapped = _wrapper(tracer, fn, name, before, after)
            for mod_name, mod in modules.items():
                if where is not None and mod_name not in where:
                    continue
                for binding, value in list(vars(mod).items()):
                    if value is fn:
                        replaced.append((mod, binding, value))
                        setattr(mod, binding, wrapped)
        yield tracer
    finally:
        for mod, binding, value in reversed(replaced):
            setattr(mod, binding, value)


# --- per-layer metrics of one operation ----------------------------------------


def rsvd_flops(shape) -> float:
    """Golub & Van Loan's R-SVD count for U1 (thin), Sigma and V of an m x n matrix."""
    m, n = max(shape), min(shape)
    return 6.0 * m * n * n + 20.0 * n**3


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Counts and self times of one operation's spans, keyed by metric name."""
    by_name: dict[str, list[Span]] = {}
    for sp in spans:
        by_name.setdefault(sp.name, []).append(sp)

    def self_s(name: str) -> float:
        return sum((sp.self_s for sp in by_name.get(name, ())), 0.0)

    svd_all = by_name.get(SVD, [])
    # full_svd calls truncated_svd: the inner span is the same SVD, counted once
    outer = [sp for sp in svd_all if sp.parent is None or sp.parent.name != SVD]
    square = sum((sp.self_s for sp in svd_all if max(sp.attrs["shape"]) < 4 * min(sp.attrs["shape"])), 0.0)
    svd_self = self_s(SVD)
    gflop = sum(rsvd_flops(sp.attrs["shape"]) for sp in outer) / 1e9
    seen, repeats, repeat_s = set(), 0, 0.0
    for sp in outer:
        if sp.attrs["key"] in seen:
            repeats += 1
            repeat_s += sp.duration
        seen.add(sp.attrs["key"])

    tr = by_name.get("tn_decompositions.tr", [])
    sel = by_name.get("tn_decompositions.select_ranks", [])
    sel_keys = {sp.attrs["key"] for sp in sel}
    probes = by_name.get("sensitivity.probe", [])
    allocs = [sp for sp in spans if sp.name.startswith("planner.allocate.")]

    return {
        "tensor_core.svd.calls": float(len(outer)),
        "tensor_core.svd.self_s": svd_self,
        "tensor_core.svd.square.self_s": square,
        "tensor_core.svd.thin.self_s": svd_self - square,
        "tensor_core.svd.computed_gflop": gflop,
        "tensor_core.svd.gflop_per_s": _share(gflop, svd_self),
        "tensor_core.svd.repeat_share": _share(repeats, len(outer)),
        "tensor_core.svd.repeat_s": repeat_s,
        "tn_decompositions.tucker.calls": float(len(by_name.get("tn_decompositions.tucker", ()))),
        "tn_decompositions.tucker.self_s": self_s("tn_decompositions.tucker"),
        "tn_decompositions.tt.calls": float(len(by_name.get("tn_decompositions.tt", ()))),
        "tn_decompositions.tt.self_s": self_s("tn_decompositions.tt"),
        "tn_decompositions.tr.calls": float(len(tr)),
        "tn_decompositions.tr.self_s": self_s("tn_decompositions.tr"),
        "tn_decompositions.tr.as_tt_share": _share(sum(sp.attrs["as_tt"] for sp in tr), len(tr)),
        "tn_decompositions.reconstruct.self_s": self_s("tn_decompositions.reconstruct"),
        "tn_decompositions.select_ranks.calls": float(len(sel)),
        "tn_decompositions.select_ranks.self_s": self_s("tn_decompositions.select_ranks"),
        "tn_decompositions.select_ranks.repeat_share": _share(len(sel) - len(sel_keys), len(sel)),
        "sensitivity.features.self_s": self_s("sensitivity.features"),
        "sensitivity.probe.self_s": self_s("sensitivity.probe"),
        "sensitivity.probe.decompositions": float(sum(sp.attrs["decompositions"] for sp in probes)),
        "sensitivity.probe.skipped": float(sum(sp.attrs["skipped"] for sp in probes)),
        "sensitivity.train.self_s": self_s("sensitivity.train"),
        "sensitivity.predict.self_s": self_s("sensitivity.predict"),
        "planner.build_options.self_s": self_s("planner.build_options"),
        "planner.build_options.candidates": float(
            sum(sp.attrs["candidates"] for sp in by_name.get("planner.build_options", ()))
        ),
        "planner.allocate.sensitivity_mixed.self_s": self_s("planner.allocate.sensitivity_mixed"),
        "planner.allocate.sensitivity.self_s": self_s("planner.allocate.sensitivity"),
        "planner.compressed_patches": float(sum(sp.attrs["compressed"] for sp in allocs)),
    }


def span_records(spans: list[Span]) -> list[dict]:
    """JSON-ready spans: name, start and end (s, from the first span), parent index."""
    index = {id(sp): i for i, sp in enumerate(spans)}
    t0 = spans[0].start if spans else 0.0
    out = []
    for sp in spans:
        attrs = {k: (list(v) if isinstance(v, tuple) else v) for k, v in sp.attrs.items() if k != "key"}
        out.append(
            {
                "name": sp.name,
                "start": sp.start - t0,
                "end": sp.end - t0,
                "parent": index.get(id(sp.parent)) if sp.parent is not None else None,
                **attrs,
            }
        )
    return out
