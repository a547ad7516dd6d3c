"""Global budget planner: turns per-patch degradation predictions into a
model-wide compression plan that satisfies a parameter budget."""

from __future__ import annotations

import functools
import heapq
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from minima.errors import InfeasibleBudgetError
from minima.tn_decompositions import (
    FAMILIES,
    default_mode_shape,
    maximal_ranks,
    param_count_formula,
    ratio_budget,
    select_ranks,
)

MODES = ("uniform", "sensitivity", "sensitivity_mixed")


@dataclass(frozen=True)
class Candidate:
    family: str
    ratio: float
    params: int
    predicted_degradation: float
    ranks: tuple[int, ...] | None = None


@dataclass
class PatchOptions:
    """Planner view of one patch: candidates plus placement metadata."""

    patch_id: int
    dense_params: int
    candidates: list[Candidate] = field(default_factory=list)
    compressible: bool = True  # False: excluded by submodule kind in every mode
    pinned: bool = False  # fragile: forced dense in sensitivity modes
    layer_name: str = ""
    submodule_kind: str = "other"
    row_range: tuple[int, int] = (0, 0)
    col_range: tuple[int, int] = (0, 0)

    @property
    def geometry(self) -> tuple[int, int]:
        return self.row_range[1] - self.row_range[0], self.col_range[1] - self.col_range[0]


@dataclass
class PlanEntry:
    patch_id: int
    dense_params: int
    family: str  # "dense" or a TN family
    target_ratio: float | None
    ranks: tuple[int, ...] | None
    params: int
    predicted_degradation: float
    layer_name: str = ""
    submodule_kind: str = "other"
    row_range: tuple[int, int] = (0, 0)
    col_range: tuple[int, int] = (0, 0)


@dataclass
class CompressionPlan:
    mode: str
    target_ratio: float
    dense_params: int
    achieved_params: int
    entries: list[PlanEntry]

    @property
    def achieved_ratio(self) -> float:
        return self.achieved_params / self.dense_params if self.dense_params else 1.0


def _fit(geometry: tuple[int, int], family: str, ratio: float):
    """``(ranks, params)`` of ``family`` on a rows x cols patch at ``ratio``.

    None when no ranks fit the ratio's budget or the fit stores no fewer
    scalars than the dense patch.
    """
    mode_shape, _ = default_mode_shape(*geometry)
    dense = geometry[0] * geometry[1]
    try:
        spec = select_ranks(mode_shape, family, ratio_budget(ratio, dense))
    except InfeasibleBudgetError:
        return None
    params = param_count_formula(family, mode_shape, spec.ranks)
    if params >= dense:
        return None
    return spec.ranks, params


def build_options(
    records,
    patches,
    families=FAMILIES,
    ratio_grid=(0.5, 0.35, 0.25, 0.15),
    degradation_cap: float = 0.02,
    exclude_kinds=("embedding",),
) -> list[PatchOptions]:
    """Translate sensitivity records into planner inputs.

    Candidate parameter counts come from actual rank selection on the
    patch's mode shape, so the plan's accounting matches what compression
    will store. Rank selection runs once per distinct (geometry, family,
    ratio): a memo of ``_fit`` made for this call and dropped when it
    returns, so no result outlives the call. Patches whose every prediction
    exceeds the cap are pinned dense; excluded kinds never receive
    candidates.
    """
    fit = functools.cache(_fit)
    by_id = {r.patch_id: r for r in records}
    ordered_families = [f for f in FAMILIES if f in set(families)]
    options = []
    for patch in patches:
        record = by_id.get(patch.patch_id)
        opt = PatchOptions(
            patch_id=patch.patch_id,
            dense_params=patch.dense_params,
            compressible=patch.submodule_kind not in exclude_kinds,
            layer_name=patch.layer_name,
            submodule_kind=patch.submodule_kind,
            row_range=patch.row_range,
            col_range=patch.col_range,
        )
        if record is not None and opt.compressible:
            geometry = opt.geometry
            for family in ordered_families:
                curve = record.predictions.get(family, {})
                for ratio in ratio_grid:
                    ranks_params = fit(geometry, family, ratio) if ratio in curve else None
                    if ranks_params is not None:
                        ranks, params = ranks_params
                        opt.candidates.append(
                            Candidate(family, float(ratio), params, curve[ratio], ranks)
                        )
            if opt.candidates and all(
                c.predicted_degradation > degradation_cap for c in opt.candidates
            ):
                opt.pinned = True
        options.append(opt)
    return options


def _entry(opt: PatchOptions, cand: Candidate | None) -> PlanEntry:
    """The plan entry of a patch compressed as ``cand``, or dense if None."""
    if cand is None:
        family, ratio, ranks, params, deg = "dense", None, None, opt.dense_params, 0.0
    else:
        family, ratio, ranks, params = cand.family, cand.ratio, cand.ranks, cand.params
        deg = cand.predicted_degradation
    return PlanEntry(
        patch_id=opt.patch_id,
        dense_params=opt.dense_params,
        family=family,
        target_ratio=ratio,
        ranks=ranks,
        params=params,
        predicted_degradation=deg,
        layer_name=opt.layer_name,
        submodule_kind=opt.submodule_kind,
        row_range=opt.row_range,
        col_range=opt.col_range,
    )


def _best_step(pid: int, cands, params: int, deg: float):
    """``(key, candidate)`` of the patch's best next step, or None if no
    candidate stores fewer params; the smallest key is the best step."""
    best = None
    for cand in cands:
        if cand.params >= params:
            continue
        added = cand.predicted_degradation - deg
        score = math.inf if added <= 0 else (params - cand.params) / added
        key = (-score, pid, FAMILIES.index(cand.family), -cand.ratio)
        if best is None or key < best[0]:
            best = (key, cand)
    return best


def _greedy(options, target_ratio, mode, single_family) -> CompressionPlan:
    usable = {
        o.patch_id: [c for c in o.candidates if mode == "sensitivity_mixed" or c.family == single_family]
        for o in options
        if o.compressible and not o.pinned
    }
    dense = {o.patch_id: o.dense_params for o in options}
    current: dict[int, Candidate | None] = {o.patch_id: None for o in options}
    dense_total = sum(dense.values())
    budget = target_ratio * dense_total
    total = dense_total

    # one entry per patch that can still step: its best next step. Keys hold
    # the patch id, so they never tie and the heap's minimum is the best step
    # over all patches. A step changes only its own patch's best step, and
    # that patch's entry is the one just popped, so no entry goes stale.
    heap = [step for pid, cands in usable.items() if (step := _best_step(pid, cands, dense[pid], 0.0))]
    heapq.heapify(heap)
    while total > budget:
        if not heap:
            raise InfeasibleBudgetError(
                f"no candidate steps left at {total}/{dense_total} params "
                f"(target ratio {target_ratio})",
                best_achievable=total / dense_total if dense_total else 1.0,
            )
        (_, pid, *_), cand = heapq.heappop(heap)
        prev = current[pid]
        total -= (dense[pid] if prev is None else prev.params) - cand.params
        current[pid] = cand
        step = _best_step(pid, usable[pid], cand.params, cand.predicted_degradation)
        if step:
            heapq.heappush(heap, step)

    entries = [_entry(opt, current[opt.patch_id]) for opt in sorted(options, key=lambda o: o.patch_id)]
    return CompressionPlan(
        mode=mode,
        target_ratio=target_ratio,
        dense_params=dense_total,
        achieved_params=total,
        entries=entries,
    )


def _interp_degradation(opt: PatchOptions, family: str, ratio: float) -> float:
    curve = sorted(
        [(c.ratio, c.predicted_degradation) for c in opt.candidates if c.family == family]
    )
    if not curve:
        return 0.0
    xs = [r for r, _ in curve] + [1.0]
    ys = [d for _, d in curve] + [0.0]
    return float(np.interp(ratio, xs, ys))


def _uniform_selection(shapes, family: str, ratio: float, fit):
    """Stored scalars of all patches at one shared compression ratio, and
    the ``(ranks, params)`` chosen for each shape that compresses.

    ``shapes`` counts the patches per (geometry, dense params, compressible),
    so a pass makes one ``fit`` lookup per compressible geometry; ``fit`` is
    the calling ``_uniform``'s memo of ``_fit``.
    """
    total = 0
    chosen = {}
    for shape, count in shapes.items():
        geometry, dense, compressible = shape
        ranks_params = fit(geometry, family, ratio) if compressible else None
        if ranks_params is not None:
            chosen[shape] = ranks_params
        total += count * (dense if ranks_params is None else ranks_params[1])
    return total, chosen


def _rank_one_floor(shapes, family: str) -> float:
    """Smallest shared ratio at which every compressible patch fits rank 1.

    ``shapes`` is keyed like ``_uniform_selection``'s. Shapes whose rank-1
    configuration is not smaller than dense never compress and do not count.
    """
    floor = 0.0
    for geometry, dense, compressible in shapes:
        if not compressible:
            continue
        mode_shape, _ = default_mode_shape(*geometry)
        params = param_count_formula(family, mode_shape, (1,) * len(maximal_ranks(family, mode_shape)))
        if params >= dense:
            continue
        ratio = params / dense
        # (params / dense) * dense may round below params
        while ratio_budget(ratio, dense).budget < params:
            ratio = math.nextafter(ratio, 1.0)
        floor = max(floor, ratio)
    return floor


def _uniform(options, target_ratio, family) -> CompressionPlan:
    dense_total = sum(o.dense_params for o in options)
    budget = target_ratio * dense_total
    shapes = Counter((o.geometry, o.dense_params, o.compressible) for o in options)
    fit = functools.cache(_fit)  # shared by every bisection pass of this call

    # total is not monotone in the ratio (below the rank-1 floor patches fall
    # back to dense), so the bisection keeps total(lo) <= budget as its invariant
    lo, hi = _rank_one_floor(shapes, family), 1.0
    total_lo, _ = _uniform_selection(shapes, family, lo, fit)
    if total_lo > budget:
        raise InfeasibleBudgetError(
            f"uniform {family} cannot reach ratio {target_ratio}",
            best_achievable=total_lo / dense_total if dense_total else 1.0,
        )
    for _ in range(45):
        mid = 0.5 * (lo + hi)
        total_mid, _ = _uniform_selection(shapes, family, mid, fit)
        if total_mid <= budget:
            lo = mid
        else:
            hi = mid
    ratio = lo
    total, chosen = _uniform_selection(shapes, family, ratio, fit)

    entries = []
    for opt in sorted(options, key=lambda o: o.patch_id):
        cand = None
        ranks_params = chosen.get((opt.geometry, opt.dense_params, opt.compressible))
        if ranks_params is not None:
            ranks, params = ranks_params
            cand = Candidate(family, ratio, params, _interp_degradation(opt, family, ratio), ranks)
        entries.append(_entry(opt, cand))
    return CompressionPlan(
        mode="uniform",
        target_ratio=target_ratio,
        dense_params=dense_total,
        achieved_params=total,
        entries=entries,
    )


def allocate(
    options: list[PatchOptions],
    target_ratio: float,
    mode: str = "sensitivity_mixed",
    single_family: str = "tt",
) -> CompressionPlan:
    """Produce a plan meeting ``achieved <= target_ratio * dense_params``.

    ``uniform`` compresses every eligible patch with one family at one
    shared ratio found by bisection. Patches are grouped by geometry once,
    so a bisection pass costs one lookup per geometry, and rank selection
    runs once per distinct (geometry, ratio) over all passes, from a memo
    that lives only for this call. ``sensitivity`` runs the greedy
    marginal-cost loop restricted to ``single_family``;
    ``sensitivity_mixed`` searches all families. Each greedy step takes
    the candidate with the most params saved per unit of added predicted
    degradation (steps that add none come first). A heap holds each patch's best next step, keyed
    ``(-score, patch id, family order (tucker, tt, tr), -ratio)``, so ties
    break on lower patch id, then family order, then larger ratio; after a
    step only the stepped patch's entry is recomputed. A non-finite
    ``predicted_degradation`` on any candidate raises ``ValueError``.
    """
    if not 0.0 < target_ratio <= 1.0:
        raise ValueError(f"target ratio must be in (0, 1], got {target_ratio}")
    if mode not in MODES:
        raise ValueError(f"unknown planner mode {mode!r}")
    if single_family not in FAMILIES:
        raise ValueError(f"unknown family {single_family!r}")
    if not options:
        raise ValueError("no patches to plan over")
    seen = set()
    for opt in options:
        if opt.patch_id in seen:
            raise ValueError(f"duplicate patch id {opt.patch_id}")
        seen.add(opt.patch_id)
        for cand in opt.candidates:
            if not math.isfinite(cand.predicted_degradation):
                raise ValueError(
                    f"patch {opt.patch_id}: predicted degradation {cand.predicted_degradation} "
                    f"of {cand.family} at ratio {cand.ratio} is not finite"
                )
    if mode == "uniform":
        return _uniform(options, target_ratio, single_family)
    return _greedy(options, target_ratio, mode, single_family)
