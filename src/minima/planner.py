"""Global budget planner: turns per-patch degradation predictions into a
model-wide compression plan that satisfies a parameter budget."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from minima.errors import InfeasibleBudgetError
from minima.tensor_core import ParamBudget
from minima.tn_decompositions import (
    FAMILIES,
    default_mode_shape,
    maximal_ranks,
    param_count_formula,
    select_ranks,
)

log = logging.getLogger(__name__)

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
    geometry: tuple[int, int] | None = None
    layer_name: str = ""
    submodule_kind: str = "other"
    row_range: tuple[int, int] = (0, 0)
    col_range: tuple[int, int] = (0, 0)


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

    def entry(self, patch_id: int) -> PlanEntry:
        return self._index()[patch_id]

    def _index(self) -> dict[int, PlanEntry]:
        return {e.patch_id: e for e in self.entries}


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
    will store. Patches whose every prediction exceeds the cap are pinned
    dense; excluded kinds never receive candidates.
    """
    by_id = {r.patch_id: r for r in records}
    ordered_families = [f for f in FAMILIES if f in set(families)]
    options = []
    for patch in patches:
        record = by_id.get(patch.patch_id)
        opt = PatchOptions(
            patch_id=patch.patch_id,
            dense_params=patch.dense_params,
            compressible=patch.submodule_kind not in exclude_kinds,
            geometry=(patch.rows, patch.cols),
            layer_name=patch.layer_name,
            submodule_kind=patch.submodule_kind,
            row_range=patch.row_range,
            col_range=patch.col_range,
        )
        if record is not None and opt.compressible:
            mode_shape, _ = default_mode_shape(patch.rows, patch.cols)
            for family in ordered_families:
                curve = record.predictions.get(family, {})
                for ratio in ratio_grid:
                    if ratio not in curve:
                        continue
                    budget = max(int(math.floor(ratio * patch.dense_params)), 1)
                    try:
                        spec = select_ranks(mode_shape, family, ParamBudget(budget))
                    except InfeasibleBudgetError:
                        log.debug("no %s ranks fit patch %d at ratio %g", family, patch.patch_id, ratio)
                        continue
                    params = param_count_formula(family, mode_shape, spec.ranks)
                    if params >= patch.dense_params:
                        continue
                    opt.candidates.append(
                        Candidate(
                            family=family,
                            ratio=float(ratio),
                            params=params,
                            predicted_degradation=curve[ratio],
                            ranks=spec.ranks,
                        )
                    )
            if opt.candidates and all(
                c.predicted_degradation > degradation_cap for c in opt.candidates
            ):
                opt.pinned = True
        options.append(opt)
    return options


def _family_index(family: str) -> int:
    return FAMILIES.index(family)


def _dense_entry(opt: PatchOptions) -> PlanEntry:
    return PlanEntry(
        patch_id=opt.patch_id,
        dense_params=opt.dense_params,
        family="dense",
        target_ratio=None,
        ranks=None,
        params=opt.dense_params,
        predicted_degradation=0.0,
        layer_name=opt.layer_name,
        submodule_kind=opt.submodule_kind,
        row_range=opt.row_range,
        col_range=opt.col_range,
    )


def _greedy(options, target_ratio, mode, single_family) -> CompressionPlan:
    usable: dict[int, list[Candidate]] = {}
    for opt in options:
        if not opt.compressible or opt.pinned:
            usable[opt.patch_id] = []
            continue
        cands = opt.candidates
        if mode == "sensitivity":
            cands = [c for c in cands if c.family == single_family]
        usable[opt.patch_id] = cands

    by_id = {o.patch_id: o for o in options}
    current: dict[int, Candidate | None] = {o.patch_id: None for o in options}
    params_now = {o.patch_id: o.dense_params for o in options}
    deg_now = {o.patch_id: 0.0 for o in options}
    dense_total = sum(o.dense_params for o in options)
    budget = target_ratio * dense_total
    total = dense_total

    while total > budget:
        best_key = None
        best = None
        for pid, cands in usable.items():
            for cand in cands:
                if cand.params >= params_now[pid]:
                    continue
                saved = params_now[pid] - cand.params
                added = cand.predicted_degradation - deg_now[pid]
                score = math.inf if added <= 0 else saved / added
                key = (-score, pid, _family_index(cand.family), -cand.ratio)
                if best_key is None or key < best_key:
                    best_key = key
                    best = (pid, cand)
        if best is None:
            raise InfeasibleBudgetError(
                f"no candidate steps left at {total}/{dense_total} params "
                f"(target ratio {target_ratio})",
                best_achievable=total / dense_total if dense_total else 1.0,
            )
        pid, cand = best
        total -= params_now[pid] - cand.params
        params_now[pid] = cand.params
        deg_now[pid] = cand.predicted_degradation
        current[pid] = cand

    entries = []
    for opt in sorted(options, key=lambda o: o.patch_id):
        cand = current[opt.patch_id]
        if cand is None:
            entries.append(_dense_entry(opt))
        else:
            entries.append(
                PlanEntry(
                    patch_id=opt.patch_id,
                    dense_params=opt.dense_params,
                    family=cand.family,
                    target_ratio=cand.ratio,
                    ranks=cand.ranks,
                    params=cand.params,
                    predicted_degradation=cand.predicted_degradation,
                    layer_name=opt.layer_name,
                    submodule_kind=opt.submodule_kind,
                    row_range=opt.row_range,
                    col_range=opt.col_range,
                )
            )
    return CompressionPlan(
        mode="sensitivity_mixed" if mode == "sensitivity_mixed" else mode,
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


def _uniform_selection(options, family: str, ratio: float):
    """Per-patch rank selection at one shared compression ratio."""
    total = sum(o.dense_params for o in options)
    chosen = {}
    for opt in options:
        if not opt.compressible or opt.geometry is None:
            continue
        mode_shape, _ = default_mode_shape(*opt.geometry)
        budget = max(int(math.floor(ratio * opt.dense_params)), 1)
        try:
            spec = select_ranks(mode_shape, family, ParamBudget(budget))
        except InfeasibleBudgetError:
            continue
        params = param_count_formula(family, mode_shape, spec.ranks)
        if params >= opt.dense_params:
            continue
        chosen[opt.patch_id] = (spec.ranks, params)
        total += params - opt.dense_params
    return total, chosen


def _rank_one_floor(options, family: str) -> float:
    """Smallest shared ratio at which every compressible patch fits rank 1.

    Patches whose rank-1 configuration is not smaller than dense never
    compress and do not count.
    """
    floor = 0.0
    for opt in options:
        if not opt.compressible or opt.geometry is None:
            continue
        mode_shape, _ = default_mode_shape(*opt.geometry)
        params = param_count_formula(family, mode_shape, (1,) * len(maximal_ranks(family, mode_shape)))
        if params >= opt.dense_params:
            continue
        ratio = params / opt.dense_params
        # (params / dense) * dense may round below params
        while math.floor(ratio * opt.dense_params) < params:
            ratio = math.nextafter(ratio, 1.0)
        floor = max(floor, ratio)
    return floor


def _uniform(options, target_ratio, family) -> CompressionPlan:
    dense_total = sum(o.dense_params for o in options)
    budget = target_ratio * dense_total

    # total is not monotone in the ratio (below the rank-1 floor patches fall
    # back to dense), so the bisection keeps total(lo) <= budget as its invariant
    lo, hi = _rank_one_floor(options, family), 1.0
    total_lo, _ = _uniform_selection(options, family, lo)
    if total_lo > budget:
        raise InfeasibleBudgetError(
            f"uniform {family} cannot reach ratio {target_ratio}",
            best_achievable=total_lo / dense_total if dense_total else 1.0,
        )
    for _ in range(45):
        mid = 0.5 * (lo + hi)
        total_mid, _ = _uniform_selection(options, family, mid)
        if total_mid <= budget:
            lo = mid
        else:
            hi = mid
    ratio = lo
    total, chosen = _uniform_selection(options, family, ratio)

    entries = []
    for opt in sorted(options, key=lambda o: o.patch_id):
        if opt.patch_id not in chosen:
            entries.append(_dense_entry(opt))
            continue
        ranks, params = chosen[opt.patch_id]
        entries.append(
            PlanEntry(
                patch_id=opt.patch_id,
                dense_params=opt.dense_params,
                family=family,
                target_ratio=ratio,
                ranks=ranks,
                params=params,
                predicted_degradation=_interp_degradation(opt, family, ratio),
                layer_name=opt.layer_name,
                submodule_kind=opt.submodule_kind,
                row_range=opt.row_range,
                col_range=opt.col_range,
            )
        )
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
    shared ratio found by bisection; ``sensitivity`` runs the greedy
    marginal-cost loop restricted to ``single_family``;
    ``sensitivity_mixed`` searches all families. Ties break on lower
    patch id, then family order (tucker, tt, tr), then larger ratio.
    """
    if not 0.0 < target_ratio <= 1.0:
        raise ValueError(f"target ratio must be in (0, 1], got {target_ratio}")
    if mode not in MODES:
        raise ValueError(f"unknown planner mode {mode!r}")
    if not options:
        raise ValueError("no patches to plan over")
    seen = set()
    for opt in options:
        if opt.patch_id in seen:
            raise ValueError(f"duplicate patch id {opt.patch_id}")
        seen.add(opt.patch_id)
    if mode == "uniform":
        return _uniform(options, target_ratio, single_family)
    return _greedy(options, target_ratio, mode, single_family)


def plan_summary(plan: CompressionPlan) -> dict:
    """Aggregate counts: totals, per-submodule and per-family breakdowns."""
    per_kind: dict[str, dict] = {}
    per_family: dict[str, int] = {}
    total_deg = 0.0
    compressed = 0
    for entry in plan.entries:
        kind = per_kind.setdefault(
            entry.submodule_kind,
            {"patches": 0, "dense_params": 0, "planned_params": 0, "compressed_patches": 0},
        )
        kind["patches"] += 1
        kind["dense_params"] += entry.dense_params
        kind["planned_params"] += entry.params
        per_family[entry.family] = per_family.get(entry.family, 0) + 1
        total_deg += entry.predicted_degradation
        if entry.family != "dense":
            compressed += 1
            kind["compressed_patches"] += 1
    n = len(plan.entries)
    return {
        "mode": plan.mode,
        "target_ratio": plan.target_ratio,
        "dense_params": plan.dense_params,
        "achieved_params": plan.achieved_params,
        "achieved_ratio": plan.achieved_ratio,
        "patches": n,
        "compressed_patches": compressed,
        "mean_predicted_degradation": total_deg / n if n else 0.0,
        "per_submodule": per_kind,
        "per_family": per_family,
    }
