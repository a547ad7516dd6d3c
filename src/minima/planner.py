"""Global budget planner: turns per-patch degradation predictions into a
model-wide compression plan that satisfies a parameter budget.

The planner's inputs are columnar. ``build_options`` gives one
``PlanOptions``: a row per patch and a column per (family, ratio) pair,
with each cell's stored scalars and predicted degradation. The greedy
modes plan as the greedy of the multiple-choice knapsack (Sinha & Zoltners,
Oper. Res. 1979). Every patch's chain of best next steps is walked for all
patches at once. The steps of all chains are then sorted once, by (key,
patch, step), and a plan is the shortest prefix of that order that meets
the budget.

The walk (``_walks``) takes one step of every chain per round. A round
gathers the cells of its rows from the options and holds about two
``(rows x columns)`` float tables at a time; what it keeps is its steps,
four scalars each (patch row, column, params saved, key). No table of the
options is copied up front, and no ``(patches x columns)`` table of steps
is made.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from minima.errors import InfeasibleBudgetError
from minima import sensitivity
from minima.sensitivity import Patch
from minima.tn_decompositions import (
    FAMILIES,
    default_mode_shape,
    maximal_ranks,
    param_count_formula,
    ratio_budget,
    select_ranks,
)

MODES = ("uniform", "sensitivity", "sensitivity_mixed")
_FAMILY_ORDER = {family: i for i, family in enumerate(FAMILIES)}  # greedy tie-break
NO_FIT = np.iinfo(np.int64).max  # ``PlanOptions.params`` of a cell that is no candidate


def tie_order(key: tuple[str, float]) -> tuple[int, float]:
    """Sort key of a (family, ratio) column: ``FAMILIES`` order, then the
    larger ratio first. Of steps with equal scores, the earlier column wins."""
    family, ratio = key
    return _FAMILY_ORDER[family], -ratio


@dataclass(slots=True)
class Candidate:
    """One way to store a patch: ``family`` at ``ratio``, with its ranks,
    stored scalars and predicted degradation."""

    family: str
    ratio: float
    params: int
    predicted_degradation: float
    ranks: tuple[int, ...] | None = None


@dataclass(slots=True, eq=False)
class PlanOptions:
    """Planner inputs in columns: row ``i`` is ``patches[i]``, and column
    ``j`` is the (family, ratio) pair ``keys[j]``.

    ``patches`` are sorted by id, and ``keys`` run in ``tie_order``. Where
    a patch has no candidate for a pair, ``params`` holds ``NO_FIT`` and
    ``predicted`` holds 0.0. ``ranks`` maps ((rows, cols), key) to the
    ranks of every candidate cell of that geometry. Iterating gives one
    ``PatchOptions`` view per patch, in row order.
    """

    patches: list[Patch]
    compressible: np.ndarray  # (P,) bool; False: excluded by submodule kind in every mode
    pinned: np.ndarray  # (P,) bool; fragile: forced dense in sensitivity modes
    keys: list[tuple[str, float]]
    params: np.ndarray  # (P, H) int64
    predicted: np.ndarray  # (P, H) float64
    ranks: dict

    def __iter__(self):
        flags = zip(self.compressible.tolist(), self.pinned.tolist())
        for row, (patch, (compressible, pinned)) in enumerate(zip(self.patches, flags)):
            yield PatchOptions(patch, compressible, pinned, self, row)


@dataclass(slots=True)
class PatchOptions:
    """Planner view of one patch of a ``PlanOptions``: where it sits, and
    how it may be compressed.

    ``candidates`` are the patch's candidate cells in column order, built
    each time they are read.
    """

    patch: Patch
    compressible: bool
    pinned: bool
    _options: PlanOptions = field(repr=False, compare=False)
    _row: int = field(repr=False, compare=False)

    @property
    def patch_id(self) -> int:
        return self.patch.patch_id

    @property
    def candidates(self) -> list[Candidate]:
        options, geometry = self._options, (self.patch.rows, self.patch.cols)
        cells = zip(options.keys, options.params[self._row].tolist(), options.predicted[self._row].tolist())
        return [
            Candidate(*key, params, predicted, options.ranks[geometry, key])
            for key, params, predicted in cells
            if params != NO_FIT
        ]


@dataclass(slots=True)
class PlanEntry:
    """How the plan stores one patch: dense, or one family at one ratio."""

    patch: Patch
    family: str  # "dense" or a TN family
    target_ratio: float | None
    ranks: tuple[int, ...] | None
    params: int
    predicted_degradation: float

    @property
    def patch_id(self) -> int:
        return self.patch.patch_id


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
        ranks = select_ranks(mode_shape, family, ratio_budget(ratio, dense))
    except InfeasibleBudgetError:
        return None
    params = param_count_formula(family, mode_shape, ranks)
    if params >= dense:
        return None
    return ranks, params


def build_options(records, patches) -> PlanOptions:
    """Translate sensitivity records into planner inputs.

    The columns are the (family, ratio) pairs of the records'
    ``predictions``, families outside ``FAMILIES`` ignored. A patch's
    candidates are the pairs of its record whose ranks (``select_ranks`` at
    the ratio's budget) store fewer scalars than the dense patch. ``_fit``
    runs once per (geometry, family, ratio) of this call; per patch, only
    the record's predictions are listed. Patches whose every prediction
    exceeds ``sensitivity.DEGRADATION_CAP`` are pinned dense;
    ``sensitivity.EXCLUDED_KINDS`` and patches without a record get no
    candidates. Two records for one patch, or a prediction at a ratio that
    is not a finite number > 0, raise ``ValueError`` before any fit. Each
    per-patch list is dropped once the arrays it fills exist.
    """
    by_id = {}
    for r in records:
        if r.patch_id in by_id:
            raise ValueError(f"two sensitivity records for patch {r.patch_id}")
        by_id[r.patch_id] = r
    patches = sorted(patches, key=lambda p: p.patch_id)
    compressible = [p.submodule_kind not in sensitivity.EXCLUDED_KINDS for p in patches]
    curves = [
        [record.predictions.get(family, {}) for family in FAMILIES]
        if ok and (record := by_id.get(p.patch_id)) is not None
        else None
        for p, ok in zip(patches, compressible)
    ]
    del by_id
    compressible = np.array(compressible, dtype=bool)
    listed = [fc for fc in curves if fc is not None]
    keys = sorted(
        ((family, float(r)) for f, family in enumerate(FAMILIES) for r in set().union(*(fc[f] for fc in listed))),
        key=tie_order,
    )
    del listed
    if not all(0.0 < ratio < math.inf for _, ratio in keys):
        pid, family, ratio = next(
            (p.patch_id, family, r) for p, fc in zip(patches, curves) if fc is not None
            for family, curve in zip(FAMILIES, fc) for r in curve if not 0.0 < r < math.inf
        )
        problem = "not finite" if not math.isfinite(ratio) else "not above 0"
        raise ValueError(f"patch {pid}: a prediction of {family} at ratio {ratio}, which is {problem}")
    cells = [(_FAMILY_ORDER[family], ratio) for family, ratio in keys]

    ranks, fits = {}, {}
    for p, fc in zip(patches, curves):
        geometry = (p.rows, p.cols)
        if fc is None or geometry in fits:
            continue
        fits[geometry] = row = []
        for key in keys:
            ranks_params = _fit(geometry, *key)
            if ranks_params is None:
                row.append(NO_FIT)
            else:
                ranks[geometry, key], params = ranks_params
                row.append(params)

    # a record that lists every column is one row of predictions; only a
    # record without some pair needs a mask of the pairs it has
    absent = [0.0] * len(keys)
    rows, masks = [], {}
    for i, fc in enumerate(curves):
        if fc is None:
            rows.append(absent)
            masks[i] = False
            continue
        rows.append([fc[f].get(r, 0.0) for f, r in cells])
        if sum(map(len, fc)) != len(keys):
            masks[i] = [r in fc[f] for f, r in cells]
    del curves
    predicted = np.array(rows, dtype=np.float64).reshape(len(patches), len(keys))
    del rows
    present = np.ones(predicted.shape, dtype=bool)
    for i, mask in masks.items():
        present[i] = mask
    del masks

    no_fit = [NO_FIT] * len(keys)
    params = np.array([fits.get((p.rows, p.cols), no_fit) for p in patches], dtype=np.int64)
    params = np.where(present, params.reshape(predicted.shape), NO_FIT)
    candidate = params != NO_FIT
    predicted = np.where(candidate, predicted, 0.0)
    over_cap = predicted > sensitivity.DEGRADATION_CAP
    pinned = candidate.any(axis=1) & (over_cap | ~candidate).all(axis=1)
    return PlanOptions(patches, compressible, pinned, keys, params, predicted, ranks)


def _dense_entry(patch: Patch, params: int) -> PlanEntry:
    return PlanEntry(patch, "dense", None, None, params, 0.0)


def _columns(keys, mode: str, single_family: str) -> slice:
    """The columns a greedy ``mode`` plans over: every column, or those of
    ``single_family``, one run because ``keys`` run in ``tie_order``."""
    families = [family for family, _ in keys]
    if mode == "sensitivity_mixed":
        return slice(0, len(families))
    if single_family not in families:
        return slice(0, 0)
    first = families.index(single_family)
    return slice(first, first + families.count(single_family))


def _walks(options: PlanOptions, live, columns: slice, dense):
    """The chain of best next steps of each patch ``live[i]`` over the
    ``columns`` of ``options``, from ``dense[i]`` params and no predicted
    degradation, walked for all of them at once.

    A step's score is its params saved per unit of added degradation,
    ``inf`` when it adds none. Only cells below the row's current params
    count, and of equal scores the first column wins. Round k takes step k
    of every chain still walking: it gathers those rows' cells from the
    options and drops each table once it is read, the params once the
    scores and the mask of the cells not below the current params exist,
    the added degradations once they have scored. So about two ``(walking
    rows x columns)`` float tables are alive at once, and a round keeps
    only its steps, four scalars each.

    Returns ``(rows, cols, saved, keys)``, one entry per step in round
    order (step k of every chain that has one, by row, then step k + 1):
    the step's row ``i``, its column, its params saved and the running max
    of ``-score`` along its chain up to it. The rounds' pieces are joined
    one field at a time.
    """
    n = len(live)
    rows, cols, saved, keys = [], [], [], []  # per round, one entry for each row that steps
    active = np.arange(n)
    now_params, now_deg, top = dense, np.zeros(n), np.full(n, -np.inf)  # of the active rows
    for _ in range(columns.stop - columns.start):  # a step lowers its row's params, so no chain is longer
        at_rows = live[active]
        current = now_params[:, None]
        p = options.params[at_rows, columns]
        score = np.subtract(current, p, dtype=np.float64)  # exact: params < 2**53
        blocked = p >= current
        del p
        added = options.predicted[at_rows, columns]
        added -= now_deg[:, None]
        np.divide(score, added, out=score, where=added > 0)
        score[added <= 0] = np.inf
        del added
        score[blocked] = -np.inf
        best = score.argmax(axis=1)
        best_score = score[np.arange(len(active)), best]
        del score, blocked
        moving = np.flatnonzero(best_score > -np.inf)
        if not moving.size:
            break
        active, best = active[moving], best[moving] + columns.start
        at = (at_rows[moving], best)
        stepped, top = options.params[at], np.maximum(top[moving], -best_score[moving])
        rows.append(active)
        cols.append(best)
        saved.append(now_params[moving] - stepped)
        keys.append(top)
        now_params, now_deg = stepped, options.predicted[at]
    fields = (rows, np.intp), (cols, np.intp), (saved, np.int64), (keys, np.float64)
    return tuple(_joined(pieces, dtype) for pieces, dtype in fields)


def _joined(pieces: list, dtype) -> np.ndarray:
    """The ``pieces`` in one array, of ``dtype`` when there are none; the
    list is emptied, so its pieces are dropped once they are copied."""
    out = np.concatenate(pieces) if pieces else np.empty(0, dtype)
    pieces.clear()
    return out


def _choose(options: PlanOptions, columns: slice, dense, target_ratio) -> tuple[np.ndarray, int]:
    """The greedy plan over ``columns`` of patches of ``dense`` params:
    each patch's column (-1 for dense) and the plan's params, those of the
    shortest prefix of the steps' order that meets the budget, or
    ``InfeasibleBudgetError`` if no prefix does."""
    live = np.flatnonzero(options.compressible & ~options.pinned)
    rows, cols, saved, keys = _walks(options, live, columns, dense[live])
    dense_total = int(dense.sum())
    limit = math.floor(target_ratio * dense_total)  # an int is <= the budget iff <= its floor

    # steps by (key, patch id, step), a stable sort of round order: the order
    # in which a heap of each patch's next step, keyed (-score, patch id), takes them
    order = np.lexsort((rows, keys))
    del keys
    achieved = dense_total - np.cumsum(saved[order])
    del saved
    taken = 0
    if dense_total > limit:
        meets = achieved <= limit
        if not meets.any():
            total = int(achieved[-1]) if achieved.size else dense_total
            pinned = int(np.count_nonzero(options.compressible & options.pinned))
            raise InfeasibleBudgetError(
                f"no candidate steps left at {total}/{dense_total} params "
                f"(target ratio {target_ratio}; {pinned} compressible patches pinned dense)",
                best_achievable=total / dense_total if dense_total else 1.0,
            )
        taken = int(meets.argmax()) + 1
    total = int(achieved[taken - 1]) if taken else dense_total
    del achieved

    # a patch's steps in the prefix are the first of its chain, and the last
    # of them sits latest in round order
    last = np.full(len(live), -1, dtype=np.intp)
    np.maximum.at(last, rows[order[:taken]], order[:taken])
    moved = np.flatnonzero(last >= 0)
    chosen = np.full(len(options.patches), -1, dtype=np.intp)
    chosen[live[moved]] = cols[last[moved]]
    return chosen, total


def _greedy(options: PlanOptions, target_ratio, mode, single_family) -> CompressionPlan:
    dense = np.array([p.dense_params for p in options.patches], dtype=np.int64)
    chosen, total = _choose(options, _columns(options.keys, mode, single_family), dense, target_ratio)
    return CompressionPlan(
        mode=mode,
        target_ratio=target_ratio,
        dense_params=int(dense.sum()),
        achieved_params=total,
        entries=_entries(options, chosen, dense.tolist()),
    )


def _entries(options: PlanOptions, chosen, dense) -> list[PlanEntry]:
    """One entry per patch: dense (``dense[i]`` params) where ``chosen`` is
    -1, else the candidate in column ``chosen[i]``."""
    picked = np.flatnonzero(chosen >= 0)
    cells = (picked, chosen[picked])
    values = zip(options.params[cells].tolist(), options.predicted[cells].tolist())
    entries = []
    for patch, j, dense_params in zip(options.patches, chosen.tolist(), dense):
        if j < 0:
            entries.append(_dense_entry(patch, dense_params))
        else:
            params, predicted = next(values)
            key = options.keys[j]
            entries.append(PlanEntry(patch, *key, options.ranks[(patch.rows, patch.cols), key], params, predicted))
    return entries


def _interp_degradations(options: PlanOptions, family: str, ratio: float) -> list[float]:
    """Each patch's predicted degradation at ``ratio``: its ``family``
    candidates sorted by ratio and anchored at (1, 0), interpolated
    linearly; 0.0 for a patch with no such candidate.

    Rows with the same candidates among the family's columns are
    interpolated together, one vectorized step per distinct mask, with
    ``np.interp``'s interval rule and its ``slope * (x - x_j) + y_j``, so
    each value is the bits ``np.interp`` gives for that patch alone (its
    NaN fallback never runs: degradations are finite and ratios distinct).
    """
    columns = np.array([j for j, (f, _) in enumerate(options.keys) if f == family][::-1], dtype=np.intp)
    ratios = [options.keys[j][1] for j in columns]  # ascending
    out = np.zeros(len(options.patches))
    masks, group = np.unique(options.params[:, columns] != NO_FIT, axis=0, return_inverse=True)
    for k, mask in enumerate(masks):
        if not mask.any():
            continue
        rows = np.flatnonzero(group.reshape(-1) == k)
        xs = tuple(itertools.compress(ratios, mask)) + (1.0,)
        ys = np.column_stack([options.predicted[np.ix_(rows, columns[mask])], np.zeros(len(rows))])
        j = bisect.bisect_right(xs, ratio) - 1  # xs[j] <= ratio < xs[j + 1]
        if j < 0:
            values = ys[:, 0]
        elif j == len(xs) - 1 or xs[j] == ratio:
            values = ys[:, j]
        else:
            slope = (ys[:, j + 1] - ys[:, j]) / (xs[j + 1] - xs[j])
            values = slope * (ratio - xs[j]) + ys[:, j]
        out[rows] = values
    return out.tolist()


def _uniform_selection(shapes, family: str, ratio: float):
    """Stored scalars of all patches at one shared compression ratio, and
    the ``(ranks, params)`` chosen for each shape that compresses.

    ``shapes`` counts the patches per (geometry, compressible), so a pass
    makes one ``_fit`` per compressible geometry.
    """
    total = 0
    chosen = {}
    for shape, count in shapes.items():
        geometry, compressible = shape
        ranks_params = _fit(geometry, family, ratio) if compressible else None
        if ranks_params is not None:
            chosen[shape] = ranks_params
        total += count * (geometry[0] * geometry[1] if ranks_params is None else ranks_params[1])
    return total, chosen


def _rank_one_floor(shapes, family: str) -> float:
    """Smallest shared ratio at which every compressible patch fits rank 1.

    ``shapes`` is keyed like ``_uniform_selection``'s. Shapes whose rank-1
    configuration is not smaller than dense never compress and do not count;
    with none counted, the floor is the least ratio > 0, where each fit
    meets budget 1, as at any ratio below ``1 / dense``.
    """
    floor = math.ulp(0.0)
    for geometry, compressible in shapes:
        if not compressible:
            continue
        mode_shape, _ = default_mode_shape(*geometry)
        dense = geometry[0] * geometry[1]
        params = param_count_formula(family, mode_shape, (1,) * len(maximal_ranks(family, mode_shape)))
        if params >= dense:
            continue
        ratio = params / dense
        # (params / dense) * dense may round below params
        while ratio_budget(ratio, dense).budget < params:
            ratio = math.nextafter(ratio, 1.0)
        floor = max(floor, ratio)
    return floor


def _uniform(options: PlanOptions, target_ratio, family) -> CompressionPlan:
    patches, compressible = options.patches, options.compressible.tolist()
    dense_total = sum(p.dense_params for p in patches)
    budget = target_ratio * dense_total
    shapes = Counter(((p.rows, p.cols), ok) for p, ok in zip(patches, compressible))

    # total is not monotone in the ratio (below the rank-1 floor patches fall
    # back to dense), so the bisection keeps total(lo) <= budget as its
    # invariant, and carries lo's selection
    lo, hi = _rank_one_floor(shapes, family), 1.0
    total, chosen = _uniform_selection(shapes, family, lo)
    if total > budget:
        raise InfeasibleBudgetError(
            f"uniform {family} cannot reach ratio {target_ratio}",
            best_achievable=total / dense_total if dense_total else 1.0,
        )
    for _ in range(45):
        mid = 0.5 * (lo + hi)
        total_mid, chosen_mid = _uniform_selection(shapes, family, mid)
        if total_mid <= budget:
            lo, total, chosen = mid, total_mid, chosen_mid
        else:
            hi = mid
    ratio = lo

    entries = []
    for patch, ok, degradation in zip(patches, compressible, _interp_degradations(options, family, ratio)):
        ranks_params = chosen.get(((patch.rows, patch.cols), ok))
        if ranks_params is None:
            entries.append(_dense_entry(patch, patch.dense_params))
        else:
            ranks, params = ranks_params
            entries.append(PlanEntry(patch, family, ratio, ranks, params, degradation))
    return CompressionPlan(
        mode="uniform",
        target_ratio=target_ratio,
        dense_params=dense_total,
        achieved_params=total,
        entries=entries,
    )


def allocate(
    options: PlanOptions,
    target_ratio: float,
    mode: str = "sensitivity_mixed",
    single_family: str = "tt",
) -> CompressionPlan:
    """Produce a plan meeting ``achieved <= target_ratio * dense_params``.

    ``uniform`` compresses every eligible patch with one family at one
    shared ratio, found by bisection over the patches grouped by geometry.

    ``sensitivity`` (``single_family`` only) and ``sensitivity_mixed`` (all
    families) plan greedily: each step takes the candidate with the most
    params saved per unit of added predicted degradation, steps that add
    none first. Each patch's chain of best next steps is walked; within a
    patch, equal scores break on ``tie_order``. The steps of all chains are
    sorted by (running max of ``-score`` along the chain, patch id, step),
    which is the order in which a heap of each patch's next step would take
    them, so ties between patches break on the lower id. The plan is the
    shortest prefix of that order that meets the budget. If the steps run
    out above the budget, ``InfeasibleBudgetError`` says how many
    compressible patches are pinned dense. A non-finite predicted
    degradation raises ``ValueError``.
    """
    if not 0.0 < target_ratio <= 1.0:
        raise ValueError(f"target ratio must be in (0, 1], got {target_ratio}")
    if mode not in MODES:
        raise ValueError(f"unknown planner mode {mode!r}")
    if single_family not in FAMILIES:
        raise ValueError(f"unknown family {single_family!r}")
    if not options.patches:
        raise ValueError("no patches to plan over")
    ids = np.array([p.patch_id for p in options.patches])
    repeated = ids[1:][ids[1:] == ids[:-1]]
    if repeated.size:
        raise ValueError(f"duplicate patch id {repeated[0]}")
    bad = np.argwhere(~np.isfinite(options.predicted) & (options.params != NO_FIT))
    if bad.size:
        i, j = bad[0]
        family, ratio = options.keys[j]
        raise ValueError(
            f"patch {ids[i]}: predicted degradation {float(options.predicted[i, j])} "
            f"of {family} at ratio {ratio} is not finite"
        )
    if mode == "uniform":
        return _uniform(options, target_ratio, single_family)
    return _greedy(options, target_ratio, mode, single_family)
