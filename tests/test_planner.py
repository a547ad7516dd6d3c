import dataclasses
import importlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minima import planner
from minima.errors import InfeasibleBudgetError
from minima.model import ModelContainer
from minima.planner import MODES, Candidate, CompressionPlan, PatchOptions, PlanEntry, allocate, build_options
from minima.sensitivity import RATIO_GRID, Patch, SensitivityRecord, partition_patches
from minima.tn_decompositions import FAMILIES, default_mode_shape, maximal_ranks, param_count_formula

from helpers import pack_options, unpack_options
from test_perfbench_bindings import MODULES, WORKLOADS


def plan_options(shapes, patch_size=(64, 64), kinds=None, fragile=()):
    """Planner options for layers of the given shapes, with synthetic predictions.

    Layers are ffn unless ``kinds`` names their kinds; the layers whose
    indices are in ``fragile`` predict deviations above ``DEGRADATION_CAP``.
    """
    model = ModelContainer()
    for i, (shape, kind) in enumerate(zip(shapes, kinds or ["ffn"] * len(shapes))):
        model.add(f"w{i}", np.ones(shape), layer_index=i, submodule_kind=kind)
    patches = partition_patches(model, patch_size)
    curve = {ratio: 0.002 * 0.5 / ratio for ratio in RATIO_GRID}
    records = []
    for p in patches:
        scale = 100.0 if p.layer_index in fragile else 1.0
        predictions = {f: {r: scale * d for r, d in curve.items()} for f in FAMILIES}
        records.append(SensitivityRecord(p.patch_id, 0.5, predictions, {}))
    return build_options(records, patches)


# two ffn layers of four 64 x 64 patches, then two patches of a layer whose
# predictions exceed the cap and two of an embedding
MIXED = dict(
    shapes=[(128, 128), (128, 128), (64, 128), (64, 128)],
    kinds=["ffn", "ffn", "attention_proj", "embedding"],
    fragile=(2,),
)


def flat_patch(pid, dense_params):
    """A patch of layer ``w{pid}``, 8 rows high, of ``dense_params`` scalars."""
    return Patch(pid, f"w{pid}", 0, "ffn", (0, 8), (0, dense_params // 8))


def rank_one_ratio(family, rows, cols):
    mode_shape, _ = default_mode_shape(rows, cols)
    ones = (1,) * len(maximal_ranks(family, mode_shape))
    return param_count_formula(family, mode_shape, ones) / (rows * cols)


@pytest.mark.parametrize("family", FAMILIES)
class TestUniform:
    def test_feasible_targets_meet_the_budget(self, family):
        options = plan_options([(128, 128), (128, 128)])
        for target in (0.9, 0.6, 0.3, 0.05):
            plan = allocate(options, target, mode="uniform", single_family=family)
            assert plan.achieved_ratio <= target
            assert plan.achieved_params == sum(e.params for e in plan.entries)
            assert all(e.family == family for e in plan.entries)

    def test_below_rank_one_floor_raises(self, family):
        options = plan_options([(128, 128), (128, 128)])
        with pytest.raises(InfeasibleBudgetError) as exc:
            allocate(options, 0.001, mode="uniform", single_family=family)
        assert exc.value.best_achievable == rank_one_ratio(family, 64, 64)
        if family == "tt":
            assert exc.value.best_achievable == 32 / 4096  # 4 cores of 1 x 8 x 1

    def test_ragged_patch_reaches_its_rank_one_floor(self, family):
        # on a 16 x 110 patch, (params / dense) * dense rounds below the rank-1
        # count of every family, so a bracket at that quotient leaves it dense
        options = plan_options([(16, 110)], patch_size=(64, 128))
        floor = rank_one_ratio(family, 16, 110)
        with pytest.raises(InfeasibleBudgetError) as exc:
            allocate(options, 0.001, mode="uniform", single_family=family)
        assert exc.value.best_achievable == pytest.approx(floor, rel=1e-12)
        plan = allocate(options, floor * 1.001, mode="uniform", single_family=family)
        assert plan.entries[0].family == family
        assert plan.achieved_ratio <= floor * 1.001

    def test_patches_that_never_compress_stay_dense(self, family):
        # a 2 x 2 or 1 x 17 patch stores no fewer scalars at rank 1 than
        # dense, so no shape sets the rank-1 floor
        options = plan_options([(2, 2), (1, 17)], patch_size=(16, 32))
        assert rank_one_ratio(family, 2, 2) >= 1.0 and rank_one_ratio(family, 1, 17) >= 1.0
        plan = allocate(options, 1.0, mode="uniform", single_family=family)
        assert [e.family for e in plan.entries] == ["dense"] * 2
        assert plan.achieved_params == plan.dense_params == 21
        with pytest.raises(InfeasibleBudgetError) as exc:
            allocate(options, 0.5, mode="uniform", single_family=family)
        assert exc.value.best_achievable == 1.0


@pytest.mark.parametrize("mode", ["sensitivity_mixed", "sensitivity"])
class TestSensitivity:
    def test_feasible_targets_meet_the_budget(self, mode):
        options = plan_options(**MIXED)
        candidates = {o.patch_id: o.candidates for o in options}
        for target in (0.9, 0.7, 0.5):
            plan = allocate(options, target, mode=mode, single_family="tt")
            assert plan.mode == mode
            assert plan.dense_params == sum(o.patch.dense_params for o in options)
            assert plan.achieved_params <= target * plan.dense_params
            assert plan.achieved_params == sum(e.params for e in plan.entries)
            assert [e.patch_id for e in plan.entries] == sorted(candidates)
            for e in plan.entries:
                if e.family != "dense":
                    chosen = Candidate(e.family, e.target_ratio, e.params, e.predicted_degradation, e.ranks)
                    assert chosen in candidates[e.patch_id]

    def test_pinned_and_excluded_patches_stay_dense(self, mode):
        options = plan_options(**MIXED)
        assert [o.patch_id for o in options if o.pinned] == [8, 9]
        assert [o.patch_id for o in options if not o.compressible] == [10, 11]
        assert all(o.candidates for o in options if o.pinned)
        assert not any(o.candidates for o in options if not o.compressible)
        plan = allocate(options, 0.5, mode=mode, single_family="tt")
        for e in plan.entries[8:]:
            assert (e.family, e.target_ratio, e.ranks) == ("dense", None, None)
            assert (e.params, e.predicted_degradation) == (4096, 0.0)
            assert e.patch.layer_name == f"w{2 + (e.patch_id - 8) // 2}"
        assert all(e.family != "dense" for e in plan.entries[:8])

    def test_unreachable_target_reports_the_smallest_plan(self, mode):
        options = plan_options([(128, 128), (128, 128)])
        with pytest.raises(InfeasibleBudgetError) as exc:
            allocate(options, 0.001, mode=mode, single_family="tt")
        # eight patches at their smallest candidate: tucker 544 or tt 576 params
        smallest = {"sensitivity_mixed": 8 * 544, "sensitivity": 8 * 576}[mode]
        assert exc.value.best_achievable == smallest / 32768

        options = plan_options(**MIXED)
        smallest = 0
        for o in options:
            usable = [] if o.pinned or not o.compressible else o.candidates
            if mode == "sensitivity":
                usable = [c for c in usable if c.family == "tt"]
            smallest += min((c.params for c in usable), default=o.patch.dense_params)
        with pytest.raises(InfeasibleBudgetError) as exc:
            allocate(options, 0.001, mode=mode, single_family="tt")
        assert exc.value.best_achievable == smallest / sum(o.patch.dense_params for o in options)

    def test_all_pinned_error_counts_the_pinned_patches(self, mode):
        options = plan_options([(128, 128), (64, 128)], fragile=(0, 1))
        assert all(o.pinned for o in options)
        with pytest.raises(InfeasibleBudgetError, match="; 6 compressible patches pinned dense") as exc:
            allocate(options, 0.5, mode=mode, single_family="tt")
        assert exc.value.best_achievable == 1.0


@pytest.mark.parametrize("family", FAMILIES)
def test_sensitivity_uses_only_its_family(family):
    plan = allocate(plan_options(**MIXED), 0.5, mode="sensitivity", single_family=family)
    assert {e.family for e in plan.entries} == {family, "dense"}


def test_candidates_are_the_fitting_record_pairs_in_family_order():
    model = ModelContainer()
    model.add("w0", np.ones((64, 64)), layer_index=0, submodule_kind="ffn")
    patches = partition_patches(model, (64, 64))
    # 0.001 of 4096 is a budget of 4, below every rank-1 count
    predictions = {"tr": {0.2: 3e-3}, "tt": {0.5: 1e-3, 1 / 3: 2e-3, 0.001: 5e-3}, "tucker": {0.5: 1e-3}}
    (opt,) = build_options([SensitivityRecord(0, 0.5, predictions, {})], patches)
    want = []
    for family, ratio, deg in [("tucker", 0.5, 1e-3), ("tt", 0.5, 1e-3), ("tt", 1 / 3, 2e-3), ("tr", 0.2, 3e-3)]:
        ranks, params = planner._fit((64, 64), family, ratio)
        want.append(Candidate(family, ratio, params, deg, ranks))
    assert opt.candidates == want


def one_patch(kind="ffn"):
    model = ModelContainer()
    model.add("w0", np.ones((64, 64)), layer_index=0, submodule_kind=kind)
    return partition_patches(model, (64, 64))


class TestBuildOptions:
    PREDICTIONS = {"tt": {0.5: 1e-3, 0.25: 4e-3}}

    @pytest.mark.parametrize(
        "cap, pinned", [(4e-3, False), (1e-3, False), (math.nextafter(1e-3, 0.0), True)]
    )
    def test_pinned_only_when_every_prediction_exceeds_the_cap(self, policy, cap, pinned):
        record = SensitivityRecord(0, 0.5, self.PREDICTIONS, {})
        policy(DEGRADATION_CAP=cap)
        (opt,) = build_options([record], one_patch())
        assert opt.pinned == pinned
        assert [(c.family, c.ratio) for c in opt.candidates] == [("tt", 0.5), ("tt", 0.25)]

    def test_patch_without_a_record_is_compressible_with_no_candidates(self):
        options = build_options([SensitivityRecord(7, 0.5, self.PREDICTIONS, {})], one_patch())
        (opt,) = options
        assert (opt.compressible, opt.pinned, opt.candidates) == (True, False, [])
        (entry,) = allocate(options, 1.0, mode="sensitivity").entries
        assert (entry.family, entry.params) == ("dense", 4096)
        with pytest.raises(InfeasibleBudgetError, match="; 0 compressible patches pinned dense"):
            allocate(options, 0.5, mode="sensitivity")
        # uniform compresses by geometry; with no curve the prediction is 0
        (entry,) = allocate(options, 0.5, mode="uniform").entries
        assert entry.family == "tt" and entry.params <= 2048
        assert entry.predicted_degradation == 0.0

    def test_two_records_for_one_patch_raise_naming_it(self):
        # the last record once won, so a fragile duplicate pinned a robust patch
        robust = SensitivityRecord(3, 0.5, self.PREDICTIONS, {})
        fragile = SensitivityRecord(3, 0.9, {"tt": {0.5: 0.5, 0.25: 0.9}}, {})
        patches = [flat_patch(pid, 4096) for pid in range(4)]
        with pytest.raises(ValueError, match="two sensitivity records for patch 3$"):
            build_options([robust, fragile], patches)

    @pytest.mark.parametrize("ratio", [math.nan, math.inf, -math.inf, 0.0, -0.5])
    def test_a_ratio_not_finite_and_above_0_raises_naming_it_before_any_fit(self, monkeypatch, ratio):
        # inf once raised OverflowError and NaN a bare ValueError, from the
        # ratio's budget in the fit; 0.0 and -0.5 fitted at a budget of 1
        calls = select_ranks_calls(monkeypatch)
        records = [
            SensitivityRecord(0, 0.5, self.PREDICTIONS, {}),
            SensitivityRecord(2, 0.5, {"tt": {0.5: 1e-3}, "tr": {0.5: 1e-3, ratio: 2e-3}}, {}),
        ]
        patches = [flat_patch(pid, 4096) for pid in range(4)]
        problem = "not finite" if not math.isfinite(ratio) else "not above 0"
        with pytest.raises(ValueError, match=f"patch 2: a prediction of tr at ratio {ratio}, which is {problem}$"):
            build_options(records, patches)
        assert calls == []

    @pytest.mark.parametrize("exclude, compressible", [((), True), (("ffn",), False)])
    def test_excluded_kinds_decide_compressibility(self, policy, exclude, compressible):
        record = SensitivityRecord(0, 0.5, self.PREDICTIONS, {})
        policy(EXCLUDED_KINDS=exclude)
        (opt,) = build_options([record], one_patch("ffn"))
        assert opt.compressible == compressible
        assert len(opt.candidates) == (2 if compressible else 0)


def test_planner_values_are_slotted():
    # no per-instance dict on the options, their views, candidates or entries
    options = plan_options([(64, 128)])
    plan = allocate(options, 0.5)
    view = next(iter(options))
    for value in (options, view, view.candidates[0], plan.entries[0]):
        assert not hasattr(value, "__dict__")
    with pytest.raises(TypeError, match="unhashable"):
        hash(view.candidates[0])


def test_uniform_compresses_pinned_patches():
    # pinning binds the sensitivity modes only; exclusion binds every mode
    options = plan_options(**MIXED)
    plan = allocate(options, 0.5, mode="uniform", single_family="tt")
    assert [e.patch_id for e in plan.entries if e.family == "dense"] == [10, 11]
    assert all(plan.entries[pid].family == "tt" for pid in (8, 9))


@pytest.mark.parametrize("family", FAMILIES)
def test_uniform_degradation_interpolates_the_family_curve(family):
    # plan_options predicts 0.001 / ratio on RATIO_GRID; the curve ends at (1, 0)
    options = plan_options([(128, 128), (128, 128)])
    for target, (r0, d0), (r1, d1) in [
        (0.6, (0.5, 0.002), (1.0, 0.0)),
        (0.3, (0.25, 0.001 / 0.25), (0.35, 0.001 / 0.35)),
    ]:
        plan = allocate(options, target, mode="uniform", single_family=family)
        ratio = plan.entries[0].target_ratio
        assert r0 < ratio < r1
        expected = d0 + (ratio - r0) / (r1 - r0) * (d1 - d0)
        assert all(e.predicted_degradation == pytest.approx(expected, rel=1e-12) for e in plan.entries)


def test_uniform_degradations_equal_np_interp_per_patch_bitwise():
    # patches on two shared grids, one on its own grid, one with only another
    # family, and one with no candidates: each value is np.interp of its own
    # curve, at ratios left of every curve, on a point, between points and at 1
    rng = np.random.default_rng(5)
    grids = [RATIO_GRID, RATIO_GRID, (0.6, 0.3, 0.2), (0.6, 0.3, 0.2), (0.45, 0.05), RATIO_GRID, ()]
    rows = []
    for pid, grid in enumerate(grids):
        family = "tr" if pid == 5 else "tt"
        candidates = [Candidate(family, r, 1, float(rng.uniform(0.0, 0.1))) for r in rng.permutation(grid).tolist()]
        rows.append((flat_patch(pid, 64), candidates))
    options = pack_options(rows)
    for ratio in (0.01, 0.05, 0.15, 0.2, 0.27, 0.3, 0.5, 0.55, 0.6, 0.99, 1.0):
        got = planner._interp_degradations(options, "tt", ratio)
        for opt, value in zip(options, got, strict=True):
            curve = sorted((c.ratio, c.predicted_degradation) for c in opt.candidates if c.family == "tt")
            xs, ys = [r for r, _ in curve] + [1.0], [d for _, d in curve] + [0.0]
            want = float(np.interp(ratio, xs, ys)) if curve else 0.0
            assert np.float64(value).tobytes() == np.float64(want).tobytes(), (opt.patch_id, ratio)


@pytest.mark.parametrize("mode", MODES)
def test_entries_carry_the_options_patches(mode):
    options = plan_options(**MIXED)
    plan = allocate(options, 0.5, mode=mode, single_family="tt")
    assert all(e.patch is o.patch for e, o in zip(plan.entries, options, strict=True))
    patch_fields = {f.name for f in dataclasses.fields(Patch)} | {"dense_params"}
    for cls in (PatchOptions, PlanEntry):
        assert patch_fields.isdisjoint(f.name for f in dataclasses.fields(cls))


class TestAllocateArguments:
    @pytest.mark.parametrize("target", [0.0, 1.5])
    def test_target_outside_unit_interval(self, target):
        with pytest.raises(ValueError, match="target ratio"):
            allocate(plan_options([(64, 64)]), target)

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown planner mode"):
            allocate(plan_options([(64, 64)]), 0.5, mode="greedy")

    def test_no_options(self):
        with pytest.raises(ValueError, match="no patches"):
            allocate(build_options([], []), 0.5)

    def test_duplicate_patch_ids(self):
        rows = unpack_options(plan_options([(64, 128)]))
        with pytest.raises(ValueError, match="duplicate patch id 0"):
            allocate(pack_options(rows + rows[:1]), 0.5)

    @pytest.mark.parametrize("mode", ["uniform", "sensitivity", "sensitivity_mixed"])
    def test_unknown_family(self, mode):
        with pytest.raises(ValueError, match="unknown family 'TT'"):
            allocate(plan_options([(128, 128)]), 0.5, mode=mode, single_family="TT")


def reference_greedy(options, target_ratio, mode, single_family) -> CompressionPlan:
    """The greedy of ``allocate`` as a full rescan: every step scores every
    candidate of every patch, read through the options' views, and takes
    the smallest key."""
    usable = {
        o.patch_id: [c for c in o.candidates if mode == "sensitivity_mixed" or c.family == single_family]
        for o in options
        if o.compressible and not o.pinned
    }

    current = {o.patch_id: None for o in options}
    params_now = {o.patch_id: o.patch.dense_params for o in options}
    deg_now = {o.patch_id: 0.0 for o in options}
    dense_total = sum(o.patch.dense_params for o in options)
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
                key = (-score, pid, FAMILIES.index(cand.family), -cand.ratio)
                if best_key is None or key < best_key:
                    best_key = key
                    best = (pid, cand)
        if best is None:
            pinned = sum(o.compressible and o.pinned for o in options)
            raise InfeasibleBudgetError(
                f"no candidate steps left at {total}/{dense_total} params "
                f"(target ratio {target_ratio}; {pinned} compressible patches pinned dense)",
                best_achievable=total / dense_total if dense_total else 1.0,
            )
        pid, cand = best
        total -= params_now[pid] - cand.params
        params_now[pid] = cand.params
        deg_now[pid] = cand.predicted_degradation
        current[pid] = cand

    entries = []
    for o in sorted(options, key=lambda o: o.patch_id):
        c = current[o.patch_id]
        if c is None:
            entries.append(PlanEntry(o.patch, "dense", None, None, o.patch.dense_params, 0.0))
        else:
            entries.append(PlanEntry(o.patch, c.family, c.ratio, c.ranks, c.params, c.predicted_degradation))
    return CompressionPlan(
        mode=mode,
        target_ratio=target_ratio,
        dense_params=dense_total,
        achieved_params=total,
        entries=entries,
    )


def plan_or_error(plan_fn, options, target, mode, family):
    """The plan, or the message and best_achievable of the InfeasibleBudgetError."""
    try:
        return plan_fn(options, target, mode=mode, single_family=family)
    except InfeasibleBudgetError as exc:
        return str(exc), exc.best_achievable


@st.composite
def patch_options(draw):
    """A few patches, each with its candidates at distinct (family, ratio)
    pairs; the candidates share a few (params, degradation) pairs, so
    scores tie across patches, families and ratios. A degradation below the
    current one makes a step's score inf."""
    steps = draw(
        st.lists(
            st.tuples(st.sampled_from([8, 16, 24, 32, 48, 64, 96]), st.sampled_from([0.0, 1e-3, 2e-3, 4e-3, 8e-3])),
            min_size=1,
            max_size=4,
        )
    )
    candidates = st.builds(
        lambda family, ratio, step: Candidate(family, ratio, *step),
        st.sampled_from(FAMILIES),
        st.sampled_from(RATIO_GRID),
        st.sampled_from(steps),
    )
    n = draw(st.integers(1, 8))
    pids = draw(st.permutations(range(0, 3 * n, 3)))
    return pack_options(
        [
            (
                flat_patch(pid, draw(st.sampled_from([32, 64]))),
                draw(st.lists(candidates, max_size=6, unique_by=lambda c: (c.family, c.ratio))),
                draw(st.booleans()),
                draw(st.booleans()),
            )
            for pid in pids
        ]
    )


class TestGreedyMerge:
    @settings(max_examples=400, deadline=None)
    @given(
        options=patch_options(),
        target=st.sampled_from([0.05, 0.2, 0.4, 0.5, 0.7, 0.9, 1.0]),
        mode=st.sampled_from(["sensitivity_mixed", "sensitivity"]),
        family=st.sampled_from(FAMILIES),
    )
    def test_merge_equals_the_full_rescan(self, options, target, mode, family):
        expected = plan_or_error(reference_greedy, options, target, mode, family)
        assert plan_or_error(allocate, options, target, mode, family) == expected

    @pytest.mark.parametrize("mode", ["sensitivity_mixed", "sensitivity"])
    def test_tied_scores_break_like_the_full_rescan(self, mode):
        # identical patches tie on score (lower id wins), and within a patch
        # tt at two ratios ties with tucker at one (tucker, then larger ratio)
        cands = [
            Candidate("tt", 0.25, 16, 4e-3),
            Candidate("tucker", 0.5, 32, 2e-3),
            Candidate("tt", 0.5, 32, 2e-3),
            Candidate("tt", 0.35, 32, 2e-3),
        ]
        options = pack_options([(flat_patch(pid, 64), list(cands)) for pid in (5, 2, 7)])
        for target in (0.9, 0.7, 0.4, 0.25):
            expected = plan_or_error(reference_greedy, options, target, mode, "tt")
            assert plan_or_error(allocate, options, target, mode, "tt") == expected
        plan = allocate(options, 0.7, mode=mode, single_family="tt")
        assert [(e.patch_id, e.family, e.target_ratio) for e in plan.entries] == [
            (2, "tucker" if mode == "sensitivity_mixed" else "tt", 0.5),
            (5, "tucker" if mode == "sensitivity_mixed" else "tt", 0.5),
            (7, "dense", None),
        ]

    @pytest.mark.parametrize(
        "cands, chosen",
        [
            # family order first, whatever either saves
            ([Candidate("tt", 0.5, 16, 0.0), Candidate("tucker", 0.25, 48, 0.0)], ("tucker", 0.25, 48)),
            # then the larger ratio
            ([Candidate("tt", 0.25, 16, 0.0), Candidate("tt", 0.5, 48, -1e-3)], ("tt", 0.5, 48)),
        ],
    )
    def test_infinite_scores_tie_on_family_then_ratio(self, cands, chosen):
        # a step that adds no degradation scores inf, and inf == inf is a tie
        options = pack_options([(flat_patch(0, 64), cands)])
        plan = allocate(options, 0.9, mode="sensitivity_mixed")
        assert plan == reference_greedy(options, 0.9, "sensitivity_mixed", "tt")
        (entry,) = plan.entries
        assert (entry.family, entry.target_ratio, entry.params) == chosen

    @pytest.mark.parametrize("degradation", [2e-3, 0.0], ids=["finite", "inf"])
    @pytest.mark.parametrize(
        "mode, low, high",
        [("sensitivity_mixed", a, b) for a in FAMILIES for b in FAMILIES] + [("sensitivity", f, f) for f in FAMILIES],
    )
    def test_a_tie_between_patches_steps_the_lower_id_first(self, mode, low, high, degradation):
        # patch 8 ties patch 3 on score at a larger ratio and, in some cases,
        # an earlier family: across patches only the id counts
        options = pack_options(
            [
                (flat_patch(8, 64), [Candidate(high, 0.5, 32, degradation)]),
                (flat_patch(3, 64), [Candidate(low, 0.25, 32, degradation)]),
            ]
        )
        plan = allocate(options, 0.75, mode=mode, single_family=low)  # one step: 128 -> 96 params
        assert plan == reference_greedy(options, 0.75, mode, low)
        assert [(e.patch_id, e.family) for e in plan.entries] == [(3, low), (8, "dense")]

    @pytest.mark.parametrize("mode", ["sensitivity_mixed", "sensitivity"])
    def test_a_later_step_scoring_higher_stays_behind_its_chain(self, mode):
        # patch 1 steps 64 -> 48 params at score 16 / 0.005 = 3200, then
        # 48 -> 16 at 32 / (0.015 - 0.005), which rounds above 3200. Patch 4
        # ties the first step, so it ties the chain's running max too: patch
        # 1 takes both its steps first, and its second never precedes its first
        assert 32 / (0.015 - 0.005) > 16 / 0.005 == 48 / 0.015
        options = pack_options(
            [
                (flat_patch(1, 64), [Candidate("tt", 0.5, 48, 0.005), Candidate("tt", 0.25, 16, 0.015)]),
                (flat_patch(4, 64), [Candidate("tt", 0.5, 48, 0.005)]),
            ]
        )
        for target in (0.9, 0.8, 0.625, 0.5):
            expected = plan_or_error(reference_greedy, options, target, mode, "tt")
            assert plan_or_error(allocate, options, target, mode, "tt") == expected
        plan = allocate(options, 0.625, mode=mode, single_family="tt")  # two steps: 128 -> 80 params
        assert [(e.patch_id, e.family, e.target_ratio) for e in plan.entries] == [(1, "tt", 0.25), (4, "dense", None)]

    @pytest.mark.parametrize("mode", ["sensitivity_mixed", "sensitivity"])
    def test_plan_workload_equals_the_full_rescan(self, mode):
        # perfbench's plan workload on seed 1: its own target, an easy one and
        # one below every plan, whose error must match too
        work = WORKLOADS["plan"]({name: importlib.import_module(f"minima.{name}") for name in MODULES}, 1)
        work.prepare(*work.setup())
        options = build_options(work.records, work.patches)
        for target in (0.9, work.targets[mode], 0.3):
            expected = plan_or_error(reference_greedy, options, target, mode, "tt")
            assert plan_or_error(allocate, options, target, mode, "tt") == expected


def reference_walk(options, row, columns, dense):
    """One patch's chain of best next steps by the rule of ``_walks``, in
    pure Python: from ``dense`` params, each step takes the first column of
    ``columns`` with the highest score among those below the current params.
    Gives ``(column, params saved, running max of -score)`` per step."""
    params, predicted = options.params[row].tolist(), options.predicted[row].tolist()
    now_params, now_deg, top, steps = dense, 0.0, -math.inf, []
    while True:
        best = None
        for j in range(columns.start, columns.stop):
            if params[j] >= now_params:
                continue
            added = predicted[j] - now_deg
            score = math.inf if added <= 0 else (now_params - params[j]) / added
            if best is None or score > best[1]:
                best = j, score
        if best is None:
            return steps
        j, score = best
        top = max(top, -score)
        steps.append((j, now_params - params[j], top))
        now_params, now_deg = params[j], predicted[j]


def scale_inputs(n_patches):
    """Patches and records as ``bench/plan_scale.py`` makes them: 64 x 64
    patches of 256 x 256 layers, and predictions that grow as the ratio
    shrinks, above the cap for one patch in eight."""
    rng = np.random.default_rng(n_patches)
    patches = []
    for pid in range(n_patches):
        layer, tile = divmod(pid, 16)
        r0, c0 = 64 * (tile // 4), 64 * (tile % 4)
        kind = ("attention_proj", "ffn")[layer % 2]
        patches.append(Patch(pid, f"layer{layer}.{kind}", layer, kind, (r0, r0 + 64), (c0, c0 + 64)))
    n_fragile = n_patches // 8
    levels = rng.permutation(
        np.concatenate([np.geomspace(1e-3, 1.5e-2, n_patches - n_fragile), np.geomspace(3e-2, 8e-2, n_fragile)])
    )
    factor = {"tucker": 1.25, "tt": 1.0, "tr": 1.1}
    records = []
    for p, level in zip(patches, levels.tolist()):
        jitter = np.exp(0.03 * rng.standard_normal((len(FAMILIES), len(RATIO_GRID))))
        predictions = {
            f: {r: level * factor[f] * (0.5 / r) ** 2 * jitter[i, j] for j, r in enumerate(RATIO_GRID)}
            for i, f in enumerate(FAMILIES)
        }
        records.append(SensitivityRecord(p.patch_id, 0.0, predictions, {}))
    return records, patches


class TestWalks:
    @settings(max_examples=400, deadline=None)
    @given(
        options=patch_options(),
        mode=st.sampled_from(["sensitivity_mixed", "sensitivity"]),
        family=st.sampled_from(FAMILIES),
    )
    def test_steps_are_each_patch_walked_alone(self, options, mode, family):
        columns = planner._columns(options.keys, mode, family)
        dense = np.array([p.dense_params for p in options.patches], dtype=np.int64)
        live = np.flatnonzero(options.compressible & ~options.pinned)
        rows, cols, saved, keys = planner._walks(options, live, columns, dense[live])
        by_patch = np.argsort(rows, kind="stable")  # round order is (step, patch); the chains' is (patch, step)
        rows, cols, saved, keys = rows[by_patch], cols[by_patch], saved[by_patch], keys[by_patch]
        chains = [reference_walk(options, i, columns, int(dense[i])) for i in live.tolist()]
        steps = [step for chain in chains for step in chain]
        assert rows.tolist() == [i for i, chain in enumerate(chains) for _ in chain]
        assert cols.tolist() == [j for j, _, _ in steps]
        assert saved.tolist() == [s for _, s, _ in steps]
        assert keys.tobytes() == np.array([k for _, _, k in steps], dtype=np.float64).tobytes()

    def test_the_mixed_plan_holds_under_700_bytes_per_patch(self):
        # the walk keeps each round's steps, not (patches x columns) tables of
        # them: the traced peak was 931 bytes per patch at 1,536 patches
        n_patches = 1536
        options = build_options(*scale_inputs(n_patches))
        allocate(options, 0.45, mode="sensitivity_mixed")  # fills the free lists first
        tracemalloc.start()
        try:
            allocate(options, 0.45, mode="sensitivity_mixed")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / n_patches < 700


class TestNonFinitePrediction:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_raises_naming_the_patch(self, mode, value):
        options = plan_options([(128, 128)])
        options.predicted[2, 5] = value
        family, ratio = options.keys[5]
        with pytest.raises(ValueError, match=f"patch 2: predicted degradation {value} of {family} at ratio {ratio} "):
            allocate(options, 0.5, mode=mode, single_family="tt")


def select_ranks_calls(monkeypatch):
    """Record the arguments of every ``select_ranks`` call the planner makes."""
    calls = []
    select_ranks = planner.select_ranks

    def counting(mode_shape, family, target):
        calls.append((mode_shape, family, target))
        return select_ranks(mode_shape, family, target)

    monkeypatch.setattr(planner, "select_ranks", counting)
    return calls


class TestRankFitMemo:
    def test_build_options_fits_each_geometry_family_ratio_once(self, monkeypatch):
        # 64 x 64 and 64 x 32 patches, and two excluded embedding patches
        model_shapes = [(128, 128), (64, 96), (64, 128)]
        calls = select_ranks_calls(monkeypatch)
        options = plan_options(model_shapes, kinds=["ffn", "attention_proj", "embedding"])
        assert {(o.patch.rows, o.patch.cols) for o in options if o.compressible} == {(64, 64), (64, 32)}
        assert len(calls) == len(set(calls)) == 2 * len(FAMILIES) * len(RATIO_GRID)

        calls.clear()
        again = plan_options(model_shapes, kinds=["ffn", "attention_proj", "embedding"])
        assert unpack_options(again) == unpack_options(options)
        assert len(calls) == 2 * len(FAMILIES) * len(RATIO_GRID)  # no memo outlives a call

    @pytest.mark.parametrize("family", FAMILIES)
    def test_uniform_fits_each_geometry_ratio_once(self, monkeypatch, family):
        options = plan_options([(128, 128), (128, 128)])
        calls = select_ranks_calls(monkeypatch)
        ratios = []
        selection = planner._uniform_selection

        def recording(options, family, ratio):
            ratios.append(ratio)
            return selection(options, family, ratio)

        monkeypatch.setattr(planner, "_uniform_selection", recording)
        allocate(options, 0.3, mode="uniform", single_family=family)
        # eight 64 x 64 patches, 46 selection passes over 46 distinct ratios:
        # the bisection carries lo's selection, so no pass repeats a ratio
        assert len(ratios) == len(set(ratios)) == 46
        assert len(calls) == 46

        calls.clear()
        allocate(options, 0.3, mode="uniform", single_family=family)
        assert len(calls) == 46


@pytest.mark.parametrize("family", FAMILIES)
class TestUniformMixedGeometry:
    # 64 x 64 and 64 x 32 patches, a ragged 36 x 64 edge and an excluded embedding
    MODEL = dict(
        shapes=[(128, 128), (128, 96), (100, 128), (64, 128)],
        kinds=["ffn", "attention_proj", "ffn", "embedding"],
    )
    GEOMETRIES = {(64, 64), (64, 32), (36, 64)}

    def test_entries_are_the_fits_at_the_plan_ratio(self, family):
        options = plan_options(**self.MODEL)
        assert {(o.patch.rows, o.patch.cols) for o in options if o.compressible} == self.GEOMETRIES
        for target in (0.5, 0.35):
            plan = allocate(options, target, mode="uniform", single_family=family)
            ratios = {e.target_ratio for e in plan.entries if e.family != "dense"}
            assert len(ratios) == 1
            ratio = ratios.pop()
            compressed = set()
            for opt, entry in zip(sorted(options, key=lambda o: o.patch_id), plan.entries):
                geometry = (opt.patch.rows, opt.patch.cols)
                fit = planner._fit(geometry, family, ratio) if opt.compressible else None
                if fit is None:
                    assert (entry.family, entry.ranks, entry.params) == ("dense", None, opt.patch.dense_params)
                else:
                    assert (entry.family, entry.ranks, entry.params) == (family, *fit)
                    compressed.add(geometry)
            assert compressed == self.GEOMETRIES
            assert plan.achieved_params == sum(e.params for e in plan.entries)
            assert plan.achieved_ratio <= target

    def test_rank_one_floor_counts_each_geometry_once(self, monkeypatch, family):
        options = plan_options(**self.MODEL)
        formula, floor = planner.param_count_formula, planner._rank_one_floor
        in_floor, mode_shapes = [], []

        def counting(family, mode_shape, ranks):
            if in_floor:
                mode_shapes.append(mode_shape)
            return formula(family, mode_shape, ranks)

        def flagged(*args):
            in_floor.append(True)
            try:
                return floor(*args)
            finally:
                in_floor.pop()

        monkeypatch.setattr(planner, "param_count_formula", counting)
        monkeypatch.setattr(planner, "_rank_one_floor", flagged)
        allocate(options, 0.5, mode="uniform", single_family=family)
        assert sorted(mode_shapes) == sorted(default_mode_shape(*g)[0] for g in self.GEOMETRIES)
