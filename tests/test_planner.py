import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minima import planner
from minima.errors import InfeasibleBudgetError
from minima.model import ModelContainer
from minima.planner import MODES, Candidate, CompressionPlan, PatchOptions, PlanEntry, allocate, build_options
from minima.sensitivity import Patch, SensitivityRecord, partition_patches
from minima.tn_decompositions import FAMILIES, default_mode_shape, maximal_ranks, param_count_formula

RATIO_GRID = (0.5, 0.35, 0.25, 0.15)


def plan_options(shapes, patch_size=(64, 64), kinds=None, fragile=()):
    """Planner options for layers of the given shapes, with synthetic predictions.

    Layers are ffn unless ``kinds`` names their kinds; the layers whose
    indices are in ``fragile`` predict deviations above the default cap.
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
    def test_pinned_only_when_every_prediction_exceeds_the_cap(self, cap, pinned):
        record = SensitivityRecord(0, 0.5, self.PREDICTIONS, {})
        (opt,) = build_options([record], one_patch(), degradation_cap=cap)
        assert opt.pinned == pinned
        assert [(c.family, c.ratio) for c in opt.candidates] == [("tt", 0.5), ("tt", 0.25)]

    def test_patch_without_a_record_is_compressible_with_no_candidates(self):
        (opt,) = build_options([SensitivityRecord(7, 0.5, self.PREDICTIONS, {})], one_patch())
        assert (opt.compressible, opt.pinned, opt.candidates) == (True, False, [])
        (entry,) = allocate([opt], 1.0, mode="sensitivity").entries
        assert (entry.family, entry.params) == ("dense", 4096)
        with pytest.raises(InfeasibleBudgetError, match="; 0 compressible patches pinned dense"):
            allocate([opt], 0.5, mode="sensitivity")
        # uniform compresses by geometry; with no curve the prediction is 0
        (entry,) = allocate([opt], 0.5, mode="uniform").entries
        assert entry.family == "tt" and entry.params <= 2048
        assert entry.predicted_degradation == 0.0

    @pytest.mark.parametrize("exclude, compressible", [((), True), (("ffn",), False)])
    def test_exclude_kinds_decides_compressibility(self, exclude, compressible):
        record = SensitivityRecord(0, 0.5, self.PREDICTIONS, {})
        (opt,) = build_options([record], one_patch("ffn"), exclude_kinds=exclude)
        assert opt.compressible == compressible
        assert len(opt.candidates) == (2 if compressible else 0)


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
            allocate([], 0.5)

    def test_duplicate_patch_ids(self):
        options = plan_options([(64, 128)])
        with pytest.raises(ValueError, match="duplicate patch id 0"):
            allocate(options + options[:1], 0.5)

    @pytest.mark.parametrize("mode", ["uniform", "sensitivity", "sensitivity_mixed"])
    def test_unknown_family(self, mode):
        with pytest.raises(ValueError, match="unknown family 'TT'"):
            allocate(plan_options([(128, 128)]), 0.5, mode=mode, single_family="TT")


def reference_greedy(options, target_ratio, mode, single_family) -> CompressionPlan:
    """The greedy of ``allocate`` as a full rescan: every step scores every
    candidate of every patch and takes the smallest key."""
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

    entries = [
        planner._dense_entry(o.patch) if current[o.patch_id] is None else planner._entry(o.patch, current[o.patch_id])
        for o in sorted(options, key=lambda o: o.patch_id)
    ]
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
    """A few patches; their candidates share a few (params, degradation)
    pairs, so scores tie across patches, families and ratios. A degradation
    below the current one makes a step's score inf."""
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
    return [
        PatchOptions(
            patch=flat_patch(pid, draw(st.sampled_from([32, 64]))),
            candidates=draw(st.lists(candidates, max_size=6)),
            compressible=draw(st.booleans()),
            pinned=draw(st.booleans()),
        )
        for pid in pids
    ]


class TestHeapGreedy:
    @settings(max_examples=400, deadline=None)
    @given(
        options=patch_options(),
        target=st.sampled_from([0.05, 0.2, 0.4, 0.5, 0.7, 0.9, 1.0]),
        mode=st.sampled_from(["sensitivity_mixed", "sensitivity"]),
        family=st.sampled_from(FAMILIES),
    )
    def test_equals_the_full_rescan(self, options, target, mode, family):
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
        options = [PatchOptions(flat_patch(pid, 64), list(cands)) for pid in (5, 2, 7)]
        for target in (0.9, 0.7, 0.4, 0.25):
            expected = plan_or_error(reference_greedy, options, target, mode, "tt")
            assert plan_or_error(allocate, options, target, mode, "tt") == expected
        plan = allocate(options, 0.7, mode=mode, single_family="tt")
        assert [(e.patch_id, e.family, e.target_ratio) for e in plan.entries] == [
            (2, "tucker" if mode == "sensitivity_mixed" else "tt", 0.5),
            (5, "tucker" if mode == "sensitivity_mixed" else "tt", 0.5),
            (7, "dense", None),
        ]

        # equal keys within one patch: the candidate listed first wins
        twins = [PatchOptions(flat_patch(0, 64), [Candidate("tt", 0.5, 32, 2e-3), Candidate("tt", 0.5, 48, 1e-3)])]
        for target in (0.8, 0.4):
            expected = plan_or_error(reference_greedy, twins, target, mode, "tt")
            assert plan_or_error(allocate, twins, target, mode, "tt") == expected
        assert allocate(twins, 0.8, mode=mode, single_family="tt").achieved_params == 32

    def test_each_step_rescores_only_its_patch(self, monkeypatch):
        options = plan_options([(256, 256)] * 4)
        scored = []
        best_step = planner._best_step

        def recording(pid, cands, params, deg):
            scored.append(pid)
            return best_step(pid, cands, params, deg)

        monkeypatch.setattr(planner, "_best_step", recording)
        plan = allocate(options, 0.3)
        assert all(e.family != "dense" for e in plan.entries)
        # each patch is scored once to fill the heap, then once after each of
        # its own steps; a step lowers its patch's params, so each candidate
        # is taken at most once
        assert sorted(scored[: len(options)]) == [o.patch_id for o in options]
        assert len(scored) - len(options) <= sum(len(o.candidates) for o in options)


class TestNonFinitePrediction:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_raises_naming_the_patch(self, mode, value):
        options = plan_options([(128, 128)])
        bad = options[2].candidates[5]
        options[2].candidates[5] = dataclasses.replace(bad, predicted_degradation=value)
        with pytest.raises(ValueError, match=f"patch 2: predicted degradation {value} of {bad.family}"):
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
        assert again == options
        assert len(calls) == 2 * len(FAMILIES) * len(RATIO_GRID)  # no memo outlives a call

    @pytest.mark.parametrize("family", FAMILIES)
    def test_uniform_fits_each_geometry_ratio_once(self, monkeypatch, family):
        options = plan_options([(128, 128), (128, 128)])
        calls = select_ranks_calls(monkeypatch)
        ratios = []
        selection = planner._uniform_selection

        def recording(options, family, ratio, fit):
            ratios.append(ratio)
            return selection(options, family, ratio, fit)

        monkeypatch.setattr(planner, "_uniform_selection", recording)
        allocate(options, 0.3, mode="uniform", single_family=family)
        # eight 64 x 64 patches, 47 selection passes over 46 distinct ratios
        assert len(ratios) == 47
        assert len(calls) == len(set(ratios)) == 46

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
