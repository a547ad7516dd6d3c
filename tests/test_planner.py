import numpy as np
import pytest

from minima.errors import InfeasibleBudgetError
from minima.model import ModelContainer
from minima.planner import Candidate, allocate, build_options
from minima.sensitivity import SensitivityRecord, partition_patches
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
            assert plan.dense_params == sum(o.dense_params for o in options)
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
            assert e.layer_name == f"w{2 + (e.patch_id - 8) // 2}"
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
            smallest += min((c.params for c in usable), default=o.dense_params)
        with pytest.raises(InfeasibleBudgetError) as exc:
            allocate(options, 0.001, mode=mode, single_family="tt")
        assert exc.value.best_achievable == smallest / sum(o.dense_params for o in options)


@pytest.mark.parametrize("family", FAMILIES)
def test_sensitivity_uses_only_its_family(family):
    plan = allocate(plan_options(**MIXED), 0.5, mode="sensitivity", single_family=family)
    assert {e.family for e in plan.entries} == {family, "dense"}


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
