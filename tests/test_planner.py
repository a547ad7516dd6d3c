import numpy as np
import pytest

from minima.errors import InfeasibleBudgetError
from minima.model import ModelContainer
from minima.planner import allocate, build_options
from minima.sensitivity import SensitivityRecord, partition_patches
from minima.tn_decompositions import FAMILIES, default_mode_shape, maximal_ranks, param_count_formula

RATIO_GRID = (0.5, 0.35, 0.25, 0.15)


def plan_options(shapes, patch_size=(64, 64)):
    """Planner options for ffn layers of the given shapes, with synthetic predictions."""
    model = ModelContainer()
    for i, shape in enumerate(shapes):
        model.add(f"w{i}", np.ones(shape), layer_index=i, submodule_kind="ffn")
    patches = partition_patches(model, patch_size)
    curve = {ratio: 0.002 * 0.5 / ratio for ratio in RATIO_GRID}
    records = [
        SensitivityRecord(p.patch_id, 0.5, {f: dict(curve) for f in FAMILIES}, {}) for p in patches
    ]
    return build_options(records, patches)


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
