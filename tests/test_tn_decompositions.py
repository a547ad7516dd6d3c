import math

import numpy as np
import pytest

import minima.tensor_core as tc
import minima.tn_decompositions as tn
from minima.errors import InfeasibleBudgetError, NumericsError, RankError, ShapeError
from minima.tensor_core import ParamBudget, as_tensor, full_svd, mode_dot, relative_error, truncated_svd
from minima.tn_decompositions import (
    FAMILIES,
    CompressedLayer,
    RankSpec,
    balanced_split,
    compress_matrix,
    decompose,
    default_mode_shape,
    layer_to_matrix,
    maximal_ranks,
    param_count,
    param_count_formula,
    ratio_budget,
    reconstruct,
    select_ranks,
    tr_decompose,
    tr_feasible,
    tt_decompose,
    tucker_decompose,
)


def stored_entry_count(layer):
    """Oracle: literally count scalars in every payload array."""
    arrays = []
    if layer.matrix is not None:
        arrays.append(layer.matrix)
    if layer.core is not None:
        arrays.append(layer.core)
    arrays.extend(layer.factors)
    arrays.extend(layer.cores)
    return sum(a.size for a in arrays)


def bitwise_equal(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def tensordot_chain(layer):
    """TT / TR reconstruction as a chain of ``np.tensordot`` over each bond."""
    chain = layer.cores[0]
    for core in layer.cores[1:]:
        chain = np.tensordot(chain, core, axes=(chain.ndim - 1, 0))
    if layer.family == "tt":
        return chain.reshape(layer.mode_shape)
    return np.trace(chain, axis1=0, axis2=chain.ndim - 1)


def reference_ranks_feasible(family, shape, ranks, caps) -> bool:
    """Rank feasibility as the search tested it when every trial went
    through the validating ``tr_feasible``."""
    if any(r > c for r, c in zip(ranks, caps)):
        return False
    if family == "tucker":
        return True
    if family == "tt":
        left = 1
        for k, r in enumerate(ranks):
            if r > left * shape[k]:
                return False
            left = r
        return True
    try:
        return tuple(tr_feasible(shape, ranks)) == tuple(ranks)
    except RankError:
        return False


def reference_select_ranks(shape, family, budget):
    """The rank search with each trial validated by the public
    ``param_count_formula`` and ``tr_feasible``: the ranks, or the
    ``best_achievable`` of an infeasible budget as ``("infeasible", n)``."""
    caps = maximal_ranks(family, shape)
    npos = len(caps)
    if budget >= math.prod(shape):
        return caps
    floor_cost = param_count_formula(family, shape, tuple([1] * npos))
    if floor_cost > budget:
        return ("infeasible", floor_cost)

    def fits(ranks) -> bool:
        return reference_ranks_feasible(family, shape, ranks, caps) and param_count_formula(family, shape, ranks) <= budget

    uniform = 1
    while fits(tuple([uniform + 1] * npos)):
        uniform += 1
    ranks = [uniform] * npos
    changed = True
    while changed:
        changed = False
        for i in range(npos):
            trial = list(ranks)
            trial[i] += 1
            if fits(tuple(trial)):
                ranks = trial
                changed = True
    return tuple(ranks)


class TestModeShapes:
    def test_balanced_splits(self):
        assert balanced_split(64) == (8, 8)
        assert balanced_split(128) == (8, 16)
        assert balanced_split(6) == (2, 3)
        assert balanced_split(7) == (7,)
        assert balanced_split(1) == (1,)

    def test_default_mode_shape(self):
        shape, row_modes = default_mode_shape(64, 64)
        assert shape == (8, 8, 8, 8) and row_modes == 2
        shape, row_modes = default_mode_shape(7, 64)
        assert shape == (7, 8, 8) and row_modes == 1


class TestTucker:
    def test_full_ranks_exact(self, rng):
        t = rng.standard_normal((4, 3, 5))
        layer = tucker_decompose(t, (4, 3, 5), hooi_iters=2)
        assert relative_error(t, reconstruct(layer)) <= 1e-10

    def test_rank_one_tensor(self):
        t = np.ones((2, 2, 2))
        layer = tucker_decompose(t, (1, 1, 1))
        assert relative_error(t, reconstruct(layer)) <= 1e-12

    def test_hooi_improves_on_hosvd(self, rng):
        t = rng.standard_normal((4, 4, 4))
        hosvd_only = tucker_decompose(t, (2, 2, 2), hooi_iters=0)
        refined = tucker_decompose(t, (2, 2, 2), hooi_iters=5)
        err0 = relative_error(t, reconstruct(hosvd_only))
        err5 = relative_error(t, reconstruct(refined))
        assert err5 <= err0 + 1e-12

    def test_sweep_monotonicity(self, rng):
        t = rng.standard_normal((4, 4, 4))
        errs = [
            relative_error(t, reconstruct(tucker_decompose(t, (2, 3, 2), hooi_iters=i)))
            for i in range(5)
        ]
        for a, b in zip(errs, errs[1:]):
            assert b <= a + 1e-12

    def test_rank_out_of_range(self, rng):
        with pytest.raises(RankError):
            tucker_decompose(rng.standard_normal((3, 3)), (4, 2))

    def test_exact_fit_above_multilinear_rank(self, rng):
        # exactly low multilinear rank, compressed above that rank but below
        # the maximal ranks: the sweeps refine a fit that is already exact
        cases = [
            ((6, 6, 6), (2, 3, 2), (3, 4, 3)),
            ((4, 5, 6), (1, 2, 2), (2, 3, 4)),
            ((3, 4, 3, 4), (1, 2, 1, 2), (2, 3, 2, 3)),
            ((8, 8, 8, 8), (2, 2, 2, 2), (3, 4, 3, 4)),
        ]
        for shape, mlrank, ranks in cases:
            for _ in range(4):
                t = rng.standard_normal(mlrank)
                for k, n in enumerate(shape):
                    t = mode_dot(t, rng.standard_normal((mlrank[k], n)), k)
                for iters in (1, 3):
                    layer = tucker_decompose(t, ranks, hooi_iters=iters)
                    assert relative_error(t, reconstruct(layer)) <= 1e-10, (shape, ranks, iters)

    def test_guard_raises_when_a_sweep_increases_error(self, rng, monkeypatch):
        t = rng.standard_normal((4, 4, 4))
        leading = tn._orthonormal_factor
        calls = []

        def trailing_in_sweeps(unfolding, rank):
            calls.append(rank)
            if len(calls) <= t.ndim:  # HOSVD initialization
                return leading(unfolding, rank)
            return np.linalg.svd(unfolding)[0][:, -rank:]

        monkeypatch.setattr(tn, "_orthonormal_factor", trailing_in_sweeps)
        with pytest.raises(NumericsError, match="relative residual energy"):
            tucker_decompose(t, (2, 2, 2), hooi_iters=1)

    def test_core_is_the_factors_projection_bitwise(self, rng):
        shape = (4, 3, 5, 2, 3)
        for d in range(2, 6):
            t = rng.standard_normal(shape[:d])
            ranks = tuple(max(1, n - 1) for n in shape[:d])
            for iters in range(4):
                layer = tucker_decompose(t, ranks, hooi_iters=iters)
                assert bitwise_equal(
                    np.ascontiguousarray(layer.core), np.ascontiguousarray(tn._tucker_core(t, layer.factors))
                ), (d, iters)

    def test_mode_products_per_call(self, rng, monkeypatch):
        calls = []
        mode_dot_ = tn.mode_dot

        def counting(t, mat, mode):
            calls.append(mode)
            return mode_dot_(t, mat, mode)

        monkeypatch.setattr(tn, "mode_dot", counting)
        for shape in ((4, 8, 4, 8), (4, 4, 4, 4)):
            d = len(shape)
            t = rng.standard_normal(shape)
            for iters in (0, 1, 2):
                calls.clear()
                tucker_decompose(t, (2, 3, 2, 3), hooi_iters=iters)
                assert len(calls) == d + iters * (d * (d - 1) + 1), (shape, iters)


class TestTensorTrain:
    def test_rank_one_tensor_of_ones(self):
        t = np.ones((2, 2, 2, 2))
        layer = tt_decompose(t, (1, 1, 1))
        assert layer.ranks == (1, 1, 1)
        assert relative_error(t, reconstruct(layer)) <= 1e-12

    def test_maximal_fixed_rank_exact(self, rng):
        t = rng.standard_normal((4, 4, 4))
        layer = tt_decompose(t, (16, 16))
        assert relative_error(t, reconstruct(layer)) <= 1e-10
        assert layer.ranks == (4, 4)  # capped at the feasible split ranks

    def test_wrong_bond_count(self, rng):
        t = rng.standard_normal((4, 4, 4))
        for ranks in ((2,), (2, 2, 2)):
            with pytest.raises(RankError):
                tt_decompose(t, ranks)


class TestTensorRing:
    def test_all_ranks_one_on_rank_one_input(self, rng):
        u, v, w = rng.standard_normal(3), rng.standard_normal(4), rng.standard_normal(5)
        t = np.einsum("i,j,k->ijk", u, v, w)
        layer = tr_decompose(t, (1, 1, 1))
        assert relative_error(t, reconstruct(layer)) <= 1e-10

    def test_reduces_to_tt_when_closing_bond_is_one(self, rng):
        t = rng.standard_normal((4, 4, 4))
        ring = tr_decompose(t, (1, 3, 3))
        train = tt_decompose(t, [3, 3])
        err_ring = relative_error(t, reconstruct(ring))
        err_train = relative_error(t, reconstruct(train))
        assert abs(err_ring - err_train) <= 1e-9

    def test_moderate_ranks_error_in_unit_range(self, rng):
        t = rng.standard_normal((4, 4, 4))
        layer = tr_decompose(t, (2, 2, 2))
        err = relative_error(t, reconstruct(layer))
        assert 0.0 <= err <= 1.0

    def test_cyclic_shift_symmetry(self, rng):
        base = rng.standard_normal((4, 4, 4))
        sym = base + np.transpose(base, (1, 2, 0)) + np.transpose(base, (2, 0, 1))
        shifted = np.ascontiguousarray(np.transpose(sym, (1, 2, 0)))
        e1 = relative_error(sym, reconstruct(tr_decompose(sym, (2, 2, 2))))
        e2 = relative_error(shifted, reconstruct(tr_decompose(shifted, (2, 2, 2))))
        assert abs(e1 - e2) <= 1e-8

    def test_infeasible_first_split(self, rng):
        with pytest.raises(RankError):
            tr_decompose(rng.standard_normal((2, 2, 2)), (3, 3, 3))

    def test_padded_ranks_keep_requested_shapes(self, rng):
        t = rng.standard_normal((8, 8, 8, 8))
        layer = tr_decompose(t, (3, 3, 3, 3))
        assert [c.shape for c in layer.cores] == [(3, 8, 3)] * 4
        assert relative_error(t, reconstruct(layer)) <= 1.0


class TestReconstructChain:
    def test_tt_and_tr_equal_a_tensordot_chain_bitwise(self, rng):
        cases = [
            ((4, 4, 4), (2, 3), (2, 2, 2)),
            ((8, 8, 8, 8), (4, 5, 3), (1, 4, 5, 3)),
            ((4, 3, 2, 5), (3, 4, 5), (2, 2, 3, 2)),
            ((2, 3), (2,), (1, 2)),
            ((3, 2, 4, 2, 3), (2, 3, 3, 2), (2, 1, 3, 3, 2)),
        ]
        for shape, bonds, ring in cases:
            t = rng.standard_normal(shape)
            for layer in (tt_decompose(t, bonds), tr_decompose(t, ring)):
                assert bitwise_equal(reconstruct(layer), tensordot_chain(layer)), (layer.family, shape)

    def test_compressed_patches_equal_a_tensordot_chain_bitwise(self, rng):
        for shape in ((32, 32), (36, 64), (7, 64)):
            w = rng.standard_normal(shape)
            for family in ("tt", "tr"):
                for ratio in (0.5, 0.25, 0.15):
                    layer = compress_matrix(w, family, tn.ratio_budget(ratio, w.size))
                    assert bitwise_equal(reconstruct(layer), tensordot_chain(layer)), (shape, family, ratio)


class TestReconstructDense:
    def test_dense_round_trip(self, rng):
        w = rng.standard_normal((6, 4))
        layer = decompose(w.reshape(2, 3, 2, 2), __import__("minima.tn_decompositions", fromlist=["RankSpec"]).RankSpec("dense"), row_mode_count=2)
        assert np.array_equal(layer_to_matrix(layer), w)


class TestParamCounts:
    def test_tucker_example(self, rng):
        t = rng.standard_normal((8, 8, 8, 8))
        layer = tucker_decompose(t, (4, 4, 4, 4), hooi_iters=0)
        assert param_count(layer) == 384
        assert param_count(layer) == stored_entry_count(layer)
        assert param_count_formula("tucker", (8, 8, 8, 8), (4, 4, 4, 4)) == 384

    def test_tt_example(self, rng):
        t = rng.standard_normal((8, 8, 8, 8))
        layer = tt_decompose(t, [4] * 3)
        assert param_count(layer) == 320
        assert param_count(layer) == stored_entry_count(layer)
        assert param_count_formula("tt", (8, 8, 8, 8), (4, 4, 4)) == 320

    def test_tr_example(self, rng):
        t = rng.standard_normal((8, 8, 8, 8))
        layer = tr_decompose(t, (3, 3, 3, 3))
        assert param_count(layer) == 288
        assert param_count(layer) == stored_entry_count(layer)
        assert param_count_formula("tr", (8, 8, 8, 8), (3, 3, 3, 3)) == 288

    def test_formula_matches_stored_entries_random_configs(self, rng):
        shapes = [(4, 4, 4), (2, 3, 4), (6, 6, 6), (2, 2, 2, 2), (4, 3, 2, 5)]
        count = 0
        for shape in shapes:
            t = rng.standard_normal(shape)
            d = len(shape)
            for _ in range(4):
                tucker_ranks = tuple(int(rng.integers(1, s + 1)) for s in shape)
                layer = tucker_decompose(t, tucker_ranks, hooi_iters=0)
                assert param_count(layer) == param_count_formula("tucker", shape, tucker_ranks)
                assert param_count(layer) == stored_entry_count(layer)

                caps = maximal_ranks("tt", shape)
                bonds = []
                left = 1
                for k in range(d - 1):
                    hi = min(caps[k], left * shape[k])
                    bonds.append(int(rng.integers(1, hi + 1)))
                    left = bonds[-1]
                layer = tt_decompose(t, bonds)
                assert param_count(layer) == param_count_formula("tt", shape, tuple(bonds))
                assert param_count(layer) == stored_entry_count(layer)
                count += 2
        assert count >= 40


class TestSelectRanks:
    def test_tt_budget_inversion(self):
        spec = select_ranks((8, 8, 8, 8), "tt", ParamBudget(320))
        assert spec.ranks == (4, 4, 4)
        assert param_count_formula("tt", (8, 8, 8, 8), spec.ranks) == 320

    def test_full_budget_gives_maximal_ranks(self, rng):
        for family in ("tucker", "tt", "tr"):
            shape = (4, 4, 4)
            spec = select_ranks(shape, family, ParamBudget(64))
            assert spec.ranks == maximal_ranks(family, shape)
            t = rng.standard_normal(shape)
            layer = decompose(t, spec)
            assert relative_error(t, reconstruct(layer)) <= 1e-9

    def test_tucker_budget_locally_maximal(self):
        shape = (8, 8, 8, 8)
        spec = select_ranks(shape, "tucker", ParamBudget(383))
        cost = param_count_formula("tucker", shape, spec.ranks)
        assert cost <= 383
        assert max(spec.ranks) <= 4 or cost < param_count_formula("tucker", shape, (4, 4, 4, 4))
        # oracle: no single-coordinate +1 stays within budget
        for i in range(4):
            trial = list(spec.ranks)
            trial[i] += 1
            if all(r <= c for r, c in zip(trial, shape)):
                assert param_count_formula("tucker", shape, tuple(trial)) > 383

    def test_budget_below_rank_one(self):
        with pytest.raises(InfeasibleBudgetError):
            select_ranks((8, 8, 8, 8), "tt", ParamBudget(10))

    def test_only_a_parameter_budget_selects_ranks(self):
        for target in (2, 0.1, None):
            for family in ("tucker", "tt", "tr"):
                with pytest.raises(TypeError):
                    select_ranks((8, 8, 8, 8), family, target)
        with pytest.raises(RankError):
            select_ranks((8, 8, 8, 8), "dense", ParamBudget(4096))
        with pytest.raises(RankError):
            select_ranks((8, 8, 8, 8), "cp", ParamBudget(4096))

    def test_caps_computed_once_per_call(self, monkeypatch):
        calls = []

        def counting(family, mode_shape):
            calls.append((family, mode_shape))
            return maximal_ranks(family, mode_shape)

        monkeypatch.setattr(tn, "maximal_ranks", counting)
        for shape in ((8, 8, 8, 8), (4, 3, 2, 5), (16, 16)):
            for family in ("tucker", "tt", "tr"):
                dense = int(np.prod(shape))
                for budget in (dense // 8, dense // 3, dense // 2, dense):
                    calls.clear()
                    try:
                        select_ranks(shape, family, ParamBudget(budget))
                    except InfeasibleBudgetError:
                        pass
                    assert calls == [(family, shape)]

    def test_equals_the_validated_rank_search(self):
        shapes = ((4, 4, 4, 4), (4, 8, 4, 8), (4, 3, 2, 5), (16, 16), (6, 6, 6), (2, 2, 2, 2, 2, 2), (1, 4, 4), (8, 8, 6, 6))
        for shape in shapes:
            dense = math.prod(shape)
            for family in ("tucker", "tt", "tr"):
                for budget in range(1, dense + 3):
                    expected = reference_select_ranks(shape, family, budget)
                    try:
                        got = select_ranks(shape, family, ParamBudget(budget)).ranks
                    except InfeasibleBudgetError as err:
                        got = ("infeasible", err.best_achievable)
                    assert got == expected, (shape, family, budget)

    def test_public_counts_still_validate(self):
        with pytest.raises(RankError):
            param_count_formula("tucker", (4, 4, 4), (2, 2))
        with pytest.raises(RankError):
            param_count_formula("tt", (4, 4, 4), (2, 2, 2))
        with pytest.raises(RankError):
            param_count_formula("tr", (4, 4, 4), (2, 2))
        with pytest.raises(RankError):
            param_count_formula("cp", (4, 4, 4), (2, 2, 2))
        for ranks in ((2, 2), (0, 2, 2), (3, 3, 3)):
            with pytest.raises(RankError):
                tr_feasible((4, 4, 4), ranks)
        assert tr_feasible((4, 4, 4), (1, 4, 8)) == (1, 4, 4)

    def test_tn_rank_spec_needs_ranks(self):
        for family in ("tucker", "tt", "tr"):
            with pytest.raises(RankError):
                tn.RankSpec(family)
        assert tn.RankSpec("dense").ranks is None

    def test_selected_tt_ranks_always_achieved(self, rng):
        shape = (8, 8, 8, 8)
        t = rng.standard_normal(shape)
        for budget in (100, 320, 700, 1500, 3000):
            spec = select_ranks(shape, "tt", ParamBudget(budget))
            layer = decompose(t, spec)
            assert layer.ranks == spec.ranks
            assert param_count(layer) == param_count_formula("tt", shape, spec.ranks) <= budget

    def test_selected_tr_ranks_always_achieved(self, rng):
        shape = (8, 8, 8, 8)
        t = rng.standard_normal(shape)
        for budget in (150, 400, 900, 2000):
            spec = select_ranks(shape, "tr", ParamBudget(budget))
            layer = decompose(t, spec)
            assert layer.ranks == spec.ranks
            assert param_count(layer) <= budget


class TestInvariants:
    def test_exactness_at_maximal_ranks_all_families(self, rng):
        shapes = [(2, 3, 4), (4, 4, 4), (3, 3, 3, 3), (6, 6, 6)]
        for shape in shapes:
            t = rng.standard_normal(shape)
            for family in ("tucker", "tt", "tr"):
                spec = select_ranks(shape, family, ParamBudget(10**9))
                layer = decompose(t, spec, hooi_iters=1)
                assert relative_error(t, reconstruct(layer)) <= 1e-9, (family, shape)

    def test_monotone_budget_tt_and_tucker(self, rng):
        t = rng.standard_normal((6, 6, 6))
        for family in ("tt", "tucker"):
            prev_err = np.inf
            for budget in (30, 60, 120, 216, 400):
                try:
                    spec = select_ranks((6, 6, 6), family, ParamBudget(budget))
                except InfeasibleBudgetError:
                    continue
                layer = decompose(t, spec, hooi_iters=2)
                err = relative_error(t, reconstruct(layer))
                assert err <= prev_err + 1e-9
                prev_err = err

    def test_compress_matrix_round_trip_full_budget(self, rng):
        w = rng.standard_normal((12, 10))
        layer = compress_matrix(w, "tt", ParamBudget(10**9))
        assert layer.matrix_shape == (12, 10)
        assert relative_error(w, layer_to_matrix(layer)) <= 1e-9


MODES_16x32 = (4, 4, 4, 8)


def modes(a):
    """A 16 x 32 matrix as (4, 4, 4, 8); a matrix of no rows as (0, 4, 4, 8)."""
    return a.reshape(a.shape[0] // 4, 4, 4, 8)


# every public entry that takes an array, as (name, call on a 16 x 32 matrix)
PUBLIC_ENTRIES = (
    ("compress_matrix_tucker", lambda a: compress_matrix(a, "tucker", ParamBudget(200))),
    ("compress_matrix_tt", lambda a: compress_matrix(a, "tt", ParamBudget(200))),
    ("compress_matrix_tr", lambda a: compress_matrix(a, "tr", ParamBudget(200))),
    ("decompose_tucker", lambda a: decompose(modes(a), RankSpec("tucker", (2, 2, 2, 2)))),
    ("decompose_tt", lambda a: decompose(modes(a), RankSpec("tt", (2, 2, 2)))),
    ("decompose_tr", lambda a: decompose(modes(a), RankSpec("tr", (1, 2, 2, 2)))),
    ("decompose_dense", lambda a: decompose(modes(a), RankSpec("dense"))),
    ("tucker_decompose", lambda a: tucker_decompose(modes(a), (2, 2, 2, 2))),
    ("tt_decompose", lambda a: tt_decompose(modes(a), (2, 2, 2))),
    ("tr_decompose", lambda a: tr_decompose(modes(a), (1, 2, 2, 2))),
    ("truncated_svd", lambda a: truncated_svd(a, 5)),
    ("full_svd", full_svd),
)


def payload(layer) -> list:
    """Every array a Tucker, TT or TR layer stores."""
    return ([layer.core] if layer.core is not None else []) + layer.factors + layer.cores


def near_overflow(rng):
    """Finite 16 x 32 entries of magnitude up to 1e308: every singular value
    of its unfoldings exceeds the largest double."""
    w = rng.uniform(-1.0, 1.0, (16, 32)) * 1e308
    w[0, 0] = 1e308
    return w


class TestInputChecks:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("pos", [(0, 0), (7, 13), (15, 31)])
    @pytest.mark.parametrize("name, call", PUBLIC_ENTRIES, ids=[e[0] for e in PUBLIC_ENTRIES])
    def test_non_finite_entry_raises_numerics_error(self, rng, name, call, bad, pos):
        w = rng.standard_normal((16, 32))
        w[pos] = bad
        with pytest.raises(NumericsError):
            call(w)

    @pytest.mark.parametrize("name, call", PUBLIC_ENTRIES, ids=[e[0] for e in PUBLIC_ENTRIES])
    def test_empty_input_raises_shape_error(self, name, call):
        with pytest.raises(ShapeError):
            call(np.zeros((0, 32)))

    def test_wrong_rank_of_tensor_raises_shape_error(self, rng):
        for call in (
            lambda a: compress_matrix(a, "tt", ParamBudget(200)),
            lambda a: truncated_svd(a, 2),
            lambda a: full_svd(a),
            lambda a: tt_decompose(a[0, 0], ()),
            lambda a: tr_decompose(a[0, 0], (1,)),
        ):
            with pytest.raises(ShapeError):
                call(rng.standard_normal((4, 4, 4)))

    @pytest.mark.parametrize(
        "decomp, bad_ranks",
        [(tucker_decompose, (9, 2, 2, 2)), (tt_decompose, (2, 2)), (tr_decompose, (12, 12, 2, 2)), (tr_decompose, (0, 1, 1, 1))],
    )
    def test_non_finite_entry_outranks_a_rank_error(self, rng, decomp, bad_ranks):
        t = rng.standard_normal(MODES_16x32)
        with pytest.raises(RankError):
            decomp(t, bad_ranks)
        t[3, 2, 1, 0] = np.nan
        with pytest.raises(NumericsError):
            decomp(t, bad_ranks)

    def test_non_finite_entry_outranks_an_infeasible_budget(self, rng):
        w = rng.standard_normal((16, 32))
        with pytest.raises(InfeasibleBudgetError):
            compress_matrix(w, "tt", ParamBudget(3))
        w[5, 5] = np.inf
        with pytest.raises(NumericsError):
            compress_matrix(w, "tt", ParamBudget(3))

    @pytest.mark.parametrize("name, call", PUBLIC_ENTRIES, ids=[e[0] for e in PUBLIC_ENTRIES])
    def test_near_overflow_input_keeps_its_error_type(self, rng, name, call):
        # as before input checks were cut: the decompositions raise NumericsError
        # once a singular value overflows into the next SVD's input; a lone SVD,
        # a reshape and dense storage return
        w = near_overflow(rng)
        passes = name in ("truncated_svd", "full_svd", "decompose_dense")
        with np.errstate(over="ignore", invalid="ignore"):
            if passes:
                call(w)
            else:
                with pytest.raises(NumericsError):
                    call(w)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_compress_matrix_scans_its_input_once_plus_each_svd_input(self, rng, monkeypatch, family):
        """compress_matrix scans its input once (four times before: compress_matrix,
        reshape_to_modes, decompose and the family's routine). Each SVD still
        scans its own input: an unfolding or projection can overflow, and
        LAPACK must not see an inf."""
        calls = {"as_tensor": 0, "svd": 0}
        as_tensor, svd = tc.as_tensor, tn.truncated_svd

        def counted_as_tensor(*args, **kwargs):
            calls["as_tensor"] += 1
            return as_tensor(*args, **kwargs)

        def counted_svd(*args, **kwargs):
            calls["svd"] += 1
            return svd(*args, **kwargs)

        for module in (tc, tn):
            monkeypatch.setattr(module, "as_tensor", counted_as_tensor)
        monkeypatch.setattr(tn, "truncated_svd", counted_svd)
        w = rng.standard_normal((32, 32))
        for ratio in (0.5, 0.25):
            calls.update(as_tensor=0, svd=0)
            compress_matrix(w, family, ratio_budget(ratio, w.size))
            assert calls["svd"] > 0
            assert calls["as_tensor"] == 1 + calls["svd"]

    @pytest.mark.parametrize("n", [32, 64, 128])
    def test_compress_matrix_equals_the_validated_chain_bitwise(self, n):
        """The patches of ``bench/decompose_scale.py``: ``compress_matrix``
        equals the chain it shortcuts, every step validating its input."""
        rng = np.random.default_rng(n)
        u, _ = np.linalg.qr(rng.standard_normal((n, n)))
        v, _ = np.linalg.qr(rng.standard_normal((n, n)))
        w = (u * np.exp(-0.1 * np.arange(n))) @ v.T
        mode_shape, row_modes = default_mode_shape(n, n)
        for family in FAMILIES:
            budget = ratio_budget(0.25, n * n)
            fast = compress_matrix(w, family, budget, hooi_iters=2)
            spec = select_ranks(mode_shape, family, budget)
            chain = decompose(as_tensor(w).reshape(mode_shape), spec, hooi_iters=2, row_mode_count=row_modes)
            assert fast.row_mode_count == chain.row_mode_count and fast.ranks == chain.ranks
            assert all(bitwise_equal(a, b) for a, b in zip(payload(fast), payload(chain), strict=True))
