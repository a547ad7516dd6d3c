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
    """Rank feasibility as the search tested it when a ring's ranks had to
    be those its sequential factorization reaches: the first split carries
    ``ranks[0] * ranks[1]`` exactly, and each later bond is capped by the
    running split's rows and columns."""
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
    d, rest = len(shape), math.prod(shape[1:])
    if ranks[0] * ranks[1] > min(shape[0], rest):
        return False
    reached, cols = [ranks[0], ranks[1]], rest * ranks[0]
    for k in range(1, d - 1):
        cols //= shape[k]
        reached.append(min(ranks[k + 1], reached[-1] * shape[k], cols))
    return tuple(reached) == tuple(ranks)


def reference_select_ranks(shape, family, budget):
    """The rank search with each trial validated by the public
    ``param_count_formula`` and ``reference_ranks_feasible``: the ranks, or the
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
            return np.linalg.svd(unfolding)[0][..., -rank:]

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
                projection = t
                for k, f in enumerate(layer.factors):
                    projection = mode_dot(projection, f, k)
                assert bitwise_equal(np.ascontiguousarray(layer.core), np.ascontiguousarray(projection)), (d, iters)

    @pytest.mark.parametrize("n", [32, 64])
    @pytest.mark.parametrize("decay", [0.02, 0.1, 0.3])
    def test_error_lies_between_the_eckart_young_tail_and_the_hosvd_bound(self, n, decay):
        """De Lathauwer et al. 2000: no rank-(r_0, ..., r_d-1) fit beats the
        largest mode-k tail, and the HOSVD error is at most the root of the sum of
        the squared tails; HOOI sweeps only lower it."""
        rng = np.random.default_rng(n + int(100 * decay))
        u, _ = np.linalg.qr(rng.standard_normal((n, n)))
        v, _ = np.linalg.qr(rng.standard_normal((n, n)))
        t = ((u * np.exp(-decay * np.arange(n))) @ v.T).reshape(default_mode_shape(n, n)[0])
        scale = float(np.linalg.norm(t))
        for ratio in (0.5, 0.35, 0.25, 0.15):
            ranks = select_ranks(t.shape, "tucker", ratio_budget(ratio, n * n)).ranks
            tails = [
                float(np.linalg.norm(np.linalg.svd(tc.unfold(t, k), compute_uv=False)[r:]))
                for k, r in enumerate(ranks)
            ]
            for iters in (0, 1, 2):
                err = float(np.linalg.norm(t - reconstruct(tucker_decompose(t, ranks, hooi_iters=iters))))
                assert max(tails) - 1e-12 * scale <= err <= math.sqrt(sum(x * x for x in tails)) + 1e-12 * scale

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_raises_before_lapack(self, rng, eigh_calls, lapack_calls, bad):
        t = rng.standard_normal(MODES_16x32)
        t[1, 2, 3, 4] = bad
        with pytest.raises(NumericsError):
            tucker_decompose(t, (2, 2, 2, 2))
        assert eigh_calls == [] and lapack_calls == []

    @pytest.mark.parametrize(
        "shape, ranks", [((4, 4, 4, 4), (2, 3, 2, 1)), ((4, 8, 4, 8), (3, 5, 2, 4)), ((4, 64), (1, 3)), ((6, 1, 5), (2, 1, 5))]
    )
    def test_a_stack_equals_its_slices_bitwise(self, rng, shape, ranks):
        t = rng.standard_normal((4, *shape)) * np.ldexp(1.0, np.array([0, -30, 12, 0]))[(...,) + (None,) * len(shape)]
        t[3] = 0.0  # a zero slice: its guard must not divide by its zero norm
        for iters in (0, 1, 2):
            layers = tucker_decompose(t, ranks, hooi_iters=iters, stacked=True)
            assert len(layers) == 4
            for p, layer in enumerate(layers):
                plain = tucker_decompose(t[p], ranks, hooi_iters=iters)
                assert layer.mode_shape == plain.mode_shape and layer.ranks == plain.ranks
                assert all(bitwise_equal(a, b) for a, b in zip(payload(layer), payload(plain), strict=True)), (p, iters)

    def test_guard_raises_when_one_slice_of_a_stack_rises(self, rng, monkeypatch):
        t = rng.standard_normal((3, 4, 4, 4))
        leading = tn._orthonormal_factor
        calls = []

        def trailing_for_slice_1_in_sweeps(unfoldings, rank):
            calls.append(rank)
            factors = leading(unfoldings, rank)
            if len(calls) > 3:  # after the HOSVD start: slice 1 takes its trailing vectors
                factors[1] = np.linalg.svd(unfoldings[1])[0][:, -rank:]
            return factors

        monkeypatch.setattr(tn, "_orthonormal_factor", trailing_for_slice_1_in_sweeps)
        with pytest.raises(NumericsError, match="relative residual energy of slice 1 "):
            tucker_decompose(t, (2, 2, 2), hooi_iters=1, stacked=True)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_slice_raises_before_lapack(self, rng, eigh_calls, lapack_calls, bad):
        t = rng.standard_normal((3, *MODES_16x32))
        t[2, 1, 2, 3, 4] = bad
        with pytest.raises(NumericsError):
            tucker_decompose(t, (2, 2, 2, 2), stacked=True)
        with pytest.raises(NumericsError):  # a rank error reports the NaN first
            tucker_decompose(t, (9, 2, 2, 2), stacked=True)
        assert eigh_calls == [] and lapack_calls == []

    def test_mode_products_per_call(self, rng, monkeypatch):
        calls = []
        mode_dot_ = tn.mode_dot

        def counting(t, mat, mode, *, stacked=False):
            calls.append(mode)
            return mode_dot_(t, mat, mode, stacked=stacked)

        monkeypatch.setattr(tn, "mode_dot", counting)
        # (shape, ranks, truncated modes c): a whole mode takes no product
        cases = [
            ((4, 8, 4, 8), (2, 3, 2, 3), 4),
            ((4, 4, 4, 4), (2, 3, 2, 3), 4),
            ((4, 8, 4, 8), (4, 5, 4, 5), 2),
            ((4, 8, 4, 8), (4, 4, 3, 3), 3),
            ((4, 8, 4, 8), (4, 8, 4, 8), 0),
        ]
        for shape, ranks, c in cases:
            t = rng.standard_normal((5, *shape))
            for iters in (0, 1, 2):
                # HOSVD core c; per sweep truncated mode k applies its truncated
                # suffix factors, then extends the shared prefix once: c(c+1)/2.
                # A stack of 5 takes as many stacked products as one tensor.
                for tensor, stacked in ((t[0], False), (t, True)):
                    calls.clear()
                    tucker_decompose(tensor, ranks, hooi_iters=iters, stacked=stacked)
                    assert len(calls) == c + iters * c * (c + 1) // 2, (shape, ranks, iters, stacked)
                    assert set(calls) == {k for k, (r, n) in enumerate(zip(ranks, shape)) if r < n}

    @pytest.mark.parametrize("shape", [(4, 8, 4, 8), (3, 5, 2), (6, 1, 5)])
    def test_maximal_ranks_keep_identity_factors_and_the_tensor_as_core(self, rng, eigh_calls, lapack_calls, shape):
        t = rng.standard_normal((3, *shape))
        t[1] = 0.0
        t[2].flat[0] = -0.0
        for iters in (0, 2):
            stacked = tucker_decompose(t, shape, hooi_iters=iters, stacked=True)
            for p in range(len(t)):
                for layer in (stacked[p], tucker_decompose(t[p], shape, hooi_iters=iters)):
                    assert bitwise_equal(layer.core, t[p]) and not np.shares_memory(layer.core, t)
                    assert all(bitwise_equal(f, np.eye(n)) for f, n in zip(layer.factors, shape, strict=True))
        assert eigh_calls == [] and lapack_calls == []


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

    def test_infeasible_first_split(self, rng):
        with pytest.raises(RankError):
            tr_decompose(rng.standard_normal((2, 2, 2)), (3, 3, 3))


def random_ring(rng, shape, ranks):
    """A ring layer of random cores, ``ranks[k]`` the left bond of core k:
    with ``ranks[0] > 1``, one that no decomposition makes."""
    d = len(shape)
    cores = [rng.standard_normal((ranks[k], n, ranks[(k + 1) % d])) for k, n in enumerate(shape)]
    return CompressedLayer(family="tr", mode_shape=shape, row_mode_count=1, cores=cores)


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
            layers = [tt_decompose(t, bonds), random_ring(rng, shape, ring)]
            if ring[0] == 1:
                layers.append(tr_decompose(t, ring))
            for layer in layers:
                assert bitwise_equal(reconstruct(layer), tensordot_chain(layer)), (layer.family, shape, ring)

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
        layer = random_ring(rng, (8, 8, 8, 8), (3, 3, 3, 3))
        assert param_count(layer) == stored_entry_count(layer) == 288
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
                    tn._rank_search.cache_clear()  # a search, not a memo hit
                    try:
                        select_ranks(shape, family, ParamBudget(budget))
                    except InfeasibleBudgetError:
                        pass
                    assert calls == [(family, shape)]

    def test_a_repeated_key_runs_no_search(self):
        search = tn._rank_search
        search.cache_clear()
        first = select_ranks((4, 8, 4, 8), "tt", ParamBudget(300))
        again = select_ranks([np.int64(4), 8, 4, 8], "tt", ParamBudget(300))
        assert again == first == RankSpec("tt", reference_select_ranks((4, 8, 4, 8), "tt", 300))
        assert (search.cache_info().misses, search.cache_info().hits) == (1, 1)
        errors = []
        for _ in range(2):
            with pytest.raises(InfeasibleBudgetError) as err:
                select_ranks((4, 8, 4, 8), "tt", ParamBudget(3))
            errors.append(err.value)
        assert (search.cache_info().misses, search.cache_info().hits) == (2, 2)
        assert errors[0] is not errors[1]
        assert errors[0].best_achievable == errors[1].best_achievable == param_count_formula("tt", (4, 8, 4, 8), (1, 1, 1))
        assert search.cache_info().maxsize == 4096

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
        [
            (tucker_decompose, (9, 2, 2, 2)),
            (tt_decompose, (2, 2)),
            (tt_decompose, (2, 0, 2)),
            (tr_decompose, (12, 12, 2, 2)),
            (tr_decompose, (0, 1, 1, 1)),
            (tr_decompose, (2, 2, 2, 2)),  # a closing bond other than 1
            (tr_decompose, (1, 2, 0, 2)),
        ],
    )
    def test_non_finite_entry_outranks_a_rank_error(self, rng, lapack_calls, eigh_calls, decomp, bad_ranks):
        t = rng.standard_normal(MODES_16x32)
        with pytest.raises(RankError):
            decomp(t, bad_ranks)
        t[3, 2, 1, 0] = np.nan
        with pytest.raises(NumericsError):
            decomp(t, bad_ranks)
        assert lapack_calls == [] and eigh_calls == []

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

    @pytest.mark.parametrize(
        "family, svds, splits, bases, scans",
        [("tucker", 0, 0, (6, 9), 1), ("tt", 0, 2, (0, 0), 1), ("tr", 0, 2, (0, 0), 1)],
        ids=["tucker", "tt", "tr"],
    )
    def test_compress_matrix_scans_its_input_once_plus_each_svd_input(
        self, rng, monkeypatch, lapack_calls, family, svds, splits, bases, scans
    ):
        """compress_matrix scans its input once (four times before: compress_matrix,
        reshape_to_modes, decompose and the family's routine). Each SVD and each
        Tucker factor still scans its own input: an unfolding or projection can
        overflow, and LAPACK must not see an inf. A TT split scans by
        ``_train_split``'s scan (the near-overflow test sees it raise on a later
        split), a Tucker factor by the largest magnitude that sets its scale,
        with no ``as_tensor``; a TR is its train. On these (4, 8, 4, 8) modes
        Tucker takes a factor per truncated mode at the start and per sweep
        (2 sweeps), 2 modes at ratio 0.5 and 3 at 0.25; TT and TR take one
        LAPACK SVD per truncated split, a stack of one, and keep their first
        split whole. Nothing calls the plain ``truncated_svd``."""
        calls = {"as_tensor": 0, "svd": 0, "basis": 0}
        as_tensor, svd, basis = tc.as_tensor, tc.truncated_svd, tn.leading_basis

        def counted(name, fn):
            def call(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return call

        for module in (tc, tn):
            monkeypatch.setattr(module, "as_tensor", counted("as_tensor", as_tensor))
        monkeypatch.setattr(tc, "truncated_svd", counted("svd", svd))
        monkeypatch.setattr(tn, "leading_basis", counted("basis", basis))
        w = rng.standard_normal((32, 32))
        for ratio, ratio_bases in zip((0.5, 0.25), bases):
            calls.update(as_tensor=0, svd=0, basis=0)
            lapack_calls.clear()
            compress_matrix(w, family, ratio_budget(ratio, w.size))
            assert (calls["svd"], len(lapack_calls), calls["basis"]) == (svds, splits, ratio_bases)
            assert calls["as_tensor"] == scans
            assert all(len(shape) == 3 and shape[0] == 1 for shape in lapack_calls)

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


class TestSvdSource:
    """The routines' factor sources: given HOSVD bases change no bit of a
    layer, and a ring is its train."""

    def test_tucker_from_given_hosvd_bases_makes_only_its_sweep_eigendecompositions(self, rng, eigh_calls, lapack_calls):
        t = rng.standard_normal((3, 4, 3, 5, 2))
        hosvd = [tc.leading_basis(tc.unfold(t, k, stacked=True), n, stacked=True) for k, n in enumerate(t.shape[1:])]
        for iters in range(3):
            for ranks in [(2, 2, 2, 1), (3, 2, 4, 2), (2, 2, 2, 1)]:
                eigh_calls.clear()
                layers = tucker_decompose(t, ranks, hooi_iters=iters, stacked=True, hosvd=hosvd)
                # a stacked eigendecomposition per truncated mode per sweep (4, then
                # 3 at (3, 2, 4, 2), whose mode 3 is whole), none for the start
                assert eigh_calls == [(3, n, n) for _ in range(iters) for n, r in zip(t.shape[1:], ranks) if r < n]
                for p, layer in enumerate(layers):
                    plain = tucker_decompose(t[p], ranks, hooi_iters=iters)
                    assert all(bitwise_equal(a, b) for a, b in zip(payload(layer), payload(plain), strict=True))
                    # the start copies its columns: no layer shares memory with the bases
                    assert not any(np.shares_memory(f, b) for f, b in zip(layer.factors, hosvd))
        assert lapack_calls == []  # Tucker takes no SVD

    def test_a_ring_with_a_unit_closing_bond_has_the_train_cores_bitwise(self, rng):
        # what lets a probe of a ring take the train's deviation
        # (sensitivity._probe_key); (4, 8, 4) is capped at (4, 4, 4)
        t = rng.standard_normal((4, 4, 4, 4))
        for bonds in [(3, 5, 2), (4, 8, 4), (2, 2, 1)]:
            tt, tr = tt_decompose(t, bonds), tr_decompose(t, (1, *bonds))
            assert tr.ranks == (1, *tt.ranks), bonds
            assert all(bitwise_equal(a, b) for a, b in zip(tr.cores, tt.cores, strict=True)), bonds

    @pytest.mark.parametrize("shape", [(16, 16), (32, 32), (36, 64), (17, 40), (1, 64), (24, 40)])
    def test_every_selected_ring_is_the_selected_train_bitwise(self, rng, shape):
        w = rng.standard_normal(shape)
        mode_shape, _ = default_mode_shape(*shape)
        rings = 0
        for ratio in np.linspace(0.025, 1.0, 40):
            budget = ratio_budget(ratio, w.size)
            try:
                spec = select_ranks(mode_shape, "tr", budget)
            except InfeasibleBudgetError:
                continue
            assert spec.ranks[0] == 1 and spec.ranks[1:] == select_ranks(mode_shape, "tt", budget).ranks
            tr, tt = compress_matrix(w, "tr", budget), compress_matrix(w, "tt", budget)
            assert tr.family == "tr" and tr.ranks == spec.ranks, (ratio, spec)
            assert all(bitwise_equal(a, b) for a, b in zip(tr.cores, tt.cores, strict=True)), (ratio, spec)
            rings += 1
        assert rings >= 20


def plain_train(t, bonds):
    """Oracle: the cores of a sequential TT-SVD of one tensor, each split a
    ``truncated_svd`` capped at the unfolding's min dimension, or, where
    that keeps all of the unfolding's rows, the identity carrying the
    unfolding on."""
    cores, r_prev, c = [], 1, t
    for k, r in enumerate(bonds):
        c = c.reshape(r_prev * t.shape[k], -1)
        keep = min(r, min(c.shape))
        if keep == len(c):
            cores.append(np.eye(keep).reshape(r_prev, t.shape[k], keep))
        else:
            res = truncated_svd(c, keep)
            cores.append(res.left.reshape(r_prev, t.shape[k], keep))
            c = res.values[:, None] * res.right.T
        r_prev = keep
    cores.append(c.reshape(r_prev, t.shape[-1], 1))
    return cores


def dot_chain(cores):
    """Oracle: a chain of TT cores as ``np.dot`` of (-1, r) by (r, -1)."""
    chain = cores[0].reshape(-1, cores[0].shape[2])
    for core in cores[1:]:
        chain = np.dot(chain, core.reshape(core.shape[0], -1)).reshape(-1, core.shape[2])
    return chain


def train_stack(rng, mode_shape):
    """A stack of four tensors of ``mode_shape``: full rank, rank 2 as a
    matrix of its first mode against the rest, zero, and full rank scaled
    by 2**-30."""
    n0, rest = mode_shape[0], math.prod(mode_shape[1:])
    low = rng.standard_normal((n0, 2)) @ rng.standard_normal((2, rest))
    slices = [rng.standard_normal(mode_shape), low, np.zeros(mode_shape), rng.standard_normal(mode_shape) * 2.0**-30]
    return np.stack([np.reshape(x, mode_shape) for x in slices])


# (mode shape, bond vectors): capped bonds (16 > every split's min dimension),
# unit bonds, bond vectors that share their first one or two splits, one that
# keeps the bonds another keeps, two, three and four modes
TRAIN_CASES = [
    ((4, 4, 4, 4), [(4, 3, 4), (4, 3, 2), (3, 2, 2), (2, 2, 1), (16, 16, 16), (4, 16, 4), (1, 1, 1)]),
    ((4, 8, 4, 8), [(4, 12, 3), (2, 16, 5), (9, 40, 9), (4, 12, 8)]),
    ((7, 8, 8), [(5, 6), (7, 8)]),
    ((6, 9), [(3,), (20,)]),
]


class TestTrainStack:
    """TT-SVD of a stack at several bond vectors, ``_train_stack``, and the
    reconstruction of its trains, ``_train_chain``."""

    @pytest.mark.parametrize("mode_shape, bond_vectors", TRAIN_CASES, ids=["4x4x4x4", "4x8x4x8", "7x8x8", "6x9"])
    def test_each_slice_equals_a_truncated_svd_train_of_the_slice_bitwise(self, rng, mode_shape, bond_vectors):
        t = train_stack(rng, mode_shape)
        done = []
        for bonds, cores in tn._train_stack(t, bond_vectors):
            done.append(bonds)
            chain = tn._train_chain(cores)
            for p in range(len(t)):
                plain = plain_train(t[p], bonds)
                assert all(bitwise_equal(a[p], b) for a, b in zip(cores, plain, strict=True)), (bonds, p)
                assert bitwise_equal(chain[p], dot_chain(plain)), (bonds, p)
                # tt_decompose and reconstruct are the stack of one
                alone = tt_decompose(t[p], bonds)
                assert all(bitwise_equal(a, b) for a, b in zip(alone.cores, plain, strict=True)), (bonds, p)
                assert bitwise_equal(reconstruct(alone), dot_chain(plain).reshape(mode_shape)), (bonds, p)
        assert sorted(done) == sorted(bond_vectors)

    def test_a_train_holds_only_its_own_entries(self, rng):
        # a core viewing a prefix of LAPACK's right vectors would keep all of
        # them alive in every layer compress_matrix returns
        # nor one viewing the input, where every split is whole, as at (2, 4)
        # on (2, 2, 8)
        cases = [((4, 8, 4, 8), [(2, 3, 4), (4, 12, 4), (4, 32, 8)]), ((2, 2, 8), [(2, 4)])]
        for shape, bond_vectors in cases:
            t = rng.standard_normal(shape)
            for bonds in bond_vectors:
                for core in tt_decompose(t, bonds).cores:
                    owner = core
                    while owner.base is not None:
                        owner = owner.base
                    assert owner.nbytes == core.nbytes and not np.shares_memory(core, t), (bonds, core.shape)

    def test_bond_vectors_that_keep_the_same_bonds_share_their_splits(self, rng, lapack_calls):
        # kept bonds (1, 1, 1), (2, 2, 1), (3, 2, 2), (4, 3, 2), (4, 3, 4) and
        # (4, 16, 4) twice: one first split, the second split once per first
        # bond, the third once per distinct pair of bonds before it
        t = train_stack(rng, (4, 4, 4, 4))
        list(tn._train_stack(t, TRAIN_CASES[0][1]))
        shapes = [(4, 64), (4, 16), (8, 16), (12, 16), (16, 16), (4, 4), (8, 4), (8, 4), (12, 4), (64, 4)]
        assert sorted(lapack_calls) == sorted((len(t), *shape) for shape in shapes)

    def test_a_whole_split_is_shared_only_with_bond_vectors_that_keep_it_whole(self, rng, lapack_calls):
        # the default ratio grid's TT bonds on (4, 8, 4, 8): (4, 7, 7), (4, 5, 6)
        # and (4, 4, 4) keep the first split whole, (3, 3, 3) truncates it, so
        # one stacked SVD makes that split for (3, 3, 3) alone
        mode_shape = (4, 8, 4, 8)
        bond_vectors = [select_ranks(mode_shape, "tt", ratio_budget(r, 1024)).ranks for r in (0.5, 0.35, 0.25, 0.15)]
        assert bond_vectors == [(4, 7, 7), (4, 5, 6), (4, 4, 4), (3, 3, 3)]
        t = train_stack(rng, mode_shape)
        trains = list(tn._train_stack(t, bond_vectors))
        shapes = [(4, 256), (24, 32), (32, 32), (12, 8), (16, 8), (20, 8), (28, 8)]
        assert sorted(lapack_calls) == sorted((len(t), *shape) for shape in shapes)
        for bonds, cores in trains:
            for p in range(len(t)):
                alone = tt_decompose(t[p], bonds)
                assert all(bitwise_equal(a[p], b) for a, b in zip(cores, alone.cores, strict=True)), (bonds, p)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_slice_raises_before_lapack(self, rng, lapack_calls, bad):
        t = rng.standard_normal((3, *MODES_16x32))
        t[1, 2, 3, 0, 5] = bad
        with pytest.raises(NumericsError):
            list(tn._train_stack(t, [(2, 2, 2)]))
        assert lapack_calls == []

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_entry_raises_where_the_whole_space_skips_lapack(self, rng, eigh_calls, lapack_calls, bad):
        # every Tucker mode whole; a first split whole, then every split whole
        # on (2, 2, 8), where no SVD is left to scan the input
        t = rng.standard_normal((4, 8, 4, 8))
        t[3, 7, 3, 7] = bad
        stack = np.stack([rng.standard_normal(t.shape), t])
        small = rng.standard_normal((2, 2, 8))
        small[1, 0, 5] = bad
        calls = [
            lambda: tucker_decompose(t, t.shape),
            lambda: tucker_decompose(stack, t.shape, stacked=True),
            lambda: tt_decompose(t, (4, 7, 7)),
            lambda: tr_decompose(t, (1, 4, 7, 7)),
            lambda: tt_decompose(small, (2, 4)),
            lambda: tr_decompose(small, (1, 2, 4)),
        ]
        for call in calls:
            with pytest.raises(NumericsError):
                call()
        assert eigh_calls == [] and lapack_calls == []

    def test_an_overflowing_split_raises(self, rng):
        # every singular value of the first split exceeds the largest double,
        # so the second split's input holds an inf: its scan raises
        t = np.stack([modes(near_overflow(rng)), rng.standard_normal(MODES_16x32)])
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericsError):
            list(tn._train_stack(t, [(2, 2, 2)]))
