import math
import weakref

import numpy as np
import pytest

import minima.tensor_core as tc
import minima.tn_decompositions as tn
from helpers import reconstruction_error as relerr
from minima.errors import InfeasibleBudgetError, NumericsError, RankError, ShapeError
from minima.sensitivity import probe_patch
from minima.tensor_core import ParamBudget, as_tensor, full_svd, mode_dot, truncated_svd
from minima.tn_decompositions import (
    FAMILIES,
    CompressedLayer,
    balanced_split,
    compress_matrix,
    default_mode_shape,
    layer_to_matrix,
    maximal_ranks,
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
    if layer.core is not None:
        arrays.append(layer.core)
    arrays.extend(layer.factors)
    arrays.extend(layer.cores)
    return sum(a.size for a in arrays)


def bitwise_equal(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def stacked_tucker(t, ranks):
    """``_tucker_stack`` of a stack at one rank tuple: its core and factors."""
    ((_, core, factors),) = tn._tucker_stack(t, [tuple(ranks)])
    return core, factors


def equals_its_slices(core, factors, t, ranks) -> bool:
    """Whether each slice of a stacked Tucker decomposition of ``t`` equals
    ``tucker_decompose`` of that slice alone bit for bit; a ``None`` factor
    is the slice's ``np.eye``."""
    for p in range(len(t)):
        plain = tucker_decompose(t[p], ranks)
        stacked = [core[p]] + [np.eye(n) if f is None else f[p] for n, f in zip(t.shape[1:], factors, strict=True)]
        if not all(bitwise_equal(a, b) for a, b in zip(stacked, payload(plain), strict=True)):
            return False
    return True


def hosvd_dense(t, ranks):
    """The truncated HOSVD of ``t`` at ``ranks``, dense: ``t`` projected in
    each truncated mode onto ``tc.leading_basis`` of its own unfolding."""
    dense = t[None]
    for k, r in enumerate(ranks):
        if r < t.shape[k]:
            u = tc.leading_basis(tc.unfold(t[None], k), r)
            dense = mode_dot(mode_dot(dense, u, k), u.transpose(0, 2, 1), k)
    return dense[0]


def tensordot_chain(layer):
    """TT / TR reconstruction as a chain of ``np.tensordot`` over each bond."""
    chain = layer.cores[0]
    for core in layer.cores[1:]:
        chain = np.tensordot(chain, core, axes=(chain.ndim - 1, 0))
    return chain.reshape(layer.mode_shape)


def layer_at(t, family, ranks):
    """The layer of ``t`` that ``family``'s routine makes at ``ranks``."""
    if family == "tucker":
        return tucker_decompose(t, ranks)
    return (tt_decompose if family == "tt" else tr_decompose)(t, ranks)


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
        layer = tucker_decompose(t, (4, 3, 5))
        assert relerr(t, reconstruct(layer)) <= 1e-10

    def test_rank_one_tensor(self):
        t = np.ones((2, 2, 2))
        layer = tucker_decompose(t, (1, 1, 1))
        assert relerr(t, reconstruct(layer)) <= 1e-12

    def test_hooi_improves_on_hosvd(self, rng):
        t = rng.standard_normal((4, 4, 4))
        for ranks in ((2, 2, 2), (2, 3, 2)):
            refined = tucker_decompose(t, ranks)
            assert relerr(t, reconstruct(refined)) <= relerr(t, hosvd_dense(t, ranks)) + 1e-12, ranks

    def test_rank_out_of_range(self, rng):
        with pytest.raises(RankError):
            tucker_decompose(rng.standard_normal((3, 3)), (4, 2))

    def test_exact_fit_above_multilinear_rank(self, rng):
        # exactly low multilinear rank, compressed above that rank but below
        # the maximal ranks: the sweep refines a fit that is already exact
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
                    t = mode_dot(t[None], rng.standard_normal((1, mlrank[k], n)), k)[0]
                layer = tucker_decompose(t, ranks)
                assert relerr(t, reconstruct(layer)) <= 1e-10, (shape, ranks)

    def test_guard_raises_when_a_sweep_increases_error(self, rng, monkeypatch):
        t = rng.standard_normal((4, 4, 4))
        leading = tn._leading_basis
        calls = []

        def trailing_in_the_sweep(unfolding, rank):
            calls.append(rank)
            if len(calls) <= t.ndim:  # HOSVD initialization
                return leading(unfolding, rank)
            return np.linalg.svd(unfolding)[0][..., -rank:]

        monkeypatch.setattr(tn, "_leading_basis", trailing_in_the_sweep)
        with pytest.raises(NumericsError, match="relative residual energy"):
            tucker_decompose(t, (2, 2, 2))

    def test_core_is_the_factors_projection_bitwise(self, rng):
        shape = (4, 3, 5, 2, 3)
        for d in range(2, 6):
            t = rng.standard_normal(shape[:d])
            ranks = tuple(max(1, n - 1) for n in shape[:d])
            layer = tucker_decompose(t, ranks)
            projection = t[None]
            for k, f in enumerate(layer.factors):
                projection = mode_dot(projection, f[None], k)
            projection = projection[0]
            assert bitwise_equal(np.ascontiguousarray(layer.core), np.ascontiguousarray(projection)), d

    @pytest.mark.parametrize("n", [32, 64])
    @pytest.mark.parametrize("decay", [0.02, 0.1, 0.3])
    def test_error_lies_between_the_eckart_young_tail_and_the_hosvd_bound(self, n, decay):
        """De Lathauwer et al. 2000: no rank-(r_0, ..., r_d-1) fit beats the
        largest mode-k tail, and the HOSVD error is at most the root of the sum of
        the squared tails; the HOOI sweep only lowers it."""
        rng = np.random.default_rng(n + int(100 * decay))
        u, _ = np.linalg.qr(rng.standard_normal((n, n)))
        v, _ = np.linalg.qr(rng.standard_normal((n, n)))
        t = ((u * np.exp(-decay * np.arange(n))) @ v.T).reshape(default_mode_shape(n, n)[0])
        scale = float(np.linalg.norm(t))
        for ratio in (0.5, 0.35, 0.25, 0.15):
            ranks = select_ranks(t.shape, "tucker", ratio_budget(ratio, n * n))
            tails = [
                float(np.linalg.norm(np.linalg.svd(tc.unfold(t[None], k)[0], compute_uv=False)[r:]))
                for k, r in enumerate(ranks)
            ]
            for dense in (hosvd_dense(t, ranks), reconstruct(tucker_decompose(t, ranks))):
                err = float(np.linalg.norm(t - dense))
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
        core, factors = stacked_tucker(t, ranks)
        assert core.shape == (4, *ranks)
        assert equals_its_slices(core, factors, t, ranks)

    def test_guard_raises_when_one_slice_of_a_stack_rises(self, rng, monkeypatch):
        t = rng.standard_normal((3, 4, 4, 4))
        leading = tn._leading_basis
        calls = []

        def trailing_for_slice_1_in_the_sweep(unfoldings, rank):
            calls.append(rank)
            factors = leading(unfoldings, rank)
            if len(calls) > 3:  # after the HOSVD start: slice 1 takes its trailing vectors
                factors[1] = np.linalg.svd(unfoldings[1])[0][:, -rank:]
            return factors

        monkeypatch.setattr(tn, "_leading_basis", trailing_for_slice_1_in_the_sweep)
        with pytest.raises(NumericsError, match="relative residual energy of slice 1 "):
            stacked_tucker(t, (2, 2, 2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_slice_raises_before_lapack(self, rng, eigh_calls, lapack_calls, bad):
        t = rng.standard_normal((3, *MODES_16x32))
        t[2, 1, 2, 3, 4] = bad
        with pytest.raises(NumericsError):
            stacked_tucker(t, (2, 2, 2, 2))
        with pytest.raises(NumericsError):  # the start's bases scan before any tuple is fitted
            list(tn._tucker_stack(t, [MODES_16x32, (2, 2, 2, 2)]))
        assert eigh_calls == [] and lapack_calls == []

    def test_mode_products_per_call(self, rng, monkeypatch):
        calls = []
        mode_dot_ = tn.mode_dot

        def counting(t, mat, mode):
            calls.append(mode)
            return mode_dot_(t, mat, mode)

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
            # in the sweep truncated mode k applies its truncated suffix
            # factors, then extends the shared prefix once: c(c+1)/2. The
            # start chain of the c - 1 suffix factors is the sweep's first
            # projection, and the start core extends it once. A stack of 5
            # takes as many stacked products as one tensor.
            expected = min(c, 1) + c * (c + 1) // 2
            for stacked in (False, True):
                calls.clear()
                if stacked:
                    stacked_tucker(t, ranks)
                else:
                    tucker_decompose(t[0], ranks)
                assert len(calls) == expected, (shape, ranks, stacked)
                assert set(calls) == {k for k, (r, n) in enumerate(zip(ranks, shape)) if r < n}

    @pytest.mark.parametrize("shape", [(4, 8, 4, 8), (3, 5, 2), (6, 1, 5)])
    def test_maximal_ranks_keep_identity_factors_and_the_tensor_as_core(self, rng, eigh_calls, lapack_calls, shape):
        t = rng.standard_normal((3, *shape))
        t[1] = 0.0
        t[2].flat[0] = -0.0
        core, factors = stacked_tucker(t, shape)
        assert core is t and factors == [None] * len(shape)  # the stack is its own core
        for p in range(len(t)):
            layer = tucker_decompose(t[p], shape)
            assert bitwise_equal(layer.core, t[p]) and not np.shares_memory(layer.core, t)
            assert all(bitwise_equal(f, np.eye(n)) for f, n in zip(layer.factors, shape, strict=True))
        assert eigh_calls == [] and lapack_calls == []


class TestTensorTrain:
    def test_rank_one_tensor_of_ones(self):
        t = np.ones((2, 2, 2, 2))
        layer = tt_decompose(t, (1, 1, 1))
        assert layer.ranks == (1, 1, 1)
        assert relerr(t, reconstruct(layer)) <= 1e-12

    def test_maximal_fixed_rank_exact(self, rng):
        t = rng.standard_normal((4, 4, 4))
        layer = tt_decompose(t, (16, 16))
        assert relerr(t, reconstruct(layer)) <= 1e-10
        assert layer.ranks == (4, 4)  # capped at the feasible split ranks


class TestTensorRing:
    def test_all_ranks_one_on_rank_one_input(self, rng):
        u, v, w = rng.standard_normal(3), rng.standard_normal(4), rng.standard_normal(5)
        t = np.einsum("i,j,k->ijk", u, v, w)
        layer = tr_decompose(t, (1, 1, 1))
        assert relerr(t, reconstruct(layer)) <= 1e-10

    def test_reduces_to_tt_when_closing_bond_is_one(self, rng):
        t = rng.standard_normal((4, 4, 4))
        ring = tr_decompose(t, (1, 3, 3))
        train = tt_decompose(t, [3, 3])
        err_ring = relerr(t, reconstruct(ring))
        err_train = relerr(t, reconstruct(train))
        assert abs(err_ring - err_train) <= 1e-9

    def test_infeasible_first_split(self, rng):
        with pytest.raises(RankError):
            tr_decompose(rng.standard_normal((2, 2, 2)), (3, 3, 3))


def random_ring(rng, shape, ranks, closing=1):
    """A ring layer of random cores, ``ranks[k]`` the left bond of core k
    and ``ranks[0]`` the closing bond, replaced by ``closing``."""
    bonds = (closing, *ranks[1:], closing)
    cores = [rng.standard_normal((bonds[k], n, bonds[k + 1])) for k, n in enumerate(shape)]
    return CompressedLayer(family="tr", mode_shape=shape, row_mode_count=1, cores=cores)


class TestReconstructChain:
    def test_tt_and_tr_equal_a_tensordot_chain_bitwise(self, rng):
        cases = [
            ((4, 4, 4), (2, 3)),
            ((8, 8, 8, 8), (4, 5, 3)),
            ((4, 3, 2, 5), (3, 4, 5)),
            ((2, 3), (2,)),
            ((3, 2, 4, 2, 3), (2, 3, 3, 2)),
        ]
        for shape, bonds in cases:
            t = rng.standard_normal(shape)
            ring = (1, *bonds)
            for layer in (tt_decompose(t, bonds), tr_decompose(t, ring), random_ring(rng, shape, ring)):
                assert bitwise_equal(reconstruct(layer), tensordot_chain(layer)), (layer.family, shape, ring)

    @pytest.mark.parametrize("ranks", [(2, 2, 2), (2, 1, 3, 3, 2), (3, 4, 5, 3)], ids=str)
    def test_a_ring_whose_closing_bond_is_not_1_is_rejected(self, rng, ranks):
        # a ring is its train: no layer, count or decomposition takes another
        shape = (3, 2, 4, 2, 3)[: len(ranks)]
        with pytest.raises(ShapeError):
            random_ring(rng, shape, ranks, closing=ranks[0])
        cores = random_ring(rng, shape, ranks).cores
        cores[-1] = np.concatenate([cores[-1]] * 2, axis=2)  # a closing bond of 2 on the last core alone
        with pytest.raises(ShapeError, match="boundary bonds must be 1"):
            CompressedLayer("tr", shape, 1, cores=cores)
        with pytest.raises(RankError, match="closing bond"):
            param_count_formula("tr", shape, ranks)
        with pytest.raises(RankError, match="closing bond"):
            tr_decompose(rng.standard_normal(shape), ranks)
        ring = (1, *ranks[1:])
        assert stored_entry_count(tr_decompose(rng.standard_normal(shape), ring)) == param_count_formula("tr", shape, ring)

    def test_compressed_patches_equal_a_tensordot_chain_bitwise(self, rng):
        for shape in ((32, 32), (36, 64), (7, 64)):
            w = rng.standard_normal(shape)
            for family in ("tt", "tr"):
                for ratio in (0.5, 0.25, 0.15):
                    layer = compress_matrix(w, family, tn.ratio_budget(ratio, w.size))
                    assert bitwise_equal(reconstruct(layer), tensordot_chain(layer)), (shape, family, ratio)


def every_factor_chain(layer):
    """A Tucker layer's dense tensor with every factor applied, identities
    too: the oracle that skipping the identities must equal bitwise."""
    out = layer.core[None]
    for k, f in enumerate(layer.factors):
        out = mode_dot(out, f.T[None], k)
    return out[0]


class TestReconstructTucker:
    @pytest.mark.parametrize("shape", [(16, 16), (32, 32), (36, 64), (17, 40), (1, 64)])
    def test_whole_modes_keep_the_bits_of_every_factor_applied(self, rng, shape):
        w = rng.standard_normal(shape) * np.exp(-0.1 * np.arange(shape[1]))
        whole = 0
        for ratio in (1.0, 0.75, 0.5, 0.35, 0.25, 0.15):
            try:
                layer = compress_matrix(w, "tucker", ratio_budget(ratio, w.size))
            except InfeasibleBudgetError:
                continue
            whole += sum(r == n for r, n in zip(layer.ranks, layer.mode_shape))
            expected = every_factor_chain(layer).reshape(layer.matrix_shape)
            assert bitwise_equal(layer_to_matrix(layer), expected), (shape, ratio)
        assert whole > 0

    def test_a_square_factor_other_than_the_identity_is_applied(self, rng):
        core = rng.standard_normal((3, 4, 2))
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        swap = np.eye(4)[[1, 0, 2, 3]]  # orthogonal, square, not the identity
        first, last = (np.linalg.qr(rng.standard_normal(shape))[0] for shape in ((5, 3), (6, 2)))
        for middle in (q, swap, -np.eye(4)):
            factors = [first, middle, last]
            layer = CompressedLayer("tucker", (5, 4, 6), 1, core=core, factors=factors)
            out = reconstruct(layer)
            assert bitwise_equal(out, every_factor_chain(layer))
            skipped = mode_dot(mode_dot(core[None], factors[0].T[None], 0), factors[2].T[None], 2)[0]
            assert not np.allclose(out, skipped)

    def test_mode_products_per_reconstruction(self, rng, monkeypatch):
        # one product per factor that is not the identity: a whole mode
        # takes none, and a square factor that is not the identity takes one
        calls = []
        mode_dot_ = tn.mode_dot

        def counting(t, mat, mode):
            calls.append(mode)
            return mode_dot_(t, mat, mode)

        t = rng.standard_normal((4, 8, 4, 8))
        layers = {
            (2, 3, 2, 3): ((0, 1, 2, 3), tucker_decompose(t, (2, 3, 2, 3))),
            (4, 5, 4, 5): ((1, 3), tucker_decompose(t, (4, 5, 4, 5))),
            (4, 8, 4, 8): ((), tucker_decompose(t, (4, 8, 4, 8))),
        }
        swapped = tucker_decompose(t, (4, 5, 4, 5))
        swapped.factors[0] = swapped.factors[0][:, [1, 0, 2, 3]]
        layers["swapped"] = ((0, 1, 3), swapped)
        monkeypatch.setattr(tn, "mode_dot", counting)
        for key, (modes_applied, layer) in layers.items():
            calls.clear()
            reconstruct(layer)
            assert tuple(calls) == modes_applied, key

    @pytest.mark.parametrize("core_shape", [(2, 2), (2, 2, 2, 3)])
    def test_a_core_needs_one_mode_per_factor(self, rng, core_shape):
        # a core of too few modes once raised IndexError; one of too many
        # passed, and reconstruct returned a (4, 4, 4, 3) tensor
        factors = [np.linalg.qr(rng.standard_normal((4, 2)))[0] for _ in range(3)]
        with pytest.raises(ShapeError, match="one mode per factor"):
            CompressedLayer("tucker", (4, 4, 4), 1, core=rng.standard_normal(core_shape), factors=factors)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_a_layer_is_validated_once_built_and_once_reconstructed(self, rng, monkeypatch, family):
        calls = []
        validate = CompressedLayer.validate

        def counting(layer):
            calls.append(layer.family)
            return validate(layer)

        monkeypatch.setattr(CompressedLayer, "validate", counting)
        w = rng.standard_normal((32, 32))
        layer = compress_matrix(w, family, ratio_budget(0.25, w.size))
        assert calls == [family]
        layer_to_matrix(layer)
        assert calls == [family, family]


class TestParamCounts:
    def test_tucker_example(self, rng):
        t = rng.standard_normal((8, 8, 8, 8))
        layer = tucker_decompose(t, (4, 4, 4, 4))
        assert param_count_formula("tucker", (8, 8, 8, 8), (4, 4, 4, 4)) == stored_entry_count(layer) == 384

    def test_tt_example(self, rng):
        t = rng.standard_normal((8, 8, 8, 8))
        layer = tt_decompose(t, [4] * 3)
        assert param_count_formula("tt", (8, 8, 8, 8), (4, 4, 4)) == stored_entry_count(layer) == 320

    def test_tr_example(self, rng):
        layer = random_ring(rng, (8, 8, 8, 8), (1, 3, 3, 3))
        assert param_count_formula("tr", (8, 8, 8, 8), (1, 3, 3, 3)) == stored_entry_count(layer) == 192
        assert param_count_formula("tt", (8, 8, 8, 8), (3, 3, 3)) == 192

    def test_formula_matches_stored_entries_random_configs(self, rng):
        shapes = [(4, 4, 4), (2, 3, 4), (6, 6, 6), (2, 2, 2, 2), (4, 3, 2, 5)]
        count = 0
        for shape in shapes:
            t = rng.standard_normal(shape)
            d = len(shape)
            for _ in range(4):
                tucker_ranks = tuple(int(rng.integers(1, s + 1)) for s in shape)
                layer = tucker_decompose(t, tucker_ranks)
                assert param_count_formula("tucker", shape, tucker_ranks) == stored_entry_count(layer)

                caps = maximal_ranks("tt", shape)
                bonds = []
                left = 1
                for k in range(d - 1):
                    hi = min(caps[k], left * shape[k])
                    bonds.append(int(rng.integers(1, hi + 1)))
                    left = bonds[-1]
                layer = tt_decompose(t, bonds)
                assert param_count_formula("tt", shape, tuple(bonds)) == stored_entry_count(layer)
                count += 2
        assert count >= 40

    def test_formula_counts_the_train_its_bonds_build(self, rng):
        # a bond above its split's unfolding is kept capped, and counted so:
        # (100, 2, 2) on four modes of 4 once counted 1,224 scalars, not 72
        assert param_count_formula("tt", (4, 4, 4, 4), (100, 2, 2)) == 72
        capped = 0
        for _ in range(60):
            shape = tuple(int(n) for n in rng.integers(1, 6, size=int(rng.integers(2, 6))))
            bonds = tuple(int(r) for r in rng.integers(1, 2 * max(shape) + 1, size=len(shape) - 1))
            t = rng.standard_normal(shape)
            train, ring = tt_decompose(t, bonds), tr_decompose(t, (1, *bonds))
            assert param_count_formula("tt", shape, bonds) == stored_entry_count(train), (shape, bonds)
            assert param_count_formula("tr", shape, (1, *bonds)) == stored_entry_count(ring), (shape, bonds)
            capped += train.ranks != bonds
        assert capped >= 20


class TestRatioBudget:
    def test_floor_of_the_ratio_times_dense_and_at_least_1(self):
        assert [ratio_budget(r, 100).budget for r in (0.25, 0.251, 0.001, 1.5)] == [25, 25, 1, 150]

    @pytest.mark.parametrize("ratio", [0.0, -0.5, math.nan, math.inf, -math.inf])
    def test_a_ratio_not_finite_and_above_0_raises_naming_it(self, ratio):
        # 0.0 and -0.5 once gave a budget of 1, NaN a bare ValueError from
        # math.floor and inf an OverflowError
        with pytest.raises(ValueError, match=f"^compression ratio {ratio} is not a finite number > 0$"):
            ratio_budget(ratio, 100)


LAYOUT_SHAPE = (4, 3, 2, 5)
DECOMPOSE = {"tucker": tucker_decompose, "tt": tt_decompose, "tr": tr_decompose}
LAYOUT_ENTRIES = {
    "decompose": lambda family, ranks: DECOMPOSE[family](np.ones(LAYOUT_SHAPE), ranks),
    "param_count_formula": lambda family, ranks: param_count_formula(family, LAYOUT_SHAPE, ranks),
}
# (family, ranks, message) on LAYOUT_SHAPE's four modes
LAYOUT_REJECTIONS = [
    ("tucker", (2, 2, 2), "need 4 tucker ranks, got 3"),
    ("tucker", (2, 2, 2, 2, 2), "need 4 tucker ranks, got 5"),
    ("tt", (2, 2), "need 3 tt ranks, got 2"),
    ("tt", (2, 2, 2, 2), "need 3 tt ranks, got 4"),
    ("tr", (1, 2, 2), "need 4 tr ranks, got 3"),
    ("tr", (1, 2, 2, 2, 2), "need 4 tr ranks, got 5"),
    ("tr", (2, 2, 2, 2), r"closing bond ranks\[0\] must be 1, got 2"),
    ("tr", (0, 2, 2, 2), "tr rank must be an integer >= 1, got 0"),
    ("tr", (np.int64(3), 1, 1, 1), r"closing bond ranks\[0\] must be 1, got 3"),
    # each rank a count of at least 1, never truncated by int(), and a Tucker rank at most its mode
    ("tt", (0, 2, 2), "tt rank must be an integer >= 1, got 0"),
    ("tt", (2, -3, 2), "tt rank must be an integer >= 1, got -3"),
    ("tr", (1, 2, 2, 0), "tr rank must be an integer >= 1, got 0"),
    ("tr", (1, -3, 2, 2), "tr rank must be an integer >= 1, got -3"),
    ("tucker", (5, 2, 2, 2), "tucker rank 5 exceeds the size 4 of mode 0"),
    ("tucker", (2, 3, 3, 2), "tucker rank 3 exceeds the size 2 of mode 2"),
    ("tt", (2.7, 2, 2), "tt rank must be an integer >= 1, got 2.7"),
    ("tr", (1, 2, 2.7, 2), "tr rank must be an integer >= 1, got 2.7"),
    ("tucker", (2, 2, 2, "3"), "tucker rank must be an integer >= 1, got '3'"),
    ("tucker", (1.5, 2, 2, 2), "tucker rank must be an integer >= 1, got 1.5"),
]
LAYOUT_CASES = [(entry, *case) for entry in LAYOUT_ENTRIES for case in LAYOUT_REJECTIONS] + [
    ("param_count_formula", "cp", (2, 2, 2, 2), "unknown family 'cp'"),
    ("param_count_formula", "TT", (2, 2, 2), "unknown family 'TT'"),
]


class TestLayout:
    """``_layout`` is the one check of a family, a rank count and a ring's
    closing bond, before any LAPACK call, for every entry that takes ranks."""

    @pytest.mark.parametrize(
        "entry, family, ranks, message", [pytest.param(*case, id="{}-{}-{}".format(*case)) for case in LAYOUT_CASES]
    )
    def test_rejects(self, lapack_calls, eigh_calls, entry, family, ranks, message):
        with pytest.raises(RankError, match=message):
            LAYOUT_ENTRIES[entry](family, ranks)
        assert lapack_calls == [] and eigh_calls == []

    def test_a_ring_is_its_train_and_the_others_are_their_own_tuples(self):
        tucker, bonds = (2, 3, 2, 4), (2, 3, 2)
        assert tn._layout("tucker", LAYOUT_SHAPE, tucker)[1] is tucker
        assert tn._layout("tt", LAYOUT_SHAPE, bonds)[1] is bonds
        assert tn._layout("tr", LAYOUT_SHAPE, (1, *bonds)) == ("tt", bonds)
        assert param_count_formula("tr", LAYOUT_SHAPE, (1, *bonds)) == param_count_formula("tt", LAYOUT_SHAPE, bonds)


# mode shapes of a size that is not a Python or numpy integer of at least 1
BAD_MODE_SHAPES = [(0, 4), (-4, 4), (4, 0, 4), (4.7, 4), (4, 4.0), ("4", 4), (4, None), (np.float64(4), 4)]


class TestModeSizes:
    @pytest.mark.parametrize("mode_shape", BAD_MODE_SHAPES, ids=str)
    @pytest.mark.parametrize("family", FAMILIES)
    def test_a_bad_mode_size_raises_shape_error(self, family, mode_shape):
        d = len(mode_shape)
        ranks = (1,) * (d - 1 if family == "tt" else d)
        calls = (
            lambda: select_ranks(mode_shape, family, ParamBudget(5)),
            lambda: param_count_formula(family, mode_shape, ranks),
            lambda: maximal_ranks(family, mode_shape),
        )
        for call in calls:
            with pytest.raises(ShapeError, match="mode size must be an integer >= 1, got"):
                call()

    def test_a_bad_mode_size_is_checked_before_the_rank_memo(self):
        assert select_ranks((4, 4), "tt", ParamBudget(8)) == (1,)
        with pytest.raises(ShapeError):
            select_ranks((4.7, 4), "tt", ParamBudget(8))  # once truncated to the memo's (4, 4)

    def test_numpy_integer_sizes_are_python_ints(self):
        shape = (np.int64(4), np.int32(3), np.uint8(5))
        assert param_count_formula("tt", shape, (2, 2)) == param_count_formula("tt", (4, 3, 5), (2, 2)) == 8 + 12 + 10
        assert select_ranks(shape, "tucker", ParamBudget(60)) == select_ranks((4, 3, 5), "tucker", ParamBudget(60))
        assert all(type(n) is int for n in maximal_ranks("tr", shape))


class TestSelectRanks:
    def test_tt_budget_inversion(self):
        ranks = select_ranks((8, 8, 8, 8), "tt", ParamBudget(320))
        assert ranks == (4, 4, 4)
        assert param_count_formula("tt", (8, 8, 8, 8), ranks) == 320

    def test_full_budget_gives_maximal_ranks(self, rng):
        for family in ("tucker", "tt", "tr"):
            shape = (4, 4, 4)
            ranks = select_ranks(shape, family, ParamBudget(64))
            assert ranks == maximal_ranks(family, shape)
            t = rng.standard_normal(shape)
            layer = layer_at(t, family, ranks)
            assert relerr(t, reconstruct(layer)) <= 1e-9

    def test_tucker_budget_locally_maximal(self):
        shape = (8, 8, 8, 8)
        ranks = select_ranks(shape, "tucker", ParamBudget(383))
        cost = param_count_formula("tucker", shape, ranks)
        assert cost <= 383
        assert max(ranks) <= 4 or cost < param_count_formula("tucker", shape, (4, 4, 4, 4))
        # oracle: no single-coordinate +1 stays within budget
        for i in range(4):
            trial = list(ranks)
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
        # a cold ring search is the train's: it asks for the train's caps alone
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
                    assert calls == [("tt" if family == "tr" else family, shape)]

    def test_a_repeated_key_runs_no_search(self):
        search = tn._rank_search
        search.cache_clear()
        first = select_ranks((4, 8, 4, 8), "tt", ParamBudget(300))
        again = select_ranks([np.int64(4), 8, 4, 8], "tt", ParamBudget(300))
        assert again == first == reference_select_ranks((4, 8, 4, 8), "tt", 300)
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

    @pytest.mark.parametrize("shape", [(4, 4, 4, 4), (4, 8, 4, 8), (4, 3, 2, 5), (16, 16), (7, 8, 8), (1, 64), (8, 8, 6, 6)], ids=str)
    def test_a_ring_search_is_the_train_search(self, shape):
        # each search cold, so the ring's runs the train's search itself
        def cold(family, budget):
            tn._rank_search.cache_clear()
            try:
                return select_ranks(shape, family, ParamBudget(budget))
            except InfeasibleBudgetError as err:
                return ("infeasible", err.best_achievable)

        dense, rings = math.prod(shape), 0
        for budget in sorted({*range(1, 80), *range(1, dense + 3, max(dense // 200, 1))}):
            train, ring = cold("tt", budget), cold("tr", budget)
            if train[0] == "infeasible":
                assert ring == train, (shape, budget)  # an equal best_achievable
            else:
                assert ring == (1, *train), (shape, budget)
                rings += 1
        assert rings >= 10

    def test_equals_the_validated_rank_search(self):
        shapes = ((4, 4, 4, 4), (4, 8, 4, 8), (4, 3, 2, 5), (16, 16), (6, 6, 6), (2, 2, 2, 2, 2, 2), (1, 4, 4), (8, 8, 6, 6))
        for shape in shapes:
            dense = math.prod(shape)
            for family in ("tucker", "tt", "tr"):
                for budget in range(1, dense + 3):
                    expected = reference_select_ranks(shape, family, budget)
                    try:
                        got = select_ranks(shape, family, ParamBudget(budget))
                    except InfeasibleBudgetError as err:
                        got = ("infeasible", err.best_achievable)
                    assert got == expected, (shape, family, budget)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_returns_a_tuple_of_python_ints(self, family):
        # cold with a numpy-int mode shape, then a memo hit; the maximal
        # ranks, then two that the greedy pass raised
        shape = (np.int64(4), np.int32(8), np.uint8(4), 8)
        for budget in (4096, 300, 700):
            tn._rank_search.cache_clear()
            for _ in range(2):
                ranks = select_ranks(shape, family, ParamBudget(budget))
                assert type(ranks) is tuple and all(type(r) is int for r in ranks), (budget, ranks)
                assert ranks == reference_select_ranks((4, 8, 4, 8), family, budget)
            assert tn._rank_search.cache_info().hits >= 1

    def test_selected_tt_ranks_always_achieved(self, rng):
        shape = (8, 8, 8, 8)
        t = rng.standard_normal(shape)
        for budget in (100, 320, 700, 1500, 3000):
            ranks = select_ranks(shape, "tt", ParamBudget(budget))
            layer = layer_at(t, "tt", ranks)
            assert layer.ranks == ranks
            assert stored_entry_count(layer) == param_count_formula("tt", shape, ranks) <= budget

    def test_selected_tr_ranks_always_achieved(self, rng):
        shape = (8, 8, 8, 8)
        t = rng.standard_normal(shape)
        for budget in (150, 400, 900, 2000):
            ranks = select_ranks(shape, "tr", ParamBudget(budget))
            layer = layer_at(t, "tr", ranks)
            assert layer.ranks == ranks
            assert stored_entry_count(layer) == param_count_formula("tr", shape, ranks) <= budget


class TestInvariants:
    def test_exactness_at_maximal_ranks_all_families(self, rng):
        shapes = [(2, 3, 4), (4, 4, 4), (3, 3, 3, 3), (6, 6, 6)]
        for shape in shapes:
            t = rng.standard_normal(shape)
            for family in ("tucker", "tt", "tr"):
                ranks = select_ranks(shape, family, ParamBudget(10**9))
                layer = layer_at(t, family, ranks)
                assert relerr(t, reconstruct(layer)) <= 1e-9, (family, shape)

    def test_monotone_budget_tt_and_tucker(self, rng):
        t = rng.standard_normal((6, 6, 6))
        for family in ("tt", "tucker"):
            prev_err = np.inf
            for budget in (30, 60, 120, 216, 400):
                try:
                    ranks = select_ranks((6, 6, 6), family, ParamBudget(budget))
                except InfeasibleBudgetError:
                    continue
                layer = layer_at(t, family, ranks)
                err = relerr(t, reconstruct(layer))
                assert err <= prev_err + 1e-9
                prev_err = err

    def test_compress_matrix_round_trip_full_budget(self, rng):
        w = rng.standard_normal((12, 10))
        layer = compress_matrix(w, "tt", ParamBudget(10**9))
        assert layer.matrix_shape == (12, 10)
        assert relerr(w, layer_to_matrix(layer)) <= 1e-9


MODES_16x32 = (4, 4, 4, 8)


def modes(a):
    """A 16 x 32 matrix as (4, 4, 4, 8); a matrix of no rows as (0, 4, 4, 8)."""
    return a.reshape(a.shape[0] // 4, 4, 4, 8)


# every public entry that takes an array, as (name, call on a 16 x 32 matrix)
PUBLIC_ENTRIES = (
    ("compress_matrix_tucker", lambda a: compress_matrix(a, "tucker", ParamBudget(200))),
    ("compress_matrix_tt", lambda a: compress_matrix(a, "tt", ParamBudget(200))),
    ("compress_matrix_tr", lambda a: compress_matrix(a, "tr", ParamBudget(200))),
    ("tucker_decompose", lambda a: tucker_decompose(modes(a), (2, 2, 2, 2))),
    ("tt_decompose", lambda a: tt_decompose(modes(a), (2, 2, 2))),
    ("tr_decompose", lambda a: tr_decompose(modes(a), (1, 2, 2, 2))),
    ("truncated_svd", lambda a: truncated_svd(a, 5)),
    ("full_svd", full_svd),
    ("leading_basis", lambda a: tc.leading_basis(a[None], 5)),
    ("leading_basis_stacked", lambda a: tc.leading_basis(np.stack([np.ones_like(a), a]), 5)),
    ("as_tensor", as_tensor),
    ("probe_patch", lambda a: probe_patch(a, FAMILIES, (0.25,), np.ones((32, 8)))),
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
    def test_non_finite_entry_raises_numerics_error(self, rng, lapack_calls, eigh_calls, name, call, bad, pos):
        w = rng.standard_normal((16, 32))
        w[pos] = bad
        with pytest.raises(NumericsError):
            call(w)
        assert lapack_calls == [] and eigh_calls == []  # LAPACK never sees a NaN or inf

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

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("row_mode_count", [0, 4])
    def test_a_layer_with_a_row_mode_count_out_of_range_raises(self, rng, family, row_mode_count):
        layer = compress_matrix(rng.standard_normal((32, 32)), family, ratio_budget(0.25, 1024))
        with pytest.raises(ShapeError, match="row_mode_count"):
            CompressedLayer(family, layer.mode_shape, row_mode_count, layer.core, layer.factors, layer.cores)

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
        # a basis of the input scaled by a power of two and a scan return
        w = near_overflow(rng)
        passes = name in ("truncated_svd", "full_svd", "leading_basis", "leading_basis_stacked", "as_tensor")
        with np.errstate(over="ignore", invalid="ignore"):
            if passes:
                call(w)
            else:
                with pytest.raises(NumericsError):
                    call(w)

    @pytest.mark.parametrize(
        "family, splits, bases",
        [
            # a factor per truncated mode at the start and in the sweep: 2 modes at ratio 0.5, 3 at 0.25
            ("tucker", 0, (4, 6)),
            ("tt", 1, (1, 1)),
            ("tr", 1, (1, 1)),
        ],
        ids=["tucker", "tt", "tr"],
    )
    def test_compress_matrix_scans_at_each_entry_plus_each_lapack_input(
        self, rng, monkeypatch, lapack_calls, family, splits, bases
    ):
        """Two scans of the input: compress_matrix's, and the family's
        decomposition's, each an entry. Each LAPACK input derived from it
        is checked where it is made: an unfolding, projection or split can
        overflow, and LAPACK must not see an inf. A Tucker factor and a wide
        TT split check the peak that ``_leading_basis`` scales by, and a
        tall TT split is scanned by ``_train_split`` (the near-overflow test
        sees a later split raise); neither calls ``as_tensor``. A TR is its
        train. On these (4, 8, 4, 8) modes Tucker takes a factor per
        truncated mode at the start and in the HOOI sweep, 2 modes at ratio
        0.5 and 3 at 0.25. TT and TR keep their first split whole, then take
        a basis for the wide (32, 32) split and one LAPACK SVD, a stack of
        one, for the tall (28, 8) or (16, 8) split. Nothing calls the plain
        ``truncated_svd``."""
        calls = {"as_tensor": 0, "svd": 0, "basis": 0}
        as_tensor, svd, basis = tc.as_tensor, tc.truncated_svd, tn._leading_basis

        def counted(name, fn):
            def call(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return call

        for module in (tc, tn):
            monkeypatch.setattr(module, "as_tensor", counted("as_tensor", as_tensor))
        monkeypatch.setattr(tc, "truncated_svd", counted("svd", svd))
        monkeypatch.setattr(tn, "_leading_basis", counted("basis", basis))
        w = rng.standard_normal((32, 32))
        for ratio, ratio_bases in zip((0.5, 0.25), bases):
            calls.update(as_tensor=0, svd=0, basis=0)
            lapack_calls.clear()
            compress_matrix(w, family, ratio_budget(ratio, w.size))
            assert (calls["svd"], len(lapack_calls), calls["basis"]) == (0, splits, ratio_bases)
            assert calls["as_tensor"] == 2
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
            fast = compress_matrix(w, family, budget)
            ranks = select_ranks(mode_shape, family, budget)
            chain = layer_at(as_tensor(w).reshape(mode_shape), family, ranks)
            assert fast.row_mode_count == row_modes and fast.ranks == chain.ranks == ranks
            assert all(bitwise_equal(a, b) for a, b in zip(payload(fast), payload(chain), strict=True))


# every entry point that decomposes, as (name, call on a 32 x 32 matrix, the
# modes a Tucker call truncates or None for a train): on the (4, 8, 4, 8)
# modes, compress_matrix's Tucker ranks at ratio 0.25 are (4, 4, 3, 3)
SWEEP_ENTRIES = [
    ("tucker_decompose", lambda w: tucker_decompose(w.reshape(4, 8, 4, 8), (2, 8, 3, 8)), 2),
    ("compress_matrix", lambda w: compress_matrix(w, "tucker", ratio_budget(0.25, w.size)), 3),
    ("compress_matrix_tt", lambda w: compress_matrix(w, "tt", ratio_budget(0.25, w.size)), None),
    ("compress_matrix_tr", lambda w: compress_matrix(w, "tr", ratio_budget(0.25, w.size)), None),
    ("tt_decompose", lambda w: tt_decompose(w.reshape(4, 8, 4, 8), (3, 5, 3)), None),
    ("tr_decompose", lambda w: tr_decompose(w.reshape(4, 8, 4, 8), (1, 3, 5, 3)), None),
]


# 32 x 32 inputs the sweep count must not depend on: Gaussian, scaled far
# up or down by an exact power of two, and exactly rank 4
SWEEP_INPUTS = {
    "gaussian": lambda rng: rng.standard_normal((32, 32)),
    "scaled-up": lambda rng: 2.0**40 * rng.standard_normal((32, 32)),
    "scaled-down": lambda rng: 2.0**-40 * rng.standard_normal((32, 32)),
    "rank-4": lambda rng: rng.standard_normal((32, 4)) @ rng.standard_normal((4, 32)),
}


class TestSweepCount:
    """A Tucker entry runs one HOOI sweep (``_hooi``, once): one
    eigendecomposition per truncated mode at the start and one in the sweep,
    no SVD, and an error no larger than the HOSVD's; a train or ring runs
    no sweep. The input's scale and rank change none of these counts."""

    @pytest.mark.parametrize("kind", list(SWEEP_INPUTS))
    @pytest.mark.parametrize("name, call, cut", SWEEP_ENTRIES, ids=[e[0] for e in SWEEP_ENTRIES])
    def test_a_tucker_entry_takes_one_sweep_and_a_train_none(self, rng, monkeypatch, lapack_calls, eigh_calls, name, call, cut, kind):
        runs, hooi = [], tn._hooi

        def counting(t, ranks, *args):
            runs.append(ranks)
            return hooi(t, ranks, *args)

        monkeypatch.setattr(tn, "_hooi", counting)
        w = SWEEP_INPUTS[kind](rng)
        layer = call(w)
        if cut is None:
            assert runs == []
            assert lapack_calls and eigh_calls  # each train has a tall split and a wide one
        else:
            assert runs == [layer.ranks] and lapack_calls == [] and len(eigh_calls) == 2 * cut
            dense = w.reshape(layer.mode_shape)
            assert relerr(dense, reconstruct(layer)) <= relerr(dense, hosvd_dense(dense, layer.ranks)) + 1e-12


class TestSvdSource:
    """The routines' factor sources: given HOSVD bases change no bit of a
    layer, and a ring is its train."""

    def test_a_tucker_stack_at_several_rank_tuples_equals_each_alone_bitwise(self, rng, eigh_calls, lapack_calls):
        # the default grid's rank tuples on (4, 8, 4, 8): modes 0 and 2 stay
        # whole at 0.5 and 0.35, mode 0 at 0.25, and 0.15 truncates all four
        shape = (4, 8, 4, 8)
        tuples = [select_ranks(shape, "tucker", ratio_budget(r, 1024)) for r in (0.5, 0.35, 0.25, 0.15)]
        assert tuples == [(4, 5, 4, 5), (4, 4, 4, 4), (4, 4, 3, 3), (3, 3, 3, 3)]
        t = rng.standard_normal((3, *shape))
        fits = list(tn._tucker_stack(t, tuples))
        # one start eigendecomposition per mode any tuple truncates, then
        # one per truncated mode in each tuple's sweep (2 + 2 + 3 + 4)
        start = sorted((3, n, n) for n in shape)
        assert sorted(eigh_calls[:4]) == start and len(eigh_calls) == 4 + 11
        assert [ranks for ranks, _, _ in fits] == tuples
        for ranks, core, factors in fits:
            assert equals_its_slices(core, factors, t, ranks), ranks
            # the start copies its columns of the shared bases
            assert not any(f is not None and f.base is not None for f in factors)
        assert lapack_calls == []  # Tucker takes no SVD

    def test_each_decomposition_is_dropped_before_the_next_is_made(self, rng):
        # a caller that stops short of a decomposition's last slice, as zip
        # does when a shorter iterable ends first, still frees its arrays:
        # its slices are closed before the next decomposition
        shape = (4, 8, 4, 8)
        t = rng.standard_normal((3, *shape))
        tucker, trains = ([select_ranks(shape, f, ratio_budget(r, 1024)) for r in (0.5, 0.15)] for f in ("tucker", "tt"))
        read, last = [], None
        for key, slices in tn._reconstructions(t, tucker, trains):
            assert last is None or last.gi_frame is None, key
            read.append((key, next(slices).shape))
            last = slices
        assert last.gi_frame is None
        assert read == [(("tucker", r), shape) for r in tucker] + [(("tt", b), shape) for b in sorted(trains)]

    def test_a_yielded_decomposition_is_freed_when_the_caller_drops_it(self, rng):
        # the generator's suspended frame holds no reference to what it yielded
        t = rng.standard_normal((3, 4, 8, 4, 8))
        stack = tn._tucker_stack(t, [(4, 5, 4, 5), (3, 3, 3, 3)])
        ranks, core, factors = next(stack)
        refs = [weakref.ref(a) for a in (core, *[f for f in factors if f is not None])]
        del core, factors
        assert all(ref() is None for ref in refs)
        assert next(stack)[0] == (3, 3, 3, 3)

    def test_each_hosvd_basis_is_dropped_before_the_sweep_that_no_longer_needs_it(self, rng, monkeypatch):
        # mode sizes name the bases: the first tuple truncates modes 0 (n = 3)
        # and 2 (n = 5), the second mode 2 only, so mode 0's basis goes before
        # the first tuple's sweep and mode 2's before the second's
        t = rng.standard_normal((2, 3, 4, 5, 6))
        bases, alive = {}, []
        factor = tn._leading_basis

        def recording(unfoldings, rank):
            out = factor(unfoldings, rank)
            if rank == unfoldings.shape[1]:  # a start basis
                bases[rank] = weakref.ref(out)
            else:  # a sweep's factor
                alive.append(sorted(n for n, ref in bases.items() if ref() is not None))
            return out

        monkeypatch.setattr(tn, "_leading_basis", recording)
        for _ in tn._tucker_stack(t, [(2, 4, 3, 6), (3, 4, 2, 6)]):
            pass
        assert alive == [[5], [5], []]
        bases.clear()
        alive.clear()
        tucker_decompose(t[0], (2, 4, 3, 6))
        assert sorted(bases) == [3, 5] and alive == [[], []]

    def test_a_ring_with_a_unit_closing_bond_has_the_train_cores_bitwise(self, rng):
        # what lets a probe of a ring take the train's deviation
        # (tn._layout); (4, 8, 4) is capped at (4, 4, 4)
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
                ranks = select_ranks(mode_shape, "tr", budget)
            except InfeasibleBudgetError:
                continue
            assert ranks[0] == 1 and ranks[1:] == select_ranks(mode_shape, "tt", budget)
            tr, tt = compress_matrix(w, "tr", budget), compress_matrix(w, "tt", budget)
            assert tr.family == "tr" and tr.ranks == ranks, (ratio, ranks)
            assert all(bitwise_equal(a, b) for a, b in zip(tr.cores, tt.cores, strict=True)), (ratio, ranks)
            rings += 1
        assert rings >= 20


def plain_train(t, bonds):
    """Oracle: the cores of a sequential TT-SVD of one tensor, each split
    capped at the unfolding's min dimension. A split that keeps all of the
    unfolding's rows is the identity carrying the unfolding on; a wide one
    (rows <= cols) is ``leading_basis`` of the unfolding and the carry
    ``left.T @ c``; a tall one is a ``truncated_svd``."""
    cores, r_prev, c = [], 1, t
    for k, r in enumerate(bonds):
        c = c.reshape(r_prev * t.shape[k], -1)
        keep = min(r, min(c.shape))
        if keep == len(c):
            cores.append(np.eye(keep).reshape(r_prev, t.shape[k], keep))
            r_prev = keep
            continue
        if len(c) <= c.shape[1]:
            left = tc.leading_basis(c[None], keep)[0]
            c = left.T @ c
        else:
            res = truncated_svd(c, keep)
            left, c = res.left, res.values[:, None] * res.right.T
        cores.append(left.reshape(r_prev, t.shape[k], keep))
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
    """A stack of five tensors of ``mode_shape``: full rank, rank 2 as a
    matrix of its first mode against the rest, zero, and full rank scaled
    by 2**-30 and by 2**500."""
    n0, rest = mode_shape[0], math.prod(mode_shape[1:])
    low = rng.standard_normal((n0, 2)) @ rng.standard_normal((2, rest))
    slices = [rng.standard_normal(mode_shape), low, np.zeros(mode_shape)]
    slices += [rng.standard_normal(mode_shape) * 2.0**e for e in (-30, 500)]
    return np.stack([np.reshape(x, mode_shape) for x in slices])


def assert_split_calls(count, shapes, lapack_calls, eigh_calls):
    """Each truncated split of ``shapes`` made once over a stack of
    ``count``: a wide one (rows <= cols) by an ``eigh`` of its rows x rows
    Gram, a tall one by an SVD."""
    wide = [(count, m, m) for m, n in shapes if m <= n]
    tall = [(count, m, n) for m, n in shapes if m > n]
    assert (sorted(eigh_calls), sorted(lapack_calls)) == (sorted(wide), sorted(tall))


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
    reconstruction of its trains, ``_dense_slices``."""

    @pytest.mark.parametrize("mode_shape, bond_vectors", TRAIN_CASES, ids=["4x4x4x4", "4x8x4x8", "7x8x8", "6x9"])
    def test_each_slice_equals_a_truncated_svd_train_of_the_slice_bitwise(self, rng, mode_shape, bond_vectors):
        t = train_stack(rng, mode_shape)
        done = []
        for bonds, cores in tn._train_stack(t, bond_vectors):
            done.append(bonds)
            dense = list(tn._dense_slices(cores=cores))
            for p in range(len(t)):
                plain = plain_train(t[p], bonds)
                assert all(bitwise_equal(a[p], b) for a, b in zip(cores, plain, strict=True)), (bonds, p)
                assert bitwise_equal(dense[p], dot_chain(plain).reshape(mode_shape)), (bonds, p)
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

    def test_bond_vectors_that_keep_the_same_bonds_share_their_splits(self, rng, lapack_calls, eigh_calls):
        # kept bonds (1, 1, 1), (2, 2, 1), (3, 2, 2), (4, 3, 2), (4, 3, 4) and
        # (4, 16, 4) twice: one first split, the second split once per first
        # bond, the third once per distinct pair of bonds before it
        t = train_stack(rng, (4, 4, 4, 4))
        list(tn._train_stack(t, TRAIN_CASES[0][1]))
        shapes = [(4, 64), (4, 16), (8, 16), (12, 16), (16, 16), (4, 4), (8, 4), (8, 4), (12, 4), (64, 4)]
        assert_split_calls(len(t), shapes, lapack_calls, eigh_calls)

    def test_a_whole_split_is_shared_only_with_bond_vectors_that_keep_it_whole(self, rng, lapack_calls, eigh_calls):
        # the default ratio grid's TT bonds on (4, 8, 4, 8): (4, 7, 7), (4, 5, 6)
        # and (4, 4, 4) keep the first split whole, (3, 3, 3) truncates it, so
        # one stacked eigendecomposition makes that split for (3, 3, 3) alone
        mode_shape = (4, 8, 4, 8)
        bond_vectors = [select_ranks(mode_shape, "tt", ratio_budget(r, 1024)) for r in (0.5, 0.35, 0.25, 0.15)]
        assert bond_vectors == [(4, 7, 7), (4, 5, 6), (4, 4, 4), (3, 3, 3)]
        t = train_stack(rng, mode_shape)
        trains = list(tn._train_stack(t, bond_vectors))
        shapes = [(4, 256), (24, 32), (32, 32), (12, 8), (16, 8), (20, 8), (28, 8)]
        assert_split_calls(len(t), shapes, lapack_calls, eigh_calls)
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
        small = rng.standard_normal((2, 2, 8))
        small[1, 0, 5] = bad
        calls = [
            lambda: tucker_decompose(t, t.shape),
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


def decaying_matrix(rng, n, digits, knee):
    """An n x n matrix of random singular vectors whose singular values
    fall by ``digits`` decades every ``knee`` indices, to zero once they
    underflow."""
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (u * 10.0 ** (-digits * np.arange(n) / knee)) @ v.T


def tt_svd_bound(t, bonds):
    """The TT-SVD bound of a train of ``t`` at its kept ``bonds`` (Oseledets
    2011, Thm 2.2), the root of the summed squared tails of the sequential
    unfoldings; the largest tail, which no train at those bonds beats
    (Eckart & Young 1936); and the slack of the Gram route over the bound.

    The slack: a truncated split of an ``m x n`` input ``c`` at bond ``r``
    keeps the leading eigenvectors of a Gram computed with an error ``E``,
    ``||E|| <= (m + n) eps ||c||_F**2`` (the product's and ``eigh``'s
    rounding). By Weyl's and Ky Fan's inequalities its squared tail is at
    most the exact one plus ``2 r ||E||``, and ``||c||_F <= ||t||``, so the
    error is at most the bound plus ``||t|| sqrt(2 eps sum_k r_k (m_k +
    n_k))``. That is ``sqrt(eps)`` times ``||t||``, far above the rounding
    of a train built from SVDs alone."""
    eps = np.finfo(np.float64).eps
    tails, r_prev, spread = [], 1, 0.0
    for k, r in enumerate(bonds):
        rows, cols = r_prev * t.shape[k], math.prod(t.shape[k + 1 :])
        values = np.linalg.svd(t.reshape(math.prod(t.shape[: k + 1]), -1), compute_uv=False)
        tails.append(float(np.linalg.norm(values[r:])))
        if r < rows:
            spread += 2 * r * (rows + cols) * eps
        r_prev = r
    return math.sqrt(sum(x * x for x in tails)), max(tails), float(np.linalg.norm(t)) * math.sqrt(spread)


class TestTrainBound:
    """A train whose wide splits take the Gram eigenbasis keeps within the
    TT-SVD bound, up to the Gram's rounding, where its spectra fall below
    ``sqrt(eps)``; a NaN or inf in a split or a Tucker unfolding reaches no
    LAPACK call."""

    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_each_train_meets_the_tt_svd_bound(self, n):
        rng = np.random.default_rng(n)
        shape, _ = default_mode_shape(n, n)
        # singular values that cross sqrt(eps) (about 1.5e-8) before, at and past
        # the cuts, with the slices of train_stack among them
        spectra = [decaying_matrix(rng, n, rng.uniform(4, 16), rng.integers(3, n)) for _ in range(8)]
        stack = np.concatenate([np.stack(spectra).reshape(-1, *shape), train_stack(rng, shape)])
        for ratio in (0.5, 0.35, 0.25, 0.15):
            bonds = select_ranks(shape, "tt", ratio_budget(ratio, n * n))
            for t in stack:
                layer = tt_decompose(t, bonds)
                bound, floor, slack = tt_svd_bound(t, layer.ranks)
                err = float(np.linalg.norm(t - reconstruct(layer)))
                assert floor - 1e-12 * float(np.linalg.norm(t)) <= err <= bound + slack, (ratio, err, bound, slack)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_wide_split_or_unfolding_raises_before_lapack(self, rng, eigh_calls, lapack_calls, bad):
        # the basis kernel's one check is on each slice's peak, which the
        # stack routines and the sweep leave to it
        c = rng.standard_normal((3, 8, 32))
        c[1, 5, 20] = bad
        with pytest.raises(NumericsError):
            tn._train_split(c, 3)
        with pytest.raises(NumericsError):
            tc._leading_basis(c, 8)
        assert eigh_calls == [] and lapack_calls == []

    @pytest.mark.parametrize("family", ["tucker", "tt"])
    def test_an_overflowing_projection_or_split_never_reaches_lapack(self, rng, monkeypatch, family):
        # the finite near-overflow input passes its entry's scan; a Tucker
        # sweep's projection or a TT carry then overflows, and the basis or
        # split made from it raises before its LAPACK call
        finite = []
        for name in ("eigh", "svd"):

            def recording(a, *args, _call=getattr(np.linalg, name), **kwargs):
                finite.append(bool(np.isfinite(a).all()))
                return _call(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recording)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericsError):
            compress_matrix(near_overflow(rng), family, ParamBudget(200))
        assert finite and all(finite)
