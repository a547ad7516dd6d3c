import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minima.errors import (
    DegenerateReferenceError,
    InfeasibleBudgetError,
    NumericsError,
    RankError,
    ShapeError,
)
from minima.tensor_core import (
    FixedRank,
    ParamBudget,
    RelativeError,
    as_tensor,
    contract,
    fold,
    frobenius,
    full_svd,
    relative_error,
    reshape_to_modes,
    truncated_svd,
    unfold,
)


def unfold_oracle(t, mode):
    """Brute-force unfolding by explicit index enumeration."""
    shape = t.shape
    rest = [i for i in range(t.ndim) if i != mode]
    ncols = int(np.prod([shape[i] for i in rest])) if rest else 1
    out = np.zeros((shape[mode], ncols))
    for idx in np.ndindex(*shape):
        col = 0
        for i in rest:
            col = col * shape[i] + idx[i]
        out[idx[mode], col] = t[idx]
    return out


class TestReshapeToModes:
    def test_flat_data_preserved_4x4(self):
        m = np.arange(16.0).reshape(4, 4)
        t = reshape_to_modes(m, (2, 2, 2, 2))
        assert t.shape == (2, 2, 2, 2)
        assert np.array_equal(t.ravel(), m.ravel())

    def test_flat_data_preserved_6x4(self):
        m = np.arange(24.0).reshape(6, 4)
        t = reshape_to_modes(m, (2, 3, 4))
        assert t.shape == (2, 3, 4)
        assert np.array_equal(t.ravel(), m.ravel())

    def test_size_mismatch(self):
        with pytest.raises(ShapeError):
            reshape_to_modes(np.ones((4, 4)), (3, 5))

    def test_round_trip_identity(self):
        m = np.arange(24.0).reshape(4, 6)
        t = reshape_to_modes(m, (2, 2, 2, 3))
        assert np.array_equal(t.reshape(4, 6), m)

    def test_mode_count_limits(self):
        with pytest.raises(ShapeError):
            reshape_to_modes(np.ones((2, 64)), (2,) * 7)


class TestUnfoldFold:
    def test_mode0_example(self):
        t = np.arange(8.0).reshape(2, 2, 2)
        assert np.array_equal(unfold(t, 0), [[0, 1, 2, 3], [4, 5, 6, 7]])

    def test_mode2_example(self):
        t = np.arange(8.0).reshape(2, 2, 2)
        expected = unfold_oracle(t, 2)
        assert np.array_equal(expected, [[0, 2, 4, 6], [1, 3, 5, 7]])
        assert np.array_equal(unfold(t, 2), expected)

    def test_matches_oracle_all_modes(self, rng):
        t = rng.standard_normal((3, 4, 2, 5))
        for mode in range(t.ndim):
            assert np.array_equal(unfold(t, mode), unfold_oracle(t, mode))

    def test_mode_out_of_range(self):
        with pytest.raises(IndexError):
            unfold(np.ones((2, 2)), 2)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=5),
        st.data(),
    )
    def test_fold_unfold_round_trip(self, shape, data):
        rng = np.random.default_rng(123)
        t = rng.standard_normal(shape)
        mode = data.draw(st.integers(min_value=0, max_value=len(shape) - 1))
        assert np.array_equal(fold(unfold(t, mode), mode, shape), t)


class TestContract:
    def test_matrix_product(self, rng):
        a = rng.standard_normal((2, 3))
        b = rng.standard_normal((3, 2))
        assert np.allclose(contract(a, [1], b, [0]), a @ b)

    def test_identity_contraction(self, rng):
        t = rng.standard_normal((3, 4, 5))
        out = contract(t, [1], np.eye(4), [0])
        # free modes of t first, then the identity's free mode
        assert np.allclose(out, np.moveaxis(t, 1, 2))

    def test_mode_sums_against_loop_oracle(self, rng):
        t = rng.standard_normal((3, 4, 2))
        ones = np.ones(4)
        out = contract(t, [1], ones, [0])
        expected = np.zeros((3, 2))
        for i in range(3):
            for j in range(4):
                for k in range(2):
                    expected[i, k] += t[i, j, k]
        assert np.allclose(out, expected)

    def test_size_mismatch(self):
        with pytest.raises(ShapeError):
            contract(np.ones((2, 3)), [1], np.ones((4, 2)), [0])


class TestRelativeError:
    def test_equal_tensors(self, rng):
        a = rng.standard_normal((3, 3))
        assert relative_error(a, a) == 0.0

    def test_zero_approximation(self):
        a = np.array([3.0, 4.0])
        assert relative_error(a, np.zeros(2)) == pytest.approx(1.0)

    def test_zero_reference_raises(self):
        with pytest.raises(DegenerateReferenceError):
            relative_error(np.zeros(3), np.ones(3))

    def test_non_finite_rejected(self):
        with pytest.raises(NumericsError):
            as_tensor([np.nan, 1.0])


class TestTruncatedSvd:
    def test_rank_one_matrix(self):
        m = np.array([[1.0, 2.0], [2.0, 4.0]])
        res = truncated_svd(m, FixedRank(1))
        assert res.values == pytest.approx([5.0])
        assert np.allclose(res.reconstruct(), m, atol=1e-12)

    def test_relative_error_identity_needs_full_rank(self):
        # residual after keeping r of 3 equal singular values is sqrt((3-r)/3):
        # r=1 -> 0.816, r=2 -> 0.577, both above 0.5, so r must be 3
        for r in range(1, 3):
            assert np.sqrt((3 - r) / 3) > 0.5
        res = truncated_svd(np.eye(3), RelativeError(0.5))
        assert res.rank == 3

    def test_full_rank_reconstruction(self, rng):
        m = rng.standard_normal((8, 5))
        res = truncated_svd(m, FixedRank(5))
        assert relative_error(m, res.reconstruct()) <= 1e-10

    def test_orthonormal_blocks(self, rng):
        for shape in [(6, 6), (8, 3), (3, 8)]:
            m = rng.standard_normal(shape)
            res = full_svd(m)
            r = res.rank
            assert np.max(np.abs(res.left.T @ res.left - np.eye(r))) <= 1e-10
            assert np.max(np.abs(res.right.T @ res.right - np.eye(r))) <= 1e-10

    def test_values_sorted_nonnegative(self, rng):
        res = full_svd(rng.standard_normal((7, 4)))
        assert np.all(res.values >= 0)
        assert np.all(np.diff(res.values) <= 0)

    def test_eckart_young_against_eigh_oracle(self, rng):
        # independent oracle: eigenvalues of m^T m give the singular spectrum
        for _ in range(10):
            m = rng.standard_normal((6, 6))
            sigma = np.sqrt(np.clip(np.sort(np.linalg.eigvalsh(m.T @ m))[::-1], 0, None))
            for r in (1, 3, 5):
                res = truncated_svd(m, FixedRank(r))
                err = frobenius(m - res.reconstruct())
                expected = np.sqrt(np.sum(sigma[r:] ** 2))
                assert err == pytest.approx(expected, abs=1e-9)

    def test_fixed_rank_pads_with_zeros(self):
        m = np.array([[1.0, 2.0], [2.0, 4.0]])
        res = truncated_svd(m, FixedRank(2))
        assert res.values[0] == pytest.approx(5.0)
        assert res.values[1] <= 1e-12
        assert np.max(np.abs(res.left.T @ res.left - np.eye(2))) <= 1e-10

    def test_zero_matrix(self):
        res = full_svd(np.zeros((4, 3)))
        assert np.all(res.values == 0)
        assert np.max(np.abs(res.left.T @ res.left - np.eye(3))) <= 1e-10
        assert np.max(np.abs(res.right.T @ res.right - np.eye(3))) <= 1e-10

    def test_sign_convention(self, rng):
        res = full_svd(rng.standard_normal((6, 4)))
        for j in range(res.rank):
            col = res.left[:, j]
            assert col[int(np.argmax(np.abs(col)))] > 0

    def test_param_budget_rank(self, rng):
        m = rng.standard_normal((8, 5))
        # one triplet costs 8 + 5 + 1 = 14 scalars
        assert truncated_svd(m, ParamBudget(14)).rank == 1
        assert truncated_svd(m, ParamBudget(41)).rank == 2
        assert truncated_svd(m, ParamBudget(10**6)).rank == 5
        with pytest.raises(InfeasibleBudgetError):
            truncated_svd(m, ParamBudget(13))

    def test_fixed_rank_exceeds_min_dim(self):
        with pytest.raises(RankError):
            truncated_svd(np.ones((3, 5)), FixedRank(4))

    def test_determinism_bitwise(self, rng):
        # small, square and thin inputs, repeated with unrelated SVD calls in between
        cases = [
            (rng.standard_normal((9, 6)), FixedRank(4)),
            (rng.standard_normal((128, 128)), FixedRank(128)),
            (rng.standard_normal((96, 12)), FixedRank(12)),
        ]
        first = [truncated_svd(m.copy(), policy) for m, policy in cases]
        for _ in range(3):
            for (m, policy), a in zip(cases, first):
                full_svd(rng.standard_normal(m.shape[::-1]))
                b = truncated_svd(m.copy(), policy)
                assert a.left.tobytes() == b.left.tobytes()
                assert a.values.tobytes() == b.values.tobytes()
                assert a.right.tobytes() == b.right.tobytes()

    def test_policy_validation(self):
        with pytest.raises(RankError):
            FixedRank(0)
        with pytest.raises(RankError):
            RelativeError(0.0)
        with pytest.raises(RankError):
            RelativeError(1.5)
        with pytest.raises(RankError):
            ParamBudget(0)
