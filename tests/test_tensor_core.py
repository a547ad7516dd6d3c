import numpy as np
import pytest

from minima.errors import DegenerateReferenceError, NumericsError, RankError, ShapeError
from minima.tensor_core import (
    ParamBudget,
    as_tensor,
    frobenius,
    full_svd,
    mode_dot,
    relative_error,
    truncated_svd,
    unfold,
)


def bitwise_equal(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


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

    def test_equals_the_moveaxis_form_bitwise(self, rng):
        for d in range(1, 6):
            t = rng.standard_normal((3, 4, 2, 5, 3)[:d])
            for source in (t, t.transpose(tuple(reversed(range(d))))):
                for mode in range(d):
                    expected = np.ascontiguousarray(np.moveaxis(source, mode, 0).reshape(source.shape[mode], -1))
                    assert bitwise_equal(unfold(source, mode), expected), (d, mode)


def tensordot_mode_dot(t, mat, mode):
    """The ``np.tensordot`` form of a mode product."""
    return np.moveaxis(np.tensordot(t, mat, axes=(mode, 0)), -1, mode)


class TestModeDot:
    def test_equals_tensordot_bitwise(self, rng):
        shape = (3, 4, 2, 5, 3)
        for d in range(1, 6):
            base = rng.standard_normal(shape[:d])
            for mode in range(d):
                n = shape[mode]
                # a non-contiguous t: the view a previous mode product returns
                prev = (mode + 1) % d
                view = mode_dot(base, rng.standard_normal((shape[prev], shape[prev])), prev)
                mats = (rng.standard_normal((n, 3)), rng.standard_normal((2, n)).T)
                for t in (base, view):
                    for mat in mats:
                        got, expected = mode_dot(t, mat, mode), tensordot_mode_dot(t, mat, mode)
                        assert bitwise_equal(np.ascontiguousarray(got), np.ascontiguousarray(expected)), (d, mode)
                        assert got.shape == expected.shape

    def test_rejects_a_non_matrix(self, rng):
        with pytest.raises(ShapeError):
            mode_dot(rng.standard_normal((2, 3)), rng.standard_normal(2), 0)


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
        res = truncated_svd(m, 1)
        assert res.values == pytest.approx([5.0])
        assert np.allclose((res.left * res.values) @ res.right.T, m, atol=1e-12)

    def test_full_rank_reconstruction(self, rng):
        m = rng.standard_normal((8, 5))
        res = truncated_svd(m, 5)
        assert relative_error(m, (res.left * res.values) @ res.right.T) <= 1e-10

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
                res = truncated_svd(m, r)
                err = frobenius(m - (res.left * res.values) @ res.right.T)
                expected = np.sqrt(np.sum(sigma[r:] ** 2))
                assert err == pytest.approx(expected, abs=1e-9)

    def test_fixed_rank_pads_with_zeros(self):
        m = np.array([[1.0, 2.0], [2.0, 4.0]])
        res = truncated_svd(m, 2)
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

    def test_fixed_rank_exceeds_min_dim(self):
        with pytest.raises(RankError):
            truncated_svd(np.ones((3, 5)), 4)

    def test_determinism_bitwise(self, rng):
        # small, square and thin inputs, repeated with unrelated SVD calls in between
        cases = [
            (rng.standard_normal((9, 6)), 4),
            (rng.standard_normal((128, 128)), 128),
            (rng.standard_normal((96, 12)), 12),
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
            ParamBudget(0)

    def test_rank_outside_one_to_min_dim(self, rng):
        for shape in [(5, 3), (3, 5), (4, 4)]:
            m = rng.standard_normal(shape)
            for rank in (0, min(shape) + 1):
                with pytest.raises(RankError):
                    truncated_svd(m, rank)

    def test_truncation_is_a_prefix_of_the_full_svd_bitwise(self, rng):
        for shape in [(9, 6), (64, 64), (96, 12), (12, 96), (8, 512)]:
            m = rng.standard_normal(shape)
            full = full_svd(m)
            for r in range(1, min(shape) + 1):
                res = truncated_svd(m, r)
                assert res.left.tobytes() == full.left[:, :r].tobytes(), (shape, r)
                assert res.values.tobytes() == full.values[:r].tobytes(), (shape, r)
                assert res.right.tobytes() == full.right[:, :r].tobytes(), (shape, r)
