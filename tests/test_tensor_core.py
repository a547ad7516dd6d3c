import numpy as np
import pytest

from helpers import reconstruction_error
from minima.errors import NumericsError, RankError, ShapeError
from minima.tensor_core import (
    ParamBudget,
    as_tensor,
    full_svd,
    leading_basis,
    mode_dot,
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
        assert np.array_equal(unfold(t[None], 0)[0], [[0, 1, 2, 3], [4, 5, 6, 7]])

    def test_mode2_example(self):
        t = np.arange(8.0).reshape(2, 2, 2)
        expected = unfold_oracle(t, 2)
        assert np.array_equal(expected, [[0, 2, 4, 6], [1, 3, 5, 7]])
        assert np.array_equal(unfold(t[None], 2)[0], expected)

    def test_matches_oracle_all_modes(self, rng):
        t = rng.standard_normal((3, 4, 2, 5))
        for mode in range(t.ndim):
            assert np.array_equal(unfold(t[None], mode)[0], unfold_oracle(t, mode))

    def test_mode_out_of_range(self):
        with pytest.raises(IndexError):
            unfold(np.ones((1, 2, 2)), 2)

    def test_equals_the_moveaxis_form_bitwise(self, rng):
        for d in range(1, 6):
            t = rng.standard_normal((3, 4, 2, 5, 3)[:d])
            for source in (t, t.transpose(tuple(reversed(range(d))))):
                for mode in range(d):
                    expected = np.ascontiguousarray(np.moveaxis(source, mode, 0).reshape(source.shape[mode], -1))
                    assert bitwise_equal(unfold(source[None], mode)[0], expected), (d, mode)


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
                view = mode_dot(base[None], rng.standard_normal((1, shape[prev], shape[prev])), prev)[0]
                mats = (rng.standard_normal((n, 3)), rng.standard_normal((2, n)).T)
                for t in (base, view):
                    for mat in mats:
                        got, expected = mode_dot(t[None], mat[None], mode)[0], tensordot_mode_dot(t, mat, mode)
                        assert bitwise_equal(np.ascontiguousarray(got), np.ascontiguousarray(expected)), (d, mode)
                        assert got.shape == expected.shape

    def test_rejects_a_non_matrix(self, rng):
        # a factor per slice: a vector, a plain matrix or a stack of stacks is rejected
        t = rng.standard_normal((1, 2, 3))
        for mat in (rng.standard_normal(2), rng.standard_normal((2, 3)), rng.standard_normal((1, 1, 2, 3))):
            with pytest.raises(ShapeError):
                mode_dot(t, mat, 0)


COMPLEX_INPUTS = [np.ones(3) + 1j, np.ones((4, 3), dtype=np.complex64), [1.0, 2.0 + 0j]]


class TestAsTensor:
    def test_non_finite_rejected(self):
        with pytest.raises(NumericsError):
            as_tensor([np.nan, 1.0])

    @pytest.mark.parametrize("data", COMPLEX_INPUTS, ids=["imaginary", "complex64", "list"])
    def test_a_complex_input_raises_rather_than_lose_its_imaginary_part(self, data):
        # the float64 cast once returned [1, 1, 1] for np.ones(3) + 1j, with only a ComplexWarning
        with pytest.raises(NumericsError, match="must be real, got a complex array"):
            as_tensor(data)

    def test_a_complex_matrix_raises_before_lapack(self, lapack_calls, eigh_calls):
        m = np.ones((4, 3)) + 1j
        for call in (lambda: truncated_svd(m, 2), lambda: leading_basis(m[None], 2)):
            with pytest.raises(NumericsError, match="complex"):
                call()
        assert lapack_calls == [] and eigh_calls == []


class TestTruncatedSvd:
    def test_rank_one_matrix(self):
        m = np.array([[1.0, 2.0], [2.0, 4.0]])
        res = truncated_svd(m, 1)
        assert res.values == pytest.approx([5.0])
        assert np.allclose((res.left * res.values) @ res.right.T, m, atol=1e-12)

    def test_full_rank_reconstruction(self, rng):
        m = rng.standard_normal((8, 5))
        res = truncated_svd(m, 5)
        assert reconstruction_error(m, (res.left * res.values) @ res.right.T) <= 1e-10

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
                err = float(np.linalg.norm(m - (res.left * res.values) @ res.right.T))
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


def separated(rng, m, n):
    """An m x n matrix with random singular vectors and singular values
    evenly spaced from 1 down to 0.2: every gap is at least 0.8 / min(m, n)."""
    k = min(m, n)
    u, _ = np.linalg.qr(rng.standard_normal((m, k)))
    v, _ = np.linalg.qr(rng.standard_normal((n, k)))
    return (u * np.linspace(1.0, 0.2, k)) @ v.T


def basis(m, rank):
    """``leading_basis`` of one matrix, as a stack of one."""
    return leading_basis(m[None], rank)[0]


class TestLeadingBasis:
    @pytest.mark.parametrize("shape", [(4, 64), (8, 512), (9, 6), (6, 9), (16, 16)])
    def test_spans_the_leading_left_singular_subspace(self, rng, shape):
        m = separated(rng, *shape)
        for rank in range(1, min(shape) + 1):
            u = basis(m, rank)
            ref = truncated_svd(m, rank).left
            assert np.linalg.norm(u @ u.T - ref @ ref.T, 2) <= 1e-12, (shape, rank)

    def test_columns_are_orthonormal_and_signed(self, rng):
        u = basis(rng.standard_normal((7, 40)), 7)
        assert np.max(np.abs(u.T @ u - np.eye(7))) <= 1e-12
        for j in range(7):
            assert u[int(np.argmax(np.abs(u[:, j]))), j] > 0

    @pytest.mark.parametrize("shape", [(8, 3), (5, 1), (6, 6)])
    def test_a_rank_above_the_column_count_gives_a_full_orthonormal_basis(self, rng, shape):
        m = rng.standard_normal(shape)
        u = basis(m, shape[0])
        assert u.shape == (shape[0], shape[0]) and u.flags.c_contiguous
        assert np.max(np.abs(u.T @ u - np.eye(shape[0]))) <= 1e-12
        # the leading columns span the column space of m
        lead = u[:, : shape[1]]
        assert np.max(np.abs(m - lead @ (lead.T @ m))) <= 1e-12 * np.max(np.abs(m))

    @pytest.mark.parametrize("exponent", [-600, -1, 1, 500])
    def test_a_power_of_two_scale_changes_no_bit(self, rng, exponent):
        for shape in [(4, 64), (8, 512), (9, 6)]:
            m = rng.standard_normal(shape)
            scaled = np.ldexp(m, exponent)
            for rank in (1, shape[0]):
                assert bitwise_equal(basis(scaled, rank), basis(m, rank)), (shape, rank)

    def test_near_overflow_entries_give_finite_orthonormal_columns(self, rng):
        m = rng.uniform(-1.0, 1.0, (8, 512)) * 1e308
        u = basis(m, 8)
        assert np.all(np.isfinite(u)) and np.max(np.abs(u.T @ u - np.eye(8))) <= 1e-12
        assert bitwise_equal(u, basis(np.ldexp(m, -1000), 8))

    def test_truncation_is_a_prefix_of_the_full_basis_bitwise(self, rng):
        for shape in [(9, 6), (4, 64), (8, 512), (16, 16)]:
            m = rng.standard_normal(shape)
            full = basis(m, shape[0])
            for rank in range(1, shape[0] + 1):
                assert bitwise_equal(basis(m, rank), np.ascontiguousarray(full[:, :rank])), (shape, rank)

    def test_determinism_bitwise(self, rng):
        cases = [rng.standard_normal(shape) for shape in [(4, 64), (8, 512), (9, 6)]]
        first = [basis(m.copy(), 3) for m in cases]
        for _ in range(3):
            for m, a in zip(cases, first):
                basis(rng.standard_normal(m.shape[::-1]), 2)
                assert bitwise_equal(basis(m.copy(), 3), a)

    def test_zero_matrix(self):
        u = basis(np.zeros((4, 6)), 4)
        assert np.max(np.abs(u.T @ u - np.eye(4))) <= 1e-12

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_raises_before_lapack(self, rng, eigh_calls, lapack_calls, bad):
        m = rng.standard_normal((4, 64))
        m[3, 17] = bad
        with pytest.raises(NumericsError):
            basis(m, 2)
        assert eigh_calls == [] and lapack_calls == []

    def test_rank_outside_one_to_row_count(self, rng):
        for shape in [(5, 3), (3, 5), (4, 4)]:
            m = rng.standard_normal(shape)
            for rank in (0, shape[0] + 1, -1):
                with pytest.raises(RankError):
                    basis(m, rank)

    def test_wrong_rank_of_tensor(self, rng, eigh_calls):
        # only a stack of matrices: one matrix, or a stack of rank-3 tensors, raises
        for shape in [(4, 4), (2, 4, 4, 4)]:
            with pytest.raises(ShapeError):
                leading_basis(rng.standard_normal(shape), 2)
        assert eigh_calls == []


def stack_of(rng, count, shape, rank=None):
    """``count`` random slices of ``shape``; with ``rank``, each of that matrix rank."""
    if rank is None:
        return rng.standard_normal((count, *shape))
    return rng.standard_normal((count, shape[0], rank)) @ rng.standard_normal((count, rank, shape[1]))


class TestStacks:
    """Each slice of a stacked call equals the slice alone, as a stack of
    one or by the plain numpy oracle, bit for bit."""

    MATRICES = [(4, 64), (16, 16), (64, 8)]

    @pytest.mark.parametrize("shape", [(4, 64), (16, 16), (64, 8), (4, 4, 4, 4), (3, 5, 2)])
    def test_unfold(self, rng, shape):
        ts = rng.standard_normal((3, *shape))
        for source in (ts, mode_dot(ts, rng.standard_normal((3, shape[0], shape[0])), 0)):
            for mode in range(len(shape)):
                got = unfold(source, mode)
                assert got.flags.c_contiguous
                for p in range(3):
                    assert bitwise_equal(got[p], unfold_oracle(source[p], mode)), (shape, mode, p)

    @pytest.mark.parametrize("shape", [(4, 64), (16, 16), (64, 8), (4, 4, 4, 4), (4, 8, 4, 8)])
    def test_mode_dot(self, rng, shape):
        d = len(shape)
        base = rng.standard_normal((5, *shape))
        for mode in range(d):
            n = shape[mode]
            prev = (mode + 1) % d
            view = mode_dot(base, rng.standard_normal((5, shape[prev], shape[prev])), prev)
            # a rank-1 factor, a thin one, a square one and a transposed (F-ordered) one
            mats = [rng.standard_normal((5, n, r)) for r in (1, 2, n)]
            mats.append(rng.standard_normal((5, 3, n)).swapaxes(1, 2))
            for t in (base, view):
                for mat in mats:
                    got = mode_dot(t, mat, mode)
                    for p in range(5):
                        want = tensordot_mode_dot(t[p], mat[p], mode)
                        assert got[p].shape == want.shape
                        assert bitwise_equal(np.ascontiguousarray(got[p]), np.ascontiguousarray(want)), (shape, mode, p)

    @pytest.mark.parametrize("shape", MATRICES)
    @pytest.mark.parametrize("rank", [None, 1])
    def test_leading_basis(self, rng, shape, rank):
        # each slice scaled by its own power of two, so the scales differ
        ms = stack_of(rng, 4, shape, rank) * np.ldexp(1.0, np.array([-40, 0, 3, 700]))[:, None, None]
        for r in (1, 2, shape[0]):
            got = leading_basis(ms, r)
            assert got.shape == (4, shape[0], r) and got.flags.c_contiguous
            for p in range(4):
                assert bitwise_equal(got[p], basis(ms[p], r)), (shape, r, p)

    def test_a_stack_of_one_equals_the_plain_call(self, rng):
        # the plain numpy calls on one matrix: the moveaxis unfolding, and the
        # eigenvectors of the scaled Gram under the sign rule
        for shape in self.MATRICES:
            m = rng.standard_normal(shape)
            s = np.ldexp(m, -np.frexp(np.abs(m).max())[1])
            u = np.linalg.eigh(s @ s.T)[1][:, :-4:-1]
            u = u * np.copysign(1.0, u[np.argmax(np.abs(u), axis=0), np.arange(3)])
            assert bitwise_equal(basis(m, 3), u)
            assert bitwise_equal(unfold(m[None], 1)[0], np.ascontiguousarray(np.moveaxis(m, 1, 0)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_slice_raises_before_lapack(self, rng, eigh_calls, lapack_calls, bad):
        ms = rng.standard_normal((3, 4, 64))
        ms[2, 1, 40] = bad
        with pytest.raises(NumericsError):
            leading_basis(ms, 2)
        assert eigh_calls == [] and lapack_calls == []

    def test_stacked_ranks_and_shapes_are_checked(self, rng, eigh_calls):
        ms = rng.standard_normal((3, 4, 6))
        for rank in (0, 5):
            with pytest.raises(RankError):
                leading_basis(ms, rank)
        with pytest.raises(ShapeError):  # one matrix is not a stack
            leading_basis(ms[0], 2)
        with pytest.raises(ShapeError):  # nor is one factor
            mode_dot(ms, ms[0], 0)
        with pytest.raises(IndexError):
            unfold(ms, 2)
        assert eigh_calls == []
