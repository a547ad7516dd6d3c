"""Dense tensor substrate: unfolding, mode products, SVD and leading bases.

Conventions of the whole package, stated here once:

* Tensors are ``float64`` C-ordered numpy arrays. A mode-k unfolding puts
  mode k on the rows and the other modes on the columns in increasing
  mode order, the last varying fastest.
* Determinism: the same input bits give the same output bits on a given
  numpy/LAPACK build and BLAS thread count. Every SVD is LAPACK's
  ``numpy.linalg.svd`` and every eigendecomposition its ``eigh``.
* LAPACK calls: a Tucker factor and a wide TT split (rows <= cols) take
  the eigenvectors of their input's ``m x m`` Gram (``_leading_basis``),
  a tall TT split takes an SVD (``tn_decompositions._train_split``), and
  the spectral features take a values-only SVD (``sensitivity``).
* Sign rule: each kept singular vector pair, or eigenvector, is flipped so
  that the left vector's largest-magnitude entry is positive, the lowest
  row index winning ties (``_column_signs``). A column's sign depends only
  on that column, so a truncation is a prefix of the full result bit for
  bit.
* Stacks: ``unfold``, ``mode_dot`` and ``leading_basis`` take only a
  stack of same-shape operands, and one tensor is a stack of one. Axis 0
  indexes the slices, as the leading axes of ``numpy.linalg`` do, and each
  slice is treated alone, with its own scale and sign rule. The stacked
  ``np.matmul``, ``eigh`` and ``svd`` make one BLAS / LAPACK call per
  slice, so each slice's bits are those of the slice as a stack of one
  (``tests/test_tensor_core.py`` checks this on the installed build).
* Finiteness: LAPACK never sees a NaN or inf (``np.linalg.svd`` of a 4 x
  128 matrix with one inf entry does not return under OpenBLAS 0.3.31).
  Every entry that leads to LAPACK scans its input with ``as_tensor``
  before any other check, so a NaN or inf raises ``NumericsError`` ahead
  of a shape or rank error. Each LAPACK input derived from it, which may
  overflow (a TT split, a basis's unfolding), is checked where it is
  used, once: ``_leading_basis`` checks the peak it scales by, which a NaN
  or inf reaches, and a tall or whole TT split is scanned.
* Counts: a rank, budget, mode size, stride or index is a Python or numpy
  integer of at least its bound, checked once by ``as_count`` (a Python
  ``int``); a float, string or ``None`` is rejected, never truncated.
* Truncation is an integer rank: keep the leading ``r`` triplets or
  vectors. Ranks come from a ``ParamBudget`` through
  ``tn_decompositions.select_ranks``. A rank that keeps all ``m`` rows of
  an ``m x n`` input truncates nothing, and the decompositions take the
  identity for it.
* ``truncated_svd``, ``full_svd`` and ``SvdResult`` have no caller in the
  package, whose SVDs with vectors are stacked tall TT splits. They are
  the sign rule's plain reference for the tests of tall splits, and
  ``perfbench/spans.py`` wraps them by name; ``leading_basis`` is the
  reference of Tucker factors and wide splits.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from minima.errors import NumericsError, RankError, ShapeError


def as_count(value, low: int, what: str, error: type[Exception] = ShapeError) -> int:
    """``value`` as a Python int: ``error`` unless ``operator.index`` takes
    it (a Python or numpy integer) and it is at least ``low``."""
    try:
        count = operator.index(value)
        if count >= low:
            return count
    except TypeError:
        pass
    raise error(f"{what} must be an integer >= {low}, got {value!r}")


def as_tensor(data) -> np.ndarray:
    """Validate and normalize input to a finite float64 C-ordered array; a
    complex input raises ``NumericsError`` rather than lose its imaginary part."""
    if np.iscomplexobj(data):
        raise NumericsError("tensor entries must be real, got a complex array")
    t = np.ascontiguousarray(data, dtype=np.float64)
    if t.ndim == 0:
        t = t.reshape(1)
    if 0 in t.shape:
        raise ShapeError(f"all mode sizes must be >= 1, got {t.shape}")
    if not np.isfinite(t).all():
        raise NumericsError("tensor entries must be finite")
    return t


@functools.cache
def _mode_axes(d: int, mode: int) -> tuple[tuple[int, ...], ...]:
    """Axis orders for mode ``mode`` of a stack of rank-``d`` tensors: the
    transpose that puts the mode first after the stack axis (``unfold``),
    the one that puts it last, and the one that moves a last axis back to
    the mode (``mode_dot``). Cached: three small tuples per (rank, mode)
    seen, in place of rebuilding them on every call."""
    others = (*range(mode), *range(mode + 1, d))
    first = (0, 1 + mode, *(1 + k for k in others))
    last = (0, *(1 + k for k in others), 1 + mode)
    back = (0, *(1 + k for k in (*range(mode), d - 1, *range(mode, d - 1))))
    return first, last, back


def unfold(t: np.ndarray, mode: int) -> np.ndarray:
    """Mode-k matricization of each tensor of a stack ``t``: the stack of
    their unfoldings, ``(P, n_mode, rest)``.

    One transpose and one copy: the same array ``np.moveaxis`` would give,
    without its axis bookkeeping.
    """
    t = np.asarray(t)
    d = t.ndim - 1
    if not 0 <= mode < d:
        raise IndexError(f"mode {mode} out of range for rank-{d} tensor")
    first = _mode_axes(d, mode)[0]
    return np.ascontiguousarray(t.transpose(first).reshape(len(t), t.shape[1 + mode], -1))


def mode_dot(t: np.ndarray, mat: np.ndarray, mode: int) -> np.ndarray:
    """Contract mode ``mode`` of each tensor of a stack ``t`` with the first
    axis of the matching matrix of a stack ``mat`` ``(P, n, r)``; ``mode``
    counts the modes of a slice.

    The second axis of the matrix replaces the contracted mode in place, so
    a factor of shape (n, r) maps an n-sized mode to an r-sized one. ``t``
    is transposed to (stack, other modes..., mode) and reshaped to (P, -1,
    n) for one ``np.matmul`` (by the ``@`` operator, which dispatches faster
    than the function): per slice, the operands that ``np.tensordot(t[p],
    mat[p], axes=(mode, 0))`` hands to ``np.dot``. The result is a
    transposed view.
    """
    if mat.ndim != 3:
        raise ShapeError("mode_dot expects a matrix per slice")
    _, last, back = _mode_axes(t.ndim - 1, mode)
    moved = t.transpose(last)
    out = moved.reshape(len(t), -1, t.shape[1 + mode]) @ mat
    return out.reshape(moved.shape[:-1] + mat.shape[-1:]).transpose(back)


@dataclass(frozen=True)
class ParamBudget:
    """Number of scalars a decomposition may store; ``select_ranks`` turns it into ranks."""

    budget: int

    def __post_init__(self):
        object.__setattr__(self, "budget", as_count(self.budget, 1, "parameter budget", RankError))


@dataclass(frozen=True)
class SvdResult:
    """Truncated SVD: ``left @ diag(values) @ right.T`` approximates the input."""

    left: np.ndarray  # (m, r), orthonormal columns
    values: np.ndarray  # (r,), non-increasing, >= 0
    right: np.ndarray  # (n, r), orthonormal columns

    @property
    def rank(self) -> int:
        return int(self.values.shape[0])


def _column_signs(u: np.ndarray) -> np.ndarray:
    """``-1.0`` or ``1.0`` per column of each matrix of a stack ``u``,
    shaped ``(P, 1, r)`` to broadcast over it: the sign that makes the
    column's largest-magnitude entry positive (lowest row index on ties)."""
    pivots = np.argmax(np.abs(u), axis=-2)
    peaks = u[np.arange(len(u))[:, None], pivots, np.arange(u.shape[-1])]
    return np.copysign(1.0, peaks)[:, None, :]


def truncated_svd(matrix: np.ndarray, rank: int) -> SvdResult:
    """The leading ``rank`` singular triplets of a rank-2 tensor from the
    thin LAPACK SVD, values non-increasing, under the sign rule: a prefix
    of ``full_svd`` bit for bit. Past the numerical rank the kept values
    are zero up to rounding and their vectors stay orthonormal. Another
    rank of tensor raises ``ShapeError``, and a ``rank`` that is not a count
    in ``[1, min(m, n)]`` raises ``RankError``.
    """
    m = as_tensor(matrix)
    if m.ndim != 2:
        raise ShapeError(f"expected a rank-2 tensor, got rank {m.ndim}")
    rank = as_count(rank, 1, "rank", RankError)
    if rank > min(m.shape):
        raise RankError(f"rank {rank} out of range [1, {min(m.shape)}] for a {m.shape} matrix")
    left, values, right_t = np.linalg.svd(m, full_matrices=False)
    left, right = left[:, :rank], right_t[:rank].T
    signs = _column_signs(left[None])[0]
    return SvdResult(
        left=np.ascontiguousarray(left * signs),
        values=values[:rank].copy(),
        right=np.ascontiguousarray(right * signs),
    )


def full_svd(matrix: np.ndarray) -> SvdResult:
    """All ``min(m, n)`` singular triplets."""
    m = as_tensor(matrix)
    return truncated_svd(m, min(m.shape))


def leading_basis(matrix: np.ndarray, rank: int) -> np.ndarray:
    """``rank`` orthonormal columns spanning the leading left singular
    subspace of each matrix of a stack ``(P, m, n)``: ``as_tensor``, the
    shape and rank checks, then ``_leading_basis``. A ``rank`` that is not
    a count in ``[1, m]`` raises ``RankError``.
    """
    m = as_tensor(matrix)
    if m.ndim != 3:
        raise ShapeError(f"expected a stack of rank-2 tensors, got rank {m.ndim}")
    rank = as_count(rank, 1, "rank", RankError)
    if rank > m.shape[-2]:
        raise RankError(f"rank {rank} out of range [1, {m.shape[-2]}] for a {m.shape[-2:]} matrix")
    return _leading_basis(m, rank)


def _leading_basis(m: np.ndarray, rank: int) -> np.ndarray:
    """``leading_basis`` of a float64 stack ``m`` at a valid ``rank``, the
    kernel the package calls: its one finiteness check is on each slice's
    peak, which a NaN or inf reaches, so a non-finite slice raises
    ``NumericsError`` before ``eigh``.

    The columns are the eigenvectors of the Gram ``s @ s.T``, largest
    eigenvalue first, under the sign rule: an ``m x n`` input costs an ``m
    x m`` ``eigh`` and no right vectors. ``s`` is the input scaled by
    ``2**-e``, ``2**e`` the least power of two above its largest magnitude
    (``frexp``), so the Gram cannot overflow and its largest entry cannot
    underflow, and a power-of-two scale of the input (short of the
    subnormal range) changes no output bit. Up to sign the columns are
    ``truncated_svd``'s left vectors wherever the spectrum separates them;
    where singular values fall below ``sqrt(eps)`` times the largest, the
    Gram's rounding hides their order. ``rank`` may exceed ``n``: the
    columns past the numerical rank are still orthonormal.
    """
    peak = np.abs(m).max(axis=(-2, -1), keepdims=True)
    if not np.isfinite(peak).all():
        raise NumericsError("tensor entries must be finite")
    _, exponent = np.frexp(peak)
    s = np.ldexp(m, -exponent)
    gram = s @ s.swapaxes(-1, -2)
    del s  # each temporary is held only while it is an operand
    vectors = np.linalg.eigh(gram)[1]
    del gram
    u = vectors[..., : -rank - 1 : -1]  # the last rank columns, largest eigenvalue first
    return u * _column_signs(u)
