"""Dense tensor substrate: reshaping, unfolding, mode products, truncated SVD
and leading bases.

Conventions used everywhere in this package:

* tensors are ``float64`` C-ordered numpy arrays (row-major, last index
  varies fastest);
* mode-k unfolding puts mode k on the rows and enumerates the remaining
  modes on the columns in increasing mode order, last varying fastest;
* every SVD is LAPACK's (``numpy.linalg.svd``) under a fixed sign
  convention, so identical input bits give identical output bits on a
  given numpy/LAPACK build and BLAS thread count;
* a factor that needs only the left singular subspace (a Tucker factor)
  comes from :func:`leading_basis`: the eigenvectors of the Gram matrix
  ``s @ s.T`` by LAPACK's ``numpy.linalg.eigh``, largest eigenvalue first,
  under ``truncated_svd``'s sign rule. ``s`` is the input scaled by the
  exact power of two that puts its largest magnitude in [0.5, 1), so the
  Gram cannot overflow and its largest entry cannot underflow, and scaling
  the input by any power of two (short of the subnormal range) changes no
  output bit. An
  ``m x n`` input costs an ``m x m`` eigendecomposition and no right
  vectors, and identical input bits give identical output bits on a
  given build, as for the SVD;
* the only truncation is an integer rank: keep the leading ``r`` triplets
  or vectors. Ranks come from a :class:`ParamBudget` through
  ``tn_decompositions.select_ranks``. A rank that keeps all ``m`` rows of
  an ``m x n`` input truncates nothing: the decompositions take the
  identity as its left factor and make no SVD, basis or product for it;
* :func:`unfold`, :func:`mode_dot` and :func:`leading_basis` also take a
  stack of same-shape operands (``stacked=True``): axis 0 indexes the
  slices, as the leading axes of ``numpy.linalg`` do, and every slice is
  treated as the plain call would treat it alone, with its own power-of-two
  scale and its own sign rule. Each slice's output bits equal the plain
  call's on a given build: the stacked ``np.matmul`` and ``np.linalg.eigh``
  run the same BLAS / LAPACK call per slice (``tests/test_tensor_core.py``
  checks this on the installed build). ``np.linalg.svd`` of a stack is
  likewise one LAPACK call per slice, each slice's bits those of the plain
  call: ``sensitivity`` takes feature spectra over stacks, and
  ``tn_decompositions`` TT splits, under ``truncated_svd``'s sign rule
  (:func:`_column_signs` takes a stack).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from minima.errors import DegenerateReferenceError, NumericsError, RankError, ShapeError

Tensor = np.ndarray


def as_tensor(data, shape=None) -> np.ndarray:
    """Validate and normalize input to a finite float64 C-ordered array."""
    t = _as_array(data, shape)
    if not np.isfinite(t).all():
        raise NumericsError("tensor entries must be finite")
    return t


def _as_array(data, shape=None) -> np.ndarray:
    """``as_tensor`` without the scan for non-finite entries.

    For the decompositions, which scan their input where they first read
    it (``tn_decompositions``' input checks).
    """
    t = np.ascontiguousarray(data, dtype=np.float64)
    if shape is not None:
        t = t.reshape(shape)
    if t.ndim == 0:
        t = t.reshape(1)
    if 0 in t.shape:
        raise ShapeError(f"all mode sizes must be >= 1, got {t.shape}")
    return t


def _rejected(t: np.ndarray, exc: Exception) -> Exception:
    """``exc``, once ``t`` has passed the finiteness scan of ``as_tensor``.

    Entries that skip the scan call this before a shape or rank error, so a
    NaN or inf input still reports ``NumericsError`` first.
    """
    as_tensor(t)
    return exc


def frobenius(t: np.ndarray) -> float:
    return float(np.linalg.norm(np.ravel(t)))


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius-relative deviation ||a - b|| / ||a||."""
    a = as_tensor(a)
    b = as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch: {a.shape} vs {b.shape}")
    ref = frobenius(a)
    if ref == 0.0:
        raise DegenerateReferenceError("relative error against a zero tensor")
    return frobenius(a - b) / ref


@functools.cache
def _mode_axes(lead: int, d: int, mode: int) -> tuple[tuple[int, ...], ...]:
    """Axis orders for mode ``mode`` of a rank-``d`` tensor behind ``lead``
    stack axes: the transpose that puts the mode first (``unfold``), the
    one that puts it last, and the one that moves a last axis back to the
    mode (``mode_dot``). Cached: three small tuples per (stacked, rank,
    mode) seen, in place of rebuilding them on every call."""
    stack = tuple(range(lead))
    others = (*range(mode), *range(mode + 1, d))
    first = (*stack, lead + mode, *(lead + k for k in others))
    last = (*stack, *(lead + k for k in others), lead + mode)
    back = (*stack, *(lead + k for k in (*range(mode), d - 1, *range(mode, d - 1))))
    return first, last, back


def unfold(t: np.ndarray, mode: int, *, stacked: bool = False) -> np.ndarray:
    """Mode-k matricization: mode k on rows, remaining modes on columns.

    One transpose and one copy: the same array ``np.moveaxis`` would give,
    without its axis bookkeeping. With ``stacked``, axis 0 of ``t`` is a
    stack of tensors and the result is the stack of their unfoldings,
    ``(P, n_mode, rest)``.
    """
    t = np.asarray(t)
    lead = int(stacked)
    d = t.ndim - lead
    if not 0 <= mode < d:
        raise IndexError(f"mode {mode} out of range for rank-{d} tensor")
    shape = t.shape
    first = _mode_axes(lead, d, mode)[0]
    return np.ascontiguousarray(t.transpose(first).reshape(shape[:lead] + (shape[lead + mode], -1)))


def mode_dot(t: np.ndarray, mat: np.ndarray, mode: int, *, stacked: bool = False) -> np.ndarray:
    """Contract mode ``mode`` of ``t`` with the first axis of ``mat``.

    The second axis of ``mat`` replaces the contracted mode in place, so a
    factor of shape (n, r) maps an n-sized mode to an r-sized one. With
    ``stacked``, axis 0 of ``t`` and of ``mat`` index a stack, ``mat`` is
    ``(P, n, r)`` and slice p of ``t`` meets slice p of ``mat``; ``mode``
    counts the modes of a slice.

    ``t`` is transposed to (other modes..., mode) and reshaped to (-1, n)
    for one ``np.dot`` with ``mat``: the same ``np.dot``, on the same
    operands, that ``np.tensordot(t, mat, axes=(mode, 0))`` makes, so the
    bits equal it on any build. A stack takes one ``np.matmul`` (by the
    ``@`` operator, which dispatches faster than the function), making
    that product per slice. The result is a transposed view.
    """
    lead = int(stacked)
    if mat.ndim != 2 + lead:
        raise ShapeError("mode_dot expects a matrix" + (" per slice" if stacked else ""))
    _, last, back = _mode_axes(lead, t.ndim - lead, mode)
    moved = t.transpose(last)
    flat = moved.reshape(t.shape[:lead] + (-1, t.shape[lead + mode]))
    out = flat @ mat if stacked else np.dot(flat, mat)
    return out.reshape(moved.shape[:-1] + mat.shape[-1:]).transpose(back)


@dataclass(frozen=True)
class ParamBudget:
    """Number of scalars a decomposition may store; ``select_ranks`` turns it into ranks."""

    budget: int

    def __post_init__(self):
        if int(self.budget) < 1:
            raise RankError(f"parameter budget must be >= 1, got {self.budget}")
        object.__setattr__(self, "budget", int(self.budget))


@dataclass(frozen=True)
class SvdResult:
    """Truncated SVD: ``left @ diag(values) @ right.T`` approximates the input."""

    left: np.ndarray  # (m, r), orthonormal columns
    values: np.ndarray  # (r,), non-increasing, >= 0
    right: np.ndarray  # (n, r), orthonormal columns

    @property
    def rank(self) -> int:
        return int(self.values.shape[0])


def _matrix(data) -> np.ndarray:
    """``as_tensor`` of a rank-2 tensor; other ranks raise ``ShapeError``."""
    m = as_tensor(data)
    if m.ndim != 2:
        raise ShapeError(f"expected a rank-2 tensor, got rank {m.ndim}")
    return m


def _column_signs(u: np.ndarray) -> np.ndarray:
    """``-1.0`` or ``1.0`` per column of ``u`` (of each matrix of a stack),
    shaped to broadcast over it: the sign that makes the column's
    largest-magnitude entry positive (lowest row index on ties)."""
    pivots = np.argmax(np.abs(u), axis=-2)
    cols = np.arange(u.shape[-1])
    peaks = u[pivots, cols] if u.ndim == 2 else u[np.arange(len(u))[:, None], pivots, cols]
    return np.copysign(1.0, peaks)[..., None, :]


def truncated_svd(matrix: np.ndarray, rank: int) -> SvdResult:
    """The leading ``rank`` singular triplets of a rank-2 tensor, bitwise
    reproducible per build.

    The thin LAPACK SVD yields all ``min(m, n)`` triplets with values in
    non-increasing order; each kept pair of singular vectors is flipped
    together so that the largest-magnitude entry of the left vector is
    positive (lowest row index on ties). The sign of a pair depends only on
    its own column, so the result is a prefix of ``full_svd`` bit for bit.
    Past the numerical rank the kept values are zero up to rounding and
    their vectors stay orthonormal. ``rank`` outside ``[1, min(m, n)]``
    raises ``RankError``.

    The input is scanned by ``as_tensor`` on every call, also when the
    decompositions pass an unfolding or projection they derived: LAPACK
    must never see an inf or NaN (``np.linalg.svd`` of a 4 x 128 matrix
    with one inf entry does not return under OpenBLAS 0.3.31), and a
    product of finite entries can overflow.
    """
    m = _matrix(matrix)
    if not 1 <= rank <= min(m.shape):
        raise RankError(f"rank {rank} out of range [1, {min(m.shape)}] for a {m.shape} matrix")
    left, values, right_t = np.linalg.svd(m, full_matrices=False)
    left, right = left[:, :rank], right_t[:rank].T
    signs = _column_signs(left)
    return SvdResult(
        left=np.ascontiguousarray(left * signs),
        values=values[:rank].copy(),
        right=np.ascontiguousarray(right * signs),
    )


def full_svd(matrix: np.ndarray) -> SvdResult:
    """All ``min(m, n)`` singular triplets."""
    m = as_tensor(matrix)
    return truncated_svd(m, min(m.shape))


def leading_basis(matrix: np.ndarray, rank: int, *, stacked: bool = False) -> np.ndarray:
    """``rank`` orthonormal columns spanning the leading left singular
    subspace of a rank-2 tensor, bitwise reproducible per build.

    The columns are the eigenvectors of the Gram of the input scaled by a
    power of two, largest eigenvalue first, each flipped so that its
    largest-magnitude entry is positive (lowest row index on ties). The
    input is scaled by ``2**-e``, where ``2**e`` is the least power of two
    above its largest magnitude (``frexp``), so the scaled entries lie in
    (-1, 1) and the Gram's are at most the column count in magnitude. Up to
    sign the columns are ``truncated_svd``'s left vectors wherever the
    spectrum separates them. The Gram of an ``m x n`` input has ``m``
    eigenvectors, so ``rank`` may exceed ``n``: the columns past the
    numerical rank are still orthonormal. ``rank`` outside ``[1, m]``
    raises ``RankError``. The largest magnitude that sets the scale is also
    the scan for non-finite entries: it is NaN or inf if any entry is, and
    then ``NumericsError`` is raised, so LAPACK never sees an inf or NaN and
    the input is read once. With ``stacked``, the input is a stack
    ``(P, m, n)`` and the result the stack ``(P, m, rank)`` of each slice's
    basis, each slice scaled by its own power of two.
    """
    m = _as_array(matrix)
    if m.ndim != 2 + stacked:
        kind = "a stack of rank-2 tensors" if stacked else "a rank-2 tensor"
        raise _rejected(m, ShapeError(f"expected {kind}, got rank {m.ndim}"))
    rows = m.shape[-2]
    if not 1 <= rank <= rows:
        raise _rejected(m, RankError(f"rank {rank} out of range [1, {rows}] for a {m.shape[-2:]} matrix"))
    peak = np.abs(m).max(axis=(-2, -1), keepdims=True)
    if not np.isfinite(peak).all():
        raise NumericsError("tensor entries must be finite")
    _, exponent = np.frexp(peak)
    s = np.ldexp(m, -exponent)
    _, vectors = np.linalg.eigh(s @ s.swapaxes(-1, -2))
    u = vectors[..., : -rank - 1 : -1]  # the last rank columns, largest eigenvalue first
    return u * _column_signs(u)

