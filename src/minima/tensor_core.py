"""Dense tensor substrate: reshaping, unfolding, mode products, truncated SVD.

Conventions used everywhere in this package:

* tensors are ``float64`` C-ordered numpy arrays (row-major, last index
  varies fastest);
* mode-k unfolding puts mode k on the rows and enumerates the remaining
  modes on the columns in increasing mode order, last varying fastest;
* every SVD is LAPACK's (``numpy.linalg.svd``) under a fixed sign
  convention, so identical input bits give identical output bits on a
  given numpy/LAPACK build and BLAS thread count;
* the only truncation is an integer rank: keep the leading ``r`` triplets.
  Ranks come from a :class:`ParamBudget` through
  ``tn_decompositions.select_ranks``.
"""

from __future__ import annotations

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

    For the decompositions, whose first ``truncated_svd`` call scans every
    entry of their input.
    """
    t = np.ascontiguousarray(data, dtype=np.float64)
    if shape is not None:
        t = t.reshape(shape)
    if t.ndim == 0:
        t = t.reshape(1)
    if any(s < 1 for s in t.shape):
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


def unfold(t: np.ndarray, mode: int) -> np.ndarray:
    """Mode-k matricization: mode k on rows, remaining modes on columns.

    One transpose and one copy: the same array ``np.moveaxis`` would give,
    without its axis bookkeeping.
    """
    t = np.asarray(t)
    d = t.ndim
    if not 0 <= mode < d:
        raise IndexError(f"mode {mode} out of range for rank-{d} tensor")
    order = (mode, *range(mode), *range(mode + 1, d))
    return np.ascontiguousarray(t.transpose(order).reshape(t.shape[mode], -1))


def mode_dot(t: np.ndarray, mat: np.ndarray, mode: int) -> np.ndarray:
    """Contract mode ``mode`` of ``t`` with the first axis of ``mat``.

    The second axis of ``mat`` replaces the contracted mode in place, so a
    factor of shape (n, r) maps an n-sized mode to an r-sized one.

    ``t`` is transposed to (other modes..., mode) and reshaped to (-1, n)
    for one ``np.dot`` with ``mat``: the same ``np.dot``, on the same
    operands, that ``np.tensordot(t, mat, axes=(mode, 0))`` makes, so the
    bits equal it on any build. The result is a transposed view.
    """
    if mat.ndim != 2:
        raise ShapeError("mode_dot expects a matrix")
    d = t.ndim
    shape = t.shape
    others = (*range(mode), *range(mode + 1, d))
    flat = t.transpose((*others, mode)).reshape(-1, shape[mode])
    out = np.dot(flat, mat).reshape(*(shape[k] for k in others), mat.shape[1])
    return out.transpose((*range(mode), d - 1, *range(mode, d - 1)))


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


def _complete_basis(u: np.ndarray, fixed: int) -> None:
    """Deterministically fill columns ``fixed:`` of ``u`` with orthonormal vectors.

    Greedy pick: at each step take the canonical basis vector with the
    largest residual against the columns accepted so far (lowest index on
    ties), orthogonalize twice, normalize.
    """
    m, k = u.shape
    for j in range(fixed, k):
        basis = u[:, :j]
        resid = np.eye(m) - basis @ basis.T
        norms = np.linalg.norm(resid, axis=0)
        pick = int(np.argmax(norms))
        v = resid[:, pick]
        v = v - basis @ (basis.T @ v)
        u[:, j] = v / np.linalg.norm(v)


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
    m = as_tensor(matrix)
    if m.ndim != 2:
        raise ShapeError(f"expected a rank-2 tensor, got rank {m.ndim}")
    if not 1 <= rank <= min(m.shape):
        raise RankError(f"rank {rank} out of range [1, {min(m.shape)}] for a {m.shape} matrix")
    left, values, right_t = np.linalg.svd(m, full_matrices=False)
    left, right = left[:, :rank], right_t[:rank].T
    pivots = np.argmax(np.abs(left), axis=0)
    signs = np.where(left[pivots, np.arange(rank)] < 0.0, -1.0, 1.0)
    return SvdResult(
        left=np.ascontiguousarray(left * signs),
        values=values[:rank].copy(),
        right=np.ascontiguousarray(right * signs),
    )


def full_svd(matrix: np.ndarray) -> SvdResult:
    """All ``min(m, n)`` singular triplets."""
    m = as_tensor(matrix)
    return truncated_svd(m, min(m.shape))
