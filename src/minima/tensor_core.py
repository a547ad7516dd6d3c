"""Dense tensor substrate: reshaping, unfolding, contraction, truncated SVD.

Conventions used everywhere in this package:

* tensors are ``float64`` C-ordered numpy arrays (row-major, last index
  varies fastest);
* mode-k unfolding puts mode k on the rows and enumerates the remaining
  modes on the columns in increasing mode order, last varying fastest;
* every SVD is LAPACK's (``numpy.linalg.svd``) under a fixed sign
  convention, so identical input bits give identical output bits on a
  given numpy/LAPACK build and BLAS thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from minima.errors import (
    DegenerateReferenceError,
    InfeasibleBudgetError,
    NumericsError,
    RankError,
    ShapeError,
)

Tensor = np.ndarray


def as_tensor(data, shape=None) -> np.ndarray:
    """Validate and normalize input to a finite float64 C-ordered array."""
    t = np.ascontiguousarray(data, dtype=np.float64)
    if shape is not None:
        t = t.reshape(shape)
    if t.ndim == 0:
        t = t.reshape(1)
    if any(s < 1 for s in t.shape):
        raise ShapeError(f"all mode sizes must be >= 1, got {t.shape}")
    if not np.all(np.isfinite(t)):
        raise NumericsError("tensor entries must be finite")
    return t


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


def reshape_to_modes(matrix: np.ndarray, mode_shape) -> np.ndarray:
    """Reinterpret a matrix as a multi-mode tensor without moving data."""
    m = as_tensor(matrix)
    if m.ndim != 2:
        raise ShapeError(f"expected a rank-2 tensor, got rank {m.ndim}")
    mode_shape = tuple(int(s) for s in mode_shape)
    if not 2 <= len(mode_shape) <= 6:
        raise ShapeError(f"mode shape length must be in [2, 6], got {len(mode_shape)}")
    if any(s < 1 for s in mode_shape):
        raise ShapeError(f"all mode sizes must be >= 1, got {mode_shape}")
    if math.prod(mode_shape) != m.size:
        raise ShapeError(f"mode shape {mode_shape} does not match {m.shape[0]}x{m.shape[1]} entries")
    return m.reshape(mode_shape)


def unfold(t: np.ndarray, mode: int) -> np.ndarray:
    """Mode-k matricization: mode k on rows, remaining modes on columns."""
    t = np.asarray(t)
    if not 0 <= mode < t.ndim:
        raise IndexError(f"mode {mode} out of range for rank-{t.ndim} tensor")
    return np.ascontiguousarray(np.moveaxis(t, mode, 0).reshape(t.shape[mode], -1))


def fold(mat: np.ndarray, mode: int, shape) -> np.ndarray:
    """Inverse of :func:`unfold` for the given full tensor shape."""
    shape = tuple(int(s) for s in shape)
    if not 0 <= mode < len(shape):
        raise IndexError(f"mode {mode} out of range for rank-{len(shape)} tensor")
    mat = np.asarray(mat)
    rest = shape[:mode] + shape[mode + 1 :]
    if mat.shape != (shape[mode], math.prod(rest)):
        raise ShapeError(f"unfolding of shape {mat.shape} does not match tensor shape {shape}")
    return np.ascontiguousarray(np.moveaxis(mat.reshape((shape[mode],) + rest), 0, mode))


def mode_dot(t: np.ndarray, mat: np.ndarray, mode: int) -> np.ndarray:
    """Contract mode ``mode`` of ``t`` with the first axis of ``mat``.

    The second axis of ``mat`` replaces the contracted mode in place, so a
    factor of shape (n, r) maps an n-sized mode to an r-sized one.
    """
    if mat.ndim != 2:
        raise ShapeError("mode_dot expects a matrix")
    out = np.tensordot(t, mat, axes=(mode, 0))
    return np.moveaxis(out, -1, mode)


def contract(a: np.ndarray, a_modes, b: np.ndarray, b_modes) -> np.ndarray:
    """Contract paired modes; free modes of ``a`` precede free modes of ``b``."""
    a = np.asarray(a)
    b = np.asarray(b)
    a_modes = [int(i) for i in np.atleast_1d(a_modes)]
    b_modes = [int(i) for i in np.atleast_1d(b_modes)]
    if len(a_modes) != len(b_modes):
        raise ShapeError("paired mode lists must have equal length")
    if len(set(a_modes)) != len(a_modes) or len(set(b_modes)) != len(b_modes):
        raise ShapeError("contracted modes must be distinct")
    for am, bm in zip(a_modes, b_modes):
        if not 0 <= am < a.ndim or not 0 <= bm < b.ndim:
            raise IndexError(f"contraction mode out of range: a mode {am}, b mode {bm}")
        if a.shape[am] != b.shape[bm]:
            raise ShapeError(
                f"paired mode sizes differ: a mode {am} has {a.shape[am]}, b mode {bm} has {b.shape[bm]}"
            )
    return np.tensordot(a, b, axes=(a_modes, b_modes))


# --- truncation policies ---------------------------------------------------


@dataclass(frozen=True)
class FixedRank:
    rank: int

    def __post_init__(self):
        if int(self.rank) < 1:
            raise RankError(f"fixed rank must be >= 1, got {self.rank}")
        object.__setattr__(self, "rank", int(self.rank))


@dataclass(frozen=True)
class RelativeError:
    epsilon: float

    def __post_init__(self):
        if not 0.0 < float(self.epsilon) <= 1.0:
            raise RankError(f"relative-error threshold must be in (0, 1], got {self.epsilon}")
        object.__setattr__(self, "epsilon", float(self.epsilon))


@dataclass(frozen=True)
class ParamBudget:
    budget: int

    def __post_init__(self):
        if int(self.budget) < 1:
            raise RankError(f"parameter budget must be >= 1, got {self.budget}")
        object.__setattr__(self, "budget", int(self.budget))


TruncationPolicy = FixedRank | RelativeError | ParamBudget


@dataclass(frozen=True)
class SvdResult:
    """Truncated SVD: ``left @ diag(values) @ right.T`` approximates the input."""

    left: np.ndarray  # (m, r), orthonormal columns
    values: np.ndarray  # (r,), non-increasing, >= 0
    right: np.ndarray  # (n, r), orthonormal columns

    @property
    def rank(self) -> int:
        return int(self.values.shape[0])

    def reconstruct(self) -> np.ndarray:
        return (self.left * self.values) @ self.right.T


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


def _select_rank(values: np.ndarray, shape, policy: TruncationPolicy) -> int:
    m, n = shape
    kmax = min(m, n)
    if isinstance(policy, FixedRank):
        if policy.rank > kmax:
            raise RankError(f"fixed rank {policy.rank} exceeds min(m, n) = {kmax}")
        return policy.rank
    if isinstance(policy, RelativeError):
        energies = values**2
        total = float(energies.sum())
        if total == 0.0:
            return 1
        tail = total
        target = (policy.epsilon**2) * total
        for r in range(1, kmax + 1):
            tail -= float(energies[r - 1])
            if tail <= target:
                return r
        return kmax
    if isinstance(policy, ParamBudget):
        per_triplet = m + n + 1
        r = min(policy.budget // per_triplet, kmax)
        if r < 1:
            raise InfeasibleBudgetError(
                f"budget {policy.budget} below one (u, s, v) triplet of size {per_triplet}",
                best_achievable=per_triplet,
            )
        return r
    raise TypeError(f"unknown truncation policy: {policy!r}")


def truncated_svd(matrix: np.ndarray, policy: TruncationPolicy) -> SvdResult:
    """Truncated SVD of a rank-2 tensor, bitwise reproducible per build.

    The thin LAPACK SVD yields all ``min(m, n)`` triplets with values in
    non-increasing order; each kept pair of singular vectors is flipped
    together so that the largest-magnitude entry of the left vector is
    positive (lowest row index on ties).

    FixedRank keeps exactly ``r`` triplets; past the numerical rank their
    values are zero up to rounding and their vectors stay orthonormal.
    RelativeError keeps the smallest rank whose Frobenius residual is
    within ``epsilon`` of the input norm, never less than 1. ParamBudget
    keeps the largest rank with ``r * (m + n + 1)`` stored scalars inside
    the budget.
    """
    m = as_tensor(matrix)
    if m.ndim != 2:
        raise ShapeError(f"expected a rank-2 tensor, got rank {m.ndim}")
    left, values, right_t = np.linalg.svd(m, full_matrices=False)
    r = _select_rank(values, m.shape, policy)
    left, right = left[:, :r], right_t[:r].T
    pivots = np.argmax(np.abs(left), axis=0)
    signs = np.where(left[pivots, np.arange(r)] < 0.0, -1.0, 1.0)
    return SvdResult(
        left=np.ascontiguousarray(left * signs),
        values=values[:r].copy(),
        right=np.ascontiguousarray(right * signs),
    )


def full_svd(matrix: np.ndarray) -> SvdResult:
    """All ``min(m, n)`` singular triplets."""
    m = as_tensor(matrix)
    if m.ndim != 2:
        raise ShapeError(f"expected a rank-2 tensor, got rank {m.ndim}")
    return truncated_svd(m, FixedRank(min(m.shape)))
