"""Tucker, tensor-train, and tensor-ring decompositions of weight tensors.

Rank conventions:

* Tucker ranks are per-mode, ``core.shape == ranks`` and factor k is
  ``(mode_shape[k], ranks[k])``;
* TT bond ranks are the d-1 interior bonds, core k is
  ``(r_{k-1}, mode_shape[k], r_k)`` with boundary ranks 1;
* TR ranks are a cyclic vector of d values where ``ranks[k]`` is the left
  bond of core k, so ``ranks[0]`` is the bond that closes the ring
  (core d-1's right bond). ``tr_decompose`` takes ``ranks[0] == 1``, and
  its ring is the TT with bonds ``ranks[1:]``; ``maximal_ranks("tr")``
  caps the closing bond at 1, so every ring ``select_ranks`` returns is
  one. ``reconstruct`` also contracts a ring whose closing bond is above 1.

Input checks: ``compress_matrix`` and ``decompose`` validate their input
with ``as_tensor`` once and hand it on without another scan. The Tucker
and TT routines, and TR through TT, do not scan theirs: their first SVD or
basis call, or the scan that takes its place where the identity rule
leaves none, reads every entry and raises ``NumericsError`` on a NaN or
inf; a failed rank or shape check scans first, so the error types stay
those of a scan up front.

Factor sources: a Tucker mode with ``r_k = n_k``, or a TT split that
keeps all of its rows, keeps the whole space: its factor is the
identity, made by no ``eigh``, SVD or mode product, and the split carries
its input on unchanged. An orthogonal factor on such a mode leaves every
other mode's Gram and every later split's spectrum unchanged (De Lathauwer
et al. 2000; Oseledets 2011), so only the truncated modes and splits are
computed. A truncated Tucker factor, the HOSVD start's and each HOOI
sweep's, is ``tensor_core.leading_basis`` of its unfolding: an ``n_k x
rest`` unfolding costs an ``n_k x n_k`` ``eigh``. TT splits need the
singular values and right vectors too. ``tucker_decompose`` and TT-SVD
(``_train_stack``, which also takes several bond vectors at once) are
stack-native: a stack of same-shape tensors takes one stacked ``eigh`` or
``np.linalg.svd`` per factor or split, signed per slice by
``tensor_core.truncated_svd``'s rule, and each slice's layer equals that
of the slice alone bit for bit; a single tensor is a stack of one. A
caller that decomposes one stack at several Tucker ranks passes each
truncated mode's full HOSVD eigenbasis once (``hosvd=``); HOOI sweeps
always compute their bases, whose inputs do not repeat. ``_train_chain``
contracts a stack of TT or TR cores by stacked products; ``reconstruct``
chains a stack of one.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from minima.errors import InfeasibleBudgetError, NumericsError, RankError, ShapeError
from minima.tensor_core import (
    ParamBudget,
    _as_array,
    _column_signs,
    _rejected,
    as_tensor,
    leading_basis,
    mode_dot,
    unfold,
)

FAMILIES = ("tucker", "tt", "tr")
DENSE = "dense"


def balanced_split(n: int) -> tuple[int, ...]:
    """Closest-to-square divisor pair of ``n``; primes stay whole."""
    if n <= 1:
        return (max(n, 1),)
    a = 1
    for cand in range(int(math.isqrt(n)), 1, -1):
        if n % cand == 0:
            a = cand
            break
    if a == 1:
        return (n,)
    return (a, n // a)


def default_mode_shape(rows: int, cols: int) -> tuple[tuple[int, ...], int]:
    """Mode shape for a rows x cols matrix: row factors first."""
    row_modes = balanced_split(rows)
    col_modes = balanced_split(cols)
    return row_modes + col_modes, len(row_modes)


@dataclass
class CompressedLayer:
    """Tagged union over the supported layer storage formats."""

    family: str
    mode_shape: tuple[int, ...]
    row_mode_count: int
    matrix: np.ndarray | None = None  # dense
    core: np.ndarray | None = None  # tucker
    factors: list[np.ndarray] = field(default_factory=list)  # tucker
    cores: list[np.ndarray] = field(default_factory=list)  # tt / tr

    def __post_init__(self):
        self.mode_shape = tuple(int(s) for s in self.mode_shape)
        self.validate()

    @property
    def matrix_shape(self) -> tuple[int, int]:
        rows = math.prod(self.mode_shape[: self.row_mode_count])
        return rows, math.prod(self.mode_shape) // rows

    @property
    def ranks(self) -> tuple[int, ...] | None:
        if self.family == "tucker":
            return tuple(self.core.shape)
        if self.family == "tt":
            return tuple(c.shape[2] for c in self.cores[:-1])
        if self.family == "tr":
            return tuple(c.shape[0] for c in self.cores)
        return None

    def validate(self) -> None:
        d = len(self.mode_shape)
        if not 1 <= self.row_mode_count < d:
            raise ShapeError(f"row_mode_count {self.row_mode_count} invalid for {d} modes")
        if self.family == DENSE:
            if self.matrix is None or self.matrix.shape != self.matrix_shape:
                raise ShapeError("dense layer must hold its matricized payload")
        elif self.family == "tucker":
            if self.core is None or len(self.factors) != d:
                raise ShapeError("tucker layer needs a core and one factor per mode")
            for k, f in enumerate(self.factors):
                if f.shape != (self.mode_shape[k], self.core.shape[k]):
                    raise ShapeError(f"tucker factor {k} has shape {f.shape}")
        elif self.family in ("tt", "tr"):
            if len(self.cores) != d:
                raise ShapeError(f"{self.family} layer needs {d} cores")
            for k, c in enumerate(self.cores):
                if c.ndim != 3 or c.shape[1] != self.mode_shape[k]:
                    raise ShapeError(f"core {k} has shape {c.shape}")
                nxt = self.cores[(k + 1) % d]
                if k + 1 < d and c.shape[2] != nxt.shape[0]:
                    raise ShapeError("chain bond mismatch")
            if self.family == "tt":
                if self.cores[0].shape[0] != 1 or self.cores[-1].shape[2] != 1:
                    raise ShapeError("tt boundary ranks must be 1")
            else:
                if self.cores[-1].shape[2] != self.cores[0].shape[0]:
                    raise ShapeError("tr closing bond mismatch")
        else:
            raise ShapeError(f"unknown family {self.family!r}")


@dataclass(frozen=True)
class RankSpec:
    """Concrete ranks for a TN family; ``RankSpec("dense")`` needs none.

    ``select_ranks`` resolves a parameter budget into one.
    """

    family: str
    ranks: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.family not in FAMILIES and self.family != DENSE:
            raise RankError(f"unknown family {self.family!r}")
        if self.ranks is None:
            if self.family != DENSE:
                raise RankError(f"{self.family} needs ranks")
            return
        object.__setattr__(self, "ranks", tuple(int(r) for r in self.ranks))
        if any(r < 1 for r in self.ranks):
            raise RankError(f"ranks must be >= 1, got {self.ranks}")


# --- decomposition routines -------------------------------------------------


def _orthonormal_factor(unfoldings: np.ndarray, rank: int) -> np.ndarray:
    """The ``rank`` leading orthonormal columns of each unfolding of a stack
    ``(P, n, rest)``: the one call through which Tucker takes each factor,
    so a test can substitute it."""
    return leading_basis(unfoldings, rank, stacked=True)


def _slice_energies(t: np.ndarray) -> np.ndarray:
    """The squared Frobenius norm of each slice of a stack."""
    flat = t.reshape(len(t), -1)
    return (flat * flat).sum(axis=1)


def tucker_decompose(
    t: np.ndarray, ranks, hooi_iters: int = 2, *, stacked: bool = False, hosvd=None
) -> CompressedLayer | list[CompressedLayer]:
    """HOSVD initialization plus ``hooi_iters`` alternating refinement
    sweeps of the truncated modes' factors.

    With ``stacked``, axis 0 of ``t`` is a stack of same-shape tensors,
    all decomposed at ``ranks``, and the result is a list of one layer per
    slice, each owning its arrays (copies, not views that would keep the
    stack's arrays alive). ``hosvd``, if given, holds per truncated mode
    the stack's ``leading_basis(unfold(t, k, stacked=True), n_k,
    stacked=True)``, and the start takes its leading ``ranks[k]`` columns,
    the same bits as computing them.

    Each sweep recomputes every truncated factor from the unfolding of the
    tensor projected onto the other factors; the reconstruction error is
    checked to be non-increasing across sweeps in every slice. The check
    compares the relative residual energy ``1 - ||G||**2 / ||T||**2`` (the
    squared relative error, since the factors are orthonormal) of
    consecutive sweeps, with a slack of ``64 * d * eps``: that estimate
    carries a few ulps of rounding per mode product, and taking its square
    root would lift that noise to ~sqrt(eps) near an exact fit. The check
    is multiplied through by ``||T||**2``: a slice fails when ``||G||**2``
    drops by more than ``slack * ||T||**2``, so a zero slice, whose
    energies are all 0, passes. A failure in any slice raises
    ``NumericsError`` naming the first slice that failed.

    A sweep projects truncated mode k's input in mode order: ``t`` times
    the factors the sweep has already updated, which it keeps and extends
    by one ``mode_dot`` after each update, then times the later factors of
    the previous sweep. With c truncated modes the start costs c mode
    products and a sweep c(c+1)/2, not the c(c-1)+1 of projecting each
    input afresh. After the last update that prefix is the start's product
    of ``t`` and the truncated factors, operation for operation: the
    sweep's core.
    """
    t = _as_array(t)
    if not stacked:
        t = t[None]
    shape = t.shape[1:]
    d = len(shape)
    ranks = tuple(int(r) for r in ranks)
    if len(ranks) != d:
        raise _rejected(t, RankError(f"need {d} ranks, got {len(ranks)}"))
    for k, r in enumerate(ranks):
        if not 1 <= r <= shape[k]:
            raise _rejected(t, RankError(f"rank {r} out of range [1, {shape[k]}] for mode {k}"))

    cut = [k for k in range(d) if ranks[k] < shape[k]]  # the truncated modes
    if not cut:
        as_tensor(t)  # no basis call scans the input
    factors = [np.eye(n)[None].repeat(len(t), axis=0) if r == n else None for n, r in zip(shape, ranks)]
    for k in cut:
        if hosvd is None:
            factors[k] = _orthonormal_factor(unfold(t, k, stacked=True), ranks[k])
        else:
            factors[k] = hosvd[k][..., : ranks[k]].copy()
    total = _slice_energies(t)
    slack = 64 * d * np.finfo(np.float64).eps
    floor = slack * total

    core = t
    for k in cut:
        core = mode_dot(core, factors[k], k, stacked=True)
    kept = _slice_energies(core)
    for sweep in range(hooi_iters):
        prefix = t  # t times this sweep's factors before k
        for i, k in enumerate(cut):
            proj = prefix
            for j in cut[i + 1 :]:
                proj = mode_dot(proj, factors[j], j, stacked=True)
            factors[k] = _orthonormal_factor(unfold(proj, k, stacked=True), ranks[k])
            prefix = mode_dot(prefix, factors[k], k, stacked=True)
        core = prefix
        new_kept = _slice_energies(core)
        rose = kept - new_kept > floor
        if rose.any():
            p = int(rose.argmax())
            before, after = (1.0 - e[p] / total[p] for e in (kept, new_kept))
            raise NumericsError(
                f"refinement sweep {sweep} increased the relative residual energy of slice {p} "
                f"{before:.3e} -> {after:.3e} (slack {slack:.1e})"
            )
        kept = new_kept

    layers = [
        CompressedLayer(
            family="tucker",
            mode_shape=shape,
            row_mode_count=1,
            core=core[p].copy(),
            factors=[f[p].copy() for f in factors],
        )
        for p in range(len(t))
    ]
    return layers if stacked else layers[0]


def tt_decompose(t: np.ndarray, ranks) -> CompressedLayer:
    """Sequential TT-SVD (Oseledets 2011) with the d-1 bond ranks ``ranks``:
    ``_train_stack`` of a stack of one.

    Each bond is capped at its split's feasible maximum, the min dimension
    of the unfolding it truncates, so ``layer.ranks`` may be below
    ``ranks``. A count other than d-1, or a bond below 1, raises
    ``RankError``.
    """
    t = _as_array(t)
    d = t.ndim
    if d < 2:
        raise _rejected(t, ShapeError("tensor-train needs at least 2 modes"))
    ranks = tuple(int(r) for r in ranks)
    if len(ranks) != d - 1:
        raise _rejected(t, RankError(f"need {d - 1} bond ranks, got {len(ranks)}"))
    if min(ranks) < 1:
        raise _rejected(t, RankError(f"bond ranks must be >= 1, got {ranks}"))
    ((_, cores),) = _train_stack(t[None], [ranks])
    return CompressedLayer(family="tt", mode_shape=t.shape, row_mode_count=1, cores=[core[0] for core in cores])


def _train_stack(t: np.ndarray, bond_vectors) -> Iterator[tuple[tuple[int, ...], list[np.ndarray]]]:
    """TT-SVD of each tensor of a stack ``t`` ``(P, n_0, ..., n_{d-1})`` at
    each of ``bond_vectors`` (int tuples of d-1 bonds): yields ``(bonds,
    cores)``, every core stacked ``(P, r_{k-1}, n_k, r_k)``. Each bond is
    capped at its split's min dimension, and each slice's cores equal those
    of the slice alone, a stack of one, bit for bit.

    Split k's input depends only on the bonds kept before it, so the bond
    vectors that keep the same bonds there share the split: one stacked
    ``_train_split``, kept at the widest bond any of them keeps, of which
    each takes its leading columns, the same bits. A bond vector that keeps
    the split whole takes the identity instead, so it shares the split
    only with those that keep it whole too. Bond vectors are taken in
    order of their kept bonds, so those that share splits come together,
    and a split is dropped when the next bond vector no longer shares it.
    Cores may be views of the shared splits; a caller that drops each
    bond vector's cores before asking for the next holds no more than one
    bond vector's splits and cores.
    """
    count, shape = len(t), t.shape[1:]
    kept = {}  # bonds -> the bonds each split keeps, capped by its unfolding
    for bonds in bond_vectors:
        r_prev, keeps = 1, []
        for k, r in enumerate(bonds):
            r_prev = min(r, r_prev * shape[k], math.prod(shape[k + 1 :]))
            keeps.append(r_prev)
        kept[bonds] = tuple(keeps)
    widest = {}  # the bonds kept before a split -> the widest bond kept there short of its rows
    for keeps in kept.values():
        for k, r in enumerate(keeps):
            if r < (keeps[k - 1] if k else 1) * shape[k]:
                widest[keeps[:k]] = max(widest.get(keeps[:k], 0), r)

    path, last = [], ()  # path[k]: split k of the previous bond vector, `last` its kept bonds
    for bonds, keeps in sorted(kept.items(), key=lambda item: item[1]):
        shared = next((k for k, (a, b) in enumerate(zip(last, keeps)) if a != b), len(keeps))
        del path[shared + 1 :]  # split k is shared while the bonds kept before it agree
        cores, r_prev = [], 1
        for k, keep in enumerate(keeps):
            rows = r_prev * shape[k]
            width = rows if keep == rows else widest[keeps[:k]]
            if k < len(path) and path[k][0].shape[-1] != width:  # a whole split beside truncated ones
                del path[k:]
            if k == len(path):
                c = t if k == 0 else path[k - 1][1][..., :r_prev, :]
                path.append(_train_split(c.reshape(count, rows, -1), width))
            cores.append(path[k][0][..., :keep].reshape(count, r_prev, shape[k], keep))
            r_prev = keep
        cores.append(path[-1][1][..., :r_prev, :].reshape(count, r_prev, shape[-1], 1))
        last = keeps
        yield bonds, cores


def _train_split(c: np.ndarray, keep: int) -> tuple[np.ndarray, np.ndarray]:
    """One TT split of each matrix of a stack ``(P, rows, cols)``: the
    leading ``keep`` left singular vectors ``(P, rows, keep)``, and what the
    train carries to its next split, those triplets' values times their
    right vectors, ``(P, keep, cols)``; at ``keep == rows``, the identity
    and a copy of ``c``.

    One stacked LAPACK SVD; each slice's bits equal ``truncated_svd``'s
    ``left`` and ``values[:, None] * right.T`` of the slice alone. Each is
    LAPACK's output, or a copy of its kept part that replaces it at once
    (never a view, which would keep all of LAPACK's output alive), signed
    and scaled in place, so the split holds nothing it does not keep. The
    input is scanned first: a NaN or inf raises ``NumericsError`` and
    LAPACK never sees it.
    """
    if not np.isfinite(c).all():
        raise NumericsError("tensor entries must be finite")
    if keep == c.shape[-2]:
        return np.eye(keep)[None].repeat(len(c), axis=0), c.copy()
    u, values, vt = np.linalg.svd(c, full_matrices=False)
    left = u if keep == u.shape[-1] else u[..., :keep].copy()
    del u
    signs = _column_signs(left)
    left *= signs
    carry = vt if keep == vt.shape[-2] else vt[..., :keep, :].copy()
    del vt
    carry *= (values[..., :keep] * signs[..., 0, :])[..., None]
    return left, carry


def _train_chain(cores: list[np.ndarray]) -> np.ndarray:
    """The chain of stacked TT or TR cores 0..k, ``(P, r_0 * n_0 * ... *
    n_k, r_{k+1})``: of all d TT cores, each train's dense tensor, flattened.
    One stacked ``(-1, r) @ (r, -1)`` product per core, each slice's bits
    those of the plain ``np.dot`` (``reconstruct`` chains a stack of one)."""
    stack = len(cores[0])
    chain = cores[0].reshape(stack, -1, cores[0].shape[-1])
    for core in cores[1:]:
        chain = (chain @ core.reshape(stack, core.shape[1], -1)).reshape(stack, -1, core.shape[-1])
    return chain


def tr_decompose(t: np.ndarray, ranks) -> CompressedLayer:
    """Tensor ring with the d cyclic ranks ``ranks``, whose closing bond
    ``ranks[0]`` is 1: the train ``tt_decompose(t, ranks[1:])`` stored as
    a ring, its cores the train's bit for bit and each bond capped as
    ``tt_decompose`` caps it. A count other than d, a closing bond other
    than 1, or a bond below 1 raises ``RankError``.
    """
    t = _as_array(t)
    d = t.ndim
    if d < 2:
        raise _rejected(t, ShapeError("tensor-ring needs at least 2 modes"))
    ranks = tuple(int(r) for r in ranks)
    if len(ranks) != d:
        raise _rejected(t, RankError(f"need {d} cyclic ranks, got {len(ranks)}"))
    if ranks[0] != 1:
        raise _rejected(t, RankError(f"the closing bond ranks[0] must be 1, got {ranks[0]}"))
    train = tt_decompose(t, ranks[1:])
    return CompressedLayer(family="tr", mode_shape=t.shape, row_mode_count=1, cores=train.cores)


def reconstruct(layer: CompressedLayer) -> np.ndarray:
    """Dense tensor of the layer's mode shape.

    TT and TR cores are chained as (-1, r) @ (r, -1) products
    (``_train_chain`` of a stack of one): the same operands that
    ``np.tensordot`` over the shared bond hands to ``np.dot``.
    """
    layer.validate()
    if layer.family == DENSE:
        return layer.matrix.reshape(layer.mode_shape)
    if layer.family == "tucker":
        out = layer.core
        for k, f in enumerate(layer.factors):
            out = mode_dot(out, f.T, k)
        return out
    chain = _train_chain([core[None] for core in layer.cores])[0]
    if layer.family == "tt":
        return chain.reshape(layer.mode_shape)
    chain = chain.reshape(layer.cores[0].shape[0], *layer.mode_shape, chain.shape[1])
    return np.trace(chain, axis1=0, axis2=chain.ndim - 1)


def layer_to_matrix(layer: CompressedLayer) -> np.ndarray:
    return reconstruct(layer).reshape(layer.matrix_shape)


def param_count(layer: CompressedLayer) -> int:
    """Stored scalars in the layer payload."""
    if layer.family == DENSE:
        return int(layer.matrix.size)
    if layer.family == "tucker":
        return int(layer.core.size + sum(f.size for f in layer.factors))
    return int(sum(c.size for c in layer.cores))


def param_count_formula(family: str, mode_shape, ranks) -> int:
    """Closed-form stored-scalar count for a (family, ranks) configuration."""
    shape = tuple(int(s) for s in mode_shape)
    if family == DENSE:
        return math.prod(shape)
    ranks = tuple(int(r) for r in ranks)
    d = len(shape)
    if family not in FAMILIES:
        raise RankError(f"unknown family {family!r}")
    if family == "tt" and len(ranks) != d - 1:
        raise RankError(f"need {d - 1} tt bond ranks")
    if family != "tt" and len(ranks) != d:
        raise RankError(f"need {d} {family} ranks")
    return _param_count(family, shape, ranks)


def _param_count(family: str, shape: tuple[int, ...], ranks: tuple[int, ...]) -> int:
    """``param_count_formula`` of a TN family on validated int tuples."""
    d = len(shape)
    if family == "tucker":
        return math.prod(ranks) + sum(n * r for n, r in zip(shape, ranks))
    if family == "tt":
        bonds = (1,) + ranks + (1,)
        return sum(bonds[k] * shape[k] * bonds[k + 1] for k in range(d))
    return sum(ranks[k] * shape[k] * ranks[(k + 1) % d] for k in range(d))


def maximal_ranks(family: str, mode_shape) -> tuple[int, ...]:
    """Smallest ranks that make the decomposition exact for any tensor."""
    shape = tuple(int(s) for s in mode_shape)
    d = len(shape)
    total = math.prod(shape)
    if family == "tucker":
        return tuple(min(n, total // n) for n in shape)
    tt = tuple(
        min(math.prod(shape[: k + 1]), math.prod(shape[k + 1 :])) for k in range(d - 1)
    )
    if family == "tt":
        return tt
    if family == "tr":
        return (1,) + tt
    raise RankError(f"unknown family {family!r}")


def _ranks_feasible(family: str, shape, ranks, caps) -> bool:
    """Whether the decomposition reaches ``ranks``; ``caps`` is
    ``maximal_ranks(family, shape)``, which the caller already holds.
    ``shape`` and ``ranks`` are int tuples of matching lengths."""
    if any(r > c for r, c in zip(ranks, caps)):
        return False
    if family == "tucker":  # every Tucker cap is at most its mode size
        return True
    if family == "tr":  # caps[0] == 1: the ring is the train ranks[1:]
        ranks = ranks[1:]
    # sequential achievability: each bond fits the running split rows
    left = 1
    for k, r in enumerate(ranks):
        if r > left * shape[k]:
            return False
        left = r
    return True


def ratio_budget(ratio: float, dense: int) -> ParamBudget:
    """Parameter budget of a compression ratio: ``max(floor(ratio * dense), 1)``."""
    return ParamBudget(max(int(math.floor(ratio * dense)), 1))


def select_ranks(mode_shape, family: str, target: ParamBudget) -> RankSpec:
    """Largest feasible ranks of a TN family within a parameter budget.

    Budgets at or above the dense size return the maximal (exact) ranks;
    otherwise the largest feasible uniform rank is found and individual
    positions are then greedily incremented in ascending order while the
    budget allows. Budgets below the rank-1 count raise
    ``InfeasibleBudgetError``. Only a ``ParamBudget`` selects ranks (other
    targets raise ``TypeError``) and only for Tucker, TT or TR (others raise
    ``RankError``); dense layers come from ``decompose(t, RankSpec("dense"))``.

    Arguments are validated here, once; the search runs behind a
    process-wide memo of 4,096 (shape, family, budget) keys, least recently
    used dropped first (``_rank_search``, emptied by its ``cache_clear``). A
    key seen before runs no search: the memo holds the immutable
    ``RankSpec``, or an infeasible budget's rank-1 cost, from which every
    call raises a fresh ``InfeasibleBudgetError``.
    """
    shape = tuple(int(s) for s in mode_shape)
    if family not in FAMILIES:
        raise RankError(f"no ranks to select for family {family!r}")
    if not isinstance(target, ParamBudget):
        raise TypeError(f"ranks are selected by a ParamBudget, got {target!r}")
    budget = target.budget
    found = _rank_search(shape, family, budget)
    if isinstance(found, RankSpec):
        return found
    raise InfeasibleBudgetError(f"budget {budget} below rank-1 configuration of {found} params", best_achievable=found)


@functools.lru_cache(maxsize=4096)
def _rank_search(shape: tuple[int, ...], family: str, budget: int) -> RankSpec | int:
    """``select_ranks`` on validated arguments, each trial through the unvalidated
    ``_ranks_feasible`` and ``_param_count``: the ranks, or an infeasible budget's rank-1 cost."""
    caps = maximal_ranks(family, shape)
    npos = len(caps)
    if budget >= math.prod(shape):
        return RankSpec(family=family, ranks=caps)

    floor_cost = _param_count(family, shape, (1,) * npos)
    if floor_cost > budget:
        return floor_cost

    def fits(ranks) -> bool:
        return _ranks_feasible(family, shape, ranks, caps) and _param_count(family, shape, ranks) <= budget

    uniform = 1
    while fits((uniform + 1,) * npos):
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
    return RankSpec(family=family, ranks=tuple(ranks))


def decompose(t: np.ndarray, spec: RankSpec, hooi_iters: int = 2, row_mode_count: int = 1) -> CompressedLayer:
    """Dispatch a tensor to the decomposition named by ``spec``."""
    return _decompose(as_tensor(t), spec, hooi_iters, row_mode_count)


def _decompose(t: np.ndarray, spec: RankSpec, hooi_iters: int, row_mode_count: int) -> CompressedLayer:
    """``decompose`` of a tensor that ``as_tensor`` has already validated."""
    if spec.family == DENSE:
        rows = math.prod(t.shape[:row_mode_count])
        return CompressedLayer(
            family=DENSE,
            mode_shape=t.shape,
            row_mode_count=row_mode_count,
            matrix=t.reshape(rows, -1),
        )
    if spec.family == "tucker":
        layer = tucker_decompose(t, spec.ranks, hooi_iters=hooi_iters)
    elif spec.family == "tt":
        layer = tt_decompose(t, spec.ranks)
    else:
        layer = tr_decompose(t, spec.ranks)
    layer.row_mode_count = row_mode_count
    layer.validate()
    return layer


def compress_matrix(
    w: np.ndarray,
    family: str,
    target: ParamBudget,
    hooi_iters: int = 2,
) -> CompressedLayer:
    """Reshape a weight matrix into balanced modes and decompose it with
    Tucker, TT or TR ranks that fit the parameter budget ``target``.

    Dense storage takes no budget: use ``decompose(t, RankSpec("dense"))``.
    """
    w = as_tensor(w)
    if w.ndim != 2:
        raise ShapeError("compress_matrix expects a matrix")
    mode_shape, row_mode_count = default_mode_shape(*w.shape)
    spec = select_ranks(mode_shape, family, target)
    return _decompose(w.reshape(mode_shape), spec, hooi_iters, row_mode_count)
