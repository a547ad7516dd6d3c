"""Tucker, tensor-train and tensor-ring decompositions of weight tensors.

Ranks: Tucker ranks are per mode, ``core.shape == ranks`` and factor k is
``(mode_shape[k], ranks[k])``. TT ranks are the d-1 interior bonds, and
core k is ``(r_{k-1}, mode_shape[k], r_k)`` with boundary bonds of 1. A
ring is its train with a closing bond of 1, and this module alone decides
so, in ``_layout``: its d ranks are ``(1, *bonds)``, ``ranks[k]`` the left
bond of core k, and its cores are the train's. ``_layout`` is the one rank
check (family, count, each rank a count >= 1, a Tucker rank at most its
mode, the closing bond): the decompositions, ``param_count_formula`` and
``sensitivity``'s probes take ranks through it, and ``select_ranks`` and
``maximal_ranks`` raise its unknown-family error. Mode sizes are counts >= 1.
A TT or TR bond above the min dimension of the unfolding its split
truncates is not an error: the train keeps the capped bond
(``_kept_bonds``), and ``param_count_formula`` counts the layer it builds.

Determinism, signs and stacks follow ``tensor_core``. ``_tucker_stack`` and
``_train_stack`` decompose a stack ``(P, n_0, ..., n_{d-1})`` at each of a
list of rank vectors (Tucker rank tuples, TT bond vectors) and yield one
decomposition per vector, every array stacked over the slices and each
slice's bits those of the slice alone; ``tucker_decompose`` and
``tt_decompose`` are a stack of one. The vectors share what they can:
Tucker takes each truncated mode's full HOSVD eigenbasis once, and every
tuple starts from its leading columns; TT shares a split among the bond
vectors that keep the same bonds before it. Each generator drops a
decomposition's arrays before it makes the next. ``_dense_slices`` is the
one reconstruction, of ``reconstruct`` and of the probes
(``_reconstructions``).

Finiteness follows ``tensor_core``: ``compress_matrix`` and the three
decompositions scan their input with ``as_tensor`` before any other check.
Each Tucker basis and each wide TT split checks its input's peak in
``_leading_basis``, and ``_train_split`` scans each tall or whole split,
which may be a strided view that ``as_tensor`` would copy. The stack
routines leave the scan of their input to their callers.

Whole modes: a Tucker mode with ``r_k = n_k``, or a TT split that keeps all
of its rows, takes the identity as its factor, made by no ``eigh``, SVD or
mode product, and the split carries its input on unchanged. An orthogonal
factor on such a mode changes no other mode's Gram and no later split's
spectrum (De Lathauwer et al. 2000; Oseledets 2011). A truncated Tucker
factor is ``_leading_basis`` of its unfolding, an ``n_k x n_k`` ``eigh``
of the Gram. A truncated TT split's shape picks its LAPACK call: a wide
split (rows <= cols) is the Gram's ``eigh`` too, and a tall one an SVD.

Refinement: a Tucker decomposition is the truncated HOSVD refined by one
HOOI sweep (De Lathauwer, De Moor & Vandewalle 2000), ``_hooi``, which every
Tucker routine and the probes of ``sensitivity`` run, so the layer that
``compress_matrix`` builds for a probed (patch, ratio) is the probe's
decomposition bit for bit.
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from minima.errors import InfeasibleBudgetError, NumericsError, RankError, ShapeError
from minima.tensor_core import (
    ParamBudget,
    _column_signs,
    _leading_basis,
    as_count,
    as_tensor,
    mode_dot,
    unfold,
)

FAMILIES = ("tucker", "tt", "tr")


def balanced_split(n: int) -> tuple[int, ...]:
    """Closest-to-square divisor pair of ``n``; primes stay whole."""
    if n <= 1:
        return (max(n, 1),)
    a = 1
    for cand in range(math.isqrt(n), 1, -1):
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
    """A Tucker layer (``core`` and ``factors``) or a TT or TR layer
    (``cores``), validated when built."""

    family: str
    mode_shape: tuple[int, ...]
    row_mode_count: int
    core: np.ndarray | None = None  # tucker
    factors: list[np.ndarray] = field(default_factory=list)  # tucker
    cores: list[np.ndarray] = field(default_factory=list)  # tt / tr

    def __post_init__(self):
        self.mode_shape = _mode_sizes(self.mode_shape)
        self.validate()

    @property
    def matrix_shape(self) -> tuple[int, int]:
        rows = math.prod(self.mode_shape[: self.row_mode_count])
        return rows, math.prod(self.mode_shape) // rows

    @property
    def ranks(self) -> tuple[int, ...]:
        if self.family == "tucker":
            return tuple(self.core.shape)
        bonds = tuple(c.shape[2] for c in self.cores[:-1])
        return bonds if self.family == "tt" else (1, *bonds)

    def validate(self) -> None:
        """Raise ``ShapeError`` unless ``row_mode_count`` is a count in [1, d)
        and the arrays fit the family and modes, a ring's as its train's."""
        d = len(self.mode_shape)
        if as_count(self.row_mode_count, 1, "row_mode_count") >= d:
            raise ShapeError(f"row_mode_count {self.row_mode_count} invalid for {d} modes")
        if self.family == "tucker":
            if self.core is None or self.core.ndim != d or len(self.factors) != d:
                raise ShapeError("tucker layer needs a core of one mode per factor and one factor per mode")
            for k, f in enumerate(self.factors):
                if f.shape != (self.mode_shape[k], self.core.shape[k]):
                    raise ShapeError(f"tucker factor {k} has shape {f.shape}")
        elif self.family in ("tt", "tr"):
            if len(self.cores) != d:
                raise ShapeError(f"{self.family} layer needs {d} cores")
            left = 1
            for k, c in enumerate(self.cores):
                if c.ndim != 3 or c.shape[:2] != (left, self.mode_shape[k]):
                    raise ShapeError(f"core {k} has shape {c.shape}, not ({left}, {self.mode_shape[k]}, r)")
                left = c.shape[2]
            if left != 1:
                raise ShapeError(f"{self.family} boundary bonds must be 1, got {left}")
        else:
            raise ShapeError(f"unknown family {self.family!r}")


# --- decomposition routines -------------------------------------------------


def _slice_energies(t: np.ndarray) -> np.ndarray:
    """The squared Frobenius norm of each slice of a stack."""
    flat = t.reshape(len(t), -1)
    return (flat * flat).sum(axis=1)


def tucker_decompose(t: np.ndarray, ranks) -> CompressedLayer:
    """Tucker decomposition at ``ranks``: ``_tucker_stack`` of a stack of
    one. The layer owns a copy of the core, and a whole mode's factor is
    ``np.eye(n_k)``. Ranks that ``_layout`` rejects raise its ``RankError``.
    """
    t = as_tensor(t)
    _, ranks = _layout("tucker", t.shape, ranks)
    ((_, core, factors),) = _tucker_stack(t[None], [ranks])
    return CompressedLayer(
        family="tucker",
        mode_shape=t.shape,
        row_mode_count=1,
        core=core[0].copy(),
        factors=[np.eye(n) if f is None else f[0] for n, f in zip(t.shape, factors)],
    )


def _tucker_stack(t: np.ndarray, rank_tuples) -> Iterator[tuple[tuple[int, ...], np.ndarray, list[np.ndarray | None]]]:
    """Tucker decomposition of each tensor of a stack ``t`` at each of
    ``rank_tuples`` (valid int tuples): yields ``(ranks, core, factors)``,
    the core ``(P, r_0, ...)`` and a factor ``(P, n_k, r_k)`` per truncated
    mode, ``None`` for a whole mode; with no truncated mode the core is
    ``t`` itself. A mode's start basis is its full HOSVD eigenbasis, whose
    leading columns carry the bits of a basis computed at their rank;
    ``_hooi`` refines it. Each basis is dropped once the last tuple that
    truncates its mode has copied its columns, before that tuple's sweep.
    """
    if not rank_tuples:
        return
    shape = t.shape[1:]
    last = {}  # truncated mode -> the index of the last tuple that truncates it
    for i, ranks in enumerate(rank_tuples):
        last.update((k, i) for k, n in enumerate(shape) if ranks[k] < n)
    hosvd = {k: _leading_basis(unfold(t, k), shape[k]) for k in sorted(last)}
    total = _slice_energies(t)
    for i, ranks in enumerate(rank_tuples):  # no local holds what is yielded, so the caller can free it
        done = [k for k, j in last.items() if j == i]
        yield ranks, *_hooi(t, ranks, _start_factors(hosvd, ranks, done), total)


def _start_factors(hosvd: dict, ranks, done: list[int]) -> list[np.ndarray | None]:
    """The HOSVD start at ``ranks``: a copy of the leading columns of each
    truncated mode's basis in ``hosvd``, ``None`` for a whole mode. The
    bases of the modes ``done`` are then dropped from ``hosvd``."""
    factors = [None] * len(ranks)
    for k, basis in hosvd.items():
        if ranks[k] < basis.shape[-1]:
            factors[k] = basis[..., : ranks[k]].copy()
    for k in done:
        del hosvd[k]
    return factors


def _hooi(t: np.ndarray, ranks, factors: list, total: np.ndarray) -> tuple[np.ndarray, list]:
    """One HOOI sweep over the truncated modes of a stack ``t`` (those whose
    start factor in ``factors`` is not ``None``), each factor updated in
    place in mode order; returns the core and ``factors``, or ``t`` itself
    with no truncated mode. ``total`` holds each slice's squared norm.

    The relative residual energy ``1 - ||G||**2 / ||T||**2`` (the squared
    relative error, the factors being orthonormal) must not rise from the
    start core to the sweep's by more than a slack of ``64 * d * eps``, the
    estimate's rounding; the check is multiplied through by ``||T||**2``, so
    a zero slice passes. A rise raises ``NumericsError`` naming the first
    such slice.

    Mode k's factor is the leading basis of ``t`` times the factors already
    updated, a prefix extended by one ``mode_dot`` per update that ends as
    the core, then times the start factors of the later modes. The first
    projection, ``t`` times the start factors of ``cut[1:]``, makes the
    start core by one more product: c(c+1)/2 + 1 products for c truncated
    modes, and one ``eigh`` per truncated mode at the start
    (``_tucker_stack``) and one in the sweep. Each projection is dropped
    once its basis is taken.
    """
    cut = [k for k, f in enumerate(factors) if f is not None]
    if not cut:
        return t, factors
    slack = 64 * len(ranks) * np.finfo(np.float64).eps
    proj = _project(t, factors, cut[1:])
    start = _slice_energies(mode_dot(proj, factors[cut[0]], cut[0]))
    core = t  # t times the factors the sweep has updated
    for i, k in enumerate(cut):
        if i:
            proj = _project(core, factors, cut[i + 1 :])
        factors[k] = _leading_basis(unfold(proj, k), ranks[k])
        del proj
        core = mode_dot(core, factors[k], k)
    kept = _slice_energies(core)
    rose = start - kept > slack * total
    if rose.any():
        p = int(rose.argmax())
        before, after = (1.0 - e[p] / total[p] for e in (start, kept))
        raise NumericsError(
            f"the HOOI sweep increased the relative residual energy of slice {p} "
            f"{before:.3e} -> {after:.3e} (slack {slack:.1e})"
        )
    return core, factors


def _project(t: np.ndarray, factors: list, modes) -> np.ndarray:
    """``t`` times the factor of each of ``modes``, in their order."""
    for k in modes:
        t = mode_dot(t, factors[k], k)
    return t


def tt_decompose(t: np.ndarray, ranks) -> CompressedLayer:
    """Sequential TT-SVD (Oseledets 2011) with the d-1 bond ranks ``ranks``,
    ``_train_stack`` of a stack of one. Each bond is capped at the min
    dimension of the unfolding it truncates, so ``layer.ranks`` may be
    below ``ranks``. Bonds that ``_layout`` rejects raise its ``RankError``."""
    return _train_layer("tt", as_tensor(t), ranks)


def _train_layer(family: str, t: np.ndarray, ranks) -> CompressedLayer:
    """``tt_decompose`` or ``tr_decompose`` (``family``) of ``t``: one
    ``_train_stack`` of a stack of one, one layer built."""
    if t.ndim < 2:
        raise ShapeError(f"tensor-{'train' if family == 'tt' else 'ring'} needs at least 2 modes")
    _, bonds = _layout(family, t.shape, ranks)
    ((_, cores),) = _train_stack(t[None], [bonds])
    return CompressedLayer(family=family, mode_shape=t.shape, row_mode_count=1, cores=[core[0] for core in cores])


def _train_stack(t: np.ndarray, bond_vectors) -> Iterator[tuple[tuple[int, ...], list[np.ndarray]]]:
    """TT-SVD of each tensor of a stack ``t`` at each of ``bond_vectors``
    (int tuples of d-1 bonds): yields ``(bonds, cores)``, every core
    stacked ``(P, r_{k-1}, n_k, r_k)`` and each bond capped at its split's
    min dimension.

    Split k's input depends only on the bonds kept before it, so the bond
    vectors that keep the same bonds there share one ``_train_split``, kept
    at the widest bond any of them keeps, and each takes its leading
    columns and its carry (``_carry``), the bits of the split made at its
    own bond; one that keeps the split whole shares only the identity.
    Bond vectors are taken in order of their kept bonds, and a split is
    dropped when the next one no longer shares it. Cores may be views of
    the shared splits.
    """
    count, shape = len(t), t.shape[1:]
    kept = {bonds: _kept_bonds(shape, bonds) for bonds in bond_vectors}  # the bonds each split keeps
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
                c = t if k == 0 else _carry(*path[k - 1], r_prev)
                path.append(_train_split(c.reshape(count, rows, -1), width))
            cores.append(path[k][0][..., :keep].reshape(count, r_prev, shape[k], keep))
            r_prev = keep
        tail = _carry(*path[-1], r_prev)
        if np.may_share_memory(tail, t):  # every split whole: the last core copies the input
            tail = tail.copy()
        cores.append(tail.reshape(count, r_prev, shape[-1], 1))
        last = keeps
        yield bonds, cores
        del cores, tail


def _kept_bonds(shape: tuple[int, ...], bonds: tuple[int, ...]) -> tuple[int, ...]:
    """The bonds a train on the mode sizes ``shape`` keeps: each of ``bonds``
    capped at the min dimension of the unfolding its split truncates, the
    kept bond before it times its mode by the modes after it."""
    left, rest, keeps = 1, math.prod(shape), []
    for n, r in zip(shape, bonds):
        left, rest = left * n, rest // n  # the split's rows and columns
        left = min(r, left, rest)
        keeps.append(left)
    return tuple(keeps)


def _train_split(c: np.ndarray, keep: int) -> tuple[np.ndarray, np.ndarray]:
    """One TT split of each matrix of a stack ``(P, rows, cols)``: the
    leading ``keep`` left singular vectors ``(P, rows, keep)``, and what
    ``_carry`` takes the carry to the next split from. The shape picks the
    route:

    * ``keep == rows``: the identity and ``c`` itself, uncopied, after a
      finiteness scan;
    * wide, ``rows <= cols``: ``_leading_basis`` (Austin, Ballard & Kolda
      2016) and ``c``, whose carry is ``left.T @ c``. The error can exceed
      the TT-SVD bound by about ``sqrt(eps) * ||c||`` where the spectrum
      falls below ``sqrt(eps)`` times its largest value at the cut, the
      Gram's rounding floor, which Tucker's factors share;
    * tall: after a finiteness scan, ``truncated_svd``'s ``left`` and the
      carry ``values[:, None] * right.T``, bit for bit, each LAPACK's
      output or a copy of its kept part that replaces it at once (a view
      would keep all of it alive), signed and scaled in place.
    """
    rows, cols = c.shape[-2:]
    if keep < rows <= cols:
        return _leading_basis(c, keep), c
    if not np.isfinite(c).all():
        raise NumericsError("tensor entries must be finite")
    if keep == rows:
        return np.eye(keep)[None].repeat(len(c), axis=0), c
    u, values, vt = np.linalg.svd(c, full_matrices=False)
    left = u if keep == u.shape[-1] else u[..., :keep].copy()
    del u
    signs = _column_signs(left)
    left *= signs
    carry = vt if keep == vt.shape[-2] else vt[..., :keep, :].copy()
    del vt
    carry *= (values[..., :keep] * signs[..., 0, :])[..., None]
    return left, carry


def _carry(left: np.ndarray, rest: np.ndarray, bond: int) -> np.ndarray:
    """The carry of a ``_train_split`` ``(left, rest)`` at ``bond``, at
    most its width: the leading rows of a tall split's carry or of a whole
    split's input, or ``left[..., :bond].T @ c`` of a wide split's input
    ``c``. Each is the bits of the split made at ``bond``: a product of the
    leading columns, not the leading rows of a wider product, whose bits
    BLAS does not promise (a one-row product is a ``gemv``)."""
    if rest.shape[-2] == left.shape[-1]:
        return rest[..., :bond, :]
    return left[..., :bond].swapaxes(-1, -2) @ rest


def tr_decompose(t: np.ndarray, ranks) -> CompressedLayer:
    """Tensor ring with the d cyclic ranks ``ranks``, whose closing bond
    ``ranks[0]`` is 1: the train ``tt_decompose(t, ranks[1:])`` stored as
    a ring, its cores the train's bit for bit and each bond capped as
    ``tt_decompose`` caps it. Ranks that ``_layout`` rejects raise its
    ``RankError``.
    """
    return _train_layer("tr", as_tensor(t), ranks)


def reconstruct(layer: CompressedLayer) -> np.ndarray:
    """Dense tensor of the layer's mode shape: ``_dense_slices`` of a
    stack of one. A Tucker factor that holds the bits of ``np.eye(n)``,
    checked by value (``_is_identity``), is skipped; any other, a square
    orthogonal one too, is applied.
    """
    layer.validate()
    if layer.family == "tucker":
        (dense,) = _dense_slices(layer.core[None], [None if _is_identity(f) else f[None] for f in layer.factors])
    else:
        (dense,) = _dense_slices(cores=[core[None] for core in layer.cores])
    return dense


def _dense_slices(core=None, factors=(), cores=()) -> Iterator[np.ndarray]:
    """Each slice's dense tensor, in its mode shape, of a stack of Tucker
    decompositions (``core`` ``(P, r_0, ...)`` and ``factors``, each ``(P,
    n_k, r_k)`` or ``None`` for the identity) or of trains (``cores``, each
    ``(P, r_{k-1}, n_k, r_k)``).

    The products are chained over the stack up to the last, which is taken
    slice by slice as each is yielded, so no stack of dense tensors is
    held. A Tucker core takes one ``mode_dot`` by the transpose of each
    factor, in mode order, and none for an identity: that product would
    return each entry unchanged (short of turning a ``-0.0`` into ``0.0``).
    Train cores are chained as ``(-1, r) @ (r, -1)`` products, the operands
    that ``np.tensordot`` over the shared bond hands to ``np.dot``.
    """
    if core is not None:
        modes = [k for k, f in enumerate(factors) if f is not None]
        if not modes:
            yield from core
            return
        for k in modes[:-1]:
            core = mode_dot(core, factors[k].transpose(0, 2, 1), k)
        for head, f in zip(core, factors[modes[-1]]):
            yield mode_dot(head[None], f.T[None], modes[-1])[0]
        return
    count, shape = len(cores[0]), tuple(c.shape[2] for c in cores)
    chain = cores[0].reshape(count, -1, cores[0].shape[-1])
    for c in cores[1:-1]:
        chain = (chain @ c.reshape(count, c.shape[1], -1)).reshape(count, -1, c.shape[-1])
    for head, tail in zip(chain, cores[-1]):
        yield np.dot(head, tail.reshape(len(tail), -1)).reshape(shape)


def _reconstructions(t: np.ndarray, rank_tuples, bond_vectors) -> Iterator[tuple[tuple, Iterator]]:
    """The dense slices of a stack ``t`` decomposed at each Tucker rank
    tuple, then at each TT bond vector: yields ``(("tucker", ranks) or
    ("tt", bonds), _dense_slices(...))``. Each ``_dense_slices`` is closed
    before the next decomposition is made, which drops its arrays even where
    the caller stops short of its end, as ``zip`` does when a shorter
    iterable ends first."""
    for ranks, core, factors in _tucker_stack(t, rank_tuples):
        slices = _dense_slices(core, factors)
        del core, factors
        yield ("tucker", ranks), slices
        slices.close()
    for bonds, cores in _train_stack(t, bond_vectors):
        slices = _dense_slices(cores=cores)
        del cores
        yield ("tt", bonds), slices
        slices.close()


def _is_identity(f: np.ndarray) -> bool:
    """Whether a matrix holds the bits of ``np.eye(n)``, a value check
    cheaper than ``np.array_equal``; a ``-0.0`` entry fails it, so such a
    factor is applied, as any other is."""
    return f.shape[0] == f.shape[1] and f.tobytes() == np.eye(len(f)).tobytes()


def layer_to_matrix(layer: CompressedLayer) -> np.ndarray:
    return reconstruct(layer).reshape(layer.matrix_shape)


def _layout(family: str, shape: tuple[int, ...], ranks) -> tuple[str, tuple[int, ...]]:
    """The structure that ``family`` at ``ranks`` decomposes on the mode
    sizes ``shape``, in Python ints: ``("tucker", ranks)``, ``("tt", ranks)``
    or a ring's train ``("tt", ranks[1:])``. An unknown family, a rank not a
    count >= 1, a count other than d (d-1 for TT), a Tucker rank above its
    mode, or a closing bond other than 1 raises ``RankError``."""
    if family not in FAMILIES:
        raise RankError(f"unknown family {family!r}")
    for r in ranks:
        as_count(r, 1, f"{family} rank", RankError)
    if type(ranks) is not tuple or any(type(r) is not int for r in ranks):
        ranks = tuple(map(operator.index, ranks))  # a tuple of Python ints is kept: probe keys stay select_ranks' memo tuples
    need = len(shape) - 1 if family == "tt" else len(shape)
    if len(ranks) != need:
        raise RankError(f"need {need} {family} ranks, got {len(ranks)}")
    if family == "tucker":
        for k, (r, n) in enumerate(zip(ranks, shape)):
            if r > n:
                raise RankError(f"tucker rank {r} exceeds the size {n} of mode {k}")
    if family != "tr":
        return family, ranks
    if ranks[0] != 1:
        raise RankError(f"the closing bond ranks[0] must be 1, got {ranks[0]}")
    return "tt", ranks[1:]


def _mode_sizes(mode_shape) -> tuple[int, ...]:
    """``mode_shape`` as Python ints, each a count of at least 1, or ``ShapeError``."""
    return tuple(as_count(n, 1, "mode size") for n in mode_shape)


def param_count_formula(family: str, mode_shape, ranks) -> int:
    """Closed-form stored-scalar count for a (family, ranks) configuration,
    the count of the layer its decomposition builds: TT and TR bonds count
    as ``_kept_bonds`` keeps them. Bad mode sizes raise ``ShapeError``,
    ranks ``_layout`` rejects its ``RankError``."""
    shape = _mode_sizes(mode_shape)
    kind, ranks = _layout(family, shape, ranks)
    return _param_count(kind, shape, ranks if kind == "tucker" else _kept_bonds(shape, ranks))


def _param_count(family: str, shape: tuple[int, ...], ranks: tuple[int, ...]) -> int:
    """The stored scalars of Tucker ranks or TT bonds, validated int tuples,
    each bond counted as given."""
    if family == "tucker":
        return math.prod(ranks) + sum(n * r for n, r in zip(shape, ranks))
    bonds = (1,) + ranks + (1,)
    return sum(bonds[k] * n * bonds[k + 1] for k, n in enumerate(shape))


def maximal_ranks(family: str, mode_shape) -> tuple[int, ...]:
    """Smallest ranks that make the decomposition exact for any tensor; an
    unknown family raises ``_layout``'s ``RankError``."""
    shape = _mode_sizes(mode_shape)
    total = math.prod(shape)
    if family == "tucker":
        return tuple(min(n, total // n) for n in shape)
    tt = tuple(min(math.prod(shape[: k + 1]), math.prod(shape[k + 1 :])) for k in range(len(shape) - 1))
    if family not in ("tt", "tr"):
        _layout(family, shape, tt)  # raises its "unknown family" error
    return tt if family == "tt" else (1, *tt)


def _ranks_feasible(family: str, shape, ranks, caps) -> bool:
    """Whether Tucker ranks or TT bonds are reached; ``caps`` is
    ``maximal_ranks(family, shape)``, which the caller already holds.
    ``shape`` and ``ranks`` are int tuples of matching lengths."""
    if family == "tucker":  # every Tucker cap is at most its mode size
        return all(r <= c for r, c in zip(ranks, caps))
    return _kept_bonds(shape, ranks) == ranks  # no split caps a bond


def ratio_budget(ratio: float, dense: int) -> ParamBudget:
    """Parameter budget of a compression ratio, a finite number > 0:
    ``max(floor(ratio * dense), 1)``. Any other ratio raises ``ValueError``
    naming it."""
    if not 0.0 < ratio < math.inf:
        raise ValueError(f"compression ratio {ratio} is not a finite number > 0")
    return ParamBudget(max(math.floor(ratio * dense), 1))


def select_ranks(mode_shape, family: str, target: ParamBudget) -> tuple[int, ...]:
    """Largest feasible ranks of a TN family within a parameter budget.

    Returns the rank tuple, Python ints in ``param_count_formula``'s
    layout. Budgets at or above the dense size return the maximal (exact)
    ranks; otherwise the largest feasible uniform rank is found and
    individual positions are then greedily incremented in ascending order
    while the budget allows. A ring's ranks are ``(1, *bonds)`` of the
    train's search. Budgets below the rank-1 count raise
    ``InfeasibleBudgetError``. Only a ``ParamBudget`` selects ranks (other
    targets raise ``TypeError``), only for Tucker, TT or TR (others raise
    ``_layout``'s ``RankError``) and only on ``_mode_sizes`` (others raise
    ``ShapeError``).

    Arguments are validated here, once; the search runs behind a
    process-wide memo of 4,096 (shape, family, budget) keys, least recently
    used dropped first (``_rank_search``, emptied by its ``cache_clear``). A
    key seen before runs no search: the memo holds the rank tuple, or an
    infeasible budget's rank-1 cost, from which every call raises a fresh
    ``InfeasibleBudgetError``.
    """
    shape = _mode_sizes(mode_shape)
    if family not in FAMILIES:
        _layout(family, shape, ())  # raises its "unknown family" error
    if not isinstance(target, ParamBudget):
        raise TypeError(f"ranks are selected by a ParamBudget, got {target!r}")
    budget = target.budget
    found = _rank_search(shape, family, budget)
    if isinstance(found, tuple):
        return found
    raise InfeasibleBudgetError(f"budget {budget} below rank-1 configuration of {found} params", best_achievable=found)


@functools.lru_cache(maxsize=4096)
def _rank_search(shape: tuple[int, ...], family: str, budget: int) -> tuple[int, ...] | int:
    """``select_ranks`` on validated arguments, each trial through the unvalidated
    ``_ranks_feasible`` and ``_param_count``: the rank tuple, or an infeasible budget's
    rank-1 cost. A ring is ``(1, *bonds)`` of the memoized train search's bonds."""
    if family == "tr":
        found = _rank_search(shape, "tt", budget)
        return (1, *found) if isinstance(found, tuple) else found
    caps = maximal_ranks(family, shape)
    npos = len(caps)
    if budget >= math.prod(shape):
        return caps

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
    return tuple(ranks)


def compress_matrix(w: np.ndarray, family: str, target: ParamBudget) -> CompressedLayer:
    """Reshape a weight matrix into balanced modes and decompose it with
    Tucker, TT or TR ranks that fit the parameter budget ``target``."""
    w = as_tensor(w)
    if w.ndim != 2:
        raise ShapeError("compress_matrix expects a matrix")
    mode_shape, row_mode_count = default_mode_shape(*w.shape)
    ranks = select_ranks(mode_shape, family, target)
    t = w.reshape(mode_shape)
    if family == "tucker":
        layer = tucker_decompose(t, ranks)
    elif family == "tt":
        layer = tt_decompose(t, ranks)
    else:
        layer = tr_decompose(t, ranks)
    layer.row_mode_count = row_mode_count  # in range for any matrix; validate would pass it
    return layer
