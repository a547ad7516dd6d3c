"""Patch partitioning, cheap spectral features, compression probes, and the
degradation predictor that scores how safely each patch compresses.

Policy: three constants decide which patches count as low-sensitivity, and
analysis and planning both read them when they run. ``analyze`` probes
``FAMILIES`` at ``RATIO_GRID``, so the predictor's heads and the planner's
candidates take those ratios. ``DEGRADATION_CAP`` bounds a
recommendation's predicted deviation, and ``build_options`` pins dense a
patch whose every prediction exceeds it. ``EXCLUDED_KINDS`` are the
submodule kinds that ``analyze`` does not probe by default and
``build_options`` does not compress.

Determinism: the same input bits give the same output bits on a given
numpy/BLAS build and thread count. No output depends on how many patches
are taken together: a patch's features, probe records and sensitivity
record are those it gets alone, bit for bit, whether ``analyze`` takes it
in a stack of same-shape patches or ``extract_features``, ``probe_patch``
and ``predict`` take it by itself.

Checks: the public entries check their inputs before any LAPACK call, and
the stack kernels (``_stack_features``, ``_probe_stack``) take checked
stacks and calibrations. ``analyze`` checks the model's weights once
(``ModelContainer.validate``) and each probed layer's calibration once
(``_checked_calib``); ``extract_features`` and ``probe_patch`` scan their
patch with ``as_tensor``.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from itertools import filterfalse

import numpy as np

from minima.errors import EmptyModelError, InfeasibleBudgetError, NumericsError, ShapeError
from minima.model import ModelContainer
from minima.tensor_core import as_count, as_tensor
from minima.tn_decompositions import (
    FAMILIES,
    _layout,
    _reconstructions,
    default_mode_shape,
    ratio_budget,
    select_ranks,
)

log = logging.getLogger(__name__)

FEATURE_NAMES = (
    "stable_rank",
    "top10pct_energy",
    "log_condition",
    "spectral_entropy",
    "mean_abs",
    "max_abs",
    "frac_small",
    "row_norm_cv",
    "normalized_layer_index",
    "is_attention_proj",
    "is_ffn",
    "is_embedding",
)
N_FEATURES = len(FEATURE_NAMES)

RATIO_GRID = (0.5, 0.35, 0.25, 0.15)
DEGRADATION_CAP = 0.02
EXCLUDED_KINDS = ("embedding",)


@dataclass(frozen=True)
class Patch:
    patch_id: int
    layer_name: str
    layer_index: int
    submodule_kind: str
    row_range: tuple[int, int]
    col_range: tuple[int, int]

    @property
    def rows(self) -> int:
        return self.row_range[1] - self.row_range[0]

    @property
    def cols(self) -> int:
        return self.col_range[1] - self.col_range[0]

    @property
    def dense_params(self) -> int:
        return self.rows * self.cols


def partition_patches(model: ModelContainer, patch_size=(64, 64)) -> list[Patch]:
    """Tile every matrix exactly; ragged tiles stay at the right/bottom edges.

    Patch ids follow container order, then row-major tile order.
    ``patch_size`` is a pair of counts of at least 16 (``as_count``), or
    ``ValueError``.
    """
    sizes = tuple(patch_size) if np.iterable(patch_size) else ()
    if len(sizes) != 2:
        raise ValueError(f"patch size must be two integers, got {patch_size!r}")
    pr, pc = (as_count(n, 16, "patch dimension", ValueError) for n in sizes)
    if not model.entries:
        raise EmptyModelError("model container holds no matrices")
    patches = []
    pid = 0
    for entry in model.entries.values():
        m, n = entry.matrix.shape
        for r0 in range(0, m, pr):
            for c0 in range(0, n, pc):
                patches.append(
                    Patch(
                        patch_id=pid,
                        layer_name=entry.name,
                        layer_index=entry.layer_index,
                        submodule_kind=entry.submodule_kind,
                        row_range=(r0, min(r0 + pr, m)),
                        col_range=(c0, min(c0 + pc, n)),
                    )
                )
                pid += 1
    return patches


def patch_matrix(model: ModelContainer, patch: Patch) -> np.ndarray:
    """The patch's block of its layer's matrix, a float64 copy."""
    return next(_patch_stacks(model, [patch]))[1][0]


STACK_ENTRIES = 1 << 15  # most float64 entries in one stack of patches: 256 KiB


def _patch_stacks(model: ModelContainer, patches: Iterable[Patch]) -> Iterator[tuple[list[Patch], np.ndarray]]:
    """``patches`` grouped by shape, in order of first appearance, and cut
    into stacks of at most ``STACK_ENTRIES`` entries (one patch at least):
    yields each stack's patches and their float64 blocks, stacked ``(P,
    rows, cols)`` and filled in place. A block is the one copy of its patch
    that ``analyze`` makes; it is as finite as the model's checked
    weights."""
    groups: dict[tuple[int, int], list[Patch]] = {}
    for p in patches:
        groups.setdefault((p.rows, p.cols), []).append(p)
    for (rows, cols), group in groups.items():
        size = max(STACK_ENTRIES // (rows * cols), 1)
        for i in range(0, len(group), size):
            chunk = group[i : i + size]
            stack = np.empty((len(chunk), rows, cols))
            for out, p in zip(stack, chunk):
                (r0, r1), (c0, c1) = p.row_range, p.col_range
                out[...] = model.entries[p.layer_name].matrix[r0:r1, c0:c1]
            yield chunk, stack


def extract_features(w: np.ndarray, patch: Patch, total_layers: int) -> np.ndarray:
    """12 cheap statistics: spectrum shape, magnitudes, sparsity, position.

    The spectrum is LAPACK's values-only SVD of the scanned patch: no
    singular vectors are formed. This is the one-patch case of
    ``analyze``'s stacked features (``_stack_features``), on one float64
    copy of ``w``, which the stack kernel overwrites.
    """
    w = as_tensor(np.array(w, dtype=np.float64, order="C"))
    if w.ndim != 2:
        raise ShapeError(f"expected a patch matrix, got rank {w.ndim}")
    return _stack_features(w[None], [patch], total_layers)[0]


def _stack_features(stack: np.ndarray, patches: list[Patch], total_layers: int) -> np.ndarray:
    """``extract_features`` of each matrix of a finite float64 stack ``(P,
    m, n)``, one row per patch, each row its patch's bits. The stack is
    overwritten.

    One values-only LAPACK SVD for the stack. Every reduction runs along a
    slice's own contiguous entries, as the one-patch call's does, so each
    slice sums in the same order. The magnitudes are taken in place
    (``abs``, then squares for the row norms), and the small-entry fraction
    is counted per slice, so no stack-size temporary or cast buffer is
    made; the spectra's temporaries are freed before the magnitudes'.
    """
    count, m, n = stack.shape
    spectral = _spectral_features(np.linalg.svd(stack, compute_uv=False), max(m, n))

    flat = stack.reshape(count, -1)
    np.abs(flat, out=flat)
    max_abs = flat.max(axis=1)
    mean_abs = flat.mean(axis=1)
    frac_small = [
        np.count_nonzero(row < 1e-3 * peak) / row.size if peak > 0 else 0.0 for row, peak in zip(flat, max_abs)
    ]
    np.square(stack, out=stack)
    row_norms = np.sqrt(stack.sum(axis=2))
    mean_norm = row_norms.mean(axis=1)
    row_cv = np.zeros(count)
    moving = mean_norm > 0
    row_cv[moving] = row_norms[moving].std(axis=1) / mean_norm[moving]

    position = [
        (
            p.layer_index / max(total_layers, 1),
            1.0 if p.submodule_kind == "attention_proj" else 0.0,
            1.0 if p.submodule_kind == "ffn" else 0.0,
            1.0 if p.submodule_kind == "embedding" else 0.0,
        )
        for p in patches
    ]
    feats = np.column_stack([*spectral, mean_abs, max_abs, frac_small, row_cv, np.array(position)])
    finite = np.isfinite(feats).all(axis=1)
    if not finite.all():
        raise NumericsError(f"non-finite feature vector for patch {patches[int(finite.argmin())].patch_id}")
    return feats


def _spectral_features(s: np.ndarray, long_side: int) -> np.ndarray:
    """Stable rank, top-10% energy, log condition and entropy ``(4, P)`` of
    the spectra ``s`` ``(P, k)`` of P matrices whose longer side is
    ``long_side``; a zero spectrum keeps 0 for each. The entropy sums
    ``-p log p`` over every energy share ``p`` of the spectrum, a zero
    share adding 0, so each row sums as many terms as it does alone."""
    energies = s**2
    total = energies.sum(axis=1)
    live = total != 0.0
    spectral = np.zeros((4, len(s)))
    if live.any():
        s, energies, total = s[live], energies[live], total[live]
        k = math.ceil(0.1 * s.shape[1])
        # values at or below the numerical-rank cutoff are rounding noise
        kept = (s > (long_side * np.finfo(np.float64).eps) * s[:, :1]).sum(axis=1)
        p = energies / total[:, None]
        entropy = -(p * np.log(p, out=np.zeros_like(p), where=p > 0)).sum(axis=1)
        spectral[:, live] = (
            total / energies[:, 0],
            energies[:, :k].sum(axis=1) / total,
            np.log10(s[:, 0] / s[np.arange(len(s)), kept - 1]),
            entropy,
        )
    return spectral


@dataclass(frozen=True)
class ProbeRecord:
    patch_id: int
    family: str
    target_ratio: float
    measured_degradation: float


def _deviation(w: np.ndarray, w_hat: np.ndarray, x: np.ndarray, base: float) -> float:
    """Relative deviation of the layer output, ||(W - What) X|| / ``base``,
    where the caller passes ``base`` = ||W X||; 0.0 where that is 0."""
    if base == 0.0:
        log.debug("degenerate reference output; reporting zero deviation")
        return 0.0
    return float(np.linalg.norm((w - w_hat) @ x)) / base


def _checked_calib(x, cols: int, owner: str) -> np.ndarray:
    """``x`` scanned by ``as_tensor``; ``ValueError`` unless it holds
    ``cols`` rows, one per column of ``owner``, and at least 8 samples."""
    x = as_tensor(x)
    if x.ndim != 2 or x.shape[0] != cols or x.shape[1] < 8:
        raise ValueError(f"calibration of {owner} must be {cols} rows by at least 8 samples, got shape {x.shape}")
    return x


def _probe_families(families) -> list[str]:
    """``families`` in ``FAMILIES`` order; an unknown name raises ``ValueError``."""
    chosen = set(families)
    unknown = sorted(chosen.difference(FAMILIES), key=repr)
    if unknown:
        raise ValueError("unknown family " + ", ".join(map(repr, unknown)))
    return [f for f in FAMILIES if f in chosen]


def probe_patch(
    w: np.ndarray,
    families,
    ratio_grid,
    calib: np.ndarray,
    patch_id: int = 0,
) -> list[ProbeRecord]:
    """Measure the output deviation of each candidate (family, ratio).

    ``calib`` holds input samples, one row per column of ``w`` and at least
    8 sample columns. Infeasible ratios are skipped with a logged reason
    rather than raised; a family not in ``FAMILIES`` raises ``ValueError``.

    Each probe equals the deviation of ``compress_matrix(w, family,
    ratio_budget(ratio, m * n))`` bit for bit, from less work: this is the
    one-patch case of ``analyze``'s stack probe (``_probe_stack``).
    """
    w = as_tensor(w)
    if w.ndim != 2:
        raise ShapeError(f"expected a patch matrix, got rank {w.ndim}")
    calib = _checked_calib(calib, w.shape[1], "the patch")
    return _probe_stack([patch_id], w[None], [calib], _probe_families(families), ratio_grid)[0]


def _probe_stack(patch_ids, stack, calibs, families, ratio_grid) -> list[list[ProbeRecord]]:
    """``probe_patch`` of the same-shape patches of a finite float64
    ``stack`` ``(P, m, n)``, each with its checked calibration (``calibs``),
    over ``families`` in ``FAMILIES`` order: one list of records per patch,
    in family order, then ratio order. The stack is read, not written.

    Probes are keyed by the structure they decompose, ``_layout`` of the
    selected ranks, and the (family, ratio) pairs with one key share its
    deviations. Each key's dense slices come from ``_reconstructions`` over
    the whole stack, and ||W X|| is computed once per patch.
    """
    m, n = stack.shape[1:]
    mode_shape = default_mode_shape(m, n)[0]
    keys, skips = {}, {}  # (family, ratio) -> probe key, or the reason it is infeasible
    for family in families:
        for ratio in ratio_grid:
            try:
                ranks = select_ranks(mode_shape, family, ratio_budget(ratio, m * n))
            except InfeasibleBudgetError as exc:
                skips[family, ratio] = exc
            else:
                keys[family, ratio] = _layout(family, mode_shape, ranks)
    refs = [float(np.linalg.norm(w @ x)) for w, x in zip(stack, calibs)]  # ||W X|| per patch
    tucker, trains = ([k[1] for k in dict.fromkeys(keys.values()) if k[0] == family] for family in ("tucker", "tt"))
    measured = {
        key: [_deviation(w, w_hat.reshape(m, n), x, ref) for w, w_hat, x, ref in zip(stack, slices, calibs, refs)]
        for key, slices in _reconstructions(stack.reshape(len(stack), *mode_shape), tucker, trains)
    }

    out = []
    for i, patch_id in enumerate(patch_ids):
        records = []
        for family in families:
            for ratio in ratio_grid:
                if (family, ratio) in skips:
                    log.info(
                        "probe skipped: patch %d %s@%.3g infeasible (%s)", patch_id, family, ratio, skips[family, ratio]
                    )
                    continue
                records.append(ProbeRecord(patch_id, family, float(ratio), measured[keys[family, ratio]][i]))
        out.append(records)
    return out


# --- predictor ---------------------------------------------------------------


RIDGE = 1.0  # ridge strength on the standardized features; the intercept is not penalized


@dataclass
class Predictor:
    """One linear ridge head per output over the 12 standardized features.

    Column 0 of ``coef`` predicts the sensitivity score, clipped to [0, 1];
    column j + 1 predicts the output deviation of the candidate
    ``heads[j]``, a (family, ratio) pair. Row 0 of ``coef`` holds the
    intercepts and rows 1 to 12 the weights of the standardized features.
    """

    coef: np.ndarray  # (1 + N_FEATURES, 1 + len(heads))
    feat_mean: np.ndarray
    feat_std: np.ndarray
    heads: list[tuple[str, float]]
    training_log: dict = field(default_factory=dict)

    def forward(self, feats: np.ndarray) -> np.ndarray:
        """The heads' outputs ``(N, 1 + len(heads))`` for feature rows ``(N,
        12)``, or one row of 12. Each output is its intercept ``coef[0, j]``
        plus ``x_i * coef[1 + i, j]`` for the standardized features ``x_i``,
        added in feature order by elementwise operations, so its bits depend
        only on its row and its ``coef`` column: a row predicts the bits it
        predicts alone, and heads with equal columns predict equal bits."""
        x = (np.atleast_2d(feats) - self.feat_mean) / self.feat_std
        out = np.repeat(self.coef[:1], len(x), axis=0)
        for i in range(x.shape[1]):
            out += x[:, i : i + 1] * self.coef[1 + i]
        out[:, 0] = np.clip(out[:, 0], 0.0, 1.0)
        return out


@dataclass(frozen=True)
class Recommendation:
    target_ratio: float | None  # None means keep the patch dense
    predicted_degradation: float


@dataclass
class SensitivityRecord:
    patch_id: int
    score: float
    predictions: dict[str, dict[float, float]]  # family -> ratio -> deviation
    recommendations: dict[str, Recommendation]


def _score_targets(mean_deg) -> np.ndarray:
    """Normalized degradation rank per patch: 0 = most robust, 1 = most fragile.

    Ties share the average of their rank positions, so all-equal targets
    collapse to 0.5.
    """
    x = np.asarray(mean_deg, dtype=np.float64)
    s = np.sort(x)
    ranks = (np.searchsorted(s, x, "left") + np.searchsorted(s, x, "right") - 1) / 2
    return ranks / max(len(x) - 1, 1)


def _ridge_fit(xs: np.ndarray, target: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ridge fit of every head in centered form (Hoerl & Kennard 1970).

    Head j is fitted on the rows ``mask[:, j]``. The heads that share their
    rows share one centering, one Gram ``xcᵀxc + RIDGE·I`` and one
    ``solve`` with a column per head. Returns ``coef``, the intercepts
    ȳ − x̄·w over the weights w, and ``sse``, the summed squared training
    errors of the fit over those of the mean ȳ. Head 0's fit is clipped to
    [0, 1]. Where a head's fit error is not at or below its mean's, its w
    falls back to 0.
    """
    shared: dict[tuple, list[int]] = {}  # a row set -> the heads fitted on it
    for j in range(mask.shape[1]):
        shared.setdefault(tuple(mask[:, j].tolist()), []).append(j)
    coef = np.zeros((1 + xs.shape[1], mask.shape[1]))
    sse = np.zeros((2, mask.shape[1]))
    for heads in shared.values():
        rows = mask[:, heads[0]]
        x, y = xs[rows], target[rows][:, heads]
        x_bar, y_bar = x.mean(axis=0), y.mean(axis=0)
        xc, yc = x - x_bar, y - y_bar
        w = np.linalg.solve(xc.T @ xc + RIDGE * np.eye(xs.shape[1]), xc.T @ yc)
        fit = xc @ w + y_bar
        if heads[0] == 0:
            fit[:, 0] = np.clip(fit[:, 0], 0.0, 1.0)
        fit_sse, mean_sse = ((fit - y) ** 2).sum(axis=0), (yc**2).sum(axis=0)
        worse = ~(fit_sse <= mean_sse)
        w[:, worse], fit_sse[worse] = 0.0, mean_sse[worse]
        coef[0, heads], coef[1:, heads] = y_bar - x_bar @ w, w
        sse[:, heads] = fit_sse, mean_sse
    return coef, sse


def train_predictor(records) -> Predictor:
    """Fit the per-head ridge predictor on (features, probe) pairs.

    Each deviation head is fitted only on the patches that measured its
    (family, ratio); the score head, on every patch's ``_score_targets``
    rank. Features are standardized over all patches first. ``RIDGE`` is
    the penalty on the weights. Heads measured on the same patches share
    one solve (``_ridge_fit``); each head's coefficients equal its own fit
    up to rounding. ``training_log`` holds the mean squared training error
    over all measured cells, of the per-head means (``initial_mse``) and
    of the fit (``final_mse``); a head whose fit is worse than its mean
    keeps the mean, so ``final_mse`` never exceeds ``initial_mse``. Before
    anything is fitted, a non-finite feature or degradation raises
    ``NumericsError``, and two records that disagree raise ``ValueError``:
    two degradations for one (patch, family, ratio), or two feature vectors
    for one patch. Identical repeats are taken once.
    """
    records = list(records)
    if len(records) < 32:
        raise ValueError(f"need at least 32 training records, got {len(records)}")

    by_patch: dict[int, dict] = {}
    column: dict[tuple[str, float], int] = {}  # head -> its column of coef, from 1
    for feats, probe in records:
        if not math.isfinite(probe.measured_degradation):
            raise NumericsError(f"non-finite measured degradation in {probe}")
        feats = np.asarray(feats, dtype=np.float64)
        slot = by_patch.setdefault(probe.patch_id, {"feats": feats, "targets": {}})
        if feats is not slot["feats"] and not np.array_equal(feats, slot["feats"], equal_nan=True):
            raise ValueError(f"patch {probe.patch_id} has two different feature vectors")
        key = (probe.family, probe.target_ratio)
        if slot["targets"].setdefault(key, probe.measured_degradation) != probe.measured_degradation:
            raise ValueError(f"two different degradations for patch {probe.patch_id} at {key}")
        column.setdefault(key, len(column) + 1)

    patch_ids = sorted(by_patch)
    x = np.stack([by_patch[pid]["feats"] for pid in patch_ids])
    if not np.isfinite(x).all():
        raise NumericsError("non-finite feature vector in the training records")
    n, nh = len(patch_ids), 1 + len(column)
    target = np.zeros((n, nh))
    mask = np.zeros((n, nh), dtype=bool)
    for i, pid in enumerate(patch_ids):
        for key, deg in by_patch[pid]["targets"].items():
            target[i, column[key]] = deg
            mask[i, column[key]] = True
    mean_deg = [float(np.mean(list(by_patch[pid]["targets"].values()))) for pid in patch_ids]
    target[:, 0] = _score_targets(mean_deg)
    mask[:, 0] = True

    measured = target[:, 1:][mask[:, 1:]]
    degenerate = measured.size > 0 and float(measured.min()) == float(measured.max())
    if degenerate:
        log.info("degenerate probe targets: all measured degradations equal")

    feat_mean = x.mean(axis=0)
    feat_std = x.std(axis=0)
    feat_std[feat_std < 1e-12] = 1.0
    xs = (x - feat_mean) / feat_std

    coef, sse = _ridge_fit(xs, target, mask)
    final_mse, initial_mse = (float(s) for s in sse.sum(axis=1) / mask.sum())
    if not final_mse <= initial_mse:
        raise NumericsError(f"fit error {final_mse} is not at or below the per-head means' {initial_mse}")

    return Predictor(
        coef=coef,
        feat_mean=feat_mean,
        feat_std=feat_std,
        heads=list(column),
        training_log={
            "initial_mse": initial_mse,
            "final_mse": final_mse,
            "degenerate_targets": degenerate,
        },
    )


def predict(predictor: Predictor, feats: np.ndarray, patch_id: int = 0) -> SensitivityRecord:
    """Score a patch and pick, per family, the deepest ratio within
    ``DEGRADATION_CAP``: the one-row case of ``analyze``'s records
    (``_records``)."""
    return _records(predictor, feats, [patch_id])[0]


def _records(predictor: Predictor, feats: np.ndarray, patch_ids) -> list[SensitivityRecord]:
    """``predict`` of each row of ``feats`` and its patch id, from one
    ``forward`` over the rows, each row's bits its own. Rows become Python
    floats one at a time, so no list of every row is held beside the
    records."""
    columns: dict[str, list[tuple[float, int]]] = {}  # family -> (ratio, column of forward's output)
    for j, (family, ratio) in enumerate(predictor.heads, start=1):
        columns.setdefault(family, []).append((ratio, j))
    records = []
    for patch_id, row in zip(patch_ids, predictor.forward(feats)):
        row = row.tolist()
        predictions = {family: {ratio: max(row[j], 0.0) for ratio, j in cols} for family, cols in columns.items()}

        recommendations = {}
        for family, curve in predictions.items():
            admissible = [(r, d) for r, d in curve.items() if d <= DEGRADATION_CAP]
            if admissible:
                ratio, deg = min(admissible)  # smallest ratio = deepest compression
                recommendations[family] = Recommendation(target_ratio=ratio, predicted_degradation=deg)
            else:
                best = min(curve.values())
                recommendations[family] = Recommendation(target_ratio=None, predicted_degradation=best)
        records.append(
            SensitivityRecord(patch_id=patch_id, score=row[0], predictions=predictions, recommendations=recommendations)
        )
    return records


# --- analysis orchestration ---------------------------------------------------


@dataclass
class AnalysisResult:
    patches: list[Patch]
    features: dict[int, np.ndarray]
    probes: list[ProbeRecord]
    probed_ids: list[int]
    records: list[SensitivityRecord]
    predictor: Predictor


def _probe_subset(patches: list[Patch], stride: int) -> list[Patch]:
    groups: dict[tuple, list[Patch]] = {}
    for p in patches:
        groups.setdefault((p.layer_index, p.submodule_kind), []).append(p)
    chosen = []
    for key in sorted(groups):
        chosen.extend(groups[key][::stride])
    return sorted(chosen, key=lambda p: p.patch_id)


def _stack_pass(model, patches, probe_targets, calibs) -> tuple[dict, dict]:
    """``analyze``'s one pass over ``_patch_stacks``, which copies each patch
    once: the features of every patch and the probe records of each probed
    one, by patch id. The unprobed patches' stacks come first, for their
    features alone; then each stack of probed patches is probed
    (``_probe_stack``) and its features are taken in place on the same
    stack (``_stack_features``). Probing first raised the traced peak of a
    process's first call. The set of probed patches lives only while the
    unprobed ones are grouped, and the pass is a function of its own, so
    neither it nor the last stack is held through the probes or training."""
    features = {}
    for group, stack in _patch_stacks(model, filterfalse(set(probe_targets).__contains__, patches)):
        features.update(zip([p.patch_id for p in group], _stack_features(stack, group, model.total_layers)))
    by_patch = {}
    for group, stack in _patch_stacks(model, probe_targets):
        ids = [p.patch_id for p in group]
        x = [calibs[p.layer_name][p.col_range[0] : p.col_range[1]] for p in group]
        by_patch.update(zip(ids, _probe_stack(ids, stack, x, FAMILIES, RATIO_GRID)))
        features.update(zip(ids, _stack_features(stack, group, model.total_layers)))
    return features, by_patch


def analyze(
    model: ModelContainer,
    calib: dict[str, np.ndarray],
    patch_size=(64, 64),
    probe_stride: int = 4,
    exclude_kinds=None,
    seed: int = 0,
) -> AnalysisResult:
    """Run the full analysis stage: features, strided probes, training, scoring.

    Every ``probe_stride``-th patch of each (layer index, kind) whose kind
    is not in ``exclude_kinds`` (``EXCLUDED_KINDS`` if None) is probed at
    ``FAMILIES`` and ``RATIO_GRID``. ``calib`` maps layer names to
    per-layer input samples with one row per matrix column and at least 8
    samples; each patch sees the row slice matching its columns. Before any
    decomposition, the model's weights (``ModelContainer.validate``) and
    each probed layer's calibration are scanned once, and a probed layer
    that ``calib`` lacks or gives another shape, or a ``probe_stride``
    that is not a count of at least 1 (``as_count``), raises
    ``ValueError``. Then each patch is copied out of the model once, into a
    stack of same-shape patches (``_stack_pass``), and the records come
    from one ``forward`` over all the patches (``_records``); every output
    keeps patch order. Rank selection runs once per distinct (mode shape,
    family, budget) in the process (``select_ranks``' memo). ``seed`` is
    unused: ``calib`` is given and the fit is closed-form. It stays because
    ``perfbench/workloads.py`` passes it.
    """
    probe_stride = as_count(probe_stride, 1, "probe_stride", ValueError)
    model.validate()
    patches = partition_patches(model, patch_size)
    exclude_kinds = EXCLUDED_KINDS if exclude_kinds is None else exclude_kinds
    probe_targets = [p for p in _probe_subset(patches, probe_stride) if p.submodule_kind not in exclude_kinds]
    layers = dict.fromkeys(p.layer_name for p in probe_targets)
    missing = [name for name in layers if name not in calib]
    if missing:
        raise ValueError("no calibration samples for probed layer " + ", ".join(map(repr, missing)))
    calibs = {
        name: _checked_calib(calib[name], model.entries[name].matrix.shape[1], f"layer {name!r}") for name in layers
    }
    features, by_patch = _stack_pass(model, patches, probe_targets, calibs)
    features = {p.patch_id: features[p.patch_id] for p in patches}
    probes = [r for p in probe_targets for r in by_patch[p.patch_id]]
    predictor = train_predictor((features[r.patch_id], r) for r in probes)
    records = _records(predictor, np.stack([features[p.patch_id] for p in patches]), [p.patch_id for p in patches])
    return AnalysisResult(
        patches=patches,
        features=features,
        probes=probes,
        probed_ids=[p.patch_id for p in probe_targets],
        records=records,
        predictor=predictor,
    )
