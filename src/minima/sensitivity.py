"""Patch partitioning, cheap spectral features, compression probes, and the
degradation predictor that scores how safely each patch compresses."""

from __future__ import annotations

import logging
import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from minima.errors import EmptyModelError, InfeasibleBudgetError, NumericsError, ShapeError
from minima.model import ModelContainer
from minima.tensor_core import as_tensor, leading_basis, unfold
from minima.tn_decompositions import (
    FAMILIES,
    _train_chain,
    _train_stack,
    default_mode_shape,
    layer_to_matrix,
    ratio_budget,
    select_ranks,
    tucker_decompose,
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
    """
    pr, pc = int(patch_size[0]), int(patch_size[1])
    if pr < 16 or pc < 16:
        raise ValueError(f"patch dimensions must be >= 16, got {(pr, pc)}")
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


def _patch_stacks(model: ModelContainer, patches: list[Patch]) -> Iterator[tuple[list[Patch], np.ndarray]]:
    """``patches`` grouped by shape, in order of first appearance, and cut
    into stacks of at most ``STACK_ENTRIES`` entries (one patch at least):
    yields each stack's patches and their float64 blocks, stacked ``(P,
    rows, cols)`` and filled in place, the stacks ``analyze`` takes
    features and probes over."""
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
    ``analyze``'s stacked features (``_stack_features``).
    """
    w = as_tensor(w)
    if w.ndim != 2:
        raise ShapeError(f"expected a patch matrix, got rank {w.ndim}")
    return _stack_features(w[None].copy(), [patch], total_layers)[0]


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
    ``long_side``; a zero spectrum keeps 0 for each. The entropy sums only a
    spectrum's positive energies, a prefix of it, so spectra are grouped
    by that prefix's length."""
    energies = s**2
    total = energies.sum(axis=1)
    live = total != 0.0
    spectral = np.zeros((4, len(s)))
    if live.any():
        s, energies, total = s[live], energies[live], total[live]
        k = math.ceil(0.1 * s.shape[1])
        # values at or below the numerical-rank cutoff are rounding noise
        kept = (s > (long_side * np.finfo(np.float64).eps) * s[:, :1]).sum(axis=1)
        positive = (energies > 0).sum(axis=1)
        entropy = np.empty(len(s))
        for length in set(positive.tolist()):  # not np.unique, whose first call imports numpy.ma
            chosen = positive == length
            p = energies[chosen, :length] / total[chosen, None]
            entropy[chosen] = -(p * np.log(p)).sum(axis=1)
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


def output_deviation(w: np.ndarray, w_hat: np.ndarray, x: np.ndarray) -> float:
    """Relative deviation of the layer output, ||(W - What) X|| / ||W X||."""
    return _deviation(w, w_hat, x, float(np.linalg.norm(w @ x)))


def _deviation(w: np.ndarray, w_hat: np.ndarray, x: np.ndarray, base: float) -> float:
    """``output_deviation`` with ``base`` = ||W X|| computed by the caller."""
    if base == 0.0:
        log.debug("degenerate reference output; reporting zero deviation")
        return 0.0
    return float(np.linalg.norm((w - w_hat) @ x)) / base


def _probe_families(families) -> list[str]:
    """``families`` in ``FAMILIES`` order; an unknown name raises ``ValueError``."""
    chosen = set(families)
    unknown = sorted(chosen.difference(FAMILIES), key=repr)
    if unknown:
        raise ValueError("unknown family " + ", ".join(map(repr, unknown)))
    return [f for f in FAMILIES if f in chosen]


def _probe_key(spec) -> tuple:
    """The structure a probe decomposes. A ring is the train with bonds
    ``ranks[1:]`` (``tr_decompose``), so it shares the train's key."""
    if spec.family == "tr":
        return ("tt", spec.ranks[1:])
    return (spec.family, spec.ranks)


def probe_patch(
    w: np.ndarray,
    families,
    ratio_grid,
    calib: np.ndarray,
    patch_id: int = 0,
    hooi_iters: int = 1,
) -> list[ProbeRecord]:
    """Measure the output deviation of each candidate (family, ratio).

    ``calib`` holds input samples, one row per column of ``w`` and at least
    8 sample columns. Infeasible ratios are skipped with a logged reason
    rather than raised; a family not in ``FAMILIES`` raises ``ValueError``.

    Each probe equals ``compress_matrix(w, family, ratio_budget(ratio, m *
    n), hooi_iters)`` bit for bit, from less work: this is the one-patch
    case of ``analyze``'s stack probe (``_probe_stack``).
    """
    w = as_tensor(w)
    if w.ndim != 2:
        raise ShapeError(f"expected a patch matrix, got rank {w.ndim}")
    return _probe_stack([patch_id], w[None], [calib], families, ratio_grid, hooi_iters)[0]


def _probe_stack(patch_ids, stack, calibs, families, ratio_grid, hooi_iters=1) -> list[list[ProbeRecord]]:
    """``probe_patch`` of the same-shape patches of ``stack`` ``(P, m, n)``:
    one list of records per patch, in ``FAMILIES`` order, then ratio order.

    Probes are keyed by the structure they decompose (``_probe_key``), so a
    ring takes its train's deviations and ratios that select the same ranks
    share them. Tucker is probed on the whole stack
    (``_tucker_probes``), then trains (``_train_probes``). ||W X|| is
    computed once per patch.
    """
    families = _probe_families(families)
    stack = as_tensor(stack)
    calibs = [np.ascontiguousarray(x, dtype=np.float64) for x in calibs]
    m, n = stack.shape[1:]
    for x in calibs:
        if x.shape[0] != n:
            raise ValueError(f"calibration rows {x.shape[0]} do not match patch columns {n}")
        if x.shape[1] < 8:
            raise ValueError("calibration needs at least 8 sample columns")

    mode_shape, row_mode_count = default_mode_shape(m, n)
    keys, skips = {}, {}  # (family, ratio) -> probe key, or the reason it is infeasible
    for family in families:
        for ratio in ratio_grid:
            try:
                spec = select_ranks(mode_shape, family, ratio_budget(ratio, m * n))
            except InfeasibleBudgetError as exc:
                skips[family, ratio] = exc
            else:
                keys[family, ratio] = _probe_key(spec)
    refs = [float(np.linalg.norm(w @ x)) for w, x in zip(stack, calibs)]  # ||W X|| per patch
    tucker, trains = ([k[1] for k in dict.fromkeys(keys.values()) if k[0] == family] for family in ("tucker", "tt"))
    measured = _tucker_probes(stack, mode_shape, row_mode_count, tucker, calibs, refs, hooi_iters)
    measured.update(_train_probes(stack, mode_shape, trains, calibs, refs))

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


def _tucker_probes(stack, mode_shape, row_mode_count, ranks, calibs, refs, hooi_iters) -> dict[tuple, list[float]]:
    """The Tucker deviation of each patch of ``stack`` at each rank tuple of
    ``ranks``, keyed ``("tucker", ranks)``; ``refs`` holds each patch's
    ||W X||.

    The full HOSVD eigenbasis of each mode that some rank tuple truncates
    is computed once for the stack, and every decomposition starts from its
    leading columns; each rank tuple is one stacked ``tucker_decompose``.
    """
    if not ranks:
        return {}
    t = stack.reshape(len(stack), *mode_shape)
    cut = {k for r in ranks for k, size in enumerate(mode_shape) if r[k] < size}
    hosvd = {k: leading_basis(unfold(t, k, stacked=True), mode_shape[k], stacked=True) for k in cut}
    measured = {}
    for r in ranks:
        layers = tucker_decompose(t, r, hooi_iters, stacked=True, hosvd=hosvd)
        deviations = measured["tucker", r] = []
        for w, layer, x, ref in zip(stack, layers, calibs, refs):
            layer.row_mode_count = row_mode_count
            deviations.append(_deviation(w, layer_to_matrix(layer), x, ref))
    return measured


def _train_probes(stack, mode_shape, bonds, calibs, refs) -> dict[tuple, list[float]]:
    """The TT deviation of each patch of ``stack`` at each bond vector of
    ``bonds``, keyed ``("tt", bonds)``; ``refs`` holds each patch's ||W X||.

    The trains come from ``_train_stack``, which shares a split among the
    bond vectors that keep the same bonds before it; each bond vector's
    cores are dropped before the next one's splits are made.
    """
    measured = {}
    for b, cores in _train_stack(stack.reshape(len(stack), *mode_shape), bonds):
        measured["tt", b] = _train_deviations(stack, cores, calibs, refs)
        del cores
    return measured


def _train_deviations(stack, cores, calibs, refs) -> list[float]:
    """The deviation of each patch of ``stack`` under its train of the
    stacked TT ``cores``. The reconstruction chain runs over the stack
    (``_train_chain``) up to its last core, whose product is taken patch by
    patch, by ``reconstruct``'s ``np.dot``, as each deviation is measured,
    so no stack of reconstructions is held."""
    heads = _train_chain(cores[:-1])
    tails = cores[-1].reshape(len(stack), cores[-1].shape[1], -1)
    shape = stack.shape[1:]
    return [
        _deviation(w, np.dot(head, tail).reshape(shape), x, ref)
        for w, head, tail, x, ref in zip(stack, heads, tails, calibs, refs)
    ]


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
        x = (np.atleast_2d(feats) - self.feat_mean) / self.feat_std
        out = x @ self.coef[1:] + self.coef[0]
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


def _score_targets(patch_ids, mean_deg) -> np.ndarray:
    """Normalized degradation rank per patch: 0 = most robust, 1 = most fragile.

    Ties share the average of their rank positions, so all-equal targets
    collapse to 0.5.
    """
    n = len(patch_ids)
    order = sorted(range(n), key=lambda i: (mean_deg[i], patch_ids[i]))
    ranks = np.zeros(n)
    i = 0
    while i < n:
        j = i
        while j < n and mean_deg[order[j]] == mean_deg[order[i]]:
            j += 1
        avg = (i + j - 1) / 2.0
        for k in range(i, j):
            ranks[order[k]] = avg
        i = j
    return ranks / max(n - 1, 1)


def _ridge_head(xs: np.ndarray, y: np.ndarray, clip: bool) -> tuple[float, np.ndarray, float, float]:
    """Ridge fit of one head in centered form (Hoerl & Kennard 1970).

    Returns the intercept ȳ − x̄·w, the weights w, and the summed squared
    training errors of the fit and of the mean ȳ. Where the fit's error is
    not at or below the mean's, w falls back to 0.
    """
    x_bar, y_bar = xs.mean(axis=0), float(y.mean())
    xc, yc = xs - x_bar, y - y_bar
    w = np.linalg.solve(xc.T @ xc + RIDGE * np.eye(xs.shape[1]), xc.T @ yc)
    fit = xc @ w + y_bar
    if clip:
        fit = np.clip(fit, 0.0, 1.0)
    mean_sse = float(yc @ yc)
    fit_sse = float(np.sum((fit - y) ** 2))
    if not fit_sse <= mean_sse:
        w, fit_sse = np.zeros_like(w), mean_sse
    return y_bar - float(x_bar @ w), w, fit_sse, mean_sse


def train_predictor(records) -> Predictor:
    """Fit the per-head ridge predictor on (features, probe) pairs.

    Each deviation head is fitted only on the patches that measured its
    (family, ratio); the score head, on every patch's ``_score_targets``
    rank. Features are standardized over all patches first. ``RIDGE`` is
    the penalty on the weights. ``training_log`` holds the mean squared
    training error over all measured cells, of the per-head means
    (``initial_mse``) and of the fit (``final_mse``); a head whose fit is
    worse than its mean keeps the mean, so ``final_mse`` never exceeds
    ``initial_mse``. A non-finite feature or degradation raises
    ``NumericsError`` before anything is fitted.
    """
    records = list(records)
    if len(records) < 32:
        raise ValueError(f"need at least 32 training records, got {len(records)}")

    by_patch: dict[int, dict] = {}
    column: dict[tuple[str, float], int] = {}  # head -> its column of coef, from 1
    for feats, probe in records:
        if not math.isfinite(probe.measured_degradation):
            raise NumericsError(f"non-finite measured degradation in {probe}")
        slot = by_patch.setdefault(
            probe.patch_id, {"feats": np.asarray(feats, dtype=np.float64), "targets": {}}
        )
        key = (probe.family, probe.target_ratio)
        slot["targets"][key] = probe.measured_degradation
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
    target[:, 0] = _score_targets(patch_ids, mean_deg)
    mask[:, 0] = True

    measured = target[:, 1:][mask[:, 1:]]
    degenerate = measured.size > 0 and float(measured.min()) == float(measured.max())
    if degenerate:
        log.info("degenerate probe targets: all measured degradations equal")

    feat_mean = x.mean(axis=0)
    feat_std = x.std(axis=0)
    feat_std[feat_std < 1e-12] = 1.0
    xs = (x - feat_mean) / feat_std

    coef = np.zeros((1 + N_FEATURES, nh))
    sse = np.zeros((2, nh))  # per head: the fit's, then the mean's
    for j in range(nh):
        rows = mask[:, j]
        coef[0, j], coef[1:, j], sse[0, j], sse[1, j] = _ridge_head(xs[rows], target[rows, j], clip=j == 0)
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


def predict(
    predictor: Predictor,
    feats: np.ndarray,
    patch_id: int = 0,
    cap: float = 0.02,
) -> SensitivityRecord:
    """Score a patch and pick, per family, the deepest ratio within the cap."""
    out = predictor.forward(feats)[0]
    score = float(out[0])
    predictions: dict[str, dict[float, float]] = {}
    for (family, ratio), deg in zip(predictor.heads, out[1:]):
        predictions.setdefault(family, {})[ratio] = max(float(deg), 0.0)

    recommendations = {}
    for family, curve in predictions.items():
        admissible = [(r, d) for r, d in curve.items() if d <= cap]
        if admissible:
            ratio, deg = min(admissible)  # smallest ratio = deepest compression
            recommendations[family] = Recommendation(target_ratio=ratio, predicted_degradation=deg)
        else:
            best = min(curve.values())
            recommendations[family] = Recommendation(target_ratio=None, predicted_degradation=best)
    return SensitivityRecord(
        patch_id=patch_id, score=score, predictions=predictions, recommendations=recommendations
    )


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
        chosen.extend(groups[key][:: max(stride, 1)])
    return sorted(chosen, key=lambda p: p.patch_id)


def analyze(
    model: ModelContainer,
    calib: dict[str, np.ndarray],
    patch_size=(64, 64),
    families=FAMILIES,
    ratio_grid=(0.5, 0.35, 0.25, 0.15),
    degradation_cap: float = 0.02,
    probe_stride: int = 4,
    exclude_kinds=("embedding",),
    seed: int = 0,
) -> AnalysisResult:
    """Run the full analysis stage: features, strided probes, training, scoring.

    ``calib`` maps layer names to per-layer input samples with one row per
    matrix column; each patch sees the row slice matching its columns. A
    family not in ``FAMILIES`` raises ``ValueError`` before any work. The
    patches are grouped by shape into stacks (``_patch_stacks``), and each
    stack's features are taken at once (``_stack_features``); so are the
    probed patches', each stack probed at once (``_probe_stack``). Features
    and records equal an ``extract_features`` and a ``probe_patch`` loop
    over the patches bit for bit and keep their order.
    Rank selection runs once per distinct (mode shape, family, budget) in
    the process (``select_ranks``' memo). ``seed`` is unused: ``calib`` is given and the
    fit is closed-form, so nothing is drawn at random. It stays because the
    benchmark workloads in ``perfbench/workloads.py`` pass it.
    """
    _probe_families(families)
    patches = partition_patches(model, patch_size)
    # each pass is a comprehension, so no stack outlives its pass
    features = {
        p.patch_id: row
        for group, stack in _patch_stacks(model, patches)
        for p, row in zip(group, _stack_features(as_tensor(stack), group, model.total_layers))
    }
    features = {p.patch_id: features[p.patch_id] for p in patches}
    probe_targets = [p for p in _probe_subset(patches, probe_stride) if p.submodule_kind not in exclude_kinds]
    by_patch = {
        p.patch_id: records
        for group, stack in _patch_stacks(model, probe_targets)
        for p, records in zip(
            group,
            _probe_stack(
                [p.patch_id for p in group],
                stack,
                [calib[p.layer_name][p.col_range[0] : p.col_range[1], :] for p in group],
                families,
                ratio_grid,
            ),
        )
    }
    probes = [r for p in probe_targets for r in by_patch[p.patch_id]]
    pairs = [(features[r.patch_id], r) for r in probes]
    predictor = train_predictor(pairs)
    records = [
        predict(predictor, features[p.patch_id], patch_id=p.patch_id, cap=degradation_cap)
        for p in patches
    ]
    return AnalysisResult(
        patches=patches,
        features=features,
        probes=probes,
        probed_ids=[p.patch_id for p in probe_targets],
        records=records,
        predictor=predictor,
    )
