"""Patch partitioning, cheap spectral features, compression probes, and the
degradation predictor that scores how safely each patch compresses."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from minima.errors import EmptyModelError, InfeasibleBudgetError, NumericsError
from minima.model import ModelContainer
from minima.tensor_core import full_svd
from minima.tn_decompositions import FAMILIES, compress_matrix, layer_to_matrix, ratio_budget

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
    matrix = model.entries[patch.layer_name].matrix
    block = matrix[patch.row_range[0] : patch.row_range[1], patch.col_range[0] : patch.col_range[1]]
    return np.ascontiguousarray(block, dtype=np.float64)


def extract_features(w: np.ndarray, patch: Patch, total_layers: int) -> np.ndarray:
    """12 cheap statistics: spectrum shape, magnitudes, sparsity, position."""
    w = np.ascontiguousarray(w, dtype=np.float64)
    s = full_svd(w).values
    energies = s**2
    total = float(energies.sum())

    if total == 0.0:
        stable_rank = 0.0
        top_energy = 0.0
        log_cond = 0.0
        entropy = 0.0
    else:
        stable_rank = total / float(energies[0])
        k = math.ceil(0.1 * min(w.shape))
        top_energy = float(energies[:k].sum()) / total
        # values at or below the numerical-rank cutoff are rounding noise
        kept = s[s > max(w.shape) * np.finfo(np.float64).eps * s[0]]
        log_cond = float(np.log10(kept[0] / kept[-1]))
        p = energies[energies > 0] / total
        entropy = float(-(p * np.log(p)).sum())

    abs_w = np.abs(w)
    max_abs = float(abs_w.max())
    mean_abs = float(abs_w.mean())
    frac_small = float(np.mean(abs_w < 1e-3 * max_abs)) if max_abs > 0 else 0.0
    row_norms = np.linalg.norm(w, axis=1)
    mean_norm = float(row_norms.mean())
    row_cv = float(row_norms.std() / mean_norm) if mean_norm > 0 else 0.0

    feats = np.array(
        [
            stable_rank,
            top_energy,
            log_cond,
            entropy,
            mean_abs,
            max_abs,
            frac_small,
            row_cv,
            patch.layer_index / max(total_layers, 1),
            1.0 if patch.submodule_kind == "attention_proj" else 0.0,
            1.0 if patch.submodule_kind == "ffn" else 0.0,
            1.0 if patch.submodule_kind == "embedding" else 0.0,
        ]
    )
    if not np.all(np.isfinite(feats)):
        raise NumericsError(f"non-finite feature vector for patch {patch.patch_id}")
    return feats


@dataclass(frozen=True)
class ProbeRecord:
    patch_id: int
    family: str
    target_ratio: float
    measured_degradation: float


def output_deviation(w: np.ndarray, w_hat: np.ndarray, x: np.ndarray) -> float:
    """Relative deviation of the layer output, ||(W - What) X|| / ||W X||."""
    base = float(np.linalg.norm(w @ x))
    if base == 0.0:
        log.debug("degenerate reference output; reporting zero deviation")
        return 0.0
    return float(np.linalg.norm((w - w_hat) @ x)) / base


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
    rather than raised.
    """
    w = np.ascontiguousarray(w, dtype=np.float64)
    m, n = w.shape
    calib = np.ascontiguousarray(calib, dtype=np.float64)
    if calib.shape[0] != n:
        raise ValueError(f"calibration rows {calib.shape[0]} do not match patch columns {n}")
    if calib.shape[1] < 8:
        raise ValueError("calibration needs at least 8 sample columns")

    records = []
    ordered = [f for f in FAMILIES if f in set(families)]
    for family in ordered:
        for ratio in ratio_grid:
            try:
                layer = compress_matrix(w, family, ratio_budget(ratio, m * n), hooi_iters=hooi_iters)
            except InfeasibleBudgetError as exc:
                log.info("probe skipped: patch %d %s@%.3g infeasible (%s)", patch_id, family, ratio, exc)
                continue
            deg = output_deviation(w, layer_to_matrix(layer), calib)
            records.append(
                ProbeRecord(
                    patch_id=patch_id,
                    family=family,
                    target_ratio=float(ratio),
                    measured_degradation=deg,
                )
            )
    return records


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
    matrix column; each patch sees the row slice matching its columns.
    ``seed`` is unused: ``calib`` is given and the fit is closed-form, so
    nothing is drawn at random. It stays because the benchmark workloads in
    ``perfbench/workloads.py`` pass it.
    """
    patches = partition_patches(model, patch_size)
    features = {
        p.patch_id: extract_features(patch_matrix(model, p), p, model.total_layers)
        for p in patches
    }
    probe_targets = [p for p in _probe_subset(patches, probe_stride) if p.submodule_kind not in exclude_kinds]
    probes: list[ProbeRecord] = []
    for p in probe_targets:
        w = patch_matrix(model, p)
        x = calib[p.layer_name][p.col_range[0] : p.col_range[1], :]
        probes.extend(probe_patch(w, families, ratio_grid, x, patch_id=p.patch_id))
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
