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
    entry = model.entries[patch.layer_name]
    block = entry.matrix64()[
        patch.row_range[0] : patch.row_range[1], patch.col_range[0] : patch.col_range[1]
    ]
    return np.ascontiguousarray(block)


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
    calib: np.ndarray | None,
    seed: int = 0,
    patch_id: int = 0,
    hooi_iters: int = 1,
) -> list[ProbeRecord]:
    """Measure the output deviation of each candidate (family, ratio).

    Infeasible ratios are skipped with a logged reason rather than raised.
    """
    w = np.ascontiguousarray(w, dtype=np.float64)
    m, n = w.shape
    if calib is None:
        gen = np.random.Generator(np.random.Philox(seed))
        calib = gen.standard_normal((n, max(8, min(n, 64))))
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


@dataclass
class Predictor:
    """Two-layer perceptron over the 12 features.

    Head 0 predicts the sensitivity score (sigmoid); one linear head per
    (family, ratio) pair predicts the output deviation of that candidate.
    """

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    feat_mean: np.ndarray
    feat_std: np.ndarray
    head_keys: list[str]
    hyper: dict = field(default_factory=dict)
    training_log: dict = field(default_factory=dict)

    def forward(self, feats: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(feats)
        x = (x - self.feat_mean) / self.feat_std
        hidden = np.tanh(x @ self.w1 + self.b1)
        out = hidden @ self.w2 + self.b2
        out[:, 0] = 1.0 / (1.0 + np.exp(-out[:, 0]))
        return out


def head_key(family: str, ratio: float) -> str:
    return f"{family}@{ratio:g}"


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


class _Workspace:
    """Scratch arrays of one ``train_predictor`` call, allocated once.

    ``loss`` runs the forward pass into them; ``grads`` runs the backward
    pass from what the last ``loss`` call left there.
    """

    def __init__(self, xs: np.ndarray, target: np.ndarray, mask: np.ndarray, hidden: int):
        n, nh = target.shape
        self.xs, self.xs_t = xs, xs.T
        self.target, self.target0 = target, target[:, 0]
        self.unmeasured = None if mask.all() else ~mask
        self.m_count = float(mask.sum())  # divides as the int would, without converting it per call
        self.pre = np.empty((n, hidden))  # pre-activation, then 1 - hidden**2
        self.hid = np.empty((n, hidden))
        self.dhid = np.empty((n, hidden))
        self.out = np.empty((n, nh))
        self.resid = np.empty((n, nh))
        self.sq = np.empty((n, nh))  # squared residual, then the output gradient
        self.sq_flat = self.sq.reshape(-1)  # summed as one run, the order of sq.sum()
        self.neg = np.empty(n)  # -out[:, 0], then score * (1 - score)
        self.score = np.empty(n)
        self.out0, self.resid0, self.sq0 = self.out[:, 0], self.resid[:, 0], self.sq[:, 0]

    def loss(self, w1, b1, w2, b2) -> float:
        pre, hid, out, resid, sq, neg, score = (
            self.pre, self.hid, self.out, self.resid, self.sq, self.neg, self.score
        )
        np.dot(self.xs, w1, out=pre)
        np.add(pre, b1, out=pre)
        np.tanh(pre, out=hid)
        np.dot(hid, w2, out=out)
        np.add(out, b2, out=out)
        np.negative(self.out0, out=neg)
        np.exp(neg, out=score)
        np.add(score, 1.0, out=score)
        np.divide(1.0, score, out=score)
        np.subtract(out, self.target, out=resid)
        if self.unmeasured is not None:
            np.copyto(resid, 0.0, where=self.unmeasured)
        np.subtract(score, self.target0, out=self.resid0)
        np.square(resid, out=sq)
        return float(np.add.reduce(self.sq_flat)) / self.m_count

    def grads(self, w2, dw1, db1, dw2, db2) -> None:
        pre, hid, dhid, dout, tmp, score = self.pre, self.hid, self.dhid, self.sq, self.neg, self.score
        np.multiply(self.resid, 2.0, out=dout)
        np.divide(dout, self.m_count, out=dout)
        np.subtract(1.0, score, out=tmp)
        np.multiply(score, tmp, out=tmp)
        np.multiply(self.sq0, tmp, out=self.sq0)
        np.dot(hid.T, dout, out=dw2)
        np.add.reduce(dout, axis=0, out=db2)
        np.dot(dout, w2.T, out=dhid)
        np.square(hid, out=pre)
        np.subtract(1.0, pre, out=pre)
        np.multiply(dhid, pre, out=dhid)
        np.dot(self.xs_t, dhid, out=dw1)
        np.add.reduce(dhid, axis=0, out=db1)


def _param_views(flat: np.ndarray, shapes) -> tuple[np.ndarray, ...]:
    """Consecutive views of ``flat`` with the given shapes."""
    views, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[start : start + size].reshape(shape))
        start += size
    return tuple(views)


def train_predictor(records, epochs: int = 2000, lr: float = 0.05, seed: int = 0, hidden: int = 16) -> Predictor:
    """Fit the perceptron on (features, probe) pairs by full-batch descent.

    Each step is backtracked (step halving) if it would increase the loss,
    so the final training MSE never exceeds the initial one.

    Buffer layout: w1, b1, w2 and b2 are consecutive views of one flat
    float64 vector. Two such vectors take turns as the current parameters
    and the trial, one more holds the gradient and one the scaled step, so
    a trial is one ``np.multiply`` and one ``np.subtract``. The forward
    pass writes into scratch arrays allocated once per call
    (``_Workspace``). The backward pass runs only on accepted steps, from
    the arrays their forward pass left, so it runs once more than
    ``training_log["accepted_steps"]``; ``rejected_steps`` counts the rest.

    Every elementwise operation keeps the order of the plain loop that
    allocates fresh arrays each step and differentiates every trial (kept
    as ``reference_train_predictor`` in ``tests/test_sensitivity.py``), and
    each product is an ``np.dot`` on the operands its ``@`` took, so the
    trained predictor equals that loop's bit for bit.
    """
    records = list(records)
    if len(records) < 32:
        raise ValueError(f"need at least 32 training records, got {len(records)}")

    by_patch: dict[int, dict] = {}
    keys: list[str] = []
    for feats, probe in records:
        slot = by_patch.setdefault(
            probe.patch_id, {"feats": np.asarray(feats, dtype=np.float64), "targets": {}}
        )
        key = head_key(probe.family, probe.target_ratio)
        slot["targets"][key] = probe.measured_degradation
        if key not in keys:
            keys.append(key)

    patch_ids = sorted(by_patch)
    head_keys = ["score"] + keys
    n, h, nh = len(patch_ids), int(hidden), len(head_keys)
    x = np.stack([by_patch[pid]["feats"] for pid in patch_ids])
    target = np.zeros((n, nh))
    mask = np.zeros((n, nh), dtype=bool)
    for i, pid in enumerate(patch_ids):
        for key, deg in by_patch[pid]["targets"].items():
            j = head_keys.index(key)
            target[i, j] = deg
            mask[i, j] = True
    mean_deg = [float(np.mean(list(by_patch[pid]["targets"].values()))) for pid in patch_ids]
    target[:, 0] = _score_targets(patch_ids, mean_deg)
    mask[:, 0] = True

    measured = target[:, 1:][mask[:, 1:]]
    degenerate = measured.size > 0 and float(np.std(measured)) == 0.0
    if degenerate:
        log.info("degenerate probe targets: all measured degradations equal")

    feat_mean = x.mean(axis=0)
    feat_std = x.std(axis=0)
    feat_std[feat_std < 1e-12] = 1.0
    xs = (x - feat_mean) / feat_std

    gen = np.random.Generator(np.random.Philox(seed))
    shapes = ((N_FEATURES, h), (h,), (h, nh), (nh,))
    current, trial, grad, delta = (np.empty(sum(math.prod(s) for s in shapes)) for _ in range(4))
    w1, b1, w2, b2 = current_p = _param_views(current, shapes)
    w1[...] = gen.standard_normal((N_FEATURES, h)) / math.sqrt(N_FEATURES)
    b1[...] = 0.0
    w2[...] = gen.standard_normal((h, nh)) / math.sqrt(h)
    b2[...] = 0.0
    trial_p = _param_views(trial, shapes)
    grad_p = _param_views(grad, shapes)

    ws = _Workspace(xs, target, mask, h)
    loss = ws.loss(*current_p)
    ws.grads(current_p[2], *grad_p)
    initial_loss = loss
    step = float(lr)
    accepted = rejected = 0
    for _ in range(int(epochs)):
        np.multiply(grad, step, out=delta)
        np.subtract(current, delta, out=trial)
        new_loss = ws.loss(*trial_p)
        if new_loss <= loss:
            ws.grads(trial_p[2], *grad_p)
            current, trial = trial, current
            current_p, trial_p = trial_p, current_p
            loss = new_loss
            step = min(step * 1.2, 50.0 * lr)
            accepted += 1
        else:
            step *= 0.5
            rejected += 1
            if step < 1e-12:
                break
    if loss > initial_loss:
        raise NumericsError("training increased the fit error")

    w1, b1, w2, b2 = (p.copy() for p in current_p)
    return Predictor(
        w1=w1,
        b1=b1,
        w2=w2,
        b2=b2,
        feat_mean=feat_mean,
        feat_std=feat_std,
        head_keys=head_keys,
        hyper={"epochs": int(epochs), "lr": float(lr), "seed": int(seed), "hidden": h},
        training_log={
            "initial_mse": initial_loss,
            "final_mse": loss,
            "degenerate_targets": degenerate,
            "accepted_steps": accepted,
            "rejected_steps": rejected,
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
    for j, key in enumerate(predictor.head_keys[1:], start=1):
        family, ratio_s = key.split("@")
        predictions.setdefault(family, {})[float(ratio_s)] = max(float(out[j]), 0.0)

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
    epochs: int = 2000,
    lr: float = 0.05,
    hidden: int = 16,
    seed: int = 0,
) -> AnalysisResult:
    """Run the full analysis stage: features, strided probes, training, scoring.

    ``calib`` maps layer names to per-layer input samples with one row per
    matrix column; each patch sees the row slice matching its columns.
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
        probes.extend(
            probe_patch(w, families, ratio_grid, x, seed=seed, patch_id=p.patch_id)
        )
    pairs = [(features[r.patch_id], r) for r in probes]
    predictor = train_predictor(pairs, epochs=epochs, lr=lr, seed=seed, hidden=hidden)
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
