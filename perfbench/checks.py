"""Checks of the program's outputs, made apart from the program.

Every expected value comes from ``np.linalg.svd``, from a closed-form formula
written here, or from a property of the method. None is a stored copy of an
earlier output. Each check returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import math

import numpy as np

FAMILIES = ("tucker", "tt", "tr")
EPS = np.finfo(np.float64).eps
# features from two different SVD algorithms agree to rounding, far inside these
FEATURE_RTOL = 1e-8
FEATURE_ATOL = 1e-10


# --- closed forms ---------------------------------------------------------------


def balanced_split(n: int) -> tuple[int, ...]:
    """Closest-to-square divisor pair of n, the smaller first; primes stay whole."""
    for a in range(math.isqrt(n), 1, -1):
        if n % a == 0:
            return (a, n // a)
    return (n,)


def mode_shape(rows: int, cols: int) -> tuple[int, ...]:
    return balanced_split(rows) + balanced_split(cols)


def params_formula(family: str, shape, ranks) -> int:
    """Stored scalars of a Tucker, TT or TR payload with the given ranks."""
    d = len(shape)
    if family == "tucker":
        return math.prod(ranks) + sum(n * r for n, r in zip(shape, ranks))
    if family == "tt":
        bonds = (1, *ranks, 1)
        return sum(bonds[k] * shape[k] * bonds[k + 1] for k in range(d))
    if family == "tr":
        return sum(ranks[k] * shape[k] * ranks[(k + 1) % d] for k in range(d))
    raise ValueError(f"unknown family {family!r}")


def rank_one_params(family: str, shape) -> int:
    return params_formula(family, shape, (1,) * (len(shape) - (family == "tt")))


def budget(ratio: float, dense: int) -> int:
    return max(int(math.floor(ratio * dense)), 1)


def tail(s: np.ndarray, rank: int) -> float:
    """Eckart-Young error of the best rank-``rank`` approximation."""
    return float(np.sqrt(np.sum(s[rank:] ** 2)))


def seq_unfolding(t: np.ndarray, k: int) -> np.ndarray:
    """Modes 0..k-1 on the rows, the rest on the columns."""
    return t.reshape(math.prod(t.shape[:k]), -1)


def mode_unfolding(t: np.ndarray, k: int) -> np.ndarray:
    return np.moveaxis(t, k, 0).reshape(t.shape[k], -1)


# --- analyze ----------------------------------------------------------------------


def numerical_rank_cutoff(w: np.ndarray, s: np.ndarray) -> float:
    return max(w.shape) * EPS * float(s[0])


def expected_features(w, layer_index: int, kind: str, total_layers: int):
    """The 12 features from np.linalg.svd; log_condition under a numerical-rank cutoff.

    Returns (features, full_rank): log_condition is comparable with the program's
    only on a patch of full numerical rank.
    """
    s = np.linalg.svd(w, compute_uv=False)
    energies = s**2
    total = float(energies.sum())
    cutoff = numerical_rank_cutoff(w, s)
    kept = s[s > cutoff]
    full_rank = total > 0 and kept.size == s.size
    if total == 0.0:
        spectral = [0.0, 0.0, 0.0, 0.0]
    else:
        p = energies[energies > 0] / total
        spectral = [
            total / float(energies[0]),
            float(energies[: math.ceil(0.1 * min(w.shape))].sum()) / total,
            float(np.log10(kept[0] / kept[-1])),
            float(-(p * np.log(p)).sum()),
        ]
    a = np.abs(w)
    max_abs = float(a.max())
    rows = np.linalg.norm(w, axis=1)
    feats = spectral + [
        float(a.mean()),
        max_abs,
        float(np.mean(a < 1e-3 * max_abs)) if max_abs > 0 else 0.0,
        float(rows.std() / rows.mean()) if rows.mean() > 0 else 0.0,
        layer_index / max(total_layers, 1),
        float(kind == "attention_proj"),
        float(kind == "ffn"),
        float(kind == "embedding"),
    ]
    return np.array(feats), full_rank


def probe_subset(patches, stride: int, exclude_kinds) -> list[int]:
    """Every ``stride``-th patch of each (layer index, kind) group, minus excluded kinds."""
    groups: dict[tuple, list] = {}
    for p in patches:
        groups.setdefault((p.layer_index, p.submodule_kind), []).append(p)
    chosen = []
    for key in sorted(groups):
        chosen += [p.patch_id for p in groups[key][::stride] if p.submodule_kind not in exclude_kinds]
    return sorted(chosen)


def log_condition_mismatches(result, expected: dict) -> int:
    """Patches whose log_condition differs from the value under the rank cutoff."""
    return sum(
        1
        for p in result.patches
        if not np.isclose(result.features[p.patch_id][2], expected[p.patch_id][0][2],
                          rtol=FEATURE_RTOL, atol=FEATURE_ATOL)
    )


def check_analyze(result, spec, expected: dict) -> list[str]:
    """``spec``: the analyze call's inputs; ``expected``: patch id -> expected_features."""
    problems = []
    ids = [p.patch_id for p in result.patches]
    if ids != list(range(spec["patches"])):
        problems.append(f"patch ids {ids[:5]}... are not 0..{spec['patches'] - 1}")
    for p in result.patches:
        got = np.asarray(result.features[p.patch_id])
        want, full_rank = expected[p.patch_id]
        compare = np.ones(len(want), dtype=bool)
        compare[2] = full_rank
        bad = compare & ~np.isclose(got, want, rtol=FEATURE_RTOL, atol=FEATURE_ATOL)
        if got.shape != want.shape or bad.any():
            problems.append(f"patch {p.patch_id}: features {np.flatnonzero(bad).tolist()} differ: "
                            f"{got[bad].tolist()} vs {want[bad].tolist()}")

    probed = probe_subset(result.patches, spec["probe_stride"], spec["exclude_kinds"])
    if list(result.probed_ids) != probed:
        problems.append(f"probed ids {result.probed_ids} != stride subset {probed}")
    by_id = {p.patch_id: p for p in result.patches}
    for pid in probed:
        p = by_id[pid]
        shape = mode_shape(p.rows, p.cols)
        want = {
            (f, r)
            for f in FAMILIES
            for r in spec["ratio_grid"]
            if rank_one_params(f, shape) <= budget(r, p.rows * p.cols)
        }
        got = [(q.family, q.target_ratio) for q in result.probes if q.patch_id == pid]
        if sorted(got) != sorted(want):
            problems.append(f"patch {pid}: probes {sorted(got)} != feasible pairs {sorted(want)}")
    for q in result.probes:
        if not (math.isfinite(q.measured_degradation) and q.measured_degradation >= 0):
            problems.append(f"probe {q} has an invalid degradation")

    log = result.predictor.training_log
    if not log["final_mse"] <= log["initial_mse"]:
        problems.append(f"training raised the fit error {log['initial_mse']} -> {log['final_mse']}")
    if [r.patch_id for r in result.records] != ids:
        problems.append("records do not cover the patches in order")
    for rec in result.records:
        if not 0.0 <= rec.score <= 1.0:
            problems.append(f"patch {rec.patch_id}: score {rec.score} outside [0, 1]")
        for family, rc in rec.recommendations.items():
            if rc.target_ratio is not None and not rc.predicted_degradation <= spec["cap"]:
                problems.append(f"patch {rec.patch_id}: {family} recommendation "
                                f"{rc.predicted_degradation} over the cap {spec['cap']}")
    return problems


# --- compress ---------------------------------------------------------------------


def contract_layer(layer) -> np.ndarray:
    """The layer's dense tensor, contracted here from its payload."""
    if layer.family == "tucker":
        out = layer.core
        for k, f in enumerate(layer.factors):
            out = np.moveaxis(np.tensordot(out, f, axes=(k, 1)), -1, k)
        return out
    out = layer.cores[0]
    for core in layer.cores[1:]:
        out = np.tensordot(out, core, axes=(-1, 0))
    if layer.family == "tt":
        return out.reshape(out.shape[1:-1])
    return np.trace(out, axis1=0, axis2=-1)


def payload_params(layer) -> int:
    if layer.family == "tucker":
        return int(layer.core.size + sum(f.size for f in layer.factors))
    return int(sum(c.size for c in layer.cores))


def check_compressed(w, family: str, ratio: float, layer, w_hat) -> list[str]:
    """Budget, payload and the error bounds of one compressed patch."""
    m, n = w.shape
    shape = mode_shape(m, n)
    if layer.family != family or tuple(layer.mode_shape) != shape:
        return [f"{family}@{ratio}: got a {layer.family} layer of modes {layer.mode_shape}"]
    problems = []
    stored = payload_params(layer)
    if stored > math.floor(ratio * m * n):
        problems.append(f"{family}@{ratio}: {stored} params over the budget {math.floor(ratio * m * n)}")
    t = w.reshape(shape)
    mine = contract_layer(layer)
    scale = float(np.linalg.norm(w))
    if mine.shape != shape or not np.allclose(w_hat.reshape(shape), mine, rtol=0, atol=1e-12 * scale):
        problems.append(f"{family}@{ratio}: layer_to_matrix differs from the contracted payload")
        return problems
    err = float(np.linalg.norm(t - mine))
    slack = 1e-9 * scale
    d = len(shape)
    if family == "tucker":
        ranks = layer.core.shape
        tails = [tail(np.linalg.svd(mode_unfolding(t, k), compute_uv=False), ranks[k]) for k in range(d)]
        lower = max(tails)
        upper = math.sqrt(sum(x * x for x in tails))  # HOSVD bound; HOOI only lowers the error
    else:
        bonds = [c.shape[0] for c in layer.cores]  # bonds[k]: left bond of core k
        cut = [bonds[k] * (bonds[0] if family == "tr" else 1) for k in range(1, d)]
        tails = [
            tail(np.linalg.svd(seq_unfolding(t, k), compute_uv=False), cut[k - 1]) for k in range(1, d)
        ]
        lower = max(tails)
        upper = math.sqrt(sum(x * x for x in tails)) if family == "tt" else math.inf  # TT-SVD bound
    if err < lower - slack:
        problems.append(f"{family}@{ratio}: error {err} below the Eckart-Young tail {lower}")
    if err > upper + slack:
        problems.append(f"{family}@{ratio}: error {err} above the {family} bound {upper}")
    return problems


# --- plan -------------------------------------------------------------------------


def check_plan(plan, mode: str, target: float, options_by_id: dict, records_by_id: dict) -> list[str]:
    """``options_by_id``: patch id -> (rows, cols, compressible, fragile)."""
    problems = []
    dense = sum(r * c for r, c, _, _ in options_by_id.values())
    if plan.dense_params != dense:
        problems.append(f"{mode}: dense params {plan.dense_params} != {dense}")
    if plan.achieved_params > target * dense:
        problems.append(f"{mode}: achieved {plan.achieved_params} over {target} x {dense}")
    if sum(e.params for e in plan.entries) != plan.achieved_params:
        problems.append(f"{mode}: entry params do not add up to {plan.achieved_params}")
    if sorted(e.patch_id for e in plan.entries) != sorted(options_by_id):
        problems.append(f"{mode}: entries do not cover the patches")
    for e in plan.entries:
        rows, cols, compressible, fragile = options_by_id[e.patch_id]
        if e.family == "dense":
            if e.params != rows * cols or e.predicted_degradation != 0.0:
                problems.append(f"{mode}: dense entry {e.patch_id} has params {e.params}")
            continue
        if not compressible or fragile:
            problems.append(f"{mode}: patch {e.patch_id} should stay dense, got {e.family}")
        if mode == "sensitivity" and e.family != "tt":
            problems.append(f"{mode}: patch {e.patch_id} uses {e.family}, not tt")
        shape = mode_shape(rows, cols)
        if e.params != params_formula(e.family, shape, e.ranks):
            problems.append(f"{mode}: entry {e.patch_id} params {e.params} != "
                            f"{params_formula(e.family, shape, e.ranks)} for ranks {e.ranks}")
        if e.params > budget(e.target_ratio, rows * cols):
            problems.append(f"{mode}: entry {e.patch_id} over its {e.target_ratio} budget")
        want = records_by_id[e.patch_id].predictions[e.family][e.target_ratio]
        if e.predicted_degradation != want:
            problems.append(f"{mode}: entry {e.patch_id} degradation {e.predicted_degradation} != {want}")
    return problems
