"""The three workloads: seeded inputs, set-up, one operation, and its checks.

Each workload keeps the make-up of its inputs fixed (shapes, spectra, the
multiset of (family, ratio) pairs or sensitivity profiles) and draws from the
seed only the random singular vectors, values and positions. So every seed
costs about the same work, and the quality metrics move little between seeds.
The program receives only the generated inputs.

Operations call the program through module attributes (``planner.allocate``,
not a name imported here), so the tracer's wrappers see them.
"""

from __future__ import annotations

import math
from contextlib import nullcontext

import numpy as np

import checks

FAMILIES = ("tucker", "tt", "tr")
RATIOS = (0.5, 0.35, 0.25, 0.15)  # the program's default ratio grid
CAP = 0.02  # the program's default degradation cap


def no_span(name: str, **attrs):
    return nullcontext()


def orthonormal(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def spectral_matrix(rng, m: int, n: int, decay: float, rank: int | None = None) -> np.ndarray:
    """Random singular vectors with singular values exp(-decay * i), i < rank."""
    k = min(m, n) if rank is None else rank
    s = np.exp(-decay * np.arange(k))
    return (orthonormal(rng, m)[:, :k] * s) @ orthonormal(rng, n)[:, :k].T


class Workload:
    """Inputs are made in ``__init__``; ``setup`` is what ``setup_s`` times."""

    name = ""
    patch_size = (64, 64)
    layers: tuple = ()  # (name, kind, matrix)

    def __init__(self, mods: dict, seed: int):
        self.mods = mods
        self.seed = seed

    def setup(self, span=no_span):
        """Load the model into the program: container with validation, then patches."""
        model_mod = self.mods["model"]
        with span("model.container"):
            model = model_mod.ModelContainer()
            for index, (name, kind, matrix) in enumerate(self.layers):
                model.add(name, matrix, layer_index=index, submodule_kind=kind)
        patches = self.mods["sensitivity"].partition_patches(model, self.patch_size)
        return model, patches

    def prepare(self, model, patches) -> None:
        """Untimed work that the checks and the operation need."""

    def patches_per_op(self) -> int:
        raise NotImplementedError

    def run(self):
        raise NotImplementedError

    def check(self, out) -> list[str]:
        raise NotImplementedError

    def deviation(self, out) -> float:
        raise NotImplementedError

    def extra_layer_metrics(self, out) -> dict[str, float]:
        return {"sensitivity.features.log_condition_mismatch": 0.0}


class Analyze(Workload):
    """``analyze()`` with default families, ratio grid, cap and stride on 24 16x16 patches."""

    name = "analyze"
    patch_size = (16, 16)
    # (name, kind, decay, rank): several decay rates, one exactly low-rank ffn layer
    spec_layers = (
        ("embed", "embedding", 0.08, None),
        ("attn.qkv", "attention_proj", 0.2, None),
        ("attn.out", "attention_proj", 0.05, None),
        ("ffn.up", "ffn", 0.12, None),
        ("ffn.down", "ffn", 0.1, 3),
        ("head", "other", 0.3, None),
    )
    probe_stride = 4
    exclude_kinds = ("embedding",)

    def __init__(self, mods, seed):
        super().__init__(mods, seed)
        rng = np.random.default_rng([seed, 1])
        self.layers = tuple(
            (name, kind, spectral_matrix(rng, 32, 32, decay, rank))
            for name, kind, decay, rank in self.spec_layers
        )
        self.calib = {name: rng.standard_normal((32, 32)) for name, _, _ in self.layers}

    def prepare(self, model, patches):
        self.model = model
        sens = self.mods["sensitivity"]
        self.expected = {
            p.patch_id: checks.expected_features(
                sens.patch_matrix(model, p), p.layer_index, p.submodule_kind, model.total_layers
            )
            for p in patches
        }
        self.spec = {
            "patches": len(patches),
            "probe_stride": self.probe_stride,
            "exclude_kinds": self.exclude_kinds,
            "ratio_grid": RATIOS,
            "cap": CAP,
        }

    def patches_per_op(self):
        return self.spec["patches"]

    def run(self):
        return self.mods["sensitivity"].analyze(
            self.model,
            self.calib,
            patch_size=self.patch_size,
            probe_stride=self.probe_stride,
            exclude_kinds=self.exclude_kinds,
            seed=self.seed,
        )

    def check(self, out):
        return checks.check_analyze(out, self.spec, self.expected)

    def deviation(self, out):
        """Mean measured output deviation of the probes' compressed patches."""
        return float(np.mean([q.measured_degradation for q in out.probes]))

    def extra_layer_metrics(self, out):
        return {
            "sensitivity.features.log_condition_mismatch": float(
                checks.log_condition_mismatches(out, self.expected)
            )
        }


class Compress(Workload):
    """``compress_matrix`` of each 32x32 patch at a seeded (family, ratio), default HOOI sweeps."""

    name = "compress"
    patch_size = (32, 32)
    # (name, kind, decay, rank); each layer 32x256 holds eight 32x32 patches
    spec_layers = (
        ("attn.qkv", "attention_proj", 0.05, None),
        ("ffn.up", "ffn", 0.2, None),
        ("ffn.down", "ffn", 0.1, 6),
    )
    samples = 16

    def __init__(self, mods, seed):
        super().__init__(mods, seed)
        rng = np.random.default_rng([seed, 2])
        self.layers = tuple(
            (name, kind, spectral_matrix(rng, 32, 256, decay, rank))
            for name, kind, decay, rank in self.spec_layers
        )
        # each (family, ratio) pair twice; copy k of pair (i, j) goes to layer
        # (i + j + k) % 3, so every layer sees every family; the seed orders the
        # pairs within a layer
        self.assignment = {}
        for layer in range(len(self.spec_layers)):
            pairs = [
                (f, r)
                for k in range(2)
                for i, f in enumerate(FAMILIES)
                for j, r in enumerate(RATIOS)
                if (i + j + k) % len(self.spec_layers) == layer
            ]
            order = rng.permutation(len(pairs))
            self.assignment[layer] = [pairs[k] for k in order]
        self.calib_seed = rng.integers(2**32)

    def prepare(self, model, patches):
        sens = self.mods["sensitivity"]
        rng = np.random.default_rng(self.calib_seed)
        names = [name for name, _, _ in self.layers]
        seen = {name: 0 for name in names}
        self.items = []
        for p in patches:
            family, ratio = self.assignment[names.index(p.layer_name)][seen[p.layer_name]]
            seen[p.layer_name] += 1
            w = sens.patch_matrix(model, p)
            self.items.append((w, family, ratio, rng.standard_normal((p.cols, self.samples))))

    def patches_per_op(self):
        return len(self.items)

    def run(self):
        tn = self.mods["tn_decompositions"]
        budget = self.mods["tensor_core"].ParamBudget
        out = []
        for w, family, ratio, x in self.items:
            layer = tn.compress_matrix(w, family, budget(checks.budget(ratio, w.size)))
            w_hat = tn.layer_to_matrix(layer)
            dev = float(np.linalg.norm((w - w_hat) @ x) / np.linalg.norm(w @ x))
            out.append((layer, w_hat, dev))
        return out

    def check(self, out):
        problems = []
        for (w, family, ratio, _), (layer, w_hat, dev) in zip(self.items, out):
            problems += checks.check_compressed(w, family, ratio, layer, w_hat)
            if not (math.isfinite(dev) and dev >= 0):
                problems.append(f"{family}@{ratio}: deviation {dev}")
        return problems

    def deviation(self, out):
        """Mean relative output deviation ||(W - W^) X|| / ||W X|| of the compressed patches."""
        return float(np.mean([dev for _, _, dev in out]))


class Plan(Workload):
    """``build_options`` + ``allocate`` (sensitivity_mixed and sensitivity/tt) over 256 64x64 patches."""

    name = "plan"
    kinds = ("embedding",) + ("attention_proj", "ffn") * 5 + ("embedding",)
    family_factor = {"tucker": 1.25, "tt": 1.0, "tr": 1.1}
    fragile_share = 1 / 8
    targets = {"sensitivity_mixed": 0.45, "sensitivity": 0.5}

    def __init__(self, mods, seed):
        super().__init__(mods, seed)
        self.rng = np.random.default_rng([seed, 3])
        self.layers = tuple(
            (f"layer{i}.{kind}", kind, 0.02 * self.rng.standard_normal((256, 256)))
            for i, kind in enumerate(self.kinds)
        )

    def prepare(self, model, patches):
        """Seeded records: predictions grow as the ratio shrinks, some patches fragile."""
        sens = self.mods["sensitivity"]
        rng = self.rng
        self.patches = patches
        compressible = [p.patch_id for p in patches if p.submodule_kind != "embedding"]
        n_fragile = round(self.fragile_share * len(compressible))
        n_robust = len(compressible) - n_fragile
        # fixed multiset of levels, dealt to the patches by the seed: robust patches
        # reach the cap at ratio 0.5, fragile ones exceed it everywhere
        levels = np.concatenate([np.geomspace(1e-3, 1.5e-2, n_robust), np.geomspace(3e-2, 8e-2, n_fragile)])
        level = dict(zip(rng.permutation(compressible).tolist(), levels.tolist()))
        self.fragile = {pid for pid, b in level.items() if b > CAP}
        ordered = sorted(level, key=level.get)
        score = {pid: i / (len(ordered) - 1) for i, pid in enumerate(ordered)}
        self.records = []
        for p in patches:
            b = level.get(p.patch_id, 5e-3)
            jitter = np.exp(0.03 * np.clip(rng.standard_normal((len(FAMILIES), len(RATIOS))), -3, 3))
            predictions = {
                f: {r: b * self.family_factor[f] * (0.5 / r) ** 2 * jitter[i, j] for j, r in enumerate(RATIOS)}
                for i, f in enumerate(FAMILIES)
            }
            recommendations = {}
            for f, curve in predictions.items():
                ok = [r for r, d in curve.items() if d <= CAP]
                ratio = min(ok) if ok else None
                recommendations[f] = sens.Recommendation(
                    target_ratio=ratio,
                    predicted_degradation=curve[ratio] if ok else min(curve.values()),
                )
            self.records.append(
                sens.SensitivityRecord(p.patch_id, score.get(p.patch_id, 0.0), predictions, recommendations)
            )
        self.by_id = {r.patch_id: r for r in self.records}
        self.facts = {
            p.patch_id: (p.rows, p.cols, p.submodule_kind != "embedding", p.patch_id in self.fragile)
            for p in patches
        }

    def patches_per_op(self):
        return len(self.patches)

    def run(self):
        planner = self.mods["planner"]
        options = planner.build_options(self.records, self.patches)
        plans = {
            mode: planner.allocate(options, target, mode=mode, single_family="tt")
            for mode, target in self.targets.items()
        }
        return options, plans

    def check(self, out):
        options, plans = out
        problems = []
        for opt in options:
            if opt.pinned != (opt.patch_id in self.fragile):
                problems.append(f"patch {opt.patch_id}: pinned {opt.pinned}, fragile {opt.patch_id in self.fragile}")
        for mode, plan in plans.items():
            problems += checks.check_plan(plan, mode, self.targets[mode], self.facts, self.by_id)
        return problems

    def deviation(self, out):
        """Greedy objective: predicted degradation summed over the entries of both plans."""
        return float(sum(e.predicted_degradation for plan in out[1].values() for e in plan.entries))


WORKLOADS = {w.name: w for w in (Analyze, Plan, Compress)}
