import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minima import sensitivity
from minima.errors import EmptyModelError, NumericsError
from minima.model import LayerEntry, ModelContainer
from minima.sensitivity import (
    N_FEATURES,
    Patch,
    Predictor,
    ProbeRecord,
    _score_targets,
    analyze,
    extract_features,
    head_key,
    partition_patches,
    patch_matrix,
    predict,
    probe_patch,
    train_predictor,
)


def make_model(matrices):
    model = ModelContainer()
    for i, (name, m, kind) in enumerate(matrices):
        model.add(name, m, layer_index=i, submodule_kind=kind)
    return model


def meta_patch(kind="other", layer_index=0):
    return Patch(0, "w", layer_index, kind, (0, 4), (0, 4))


def decayed_matrix(rng, m, n, gamma):
    """Random matrix with singular values exp(-gamma * i)."""
    u, _ = np.linalg.qr(rng.standard_normal((m, m)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    k = min(m, n)
    s = np.exp(-gamma * np.arange(k))
    return (u[:, :k] * s) @ v[:, :k].T


class TestPartition:
    def test_four_even_patches(self, rng):
        model = make_model([("w", rng.standard_normal((128, 128)), "ffn")])
        patches = partition_patches(model, (64, 64))
        assert len(patches) == 4
        assert all(p.rows == 64 and p.cols == 64 for p in patches)

    def test_ragged_bottom_edge(self, rng):
        model = make_model([("w", rng.standard_normal((100, 64)), "ffn")])
        patches = partition_patches(model, (64, 64))
        assert len(patches) == 2
        assert (patches[1].rows, patches[1].cols) == (36, 64)

    def test_ids_ordered(self, rng):
        model = make_model(
            [("a", rng.standard_normal((64, 128)), "ffn"), ("b", rng.standard_normal((64, 64)), "ffn")]
        )
        patches = partition_patches(model, (64, 64))
        assert [p.patch_id for p in patches] == [0, 1, 2]
        assert patches[0].layer_name == "a" and patches[2].layer_name == "b"

    def test_empty_model(self):
        with pytest.raises(EmptyModelError):
            partition_patches(ModelContainer(), (64, 64))

    def test_small_patch_rejected(self, rng):
        model = make_model([("w", rng.standard_normal((64, 64)), "ffn")])
        with pytest.raises(ValueError):
            partition_patches(model, (8, 64))

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=17, max_value=150),
        st.integers(min_value=17, max_value=150),
        st.integers(min_value=16, max_value=70),
        st.integers(min_value=16, max_value=70),
    )
    def test_exact_tiling(self, m, n, pr, pc):
        model = make_model([("w", np.zeros((m, n)), "ffn")])
        patches = partition_patches(model, (pr, pc))
        covered = np.zeros((m, n), dtype=int)
        for p in patches:
            covered[p.row_range[0] : p.row_range[1], p.col_range[0] : p.col_range[1]] += 1
        assert np.all(covered == 1)


class TestFeatures:
    def test_identity_patch(self):
        f = extract_features(np.eye(4), meta_patch(), total_layers=1)
        assert f[0] == pytest.approx(4.0)  # stable rank
        assert f[1] == pytest.approx(0.25)  # ceil(0.1*4)=1 of 4 equal energies
        assert f[2] == pytest.approx(0.0)  # log condition
        assert f[3] == pytest.approx(np.log(4))  # spectral entropy
        assert f[4] == pytest.approx(0.25)  # mean abs
        assert f[5] == pytest.approx(1.0)  # max abs
        assert f[6] == pytest.approx(0.75)  # frac small
        assert f[7] == pytest.approx(0.0)  # row norm cv

    def test_rank_one_patch(self):
        f = extract_features(np.array([[1.0, 2.0], [2.0, 4.0]]), meta_patch(), 1)
        assert f[0] == pytest.approx(1.0)
        assert f[1] == pytest.approx(1.0)
        assert f[2] == 0.0  # the rounding-level second singular value is cut off

    def test_rank_three_patch_log_condition(self, rng):
        s = np.array([1.0, 0.5, 0.1])
        u, _ = np.linalg.qr(rng.standard_normal((32, 3)))
        v, _ = np.linalg.qr(rng.standard_normal((32, 3)))
        f = extract_features((u * s) @ v.T, meta_patch(), 1)
        assert f[2] == pytest.approx(np.log10(s[0] / s[2]))

    def test_zero_patch_convention(self):
        f = extract_features(np.zeros((4, 4)), meta_patch(), 1)
        assert np.all(np.isfinite(f))
        assert f[0] == 0.0 and f[2] == 0.0

    def test_random_patch_ranges(self, rng):
        f = extract_features(rng.standard_normal((32, 32)), meta_patch("ffn", 3), total_layers=8)
        assert np.all(np.isfinite(f))
        for idx in (1, 6, 8, 9, 10, 11):
            assert 0.0 <= f[idx] <= 1.0
        assert f[8] == pytest.approx(3 / 8)
        assert f[10] == 1.0  # ffn one-hot

    def test_determinism(self, rng):
        w = rng.standard_normal((20, 20))
        a = extract_features(w, meta_patch(), 1)
        b = extract_features(w.copy(), meta_patch(), 1)
        assert a.tobytes() == b.tobytes()


class TestProbes:
    def test_full_ratio_is_lossless(self, rng):
        w = rng.standard_normal((32, 32))
        recs = probe_patch(w, ("tt", "tucker", "tr"), (1.0,), None, seed=3)
        assert len(recs) == 3
        assert all(r.measured_degradation <= 1e-9 for r in recs)

    def test_separable_patch_compresses_exactly(self, rng):
        # separable across the (4, 8, 4, 8) mode reshape, hence TN-rank one
        u = np.kron(rng.standard_normal(4), rng.standard_normal(8))
        v = np.kron(rng.standard_normal(4), rng.standard_normal(8))
        recs = probe_patch(np.outer(u, v), ("tt", "tucker"), (0.25, 0.15), None, seed=3)
        assert len(recs) == 4
        assert all(r.measured_degradation <= 1e-9 for r in recs)

    def test_monotone_in_ratio(self, rng):
        w = rng.standard_normal((64, 64))
        recs = probe_patch(w, ("tt",), (0.5, 0.25), None, seed=5)
        by_ratio = {r.target_ratio: r.measured_degradation for r in recs}
        assert by_ratio[0.25] >= by_ratio[0.5] - 1e-9

    def test_ratio_below_every_rank_one_count_is_skipped(self, rng):
        # 0.05 of a 16 x 16 patch is a budget of 12; on its (4, 4, 4, 4) modes
        # rank 1 stores 17 (tucker), 16 (tt) and 16 (tr) scalars
        w = rng.standard_normal((16, 16))
        recs = probe_patch(w, ("tucker", "tt", "tr"), (0.5, 0.05), None, seed=3)
        assert [(r.family, r.target_ratio) for r in recs] == [
            ("tucker", 0.5),
            ("tt", 0.5),
            ("tr", 0.5),
        ]

    def test_deterministic_given_seed(self, rng):
        w = rng.standard_normal((32, 32))
        a = probe_patch(w, ("tt",), (0.5, 0.25), None, seed=9)
        b = probe_patch(w.copy(), ("tt",), (0.5, 0.25), None, seed=9)
        assert [(r.family, r.target_ratio, r.measured_degradation) for r in a] == [
            (r.family, r.target_ratio, r.measured_degradation) for r in b
        ]


def linear_records(rng, n_patches, coeffs, intercept=0.2, shuffle=False):
    feats = rng.standard_normal((n_patches, 12))
    labels = intercept + feats @ coeffs
    labels = np.clip(labels, 0.0, 1.0)
    if shuffle:
        labels = labels[rng.permutation(n_patches)]
    return [
        (feats[i], ProbeRecord(patch_id=i, family="tt", target_ratio=0.5, measured_degradation=float(labels[i])))
        for i in range(n_patches)
    ]


def deg_head_mse(predictor, records):
    j = predictor.head_keys.index(head_key("tt", 0.5))
    feats = np.stack([f for f, _ in records])
    labels = np.array([r.measured_degradation for _, r in records])
    preds = predictor.forward(feats)[:, j]
    return float(np.mean((preds - labels) ** 2))


class TestPredictorTraining:
    def test_linear_function_recoverable(self):
        rng = np.random.default_rng(7)
        coeffs = np.zeros(12)
        coeffs[[0, 4, 7]] = [0.05, -0.04, 0.03]
        records = linear_records(rng, 192, coeffs)
        train, test = records[:128], records[128:]
        predictor = train_predictor(train, epochs=2000, lr=0.05, seed=1)
        assert deg_head_mse(predictor, test) <= 1e-3

    def test_constant_labels_fit_exactly(self):
        rng = np.random.default_rng(8)
        records = linear_records(rng, 64, np.zeros(12), intercept=0.3)
        predictor = train_predictor(records, epochs=2000, lr=0.05, seed=1)
        assert predictor.training_log["degenerate_targets"]
        assert deg_head_mse(predictor, records) <= 1e-5

    def test_shuffled_labels_fit_worse(self):
        rng = np.random.default_rng(9)
        coeffs = np.zeros(12)
        coeffs[[1, 5]] = [0.06, -0.05]
        clean = linear_records(rng, 192, coeffs)
        rng2 = np.random.default_rng(9)
        shuffled = linear_records(rng2, 192, coeffs, shuffle=True)
        test = clean[128:]
        p_clean = train_predictor(clean[:128], epochs=1500, lr=0.05, seed=2)
        p_shuf = train_predictor(shuffled[:128], epochs=1500, lr=0.05, seed=2)
        assert deg_head_mse(p_shuf, test) >= deg_head_mse(p_clean, test)

    def test_training_never_worsens_fit(self):
        rng = np.random.default_rng(10)
        records = linear_records(rng, 64, rng.normal(scale=0.05, size=12))
        predictor = train_predictor(records, epochs=100, lr=5.0, seed=3)  # hostile step size
        assert predictor.training_log["final_mse"] <= predictor.training_log["initial_mse"]

    def test_too_few_records_rejected(self):
        rng = np.random.default_rng(11)
        with pytest.raises(ValueError):
            train_predictor(linear_records(rng, 8, np.zeros(12)))

    def test_score_head_bounded(self):
        rng = np.random.default_rng(12)
        records = linear_records(rng, 64, np.zeros(12), intercept=0.4)
        predictor = train_predictor(records, epochs=200, lr=0.05, seed=4)
        wild = rng.standard_normal((1000, 12)) * 50
        for feats in wild:
            rec = predict(predictor, feats)
            assert 0.0 <= rec.score <= 1.0

    def test_determinism(self):
        rng = np.random.default_rng(13)
        records = linear_records(rng, 64, np.zeros(12), intercept=0.25)
        a = train_predictor(records, epochs=300, lr=0.05, seed=5)
        b = train_predictor(records, epochs=300, lr=0.05, seed=5)
        assert a.w1.tobytes() == b.w1.tobytes()
        assert a.w2.tobytes() == b.w2.tobytes()


def reference_train_predictor(records, epochs=2000, lr=0.05, seed=0, hidden=16, counter=None) -> Predictor:
    """``train_predictor`` as a plain loop: fresh arrays on every step and
    gradients for every trial, accepted or not. ``counter``, if given,
    counts its backward passes and its accepted and rejected steps."""
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

    feat_mean = x.mean(axis=0)
    feat_std = x.std(axis=0)
    feat_std[feat_std < 1e-12] = 1.0
    xs = (x - feat_mean) / feat_std

    gen = np.random.Generator(np.random.Philox(seed))
    w1 = gen.standard_normal((N_FEATURES, h)) / math.sqrt(N_FEATURES)
    b1 = np.zeros(h)
    w2 = gen.standard_normal((h, nh)) / math.sqrt(h)
    b2 = np.zeros(nh)
    m_count = int(mask.sum())

    def loss_and_grads(params):
        w1, b1, w2, b2 = params
        hid = np.tanh(xs @ w1 + b1)
        out = hid @ w2 + b2
        score = 1.0 / (1.0 + np.exp(-out[:, 0]))
        resid = np.where(mask, out - target, 0.0)
        resid[:, 0] = score - target[:, 0]
        loss = float((resid**2).sum() / m_count)
        dout = 2.0 * resid / m_count
        dout[:, 0] *= score * (1.0 - score)
        if counter is not None:
            counter["backward"] += 1
        dw2 = hid.T @ dout
        db2 = dout.sum(axis=0)
        dhid = (dout @ w2.T) * (1.0 - hid**2)
        dw1 = xs.T @ dhid
        db1 = dhid.sum(axis=0)
        return loss, (dw1, db1, dw2, db2)

    params = (w1, b1, w2, b2)
    loss, grads = loss_and_grads(params)
    initial_loss = loss
    step = float(lr)
    for _ in range(int(epochs)):
        trial = tuple(p - step * g for p, g in zip(params, grads))
        new_loss, new_grads = loss_and_grads(trial)
        if new_loss <= loss:
            params, loss, grads = trial, new_loss, new_grads
            if counter is not None:
                counter["accepted"] += 1
            step = min(step * 1.2, 50.0 * lr)
        else:
            step *= 0.5
            if counter is not None:
                counter["rejected"] += 1
            if step < 1e-12:
                break
    if loss > initial_loss:
        raise NumericsError("training increased the fit error")

    return Predictor(
        w1=params[0],
        b1=params[1],
        w2=params[2],
        b2=params[3],
        feat_mean=feat_mean,
        feat_std=feat_std,
        head_keys=head_keys,
        hyper={"epochs": int(epochs), "lr": float(lr), "seed": int(seed), "hidden": h},
        training_log={
            "initial_mse": initial_loss,
            "final_mse": loss,
            "degenerate_targets": degenerate,
        },
    )



def same_bits(a: Predictor, b: Predictor) -> bool:
    """Whether two predictors agree bit for bit in all that training sets."""
    arrays = ("w1", "b1", "w2", "b2", "feat_mean", "feat_std")
    logged = ("initial_mse", "final_mse", "degenerate_targets")
    return (
        all(getattr(a, k).tobytes() == getattr(b, k).tobytes() for k in arrays)
        and all(getattr(a, k).shape == getattr(b, k).shape for k in arrays)
        and a.head_keys == b.head_keys
        and all(a.training_log[k] == b.training_log[k] for k in logged)
    )


def new_counter() -> dict:
    return {"backward": 0, "accepted": 0, "rejected": 0}


def masked_records(seed, n_patches=40, drop=0.1):
    """Three families x four ratios per patch, with about ``drop`` of the probes missing."""
    rng = np.random.default_rng(seed)
    records = []
    for pid in range(n_patches):
        feats = rng.standard_normal(12)
        for family in ("tucker", "tt", "tr"):
            for ratio in (0.5, 0.35, 0.25, 0.15):
                if rng.random() < drop:
                    continue
                deg = float(abs(rng.normal(0.02 / ratio, 0.01)))
                records.append((feats, ProbeRecord(pid, family, ratio, deg)))
    return records


@pytest.fixture(scope="module")
def skipped_probe_records():
    """Real probes of 16 x 16 and 32 x 32 patches at ratios 0.5, 0.25 and 0.05:
    0.05 is below every rank-1 count of a 16 x 16 patch, so those probes skip."""
    rng = np.random.default_rng(77)
    records = []
    for pid in range(8):
        size = 16 if pid % 2 == 0 else 32
        w = decayed_matrix(rng, size, size, 0.1 + 0.05 * pid)
        feats = extract_features(w, Patch(pid, "w", pid, "ffn", (0, size), (0, size)), 8)
        probes = probe_patch(w, ("tucker", "tt", "tr"), (0.5, 0.25, 0.05), None, seed=pid, patch_id=pid)
        records.extend((feats, r) for r in probes)
    return records


class TestFusedTrainingEqualsPlainLoop:
    def test_analyze_records(self, analysis):
        records = [(analysis.features[r.patch_id], r) for r in analysis.probes]
        assert same_bits(train_predictor(records, seed=3), reference_train_predictor(records, seed=3))

    def test_skipped_probes_leave_unmeasured_heads(self, skipped_probe_records):
        records = skipped_probe_records
        heads = {pid: {head_key(r.family, r.target_ratio) for _, r in records if r.patch_id == pid} for pid in range(8)}
        assert "tt@0.05" not in heads[0] and "tt@0.05" in heads[1]  # the mask has False entries
        assert same_bits(train_predictor(records), reference_train_predictor(records))

    def test_masked_synthetic_records(self):
        records = masked_records(5)
        assert same_bits(train_predictor(records, epochs=500), reference_train_predictor(records, epochs=500))

    def test_degenerate_targets(self):
        records = linear_records(np.random.default_rng(21), 64, np.zeros(12), intercept=0.3)
        fused = train_predictor(records, epochs=500, seed=2)
        assert fused.training_log["degenerate_targets"]
        assert same_bits(fused, reference_train_predictor(records, epochs=500, seed=2))

    @pytest.mark.parametrize("epochs", [0, 1])
    def test_few_epochs(self, epochs):
        records = masked_records(6)
        assert same_bits(train_predictor(records, epochs=epochs), reference_train_predictor(records, epochs=epochs))

    @pytest.mark.parametrize("hidden", [1, 32])
    def test_hidden_width(self, hidden):
        records = masked_records(7)
        fused = train_predictor(records, epochs=400, hidden=hidden)
        assert same_bits(fused, reference_train_predictor(records, epochs=400, hidden=hidden))

    def test_early_break(self):
        # constant labels fit to rounding level: at lr 100 the halving runs
        # below 1e-12 long before the last epoch
        records = linear_records(np.random.default_rng(1), 32, np.zeros(12), intercept=0.3)
        counter = new_counter()
        fused = train_predictor(records, epochs=2000, lr=100.0, hidden=1)
        plain = reference_train_predictor(records, epochs=2000, lr=100.0, hidden=1, counter=counter)
        assert counter["accepted"] + counter["rejected"] < 2000
        assert same_bits(fused, plain)

    def test_returned_weights_own_their_memory(self):
        fused = train_predictor(masked_records(8), epochs=50)
        arrays = (fused.w1, fused.b1, fused.w2, fused.b2)
        assert all(a.base is None and a.flags.c_contiguous for a in arrays)


class TestStepCounts:
    def test_counts_sum_to_epochs_without_a_break(self, analysis):
        records = [(analysis.features[r.patch_id], r) for r in analysis.probes]
        counter = new_counter()
        fused = train_predictor(records, epochs=2000)
        reference_train_predictor(records, epochs=2000, counter=counter)
        log = fused.training_log
        assert log["accepted_steps"] + log["rejected_steps"] == 2000
        assert (log["accepted_steps"], log["rejected_steps"]) == (counter["accepted"], counter["rejected"])
        assert log["rejected_steps"] > 0

    def test_counts_fall_short_after_a_break(self):
        records = linear_records(np.random.default_rng(1), 32, np.zeros(12), intercept=0.3)
        log = train_predictor(records, epochs=2000, lr=100.0, hidden=1).training_log
        assert log["accepted_steps"] + log["rejected_steps"] < 2000

    def test_backward_pass_only_on_accepted_steps(self, monkeypatch):
        records = masked_records(9, n_patches=5)
        epochs = 400
        counter = new_counter()
        plain = reference_train_predictor(records, epochs=epochs, counter=counter)

        calls = {"backward": 0}
        grads, loss = sensitivity._Workspace.grads, sensitivity._Workspace.loss

        def counted_grads(self, *args):
            calls["backward"] += 1
            grads(self, *args)

        monkeypatch.setattr(sensitivity._Workspace, "grads", counted_grads)
        fused = train_predictor(records, epochs=epochs)
        lean = calls["backward"]
        log = fused.training_log
        assert log["rejected_steps"] > 0
        assert lean == 1 + log["accepted_steps"]
        assert counter["backward"] == 1 + epochs > lean  # the plain loop: one per trial

        # mutated copy: a backward pass after every forward pass, into a spare gradient
        def eager_loss(self, w1, b1, w2, b2):
            value = loss(self, w1, b1, w2, b2)
            self.grads(w2, *(np.empty_like(p) for p in (w1, b1, w2, b2)))
            return value

        calls["backward"] = 0
        monkeypatch.setattr(sensitivity._Workspace, "loss", eager_loss)
        eager = train_predictor(records, epochs=epochs)
        assert calls["backward"] > lean
        assert same_bits(eager, fused) and same_bits(fused, plain)


@pytest.fixture(scope="module")
def analysis():
    rng = np.random.default_rng(42)
    model = ModelContainer()
    for i in range(4):
        gamma = 0.4 if i % 2 == 0 else 0.004  # compressible vs fragile
        model.add(f"layer{i}", decayed_matrix(rng, 128, 128, gamma), i, "ffn")
    calib = {
        name: np.random.default_rng(100 + i).standard_normal((128, 64))
        for i, name in enumerate(model.names())
    }
    return analyze(
        model,
        calib,
        patch_size=(64, 64),
        families=("tt",),
        ratio_grid=(0.5, 0.35, 0.25, 0.15),
        degradation_cap=0.05,
        probe_stride=1,
        seed=0,
    )


class TestAnalyzeEndToEnd:

    def test_probe_coverage(self, analysis):
        assert len(analysis.probes) >= 32
        assert len(analysis.records) == len(analysis.patches) == 16

    def test_recommendations_agree_with_probes(self, analysis):
        measured = {}
        for probe in analysis.probes:
            measured.setdefault(probe.patch_id, {})[probe.target_ratio] = probe.measured_degradation
        hits = total = 0
        for rec in analysis.records:
            if rec.patch_id not in measured:
                continue
            curve = measured[rec.patch_id]
            admissible = [r for r, d in curve.items() if d <= 0.05]
            truth = min(admissible) if admissible else None
            total += 1
            if rec.recommendations["tt"].target_ratio == truth:
                hits += 1
        assert total >= 8
        assert hits / total >= 0.8

    def test_fragile_patches_keep_dense(self, analysis):
        fragile_ids = {p.patch_id for p in analysis.patches if p.layer_name in ("layer1", "layer3")}
        dense_recs = [
            rec for rec in analysis.records
            if rec.patch_id in fragile_ids and rec.recommendations["tt"].target_ratio is None
        ]
        assert len(dense_recs) >= 6  # 8 fragile patches, predictor may miss a couple

    def test_scores_separate_fragile_from_compressible(self, analysis):
        fragile = [r.score for r in analysis.records if r.patch_id in
                   {p.patch_id for p in analysis.patches if p.layer_name in ("layer1", "layer3")}]
        robust = [r.score for r in analysis.records if r.patch_id in
                  {p.patch_id for p in analysis.patches if p.layer_name in ("layer0", "layer2")}]
        assert np.mean(fragile) > np.mean(robust)
