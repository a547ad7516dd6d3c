import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minima import sensitivity
from minima.errors import EmptyModelError, NumericsError
from minima.model import LayerEntry, ModelContainer
from minima.planner import allocate, build_options
from minima.sensitivity import (
    N_FEATURES,
    RIDGE,
    Patch,
    ProbeRecord,
    _score_targets,
    analyze,
    extract_features,
    partition_patches,
    patch_matrix,
    predict,
    probe_patch,
    train_predictor,
)
from minima.tn_decompositions import FAMILIES


def make_model(matrices):
    model = ModelContainer()
    for i, (name, m, kind) in enumerate(matrices):
        model.add(name, m, layer_index=i, submodule_kind=kind)
    return model


def meta_patch(kind="other", layer_index=0):
    return Patch(0, "w", layer_index, kind, (0, 4), (0, 4))


def seeded_calib(n, seed):
    """Seeded standard normal calibration for a patch of n columns."""
    return np.random.Generator(np.random.Philox(seed)).standard_normal((n, max(8, min(n, 64))))


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
        recs = probe_patch(w, ("tt", "tucker", "tr"), (1.0,), seeded_calib(32, 3))
        assert len(recs) == 3
        assert all(r.measured_degradation <= 1e-9 for r in recs)

    def test_separable_patch_compresses_exactly(self, rng):
        # separable across the (4, 8, 4, 8) mode reshape, hence TN-rank one
        u = np.kron(rng.standard_normal(4), rng.standard_normal(8))
        v = np.kron(rng.standard_normal(4), rng.standard_normal(8))
        recs = probe_patch(np.outer(u, v), ("tt", "tucker"), (0.25, 0.15), seeded_calib(32, 3))
        assert len(recs) == 4
        assert all(r.measured_degradation <= 1e-9 for r in recs)

    def test_monotone_in_ratio(self, rng):
        w = rng.standard_normal((64, 64))
        recs = probe_patch(w, ("tt",), (0.5, 0.25), seeded_calib(64, 5))
        by_ratio = {r.target_ratio: r.measured_degradation for r in recs}
        assert by_ratio[0.25] >= by_ratio[0.5] - 1e-9

    def test_ratio_below_every_rank_one_count_is_skipped(self, rng):
        # 0.05 of a 16 x 16 patch is a budget of 12; on its (4, 4, 4, 4) modes
        # rank 1 stores 17 (tucker), 16 (tt) and 16 (tr) scalars
        w = rng.standard_normal((16, 16))
        recs = probe_patch(w, ("tucker", "tt", "tr"), (0.5, 0.05), seeded_calib(16, 3))
        assert [(r.family, r.target_ratio) for r in recs] == [
            ("tucker", 0.5),
            ("tt", 0.5),
            ("tr", 0.5),
        ]

    def test_deterministic_given_seed(self, rng):
        w = rng.standard_normal((32, 32))
        a = probe_patch(w, ("tt",), (0.5, 0.25), seeded_calib(32, 9))
        b = probe_patch(w.copy(), ("tt",), (0.5, 0.25), seeded_calib(32, 9))
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
    j = 1 + predictor.heads.index(("tt", 0.5))
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
        predictor = train_predictor(train)
        assert deg_head_mse(predictor, test) <= 1e-3

    def test_constant_labels_fit_exactly(self):
        rng = np.random.default_rng(8)
        records = linear_records(rng, 64, np.zeros(12), intercept=0.3)
        predictor = train_predictor(records)
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
        p_clean = train_predictor(clean[:128])
        p_shuf = train_predictor(shuffled[:128])
        assert deg_head_mse(p_shuf, test) >= deg_head_mse(p_clean, test)

    def test_training_never_worsens_fit(self):
        rng = np.random.default_rng(10)
        records = linear_records(rng, 64, rng.normal(scale=0.05, size=12))
        predictor = train_predictor(records)
        assert predictor.training_log["final_mse"] <= predictor.training_log["initial_mse"]

    def test_too_few_records_rejected(self):
        rng = np.random.default_rng(11)
        with pytest.raises(ValueError):
            train_predictor(linear_records(rng, 8, np.zeros(12)))

    def test_score_head_bounded(self):
        rng = np.random.default_rng(12)
        records = linear_records(rng, 64, np.zeros(12), intercept=0.4)
        predictor = train_predictor(records)
        wild = rng.standard_normal((1000, 12)) * 50
        for feats in wild:
            rec = predict(predictor, feats)
            assert 0.0 <= rec.score <= 1.0

    def test_determinism(self):
        rng = np.random.default_rng(13)
        records = linear_records(rng, 64, np.zeros(12), intercept=0.25)
        a = train_predictor(records)
        b = train_predictor(records)
        assert a.coef.tobytes() == b.coef.tobytes()


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
        probes = probe_patch(w, ("tucker", "tt", "tr"), (0.5, 0.25, 0.05), seeded_calib(size, pid), patch_id=pid)
        records.extend((feats, r) for r in probes)
    return records


class TestRidgeFit:
    def test_heads_equal_an_augmented_least_squares_fit(self, skipped_probe_records):
        """Each head solves min ||b + X w - y||² + RIDGE ||w||² over the patches
        that measured it, with the intercept b unpenalized."""
        records = skipped_probe_records
        predictor = train_predictor(records)
        patch_ids = sorted({r.patch_id for _, r in records})
        feats = {r.patch_id: f for f, r in records}
        xs = (np.stack([feats[pid] for pid in patch_ids]) - predictor.feat_mean) / predictor.feat_std
        rows_of = {key: [] for key in predictor.heads}
        for _, r in records:
            rows_of[(r.family, r.target_ratio)].append((patch_ids.index(r.patch_id), r.measured_degradation))
        assert len(rows_of[("tt", 0.05)]) == 4  # the 16 x 16 patches skip it
        mean_deg = [np.mean([r.measured_degradation for _, r in records if r.patch_id == pid]) for pid in patch_ids]
        heads = [list(enumerate(_score_targets(patch_ids, mean_deg)))] + [rows_of[key] for key in predictor.heads]
        for j, rows in enumerate(heads):
            idx, y = np.array([i for i, _ in rows]), np.array([d for _, d in rows])
            a = np.block([[np.ones((len(idx), 1)), xs[idx]], [np.zeros((N_FEATURES, 1)), np.sqrt(RIDGE) * np.eye(N_FEATURES)]])
            want = np.linalg.lstsq(a, np.concatenate([y, np.zeros(N_FEATURES)]), rcond=None)[0]
            np.testing.assert_allclose(predictor.coef[:, j], want, rtol=1e-9, atol=1e-12)

    def test_a_fit_worse_than_the_mean_falls_back_to_it(self, monkeypatch):
        # one informative feature: its standardized, centered column has a
        # squared norm of n, so a ridge strength of -3n/4 makes the deviation
        # head's w four times the exact weight and its error nine times the
        # mean's (the score head's clipping can hide the overshoot)
        n = 64
        t = np.random.default_rng(14).standard_normal(n)
        feats = np.zeros((n, N_FEATURES))
        feats[:, 0] = t
        records = [(feats[i], ProbeRecord(i, "tt", 0.5, 0.2 + 0.01 * t[i])) for i in range(n)]
        assert train_predictor(records).coef[1].all()  # each head uses the feature
        monkeypatch.setattr(sensitivity, "RIDGE", -0.75 * n)
        predictor = train_predictor(records)
        assert not predictor.coef[1:, 1].any()
        assert predictor.coef[0, 1] == pytest.approx(np.mean(0.2 + 0.01 * t), rel=1e-12)
        assert predictor.training_log["final_mse"] <= predictor.training_log["initial_mse"]

    def test_intercept_is_not_penalized(self):
        # shifting every degradation by c shifts each deviation head's
        # intercept by c and leaves its weights and the score head alone
        records = masked_records(15)
        shifted = [(f, ProbeRecord(r.patch_id, r.family, r.target_ratio, r.measured_degradation + 0.3)) for f, r in records]
        a, b = train_predictor(records), train_predictor(shifted)
        assert a.heads == b.heads
        np.testing.assert_allclose(b.coef[1:], a.coef[1:], rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(b.coef[0, 1:], a.coef[0, 1:] + 0.3, rtol=1e-12)
        assert b.coef[0, 0] == pytest.approx(a.coef[0, 0], rel=1e-12)

    def test_predictions_invariant_to_feature_units(self):
        # features are standardized before the fit, so a positive rescale and
        # shift of any feature column changes no prediction
        records = masked_records(16)
        scale, offset = np.geomspace(1e-3, 1e3, N_FEATURES), np.linspace(-5.0, 5.0, N_FEATURES)
        moved = [(f * scale + offset, r) for f, r in records]
        a, b = train_predictor(records), train_predictor(moved)
        probe = np.random.default_rng(17).standard_normal((20, N_FEATURES))
        np.testing.assert_allclose(b.forward(probe * scale + offset), a.forward(probe), rtol=1e-8, atol=1e-10)

    def test_record_order_does_not_change_predictions(self):
        records = masked_records(18)
        order = np.random.default_rng(19).permutation(len(records))
        a, b = train_predictor(records), train_predictor([records[i] for i in order])
        assert sorted(a.heads) == sorted(b.heads)
        for feats in np.random.default_rng(20).standard_normal((10, N_FEATURES)):
            ra, rb = predict(a, feats), predict(b, feats)
            assert rb.score == pytest.approx(ra.score, rel=1e-9, abs=1e-12)
            for family, curve in ra.predictions.items():
                for ratio, deg in curve.items():
                    assert rb.predictions[family][ratio] == pytest.approx(deg, rel=1e-9, abs=1e-12)

    def test_equal_degradations_predict_the_constant_everywhere(self, skipped_probe_records):
        records = [(f, ProbeRecord(r.patch_id, r.family, r.target_ratio, 0.07)) for f, r in skipped_probe_records]
        predictor = train_predictor(records)
        assert predictor.training_log["degenerate_targets"]
        np.testing.assert_allclose(predictor.coef[1:], 0.0, atol=1e-12)
        wild = np.random.default_rng(21).standard_normal((50, N_FEATURES)) * 100
        out = predictor.forward(wild)
        np.testing.assert_allclose(out[:, 0], 0.5, atol=1e-12)
        np.testing.assert_allclose(out[:, 1:], 0.07, atol=1e-12)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_degradation_rejected(self, value):
        records = masked_records(4)
        feats, probe = records[7]
        records[7] = (feats, ProbeRecord(probe.patch_id, probe.family, probe.target_ratio, value))
        with pytest.raises(NumericsError):
            train_predictor(records)

    @pytest.mark.parametrize("value", [np.nan, -np.inf])
    def test_non_finite_feature_rejected(self, value):
        records = masked_records(5)
        bad = np.full(N_FEATURES, value)
        records = [(bad if r.patch_id == 2 else f, r) for f, r in records]
        with pytest.raises(NumericsError):
            train_predictor(records)


def leave_one_layer_out_rmse(result) -> tuple[float, float]:
    """Held-out RMSE of the predicted deviations, and of each head's training
    mean, with every probed layer held out in turn."""
    layer_of = {p.patch_id: p.layer_name for p in result.patches}
    fit_err, mean_err = [], []
    for layer in sorted({layer_of[pid] for pid in result.probed_ids}):
        train = [(result.features[q.patch_id], q) for q in result.probes if layer_of[q.patch_id] != layer]
        predictor = train_predictor(train)
        for q in result.probes:
            if layer_of[q.patch_id] != layer:
                continue
            rec = predict(predictor, result.features[q.patch_id])
            fit_err.append(rec.predictions[q.family][q.target_ratio] - q.measured_degradation)
            seen = [r.measured_degradation for _, r in train if (r.family, r.target_ratio) == (q.family, q.target_ratio)]
            mean_err.append(np.mean(seen) - q.measured_degradation)
    return float(np.sqrt(np.mean(np.square(fit_err)))), float(np.sqrt(np.mean(np.square(mean_err))))


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

    def test_held_out_layers_beat_the_training_mean(self, analysis):
        fit_rmse, mean_rmse = leave_one_layer_out_rmse(analysis)
        assert fit_rmse < mean_rmse

    def test_third_ratio_survives_into_planner_candidates(self, rng):
        grid = (0.5, 1 / 3, 0.2)
        model = make_model([(f"w{i}", decayed_matrix(rng, 64, 64, g), "ffn") for i, g in enumerate((0.05, 0.3, 0.1))])
        calib = {name: rng.standard_normal((64, 16)) for name in model.names()}
        result = analyze(model, calib, patch_size=(32, 32), families=("tt",), ratio_grid=grid, probe_stride=1)
        assert all(set(rec.predictions["tt"]) == set(grid) for rec in result.records)
        options = build_options(result.records, result.patches, degradation_cap=1.0)
        assert all({c.ratio for c in opt.candidates} == set(grid) for opt in options)

    def test_planner_candidates_are_the_records_grid(self, rng):
        # build_options takes no grid: a grid unlike (0.5, 0.35, 0.25, 0.15)
        # reaches the planner whole, for every family
        grid = (0.5, 1 / 3, 0.2)
        gammas = (0.05, 0.3, 0.1, 0.2)
        model = make_model([(f"w{i}", decayed_matrix(rng, 64, 64, g), "ffn") for i, g in enumerate(gammas)])
        calib = {name: rng.standard_normal((64, 16)) for name in model.names()}
        result = analyze(model, calib, patch_size=(32, 32), ratio_grid=grid, probe_stride=1)
        options = build_options(result.records, result.patches, degradation_cap=1.0)
        pairs = [(family, ratio) for family in FAMILIES for ratio in grid]
        assert all([(c.family, c.ratio) for c in opt.candidates] == pairs for opt in options)
        assert allocate(options, 0.3).achieved_ratio <= 0.3


class TestPatchMatrix:
    def test_float32_layer_patch_equals_the_float64_slice(self, rng):
        layer = rng.standard_normal((48, 40)).astype(np.float32)
        model = make_model([("w", layer, "ffn")])
        for p in partition_patches(model, (32, 16)):  # ragged edges included
            block = patch_matrix(model, p)
            want = layer.astype(np.float64)[p.row_range[0] : p.row_range[1], p.col_range[0] : p.col_range[1]]
            assert block.dtype == np.float64 and block.flags.c_contiguous
            assert block.tobytes() == np.ascontiguousarray(want).tobytes()

    def test_only_the_patch_is_converted(self, rng):
        model = make_model([("w", rng.standard_normal((512, 512)).astype(np.float32), "ffn")])
        patch = partition_patches(model, (16, 16))[5]
        tracemalloc.start()
        patch_matrix(model, patch)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 64 * 1024  # the float64 copy of the layer would take 2 MB
