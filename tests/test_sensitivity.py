import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minima import sensitivity
from minima.errors import EmptyModelError, InfeasibleBudgetError, NumericsError
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
    output_deviation,
    partition_patches,
    patch_matrix,
    predict,
    probe_patch,
    train_predictor,
)
import minima.tn_decompositions as tn
from minima.tn_decompositions import FAMILIES, compress_matrix, default_mode_shape, layer_to_matrix, ratio_budget, select_ranks


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

    def test_spectrum_is_one_values_only_svd(self, rng, lapack_calls):
        w = rng.standard_normal((24, 16))
        f = extract_features(w, meta_patch(), 1)
        assert lapack_calls == [(1, 24, 16)]  # a stack of one
        energies = np.linalg.svd(w, compute_uv=False) ** 2
        assert f[0] == float(energies.sum()) / float(energies[0])  # stable rank

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_patch_raises_before_lapack(self, rng, lapack_calls, bad):
        # LAPACK must not see an inf: an SVD of one can fail to return
        w = rng.standard_normal((4, 128))
        w[1, 77] = bad
        with pytest.raises(NumericsError):
            extract_features(w, meta_patch(), 1)
        assert lapack_calls == []


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


def compress_matrix_probes(w, families, ratio_grid, calib, patch_id=0, hooi_iters=1):
    """``probe_patch`` as one ``compress_matrix`` per (family, ratio), with no
    shared SVDs or rank searches."""
    m, n = w.shape
    records = []
    for family in [f for f in FAMILIES if f in families]:
        for ratio in ratio_grid:
            try:
                layer = compress_matrix(w, family, ratio_budget(ratio, m * n), hooi_iters=hooi_iters)
            except InfeasibleBudgetError:
                continue
            deg = output_deviation(w, layer_to_matrix(layer), calib)
            records.append(ProbeRecord(patch_id, family, float(ratio), deg))
    return records


# the TT splits of a 16 x 16 patch probed at ratios 0.5, 0.35, 0.25 and 0.15,
# in the order of the kept bonds: the first split, then for the bond vectors
# (2, 2, 1), (3, 2, 2), (3, 3, 2) and (4, 3, 4) the splits they do not share
TT_SPLITS_16x16 = [(4, 64), (8, 16), (8, 4), (12, 16), (8, 4), (12, 4), (16, 16), (12, 4)]


def record_bits(records) -> list:
    return [(r.patch_id, r.family, r.target_ratio, np.float64(r.measured_degradation).tobytes()) for r in records]


class TestProbeWork:
    # 0.01 of a patch is below every rank-1 count at these sizes, so it is skipped
    GRID = (0.5, 0.35, 0.25, 0.15, 0.01)

    @pytest.mark.parametrize(
        "shape, rank", [((16, 16), None), ((32, 32), None), ((36, 64), None), ((32, 32), 3)],
        ids=["16x16", "32x32", "36x64", "32x32-rank3"],
    )
    @pytest.mark.parametrize("hooi_iters", [1, 2])
    def test_records_equal_the_compress_matrix_loop_bitwise(self, rng, shape, rank, hooi_iters):
        if rank is None:
            w = decayed_matrix(rng, *shape, 0.1)
        else:
            w = decayed_matrix(rng, shape[0], rank, 0.1) @ rng.standard_normal((rank, shape[1]))
        calib = seeded_calib(shape[1], 4)
        fast = probe_patch(w, FAMILIES, self.GRID, calib, patch_id=7, hooi_iters=hooi_iters)
        slow = compress_matrix_probes(w, FAMILIES, self.GRID, calib, patch_id=7, hooi_iters=hooi_iters)
        assert len(fast) == 3 * (len(self.GRID) - 1)
        assert record_bits(fast) == record_bits(slow)

    def test_a_16x16_probe_makes_8_svds_and_19_eigendecompositions(self, rng, lapack_calls, eigh_calls):
        # (4, 4, 4, 4) modes: Tucker takes 4 HOSVD unfolding bases, then 15 HOOI
        # sweep bases (one sweep, 4 ratios, 4 truncated modes but 3 at ranks
        # (4, 3, 3, 2), whose mode 0 is whole); TT takes its first split once
        # for the three bond vectors that truncate it, (2, 2, 1), (3, 2, 2) and
        # (3, 3, 2), and keeps it whole for (4, 3, 4), then the later splits,
        # the second shared by the two that keep 3 before it; TR's splits are
        # TT's. A patch alone is a stack of one. The compress_matrix loop makes
        # 11 TT and 11 TR SVDs (the first split of (4, 3, 4) is whole) and 30
        # eigendecompositions (6 at ranks (4, 3, 3, 2), 8 at each other ratio).
        w = decayed_matrix(rng, 16, 16, 0.1)
        probe_patch(w, FAMILIES, (0.5, 0.35, 0.25, 0.15), seeded_calib(16, 3))
        assert lapack_calls == [(1, *shape) for shape in TT_SPLITS_16x16]
        assert len(eigh_calls) == 19
        lapack_calls.clear()
        eigh_calls.clear()
        compress_matrix_probes(w, FAMILIES, (0.5, 0.35, 0.25, 0.15), seeded_calib(16, 3))
        assert (len(lapack_calls), len(eigh_calls)) == (22, 30)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("hooi_iters", [1, 2])
    def test_compress_matrix_keeps_one_svd_per_split(self, rng, lapack_calls, eigh_calls, family, hooi_iters):
        # compress_matrix decomposes once: Tucker makes one HOSVD
        # eigendecomposition per truncated mode plus as many per sweep and no
        # SVD, TT and TR one SVD per truncated split, TT's a stack of one. At
        # ratio 0.5 Tucker's ranks (4, 5, 4, 5) truncate 2 modes, at 0.25
        # (4, 4, 3, 3) truncate 3; TT's (4, 7, 7) and (4, 4, 4), and TR's
        # rings (1, ...) of them, keep their first split whole.
        w = decayed_matrix(rng, 32, 32, 0.1)  # (4, 8, 4, 8) modes
        for ratio, truncated in ((0.5, 2), (0.25, 3)):
            lapack_calls.clear()
            eigh_calls.clear()
            compress_matrix(w, family, ratio_budget(ratio, w.size), hooi_iters=hooi_iters)
            expected = (0, truncated * (1 + hooi_iters)) if family == "tucker" else (2, 0)
            assert (len(lapack_calls), len(eigh_calls)) == expected

    def test_a_stack_of_16x16_patches_shares_its_19_eigendecompositions(self, rng, lapack_calls, eigh_calls):
        # three 16 x 16 patches probed as one stack: the 19 eigendecompositions
        # and the 8 TT splits of one patch, each over the stack of three, after
        # one values-only SVD of the stack for its features
        model = make_model([("w", decayed_matrix(rng, 16, 48, 0.1), "ffn")])
        calib = {"w": rng.standard_normal((48, 16))}
        result = analyze(model, calib, patch_size=(16, 16), probe_stride=1)
        assert len(result.probed_ids) == 3
        assert len(eigh_calls) == 19 and all(shape == (3, 4, 4) for shape in eigh_calls)
        assert lapack_calls == [(3, 16, 16)] + [(3, *shape) for shape in TT_SPLITS_16x16]

    def test_analyze_searches_ranks_once_per_geometry_family_budget(self, rng):
        # 32 x 32 and 32 x 16 patches, probed in both layers
        model = make_model([(f"w{i}", decayed_matrix(rng, 64, 48, 0.1 + 0.1 * i), "ffn") for i in range(2)])
        calib = {name: rng.standard_normal((48, 16)) for name in model.entries}
        tn._rank_search.cache_clear()
        grid = (0.5, 0.25, 0.02)  # 0.02 is infeasible everywhere: a memoized skip
        first = analyze(model, calib, patch_size=(32, 32), ratio_grid=grid, probe_stride=1)
        assert {(p.rows, p.cols) for p in first.patches} == {(32, 32), (32, 16)}
        searches = tn._rank_search.cache_info().misses
        assert searches == 2 * len(FAMILIES) * len(grid)
        again = analyze(model, calib, patch_size=(32, 32), ratio_grid=grid, probe_stride=1)
        assert tn._rank_search.cache_info().misses == searches  # the memo outlives a call
        assert record_bits(again.probes) == record_bits(first.probes)

    @pytest.mark.parametrize("families, unknown", [(("TT",), "'TT'"), (("tt", "cp"), "'cp'"), ("tt", "'t'")])
    def test_probe_patch_rejects_an_unknown_family(self, rng, families, unknown):
        with pytest.raises(ValueError, match=f"unknown family {unknown}"):
            probe_patch(rng.standard_normal((16, 16)), families, (0.5,), seeded_calib(16, 3))

    @pytest.mark.parametrize("families, unknown", [(("TT",), "'TT'"), (("tt", "cp"), "'cp'")])
    def test_analyze_rejects_an_unknown_family(self, rng, lapack_calls, families, unknown):
        model = make_model([("w", rng.standard_normal((64, 64)), "ffn")])
        calib = {"w": rng.standard_normal((64, 16))}
        with pytest.raises(ValueError, match=f"unknown family {unknown}"):
            analyze(model, calib, patch_size=(32, 32), families=families, probe_stride=1)
        assert lapack_calls == []  # before any feature or probe


def mixed_model(rng):
    """Three layers whose 16 x 16 tiles include ragged 16 x 8, 8 x 16 and 8 x 8
    edges, and an embedding that analyze does not probe."""
    model = make_model(
        [
            ("a", decayed_matrix(rng, 40, 40, 0.1), "ffn"),
            ("b", decayed_matrix(rng, 32, 48, 0.3), "attention_proj"),
            ("c", decayed_matrix(rng, 16, 24, 0.05), "embedding"),
        ]
    )
    calib = {name: rng.standard_normal((entry.matrix.shape[1], 16)) for name, entry in model.entries.items()}
    return model, calib


class TestStackedProbes:
    GRID = (0.5, 0.35, 0.25, 0.15, 0.01)

    def test_analyze_records_equal_a_probe_patch_loop_bitwise(self, rng):
        model, calib = mixed_model(rng)
        result = analyze(model, calib, patch_size=(16, 16), ratio_grid=self.GRID, probe_stride=1)
        by_id = {p.patch_id: p for p in result.patches}
        probed = [by_id[pid] for pid in result.probed_ids]
        assert max(len(group) for group, _ in sensitivity._patch_stacks(model, probed)) > 1
        loop = []
        for p in probed:
            x = calib[p.layer_name][p.col_range[0] : p.col_range[1], :]
            loop += probe_patch(patch_matrix(model, p), FAMILIES, self.GRID, x, patch_id=p.patch_id)
        assert record_bits(result.probes) == record_bits(loop)

    @pytest.mark.parametrize("bound", [1, 2 * 256])
    def test_records_do_not_depend_on_the_stack_bound(self, rng, monkeypatch, bound):
        model, calib = mixed_model(rng)
        whole = analyze(model, calib, patch_size=(16, 16), ratio_grid=self.GRID, probe_stride=1)
        monkeypatch.setattr(sensitivity, "STACK_ENTRIES", bound)
        by_id = {p.patch_id: p for p in whole.patches}
        stacks = sensitivity._patch_stacks(model, [by_id[pid] for pid in whole.probed_ids])
        assert max(len(group) for group, _ in stacks) == max(bound // 256, 1)
        cut = analyze(model, calib, patch_size=(16, 16), ratio_grid=self.GRID, probe_stride=1)
        assert record_bits(cut.probes) == record_bits(whole.probes)

    def test_stacks_group_by_shape_within_the_bound(self, rng):
        model, _ = mixed_model(rng)
        patches = partition_patches(model, (16, 16))
        stacks = list(sensitivity._patch_stacks(model, patches))
        assert sorted(p.patch_id for group, _ in stacks for p in group) == [p.patch_id for p in patches]
        for group, stack in stacks:
            assert len({(p.rows, p.cols) for p in group}) == 1
            assert [p.patch_id for p in group] == sorted(p.patch_id for p in group)
            assert len(group) * group[0].rows * group[0].cols <= max(sensitivity.STACK_ENTRIES, group[0].rows * group[0].cols)
            assert stack.dtype == np.float64 and stack.shape == (len(group), group[0].rows, group[0].cols)
            for p, block in zip(group, stack):
                assert block.tobytes() == patch_matrix(model, p).tobytes()

    @pytest.mark.parametrize("shape", [(16, 16), (32, 32), (36, 64)])
    def test_a_reused_tr_record_equals_a_tr_decompose_probe_bitwise(self, rng, monkeypatch, shape):
        w = decayed_matrix(rng, *shape, 0.1)
        calib = seeded_calib(shape[1], 4)
        mode_shape, row_modes = default_mode_shape(*shape)
        expected = []
        for ratio in self.GRID[:-1]:
            spec = select_ranks(mode_shape, "tr", ratio_budget(ratio, w.size))
            assert spec.ranks[0] == 1  # the budget selects a ring that is a train
            layer = tn.tr_decompose(w.reshape(mode_shape), spec.ranks)
            layer.row_mode_count = row_modes
            expected.append(output_deviation(w, layer_to_matrix(layer), calib))
        rings = []
        tr_decompose = tn.tr_decompose

        def counting(*args, **kwargs):
            rings.append(args[1])
            return tr_decompose(*args, **kwargs)

        monkeypatch.setattr(tn, "tr_decompose", counting)
        reused = [r for r in probe_patch(w, ("tt", "tr"), self.GRID, calib) if r.family == "tr"]
        alone = probe_patch(w, ("tr",), self.GRID, calib)
        assert rings == []  # every ring took its train's deviation, beside a TT probe or alone
        for records in (reused, alone):
            assert [np.float64(r.measured_degradation).tobytes() for r in records] == [
                np.float64(d).tobytes() for d in expected
            ]

    @pytest.mark.parametrize("shape", [(16, 16), (32, 32), (36, 64), (32, 16), (64, 64), (16, 48), (17, 40), (1, 64)])
    def test_every_selected_ring_is_probed_as_a_train(self, shape):
        # maximal_ranks("tr") caps the closing bond at 1, so every ring the
        # search returns is one tr_decompose makes, and it shares the train's key
        mode_shape, _ = default_mode_shape(*shape)
        dense = shape[0] * shape[1]
        for ratio in (*self.GRID, 0.05, 0.75, 1.0, 2.0):
            try:
                spec = select_ranks(mode_shape, "tr", ratio_budget(ratio, dense))
            except InfeasibleBudgetError:
                continue
            assert spec.ranks[0] == 1, (shape, ratio, spec)
            assert sensitivity._probe_key(spec) == ("tt", spec.ranks[1:]), (shape, ratio, spec)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_non_finite_patch_in_a_stack_raises_before_lapack(self, rng, lapack_calls, eigh_calls, bad):
        stack = rng.standard_normal((3, 16, 16))
        stack[1, 4, 5] = bad
        with pytest.raises(NumericsError):
            sensitivity._probe_stack([0, 1, 2], stack, [seeded_calib(16, 3)] * 3, FAMILIES, (0.5,))
        assert lapack_calls == [] and eigh_calls == []


def edge_case_model(rng):
    """``mixed_model`` plus a layer of 16 x 16 patches that are zero, exactly
    rank one, exactly rank two with zero rows, and of a scale whose squared
    singular values underflow, beside ordinary ones."""
    model, calib = mixed_model(rng)
    u, v = rng.standard_normal(16), rng.standard_normal(16)
    sparse = np.zeros((16, 16))
    sparse[:2] = rng.standard_normal((2, 16))
    tiny = rng.standard_normal((16, 16)) * 1e-160
    blocks = [np.zeros((16, 16)), np.outer(u, v), sparse, tiny, decayed_matrix(rng, 16, 16, 0.2)]
    model.add("edges", np.hstack(blocks), layer_index=3, submodule_kind="other")
    calib["edges"] = rng.standard_normal((16 * len(blocks), 16))
    return model, calib


def plain_features(w, patch, total_layers):
    """``extract_features`` as one patch's own reductions, scalar by scalar:
    the oracle that stacked features must equal bit for bit."""
    s = np.linalg.svd(w, compute_uv=False)
    energies = s**2
    total = float(energies.sum())
    stable_rank = top_energy = log_cond = entropy = 0.0
    if total != 0.0:
        stable_rank = total / float(energies[0])
        top_energy = float(energies[: math.ceil(0.1 * min(w.shape))].sum()) / total
        kept = s[s > max(w.shape) * np.finfo(np.float64).eps * s[0]]
        log_cond = float(np.log10(kept[0] / kept[-1]))
        p = energies[energies > 0] / total
        entropy = float(-(p * np.log(p)).sum())
    abs_w = np.abs(w)
    max_abs = float(abs_w.max())
    frac_small = float(np.mean(abs_w < 1e-3 * max_abs)) if max_abs > 0 else 0.0
    row_norms = np.linalg.norm(w, axis=1)
    mean_norm = float(row_norms.mean())
    row_cv = float(row_norms.std() / mean_norm) if mean_norm > 0 else 0.0
    kinds = [1.0 if patch.submodule_kind == kind else 0.0 for kind in ("attention_proj", "ffn", "embedding")]
    position = patch.layer_index / max(total_layers, 1)
    return np.array([stable_rank, top_energy, log_cond, entropy, float(abs_w.mean()), max_abs, frac_small, row_cv, position, *kinds])


class TestStackedFeatures:
    def test_analyze_features_equal_extract_features_bitwise(self, rng):
        model, calib = edge_case_model(rng)
        patches = partition_patches(model, (16, 16))
        assert {(p.rows, p.cols) for p in patches} == {(16, 16), (16, 8), (8, 16), (8, 8)}
        assert max(len(group) for group, _ in sensitivity._patch_stacks(model, patches)) > 1
        result = analyze(model, calib, patch_size=(16, 16), probe_stride=1)
        plain = {p.patch_id: plain_features(patch_matrix(model, p), p, model.total_layers) for p in patches}
        assert list(result.features) == list(plain)
        for p in patches:
            alone = extract_features(patch_matrix(model, p), p, model.total_layers)
            assert result.features[p.patch_id].tobytes() == alone.tobytes() == plain[p.patch_id].tobytes(), p
        # the edge cases took their branches: a zero patch, log_condition's
        # cutoff, and spectra with fewer positive energies than values
        spectra = {p.patch_id: np.linalg.svd(patch_matrix(model, p), compute_uv=False) for p in patches}
        assert any(not s.any() for s in spectra.values())
        assert any(plain[pid][2] == 0.0 and s[0] > 0 for pid, s in spectra.items())
        assert any(0 < np.count_nonzero(s**2) < len(s) for s in spectra.values())

    def test_a_stack_of_patches_equals_their_extract_features_bitwise(self, rng):
        model, _ = edge_case_model(rng)
        patches = [p for p in partition_patches(model, (16, 16)) if (p.rows, p.cols) == (16, 16)]
        stack = np.stack([patch_matrix(model, p) for p in patches])
        feats = sensitivity._stack_features(stack, patches, model.total_layers)
        for p, row in zip(patches, feats):
            assert row.tobytes() == plain_features(patch_matrix(model, p), p, model.total_layers).tobytes()

    def test_extract_features_leaves_its_input_alone(self, rng):
        w = rng.standard_normal((16, 16))
        before = w.copy()
        extract_features(w, meta_patch(), 1)
        assert w.tobytes() == before.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_patch_raises_before_lapack(self, rng, lapack_calls, eigh_calls, bad):
        model, calib = mixed_model(rng)
        model.entries["a"].matrix[3, 5] = bad  # in the first stack that analyze takes features over
        with pytest.raises(NumericsError):
            analyze(model, calib, patch_size=(16, 16), probe_stride=1)
        assert lapack_calls == [] and eigh_calls == []


@pytest.mark.parametrize("count, size", [(5, 16), (8, 64)])
def test_the_train_phase_of_a_stack_probe_peaks_no_higher_than_its_tucker_phase(rng, count, size):
    """``_train_probes`` holds its splits' arrays only while it uses them,
    so at the default ratios its traced peak stays within the Tucker
    phase's; the analyze benchmark's ``peak_alloc_mb`` reads the larger."""
    stack = np.stack([decayed_matrix(rng, size, size, 0.02 * (p + 1)) for p in range(count)])
    calibs = [seeded_calib(size, p) for p in range(count)]
    refs = [float(np.linalg.norm(w @ x)) for w, x in zip(stack, calibs)]
    mode_shape, row_modes = default_mode_shape(size, size)
    grid = (0.5, 0.35, 0.25, 0.15)

    def ranks(family):
        return [select_ranks(mode_shape, family, ratio_budget(r, size * size)).ranks for r in grid]

    def peak(call) -> int:
        call()  # the traced call finds every first-call cache filled
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    tucker = peak(lambda: sensitivity._tucker_probes(stack, mode_shape, row_modes, ranks("tucker"), calibs, refs, 1))
    train = peak(lambda: sensitivity._train_probes(stack, mode_shape, ranks("tt"), calibs, refs))
    assert train <= tucker, (train, tucker)


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
        for i, name in enumerate(model.entries)
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
        calib = {name: rng.standard_normal((64, 16)) for name in model.entries}
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
        calib = {name: rng.standard_normal((64, 16)) for name in model.entries}
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
