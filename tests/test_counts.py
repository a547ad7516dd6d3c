"""The one count rule (``tensor_core.as_count``) at every entry that takes a
count: a Python or numpy integer of at least the entry's bound passes, and
anything else raises the entry's own error before any LAPACK call."""

import re

import numpy as np
import pytest

from minima.errors import RankError, ShapeError
from minima.model import LayerEntry, ModelContainer
from minima.sensitivity import analyze, partition_patches
from minima.tensor_core import ParamBudget, as_count, leading_basis, truncated_svd
from minima.tn_decompositions import (
    CompressedLayer,
    layer_to_matrix,
    param_count_formula,
    select_ranks,
    tt_decompose,
    tucker_decompose,
)

MATRIX = np.random.default_rng(7).standard_normal((6, 4))
TENSOR = np.random.default_rng(8).standard_normal((4, 3, 2, 5))


def small_model():
    model = ModelContainer()
    model.add("w", np.random.default_rng(9).standard_normal((32, 64)), layer_index=0, submodule_kind="ffn")
    return model


CALIB = {"w": np.random.default_rng(10).standard_normal((64, 16))}


def digest(value) -> bytes:
    """The bits of a site's output, with the type of each scalar and array."""
    if isinstance(value, np.ndarray):
        return value.dtype.str.encode() + repr(value.shape).encode() + value.tobytes()
    if isinstance(value, (tuple, list)):
        return b"(" + b",".join(map(digest, value)) + b")"
    return f"{type(value).__name__}:{value!r}".encode()


# name -> (call of one count, its error class, what its message names, its
# bound, a valid count, the output's digest)
SITES = {
    "ParamBudget": (ParamBudget, RankError, "parameter budget", 1, 5, lambda b: digest(b.budget)),
    "truncated_svd": (
        lambda r: truncated_svd(MATRIX, r),
        RankError,
        "rank",
        1,
        3,
        lambda s: digest([s.left, s.values, s.right]),
    ),
    "leading_basis": (lambda r: leading_basis(MATRIX[None], r), RankError, "rank", 1, 3, digest),
    "mode size": (lambda n: select_ranks((n, 4), "tt", ParamBudget(8)), ShapeError, "mode size", 1, 4, digest),
    "tt_decompose": (lambda r: tt_decompose(TENSOR, (r, 2, 2)), RankError, "tt rank", 1, 3, lambda t: digest(t.cores)),
    "tucker_decompose": (
        lambda r: tucker_decompose(TENSOR, (r, 2, 2, 2)),
        RankError,
        "tucker rank",
        1,
        3,
        lambda layer: digest([layer.core, layer.factors]),
    ),
    "param_count_formula": (
        lambda r: param_count_formula("tt", (4, 3, 2, 5), (r, 2, 2)),
        RankError,
        "tt rank",
        1,
        3,
        digest,
    ),
    "row_mode_count": (
        lambda n: CompressedLayer("tt", (4, 4), n, cores=[np.ones((1, 4, 1)), np.ones((1, 4, 1))]),
        ShapeError,
        "row_mode_count",
        1,
        1,
        lambda layer: digest([layer.matrix_shape, layer_to_matrix(layer)]),
    ),
    "patch rows": (lambda n: partition_patches(small_model(), (n, 16)), ValueError, "patch dimension", 16, 16, repr),
    "patch cols": (lambda n: partition_patches(small_model(), (16, n)), ValueError, "patch dimension", 16, 16, repr),
    "probe_stride": (
        lambda n: analyze(small_model(), CALIB, patch_size=(16, 16), probe_stride=n),
        ValueError,
        "probe_stride",
        1,
        2,
        lambda result: repr((result.probed_ids, result.probes, result.records)),
    ),
    "layer index": (
        lambda n: LayerEntry("a", np.ones((4, 4)), n),
        ShapeError,
        "'a' layer index",
        0,
        2,
        lambda entry: digest(entry.layer_index),
    ),
}
BELOW = object()  # stands for one below the site's bound
NOT_COUNTS = [2.5, np.float64(2), "2", None, BELOW]


class TestAsCount:
    @pytest.mark.parametrize("value", [3, np.int64(3), np.uint8(3), np.int32(3), True], ids=repr)
    def test_an_integer_at_or_above_the_bound_is_a_python_int(self, value):
        count = as_count(value, 1, "x")
        assert type(count) is int and count == int(value)

    @pytest.mark.parametrize("value", [0, -3, 2.0, 2.7, "3", None, np.float64(3), np.array([3])], ids=repr)
    def test_anything_else_raises_the_given_error(self, value):
        with pytest.raises(RankError, match=re.escape(f"rank must be an integer >= 1, got {value!r}")):
            as_count(value, 1, "rank", RankError)


class TestCountSites:
    @pytest.mark.parametrize("value", NOT_COUNTS, ids=["2.5", "float64(2)", "'2'", "None", "below"])
    @pytest.mark.parametrize("site", SITES)
    def test_a_value_that_is_not_a_count_raises_before_lapack(self, lapack_calls, eigh_calls, site, value):
        call, error, what, low, _, _ = SITES[site]
        value = low - 1 if value is BELOW else value
        with pytest.raises(error, match=re.escape(f"{what} must be an integer >= {low}, got {value!r}")):
            call(value)
        assert lapack_calls == [] and eigh_calls == []

    @pytest.mark.parametrize("site", SITES)
    def test_a_numpy_integer_gives_the_bits_of_a_python_int(self, site):
        call, _, _, _, valid, output = SITES[site]
        assert output(call(np.int64(valid))) == output(call(valid))
