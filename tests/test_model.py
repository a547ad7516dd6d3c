import re

import numpy as np
import pytest

from minima.errors import NumericsError, ShapeError
from minima.model import LayerEntry, ModelContainer


class TestAdd:
    @pytest.mark.parametrize("layer_index", [-1, -5])
    def test_a_negative_layer_index_raises_and_adds_nothing(self, layer_index):
        # such an entry once went in, and the container's own validate()
        # then raised on it
        model = ModelContainer()
        model.add("a", np.ones((4, 4)), layer_index=0)
        with pytest.raises(ShapeError, match=f"'b' layer index must be an integer >= 0, got {layer_index}"):
            model.add("b", np.ones((4, 4)), layer_index=layer_index)
        assert list(model.entries) == ["a"] and model.total_layers == 1
        model.validate()

    @pytest.mark.parametrize("layer_index", [1.5, 2.0, np.float64(1.0), "1", None])
    def test_a_non_integer_layer_index_raises_and_adds_nothing(self, layer_index):
        # 1.5 once went in and left total_layers at 2.5
        model = ModelContainer()
        model.add("a", np.ones((4, 4)), layer_index=0)
        with pytest.raises(ShapeError, match="'b' layer index must be an integer >= 0, got"):
            model.add("b", np.ones((4, 4)), layer_index=layer_index)
        assert list(model.entries) == ["a"] and model.total_layers == 1

    @pytest.mark.parametrize("layer_index", [np.int64(2), np.uint8(2), np.int32(2)])
    def test_a_numpy_integer_layer_index_is_stored_as_int(self, layer_index):
        model = ModelContainer()
        model.add("a", np.ones((4, 4)), layer_index=layer_index)
        assert type(model.entries["a"].layer_index) is int and model.entries["a"].layer_index == 2
        assert type(model.total_layers) is int and model.total_layers == 3
        model.validate()


class TestComplexEntry:
    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    def test_a_complex_matrix_raises_and_adds_nothing(self, dtype):
        # its float64 patches once kept only the real part, with a ComplexWarning
        model = ModelContainer()
        model.add("a", np.ones((4, 4)), layer_index=0)
        with pytest.raises(NumericsError, match="entry 'b' has complex values"):
            model.add("b", np.full((4, 4), 1 + 2j, dtype=dtype), layer_index=1)
        assert list(model.entries) == ["a"] and model.total_layers == 1


class TestFrozenEntry:
    def test_a_field_cannot_be_reassigned(self):
        # a layer index set to -4 after add once bypassed the check at make time
        model = ModelContainer()
        model.add("a", np.ones((4, 4)), layer_index=2)
        with pytest.raises(AttributeError):
            model.entries["a"].layer_index = -4
        assert model.entries["a"].layer_index == 2 and model.total_layers == 3
        model.validate()


class TestValidate:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_value_written_after_add_is_seen(self, bad):
        model = ModelContainer()
        model.add("a", np.ones((4, 4)), layer_index=0)
        model.entries["a"].matrix[1, 2] = bad
        with pytest.raises(NumericsError, match="entry 'a' has non-finite values"):
            model.validate()


class TestTotalLayers:
    def test_one_entry_at_layer_zero_is_one_layer(self):
        model = ModelContainer(entries={"a": LayerEntry("a", np.ones((4, 4)), 0)})
        assert model.total_layers == 1

    def test_the_largest_index_sets_the_count(self):
        added = ModelContainer()
        added.add("a", np.ones((4, 4)), layer_index=5)
        added.add("b", np.ones((4, 4)), layer_index=0)
        given = ModelContainer(entries={n: LayerEntry(n, np.ones((4, 4)), i) for n, i in (("a", 0), ("b", 5))})
        assert added.total_layers == given.total_layers == 6
        del added.entries["a"]  # derived from the entries, never stored
        assert added.total_layers == 1

    def test_an_empty_container_has_no_layers(self):
        assert ModelContainer().total_layers == 0

    def test_the_count_is_not_settable(self):
        # a stored count once took -3 beside an entry at layer 0
        with pytest.raises(TypeError):
            ModelContainer(entries={"a": LayerEntry("a", np.ones((4, 4)), 0)}, total_layers=-3)
        with pytest.raises(AttributeError):
            ModelContainer().total_layers = 3

    @pytest.mark.parametrize("layer_index", [-1, np.int64(-1)])
    def test_an_entry_rejects_a_negative_index(self, layer_index):
        with pytest.raises(ShapeError, match=re.escape(f"layer index must be an integer >= 0, got {layer_index!r}")):
            LayerEntry("a", np.ones((4, 4)), layer_index)
