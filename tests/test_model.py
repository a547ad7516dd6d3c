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
        with pytest.raises(ShapeError, match=f"layer index {layer_index} is negative"):
            model.add("b", np.ones((4, 4)), layer_index=layer_index)
        assert list(model.entries) == ["a"] and model.total_layers == 1
        model.validate()

    @pytest.mark.parametrize("layer_index", [1.5, 2.0, np.float64(1.0), "1", None])
    def test_a_non_integer_layer_index_raises_and_adds_nothing(self, layer_index):
        # 1.5 once went in and left total_layers at 2.5
        model = ModelContainer()
        model.add("a", np.ones((4, 4)), layer_index=0)
        with pytest.raises(ShapeError, match="is not an integer"):
            model.add("b", np.ones((4, 4)), layer_index=layer_index)
        assert list(model.entries) == ["a"] and model.total_layers == 1

    @pytest.mark.parametrize("layer_index", [np.int64(2), np.uint8(2), np.int32(2)])
    def test_a_numpy_integer_layer_index_is_stored_as_int(self, layer_index):
        model = ModelContainer()
        model.add("a", np.ones((4, 4)), layer_index=layer_index)
        assert type(model.entries["a"].layer_index) is int and model.entries["a"].layer_index == 2
        assert type(model.total_layers) is int and model.total_layers == 3
        model.validate()


class TestValidate:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_value_written_after_add_is_seen(self, bad):
        model = ModelContainer()
        model.add("a", np.ones((4, 4)), layer_index=0)
        model.entries["a"].matrix[1, 2] = bad
        with pytest.raises(NumericsError, match="entry 'a' has non-finite values"):
            model.validate()

    @pytest.mark.parametrize("total_layers", [2.5, 3.0, np.float64(3.0), "3", None])
    def test_a_non_integer_total_layers_raises(self, total_layers):
        # 2.5 and 3.0 once passed and reached the layer-position feature; "3"
        # raised a bare TypeError
        with pytest.raises(ShapeError, match="total_layers .* is not an integer"):
            ModelContainer(entries={"a": LayerEntry("a", np.ones((4, 4)), 0)}, total_layers=total_layers)
        model = ModelContainer()
        model.total_layers = total_layers
        with pytest.raises(ShapeError, match="total_layers .* is not an integer"):
            model.validate()

    @pytest.mark.parametrize("total_layers", [np.int64(3), np.uint8(3), np.int32(3)])
    def test_a_numpy_integer_total_layers_is_stored_as_int(self, total_layers):
        model = ModelContainer(entries={"a": LayerEntry("a", np.ones((4, 4)), 2)}, total_layers=total_layers)
        assert type(model.total_layers) is int and model.total_layers == 3
