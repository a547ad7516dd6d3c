import numpy as np
import pytest

from minima.errors import ShapeError
from minima.model import ModelContainer


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
