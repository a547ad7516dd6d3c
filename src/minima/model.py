"""In-memory model container: named weight matrices with layer metadata."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from minima.errors import NumericsError, ShapeError

SUBMODULE_KINDS = ("attention_proj", "ffn", "embedding", "other")


@dataclass
class LayerEntry:
    name: str
    matrix: np.ndarray  # 2-D, float32 storage allowed; compute paths upcast
    layer_index: int
    submodule_kind: str = "other"

    def __post_init__(self):
        self.matrix = np.ascontiguousarray(self.matrix)
        if self.matrix.ndim != 2:
            raise ShapeError(f"entry {self.name!r} must be a matrix, got rank {self.matrix.ndim}")
        if not np.all(np.isfinite(self.matrix)):
            raise NumericsError(f"entry {self.name!r} has non-finite values")
        if self.submodule_kind not in SUBMODULE_KINDS:
            raise ShapeError(f"unknown submodule kind {self.submodule_kind!r}")


@dataclass
class ModelContainer:
    """Ordered named weight matrices plus model-level metadata."""

    entries: dict[str, LayerEntry] = field(default_factory=dict)
    total_layers: int = 0

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        for name, entry in self.entries.items():
            if name != entry.name:
                raise ShapeError(f"entry key {name!r} does not match entry name {entry.name!r}")
            if not 0 <= entry.layer_index < max(self.total_layers, 1):
                raise ShapeError(
                    f"entry {name!r} layer index {entry.layer_index} outside [0, {self.total_layers})"
                )

    def add(self, name: str, matrix, layer_index: int, submodule_kind: str = "other") -> None:
        if name in self.entries:
            raise ShapeError(f"duplicate entry name {name!r}")
        entry = LayerEntry(name, matrix, layer_index, submodule_kind)
        if layer_index >= self.total_layers:
            self.total_layers = layer_index + 1
        self.entries[name] = entry
