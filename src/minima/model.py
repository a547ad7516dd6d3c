"""In-memory model container: named weight matrices with layer metadata."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from minima.errors import NumericsError, ShapeError
from minima.tensor_core import as_count

SUBMODULE_KINDS = ("attention_proj", "ffn", "embedding", "other")


@dataclass(frozen=True)
class LayerEntry:
    """A named matrix at a layer index, a count of at least 0 stored as a
    Python ``int`` (``as_count``, or ``ShapeError``); a complex matrix
    raises ``NumericsError``. Fields cannot be reassigned once made; a
    write into the matrix is seen by ``ModelContainer.validate``."""

    name: str
    matrix: np.ndarray  # 2-D, float32 storage allowed; compute paths upcast
    layer_index: int
    submodule_kind: str = "other"

    def __post_init__(self):
        object.__setattr__(self, "layer_index", as_count(self.layer_index, 0, f"entry {self.name!r} layer index"))
        object.__setattr__(self, "matrix", np.ascontiguousarray(self.matrix))  # keeps the dtype: no cast
        if self.matrix.dtype.kind == "c":
            raise NumericsError(f"entry {self.name!r} has complex values")
        if self.matrix.ndim != 2:
            raise ShapeError(f"entry {self.name!r} must be a matrix, got rank {self.matrix.ndim}")
        if not np.all(np.isfinite(self.matrix)):
            raise NumericsError(f"entry {self.name!r} has non-finite values")
        if self.submodule_kind not in SUBMODULE_KINDS:
            raise ShapeError(f"unknown submodule kind {self.submodule_kind!r}")


@dataclass
class ModelContainer:
    """Ordered named weight matrices. The layer count is derived from the
    entries, never stored: ``total_layers`` is one more than the largest
    ``layer_index``, or 0 when the container is empty."""

    entries: dict[str, LayerEntry] = field(default_factory=dict)

    def __post_init__(self):
        self.validate()

    @property
    def total_layers(self) -> int:
        return max((e.layer_index + 1 for e in self.entries.values()), default=0)

    def validate(self) -> None:
        """Raise unless every entry is keyed by its name and finite: a write
        into an entry's matrix after it was added is seen here, so
        ``analyze`` calls this before any work. A layer index is checked
        when its ``LayerEntry`` is made."""
        for name, entry in self.entries.items():
            if name != entry.name:
                raise ShapeError(f"entry key {name!r} does not match entry name {entry.name!r}")
            if not np.isfinite(entry.matrix).all():
                raise NumericsError(f"entry {name!r} has non-finite values")

    def add(self, name: str, matrix, layer_index: int, submodule_kind: str = "other") -> None:
        if name in self.entries:
            raise ShapeError(f"duplicate entry name {name!r}")
        self.entries[name] = LayerEntry(name, matrix, layer_index, submodule_kind)
