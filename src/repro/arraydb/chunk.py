"""Chunks: the unit of storage and execution in the array DBMS."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class Chunk:
    """One rectangular chunk of an array; every cell of it holds a value.

    Attributes:
        coordinates: the chunk's index along each dimension (not cell
            coordinates — chunk grid coordinates).
        origin: the cell coordinate of the chunk's first cell along each
            dimension.
        data: mapping of attribute name → dense ndarray of the chunk's shape.
    """

    coordinates: tuple[int, ...]
    origin: tuple[int, ...]
    data: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        shapes = {array.shape for array in self.data.values()}
        if len(shapes) > 1:
            raise ValueError(f"attribute arrays have differing shapes: {shapes}")

    @property
    def shape(self) -> tuple[int, ...]:
        if self.data:
            return next(iter(self.data.values())).shape
        return ()

    def attribute(self, name: str) -> np.ndarray:
        """Return one attribute's dense block."""
        try:
            return self.data[name]
        except KeyError:
            raise KeyError(
                f"chunk has no attribute {name!r}; has {sorted(self.data)}"
            ) from None

    def attribute_range(self, name: str) -> tuple[float, float] | None:
        """(min, max) of the attribute over the chunk's cells.

        This is the chunk's synopsis metadata: the array bridge's metadata
        scan tests it with
        :func:`repro.arraydb.operators.expression_skips_chunk` to skip whole
        chunks that cannot satisfy a range/equality/membership predicate.
        Computed on first use and cached on the chunk (the chunk's data is
        immutable in practice).
        Returns ``None`` for an empty chunk or a non-numeric attribute.
        """
        cache = getattr(self, "_range_cache", None)
        if cache is None:
            cache = {}
            self._range_cache = cache
        if name not in cache:
            values = self.attribute(name)
            if values.size == 0 or not np.issubdtype(values.dtype, np.number):
                cache[name] = None
            else:
                cache[name] = (float(values.min()), float(values.max()))
        return cache[name]
