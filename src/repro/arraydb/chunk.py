"""Chunks: the unit of storage and execution in the array DBMS."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class Chunk:
    """One rectangular chunk of an array.

    Attributes:
        coordinates: the chunk's index along each dimension (not cell
            coordinates — chunk grid coordinates).
        origin: the cell coordinate of the chunk's first cell along each
            dimension.
        data: mapping of attribute name → dense ndarray of the chunk's shape.
        mask: boolean ndarray of the chunk's shape; True marks non-empty
            cells (SciDB arrays are sparse at chunk granularity).
    """

    coordinates: tuple[int, ...]
    origin: tuple[int, ...]
    data: dict[str, np.ndarray] = field(default_factory=dict)
    mask: np.ndarray | None = None

    def __post_init__(self) -> None:
        shapes = {array.shape for array in self.data.values()}
        if len(shapes) > 1:
            raise ValueError(f"attribute arrays have differing shapes: {shapes}")
        if self.mask is None and self.data:
            shape = next(iter(self.data.values())).shape
            self.mask = np.ones(shape, dtype=bool)

    @property
    def shape(self) -> tuple[int, ...]:
        if self.data:
            return next(iter(self.data.values())).shape
        return self.mask.shape if self.mask is not None else ()

    @property
    def cell_count(self) -> int:
        """Number of non-empty cells."""
        if self.mask is None:
            return 0
        return int(self.mask.sum())

    def attribute(self, name: str) -> np.ndarray:
        """Return one attribute's dense block."""
        try:
            return self.data[name]
        except KeyError:
            raise KeyError(
                f"chunk has no attribute {name!r}; has {sorted(self.data)}"
            ) from None

    def attribute_range(self, name: str) -> tuple[float, float] | None:
        """(min, max) of the attribute over the chunk's non-empty cells.

        This is the chunk's synopsis metadata: the array bridge's metadata
        scan tests it with
        :func:`repro.arraydb.operators.expression_skips_chunk` to skip whole
        chunks that cannot satisfy a range/equality/membership predicate.
        Computed on first use and cached on the chunk (the chunk's data is
        immutable in practice).
        Returns ``None`` for a chunk with no non-empty cells or a
        non-numeric attribute.
        """
        cache = getattr(self, "_range_cache", None)
        if cache is None:
            cache = {}
            self._range_cache = cache
        if name not in cache:
            values = self.attribute(name)
            selected = values if self.mask is None else values[self.mask]
            if selected.size == 0 or not np.issubdtype(selected.dtype, np.number):
                cache[name] = None
            else:
                cache[name] = (float(selected.min()), float(selected.max()))
        return cache[name]

    def masked_attribute(self, name: str, fill: float = 0.0) -> np.ndarray:
        """Return the attribute with empty cells replaced by ``fill``.

        A chunk without empty cells returns its stored block, not a copy,
        so callers must treat the result as read-only.
        """
        values = self.attribute(name)
        if self.mask is None or self.mask.all():
            return values
        return np.where(self.mask, values, fill)

    def coordinates_of_cells(self) -> tuple[np.ndarray, ...]:
        """Return global cell coordinates of the non-empty cells.

        Returns one array per dimension, aligned, ready for vectorised
        per-coordinate aggregation.
        """
        local = np.nonzero(self.mask if self.mask is not None else np.ones(self.shape, bool))
        return tuple(axis_index + offset for axis_index, offset in zip(local, self.origin, strict=True))
