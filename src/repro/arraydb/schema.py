"""Array schemas: dimensions and attributes.

An array schema in this engine mirrors SciDB's::

    expression <value: double> [patient_id = 0:39999, 1000; gene_id = 0:29999, 1000]

i.e. a list of typed attributes (cell payload) and a list of named
dimensions, each with an inclusive coordinate range and a chunk size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class Dimension:
    """One array dimension.

    Attributes:
        name: dimension name (e.g. ``patient_id``).
        start: lowest coordinate (inclusive).
        end: highest coordinate (inclusive).
        chunk_size: chunk extent along this dimension.
    """

    name: str
    start: int
    end: int
    chunk_size: int

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"dimension {self.name!r} has end < start")
        if self.chunk_size < 1:
            raise ValueError(f"dimension {self.name!r} needs a positive chunk size")

    @property
    def length(self) -> int:
        return self.end - self.start + 1

    @property
    def chunk_count(self) -> int:
        return (self.length + self.chunk_size - 1) // self.chunk_size

    def chunk_bounds(self, chunk_index: int) -> tuple[int, int]:
        """Return the inclusive coordinate bounds of chunk ``chunk_index``."""
        if not 0 <= chunk_index < self.chunk_count:
            raise IndexError(f"chunk {chunk_index} outside dimension {self.name!r}")
        low = self.start + chunk_index * self.chunk_size
        high = min(low + self.chunk_size - 1, self.end)
        return low, high


@dataclass(frozen=True)
class Attribute:
    """One typed cell attribute."""

    name: str
    dtype: np.dtype = np.dtype(np.float64)

    def __post_init__(self) -> None:
        object.__setattr__(self, "dtype", np.dtype(self.dtype))


class ArraySchema:
    """Dimensions + attributes for one array."""

    def __init__(self, name: str, dimensions: Sequence[Dimension],
                 attributes: Sequence[Attribute]):
        if not name:
            raise ValueError("array name must be non-empty")
        if not dimensions:
            raise ValueError("an array needs at least one dimension")
        if not attributes:
            raise ValueError("an array needs at least one attribute")
        dim_names = [d.name for d in dimensions]
        attr_names = [a.name for a in attributes]
        if len(set(dim_names)) != len(dim_names):
            raise ValueError("duplicate dimension names")
        if len(set(attr_names)) != len(attr_names):
            raise ValueError("duplicate attribute names")
        if set(dim_names) & set(attr_names):
            raise ValueError("dimension and attribute names must not overlap")
        self.name = name
        self.dimensions = tuple(dimensions)
        self.attributes = tuple(attributes)
        self._dim_index = {d.name: i for i, d in enumerate(dimensions)}
        self._attr_index = {a.name: i for i, a in enumerate(attributes)}

    # -- lookups ----------------------------------------------------------------

    @property
    def ndim(self) -> int:
        return len(self.dimensions)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(d.length for d in self.dimensions)

    @property
    def dimension_names(self) -> tuple[str, ...]:
        return tuple(d.name for d in self.dimensions)

    @property
    def attribute_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.attributes)

    def dimension(self, name: str) -> Dimension:
        try:
            return self.dimensions[self._dim_index[name]]
        except KeyError:
            raise KeyError(
                f"no dimension {name!r}; array has {list(self.dimension_names)}"
            ) from None

    def dimension_index(self, name: str) -> int:
        self.dimension(name)
        return self._dim_index[name]

    def attribute(self, name: str) -> Attribute:
        try:
            return self.attributes[self._attr_index[name]]
        except KeyError:
            raise KeyError(
                f"no attribute {name!r}; array has {list(self.attribute_names)}"
            ) from None

    def __repr__(self) -> str:
        attrs = ", ".join(f"{a.name}:{a.dtype}" for a in self.attributes)
        dims = "; ".join(
            f"{d.name}={d.start}:{d.end},{d.chunk_size}" for d in self.dimensions
        )
        return f"{self.name} <{attrs}> [{dims}]"
