"""Chunked arrays: the array DBMS's storage objects."""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.arraydb.chunk import Chunk
from repro.arraydb.schema import ArraySchema, Attribute, Dimension


class ChunkedArray:
    """A multi-dimensional array stored as a grid of dense chunks.

    Every cell of a stored chunk holds a value.  :meth:`from_dense` stores
    every chunk of the grid; a chunk that is not stored reads as zeros.
    """

    def __init__(self, schema: ArraySchema, chunks: Mapping[tuple[int, ...], Chunk] | None = None):
        self.schema = schema
        self._chunks: dict[tuple[int, ...], Chunk] = dict(chunks or {})

    # -- construction -------------------------------------------------------------

    @classmethod
    def from_dense(
        cls,
        name: str,
        matrix: np.ndarray,
        dimension_names: Sequence[str],
        attribute_name: str = "value",
        chunk_sizes: Sequence[int] | None = None,
    ) -> "ChunkedArray":
        """Build a chunked array from a dense numpy array.

        Args:
            name: array name.
            matrix: dense data of any dimensionality.
            dimension_names: one name per matrix axis.
            attribute_name: the single attribute holding the cell values.
            chunk_sizes: chunk extent per axis (defaults to ~256 along each
                axis, clipped to the axis length).
        """
        matrix = np.asarray(matrix)
        if len(dimension_names) != matrix.ndim:
            raise ValueError("need one dimension name per matrix axis")
        if chunk_sizes is None:
            chunk_sizes = [min(256, max(1, length)) for length in matrix.shape]
        if len(chunk_sizes) != matrix.ndim:
            raise ValueError("need one chunk size per matrix axis")
        dimensions = [
            Dimension(dim_name, 0, max(0, length - 1), chunk)
            for dim_name, length, chunk in zip(dimension_names, matrix.shape, chunk_sizes, strict=True)
        ]
        schema = ArraySchema(name, dimensions, [Attribute(attribute_name, matrix.dtype)])
        array = cls(schema)
        for chunk_coords in array.chunk_grid():
            slices = array.chunk_slices(chunk_coords)
            block = matrix[slices]
            if block.size == 0:
                continue
            origin = tuple(s.start for s in slices)
            array.put_chunk(Chunk(
                coordinates=chunk_coords,
                origin=origin,
                data={attribute_name: np.ascontiguousarray(block)},
            ))
        return array

    # -- chunk grid helpers ----------------------------------------------------------

    def chunk_grid(self) -> Iterator[tuple[int, ...]]:
        """Iterate all chunk-grid coordinates implied by the schema."""
        ranges = [range(d.chunk_count) for d in self.schema.dimensions]
        return itertools.product(*ranges)

    def chunk_slices(self, chunk_coords: tuple[int, ...]) -> tuple[slice, ...]:
        """Return the cell-coordinate slices covered by a chunk."""
        slices = []
        for dimension, coordinate in zip(self.schema.dimensions, chunk_coords, strict=True):
            low, high = dimension.chunk_bounds(coordinate)
            slices.append(slice(low, high + 1))
        return tuple(slices)

    def chunks(self) -> Iterator[Chunk]:
        """Iterate the stored chunks in deterministic order."""
        for key in sorted(self._chunks):
            yield self._chunks[key]

    def chunk_at(self, chunk_coords: tuple[int, ...]) -> Chunk | None:
        return self._chunks.get(tuple(chunk_coords))

    def put_chunk(self, chunk: Chunk) -> None:
        """Insert or replace a chunk."""
        self._chunks[tuple(chunk.coordinates)] = chunk

    # -- stats -------------------------------------------------------------------------

    @property
    def chunk_count(self) -> int:
        return len(self._chunks)

    @property
    def cell_count(self) -> int:
        """Number of cells in the stored chunks."""
        return sum(math.prod(chunk.shape) for chunk in self._chunks.values())

    @property
    def shape(self) -> tuple[int, ...]:
        return self.schema.shape

    def __repr__(self) -> str:
        return (
            f"ChunkedArray({self.schema!r}, chunks={self.chunk_count}, "
            f"cells={self.cell_count})"
        )

    # -- conversion -----------------------------------------------------------------------

    def to_dense(self, attribute: str | None = None) -> np.ndarray:
        """Materialise the array (one attribute) as a dense numpy array.

        Cells of chunks that are not stored become 0.  The result is indexed
        by *offset from each dimension's start*, so it always has
        ``schema.shape``.
        """
        if attribute is None:
            attribute = self.schema.attribute_names[0]
        dtype = self.schema.attribute(attribute).dtype
        dense = np.zeros(self.schema.shape, dtype=np.result_type(dtype, float))
        starts = [d.start for d in self.schema.dimensions]
        for chunk in self._chunks.values():
            slices = tuple(
                slice(origin - start, origin - start + extent)
                for origin, start, extent in zip(chunk.origin, starts, chunk.shape, strict=True)
            )
            dense[slices] = chunk.attribute(attribute)
        return dense

    # -- kernel operand (see repro.linalg.operand) --------------------------------------------

    def _matrix_shape(self) -> tuple[int, int]:
        if self.schema.ndim != 2:
            raise ValueError("a kernel operand is a 2-D array")
        return self.schema.shape

    def _matrix_chunks(self) -> Iterator[tuple[np.ndarray, slice, slice]]:
        """Each stored chunk of a 2-D array as ``(block, rows, cols)``.

        The matrix values are the first attribute, and the slices are
        offsets from the dimensions' starts.
        """
        attribute = self.schema.attribute_names[0]
        row_start, col_start = (d.start for d in self.schema.dimensions)
        for chunk in self.chunks():
            block = chunk.attribute(attribute)
            row_offset = chunk.origin[0] - row_start
            col_offset = chunk.origin[1] - col_start
            yield (block, slice(row_offset, row_offset + block.shape[0]),
                   slice(col_offset, col_offset + block.shape[1]))

    def matmat(self, dense_right: np.ndarray) -> np.ndarray:
        """``A B`` in one pass over the stored chunks, one GEMM per chunk."""
        n_rows, n_cols = self._matrix_shape()
        dense_right = np.asarray(dense_right, dtype=np.float64)
        if dense_right.ndim != 2 or dense_right.shape[0] != n_cols:
            raise ValueError(f"right operand has shape {dense_right.shape}, expected ({n_cols}, k)")
        result = np.zeros((n_rows, dense_right.shape[1]))
        for block, rows, cols in self._matrix_chunks():
            result[rows] += block @ dense_right[cols]
        return result

    def gram(self, center: bool = False) -> np.ndarray:
        """``AᵀA`` (optionally of the column-centred array), one SYRK per row panel.

        A panel stacks row bands of chunks (unstored ones read as zeros) until
        it holds at least ``n_cols`` rows, so it never outweighs the Gram it
        feeds by more than one band.

        >>> matrix = np.arange(30.0).reshape(6, 5) % 7  # 3 bands of 2 rows, 2 panels
        >>> array = ChunkedArray.from_dense("a", matrix, ["i", "j"], chunk_sizes=[2, 3])
        >>> bool(np.array_equal(array.gram(), matrix.T @ matrix))
        True
        """
        n_rows, n_cols = self._matrix_shape()
        column_means = np.zeros(n_cols)
        if center:
            for block, _rows, cols in self._matrix_chunks():
                column_means[cols] += block.sum(axis=0)
            column_means /= n_rows

        band_height = self.schema.dimensions[0].chunk_size
        panel_height = band_height * math.ceil(n_cols / band_height)
        panels: dict[int, list] = {}
        for block, rows, cols in self._matrix_chunks():
            panels.setdefault(rows.start // panel_height, []).append((block, rows, cols))
        gram = np.zeros((n_cols, n_cols))
        for panel_start in range(0, n_rows, panel_height):
            panel = np.zeros((min(panel_height, n_rows - panel_start), n_cols))
            for block, rows, cols in panels.get(panel_start // panel_height, ()):
                panel[rows.start - panel_start:rows.stop - panel_start, cols] = block
            if center:
                panel -= column_means
            gram += panel.T @ panel
        return gram
