"""Chunked arrays: the array DBMS's storage objects."""

from __future__ import annotations

import itertools
from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.arraydb.chunk import Chunk
from repro.arraydb.schema import ArraySchema, Attribute, Dimension


class ChunkedArray:
    """A multi-dimensional array stored as a grid of chunks.

    Only chunks with at least one non-empty cell are stored, so heavily
    filtered arrays stay small (SciDB's sparse-chunk behaviour).
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
        """Iterate stored (non-empty) chunks in deterministic order."""
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
        return sum(chunk.cell_count for chunk in self._chunks.values())

    @property
    def shape(self) -> tuple[int, ...]:
        return self.schema.shape

    def __repr__(self) -> str:
        return (
            f"ChunkedArray({self.schema!r}, chunks={self.chunk_count}, "
            f"cells={self.cell_count})"
        )

    # -- conversion -----------------------------------------------------------------------

    def to_dense(self, attribute: str | None = None, fill: float = 0.0) -> np.ndarray:
        """Materialise the array (one attribute) as a dense numpy array.

        Empty cells become ``fill``.  The result is indexed by *offset from
        each dimension's start*, so it always has ``schema.shape``.
        """
        if attribute is None:
            attribute = self.schema.attribute_names[0]
        dtype = self.schema.attribute(attribute).dtype
        dense = np.full(self.schema.shape, fill, dtype=np.result_type(dtype, type(fill)))
        starts = [d.start for d in self.schema.dimensions]
        for chunk in self._chunks.values():
            slices = tuple(
                slice(origin - start, origin - start + extent)
                for origin, start, extent in zip(chunk.origin, starts, chunk.shape, strict=True)
            )
            block = chunk.masked_attribute(attribute, fill=fill)
            dense[slices] = block
        return dense

    # -- kernel operand (see repro.linalg.operand) --------------------------------------------

    def _matrix_shape(self) -> tuple[int, int]:
        if self.schema.ndim != 2:
            raise ValueError("a kernel operand is a 2-D array")
        return self.schema.shape

    def _matrix_chunks(self) -> Iterator[tuple[np.ndarray, np.ndarray, slice, slice]]:
        """Each stored chunk of a 2-D array as ``(block, mask, rows, cols)``.

        The matrix values are the first attribute, empty cells read as 0,
        and the slices are offsets from the dimensions' starts.
        """
        attribute = self.schema.attribute_names[0]
        row_start, col_start = (d.start for d in self.schema.dimensions)
        for chunk in self.chunks():
            block = chunk.masked_attribute(attribute, fill=0.0)
            row_offset = chunk.origin[0] - row_start
            col_offset = chunk.origin[1] - col_start
            yield (block, chunk.mask, slice(row_offset, row_offset + block.shape[0]),
                   slice(col_offset, col_offset + block.shape[1]))

    def matmat(self, dense_right: np.ndarray) -> np.ndarray:
        """``A B`` in one pass over the stored chunks, one GEMM per chunk."""
        n_rows, n_cols = self._matrix_shape()
        dense_right = np.asarray(dense_right, dtype=np.float64)
        if dense_right.ndim != 2 or dense_right.shape[0] != n_cols:
            raise ValueError(f"right operand has shape {dense_right.shape}, expected ({n_cols}, k)")
        result = np.zeros((n_rows, dense_right.shape[1]))
        for block, _mask, rows, cols in self._matrix_chunks():
            result[rows] += block @ dense_right[cols]
        return result

    def gram(self, center: bool = False) -> np.ndarray:
        """``AᵀA`` (optionally of the column-centred array), chunk-wise.

        The accumulation loops over *row bands* of chunks so no full dense
        copy of ``A`` is ever built; each band contributes ``bandᵀ band``.
        Column means are taken over the non-empty cells.
        """
        n_cols = self._matrix_shape()[1]
        column_means = np.zeros(n_cols)
        if center:
            counts = np.zeros(n_cols)
            for block, mask, _rows, cols in self._matrix_chunks():
                column_means[cols] += block.sum(axis=0)
                counts[cols] += mask.sum(axis=0)
            column_means = np.where(counts > 0, column_means / np.maximum(counts, 1), 0.0)

        gram = np.zeros((n_cols, n_cols))
        # Group chunks by their row-band so each band is assembled once.
        bands: dict[int, list] = {}
        for block, _mask, rows, cols in self._matrix_chunks():
            bands.setdefault(rows.start, []).append((block, cols))
        for band_blocks in bands.values():
            band = np.zeros((band_blocks[0][0].shape[0], n_cols))
            for block, cols in band_blocks:
                band[:, cols] = block
            if center:
                band = band - column_means
            gram += band.T @ band
        return gram
