"""Tests for the chunked array DBMS."""

from __future__ import annotations

import numpy as np
import pytest

from repro.arraydb import ArraySchema, Attribute, ChunkedArray, Dimension, linalg, operators as ops
from repro.arraydb.chunk import Chunk
from repro.plan import col


def _kept_coordinates(array: ChunkedArray) -> np.ndarray:
    """Coordinates of the non-empty cells of a 1-D array (NaN-free values)."""
    return np.flatnonzero(~np.isnan(array.to_dense(fill=np.nan)))


@pytest.fixture()
def expression_array(rng) -> tuple[ChunkedArray, np.ndarray]:
    matrix = rng.random((45, 30))
    array = ChunkedArray.from_dense(
        "expression", matrix, ["patient_id", "gene_id"], chunk_sizes=[16, 8]
    )
    return array, matrix


class TestSchema:
    def test_dimension_properties(self):
        dim = Dimension("gene_id", 0, 99, 25)
        assert dim.length == 100
        assert dim.chunk_count == 4
        assert dim.chunk_bounds(3) == (75, 99)
        with pytest.raises(IndexError):
            dim.chunk_bounds(4)

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            Dimension("x", 5, 2, 10)
        with pytest.raises(ValueError):
            Dimension("x", 0, 5, 0)

    def test_schema_lookup_and_rename(self):
        schema = ArraySchema(
            "a",
            [Dimension("i", 0, 9, 5), Dimension("j", 0, 4, 5)],
            [Attribute("value"), Attribute("count", np.int64)],
        )
        assert schema.shape == (10, 5)
        assert schema.dimension_index("j") == 1
        assert schema.attribute("count").dtype == np.dtype(np.int64)
        with pytest.raises(KeyError):
            schema.dimension("k")
        with pytest.raises(KeyError):
            schema.attribute("missing")
        assert schema.renamed("b").name == "b"
        assert "value" in repr(schema)

    def test_schema_validation(self):
        with pytest.raises(ValueError):
            ArraySchema("a", [], [Attribute("v")])
        with pytest.raises(ValueError):
            ArraySchema("a", [Dimension("i", 0, 1, 1)], [])
        with pytest.raises(ValueError):
            ArraySchema("a", [Dimension("i", 0, 1, 1)], [Attribute("i")])


class TestChunkedArray:
    def test_dense_roundtrip(self, expression_array):
        array, matrix = expression_array
        np.testing.assert_allclose(array.to_dense(), matrix)
        assert array.chunk_count == 3 * 4  # ceil(45/16) x ceil(30/8)
        assert array.cell_count == matrix.size
        assert array.nbytes > 0

    def test_chunk_shapes_and_origins(self, expression_array):
        array, _matrix = expression_array
        chunk = array.chunk_at((2, 3))
        assert chunk is not None
        assert chunk.origin == (32, 24)
        assert chunk.shape == (13, 6)  # edge chunk is smaller

    def test_from_dense_validation(self, rng):
        with pytest.raises(ValueError):
            ChunkedArray.from_dense("a", rng.random((3, 3)), ["only_one_name"])

    def test_chunk_validation(self):
        with pytest.raises(ValueError):
            Chunk(coordinates=(0,), origin=(0,), data={"a": np.ones(3), "b": np.ones(4)})

    def test_masked_attribute_fill(self):
        chunk = Chunk(coordinates=(0,), origin=(0,), data={"v": np.arange(4.0)})
        chunk.mask = np.array([True, False, True, False])
        np.testing.assert_array_equal(chunk.masked_attribute("v", fill=-1), [0, -1, 2, -1])
        assert chunk.cell_count == 2


class TestOperators:
    def test_filter_keeps_shape_masks_cells(self, expression_array):
        array, matrix = expression_array
        filtered = ops.filter_attribute(array, None, col("value") > 0.5)
        assert filtered.cell_count == int((matrix > 0.5).sum())
        dense = filtered.to_dense(fill=0.0)
        np.testing.assert_allclose(dense[matrix > 0.5], matrix[matrix > 0.5])
        assert np.all(dense[matrix <= 0.5] == 0.0)

    def test_filter_expression_validates_attributes(self, expression_array):
        array, _ = expression_array
        with pytest.raises(KeyError):
            ops.filter_attribute(array, None, col("bogus") > 0.5)
        with pytest.raises(KeyError):
            ops.filter_attribute(array, "bogus", col("value") > 0.5)

    def test_filter_range_predicate_skips_chunks(self):
        # Sorted values: every chunk past the threshold is excluded by its
        # min/max synopsis and must be skipped without touching its cells.
        values = np.arange(100.0)
        array = ChunkedArray.from_dense("v", values, ["i"], "v", chunk_sizes=[10])
        stats = ops.FilterStats()
        filtered = ops.filter_attribute(array, None, col("v") < 25, stats=stats)
        np.testing.assert_array_equal(_kept_coordinates(filtered), np.arange(25))
        assert stats.chunks_skipped == 7
        assert stats.chunks_scanned == 3
        assert stats.cells_kept == 25

    def test_filter_all_chunks_skipped(self):
        values = np.arange(50.0)
        array = ChunkedArray.from_dense("v", values, ["i"], "v", chunk_sizes=[10])
        stats = ops.FilterStats()
        filtered = ops.filter_attribute(array, None, col("v") > 1e6, stats=stats)
        assert filtered.cell_count == 0
        assert stats.chunks_skipped == 5
        assert stats.chunks_scanned == 0

    def test_filter_skip_is_exact_about_strictness(self):
        values = np.arange(30.0)
        array = ChunkedArray.from_dense("v", values, ["i"], "v", chunk_sizes=[10])
        # v <= 10 must keep the boundary cell in the second chunk (min=10).
        kept = ops.filter_attribute(array, None, col("v") <= 10)
        np.testing.assert_array_equal(_kept_coordinates(kept), np.arange(11))
        # v < 10 may skip that chunk entirely.
        stats = ops.FilterStats()
        strict = ops.filter_attribute(array, None, col("v") < 10, stats=stats)
        np.testing.assert_array_equal(_kept_coordinates(strict), np.arange(10))
        assert stats.chunks_skipped == 2

    def test_subarray_by_index_compacts(self, expression_array):
        array, matrix = expression_array
        chosen = [3, 7, 11, 29]
        sub = ops.subarray_by_index(array, "gene_id", chosen)
        assert sub.shape == (45, 4)
        np.testing.assert_allclose(sub.to_dense(), matrix[:, chosen])

    def test_aggregate_global_and_along(self, expression_array):
        array, matrix = expression_array
        assert ops.aggregate(array, "value", "sum") == pytest.approx(matrix.sum())
        assert ops.aggregate(array, "value", "count") == matrix.size
        assert ops.aggregate(array, "value", "avg") == pytest.approx(matrix.mean())
        assert ops.aggregate(array, "value", "min") == pytest.approx(matrix.min())
        assert ops.aggregate(array, "value", "max") == pytest.approx(matrix.max())
        per_gene = ops.aggregate(array, "value", "avg", along="gene_id")
        np.testing.assert_allclose(per_gene, matrix.mean(axis=0))
        per_patient = ops.aggregate(array, "value", "max", along="patient_id")
        np.testing.assert_allclose(per_patient, matrix.max(axis=1))
        with pytest.raises(ValueError):
            ops.aggregate(array, "value", "median")

    def test_aggregate_respects_mask(self, expression_array):
        array, matrix = expression_array
        filtered = ops.filter_attribute(array, None, col("value") > 0.5)
        assert ops.aggregate(filtered, "value", "count") == int((matrix > 0.5).sum())


class TestArrayLinalg:
    """The chunk-wise kernels are rows of ``test_kernel_operands.py``."""

    def test_to_scalapack_copies_into_the_dense_layout(self, expression_array):
        array, matrix = expression_array
        dense = linalg.to_scalapack(array)
        np.testing.assert_allclose(dense, matrix)
        assert dense.flags.c_contiguous and dense.flags.writeable
