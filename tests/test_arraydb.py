"""Tests for the chunked array DBMS."""

from __future__ import annotations

import numpy as np
import pytest

from repro.arraydb import ArraySchema, Attribute, ChunkedArray, Dimension, linalg, operators as ops
from repro.arraydb.bridge import ArrayFrame, MatrixFrame, metadata_array, run_shared_plan
from repro.arraydb.chunk import Chunk
from repro.core.engines import make_engine
from repro.core.timing import PhaseTimer
from repro.plan import Filter, Join, Pivot, Scan, col


def _kept_coordinates(array: ChunkedArray) -> np.ndarray:
    """Coordinates of the non-empty cells of a 1-D array (NaN-free values)."""
    return np.flatnonzero(~np.isnan(array.to_dense(fill=np.nan)))


def _array_at(values: np.ndarray, starts, chunk_sizes, mask: np.ndarray | None = None,
              missing=(), names=None, attribute: str = "value") -> ChunkedArray:
    """A chunked array over ``values`` whose dimensions begin at ``starts``.

    ``mask`` marks the non-empty cells (all of them when None) and chunk-grid
    keys in ``missing`` are not stored, as if every cell there were empty.
    """
    names = names or [f"d{axis}" for axis in range(values.ndim)]
    dimensions = [Dimension(name, start, start + length - 1, size)
                  for name, start, length, size in zip(names, starts, values.shape, chunk_sizes, strict=True)]
    array = ChunkedArray(ArraySchema("a", dimensions, [Attribute(attribute, values.dtype)]))
    for key in array.chunk_grid():
        if key in missing:
            continue
        local = tuple(slice(s.start - d.start, s.stop - d.start)
                      for s, d in zip(array.chunk_slices(key), dimensions, strict=True))
        array.put_chunk(Chunk(
            key, tuple(d.start + s.start for d, s in zip(dimensions, local, strict=True)),
            {attribute: values[local].copy()},
            None if mask is None else mask[local].copy(),
        ))
    return array


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
        assert chunk.masked_attribute("v") is chunk.data["v"]  # full: the stored block
        chunk.mask = np.array([True, False, True, False])
        np.testing.assert_array_equal(chunk.masked_attribute("v", fill=-1), [0, -1, 2, -1])
        np.testing.assert_array_equal(chunk.data["v"], np.arange(4.0))
        assert chunk.cell_count == 2

    def test_readers_leave_chunk_data_unchanged(self, rng):
        # Only chunk (0, 0) is partially masked; every other stored chunk
        # hands its block out uncopied, so a reader writing into it would show.
        mask = np.ones((9, 7), dtype=bool)
        mask[:4, :3] = rng.random((4, 3)) > 0.4
        array = _array_at(rng.random((9, 7)), (0, 0), (4, 3), mask=mask, missing={(1, 1)})
        before = {chunk.coordinates: (chunk.data["value"].tobytes(), chunk.mask.tobytes())
                  for chunk in array.chunks()}
        array.to_dense()
        array.gram()
        array.gram(center=True)
        array.matmat(rng.random((7, 2)))
        ops.subarray(array, [np.array([0, 4, 8]), None])
        ops.subarray(array, [None, np.array([1, 2, 6])])
        after = {chunk.coordinates: (chunk.data["value"].tobytes(), chunk.mask.tobytes())
                 for chunk in array.chunks()}
        assert after == before


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

    def test_subarray_compacts(self, expression_array):
        array, matrix = expression_array
        chosen = [3, 7, 11, 29]
        sub = ops.subarray(array, [None, np.array(chosen)])
        assert sub.shape == (45, 4)
        np.testing.assert_allclose(sub.to_dense(), matrix[:, chosen])

    def test_subarray_rejects_unsorted_or_misshapen_selections(self, expression_array):
        array, _matrix = expression_array
        with pytest.raises(ValueError):
            ops.subarray(array, [np.array([3, 1]), None])
        with pytest.raises(ValueError):
            ops.subarray(array, [None])

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


#: How one axis of the gather battery is selected, given the axis length.
_SELECTIONS = {
    "whole": lambda length, rng: None,
    "empty": lambda length, rng: np.empty(0, dtype=np.int64),
    "single": lambda length, rng: np.array([length - 1]),
    "duplicates": lambda length, rng: np.array([0, 0, 2, 2, 2]),
    "out-of-range": lambda length, rng: np.array([-3, 1, length, length + 5]),
    "random": lambda length, rng: np.sort(rng.choice(length, size=length // 2, replace=False)),
}


def _battery_array(ndim: int, rng) -> ChunkedArray:
    """Non-zero starts, chunk sizes that do not divide the extents, one
    missing chunk and a partial mask on the rest."""
    shape, starts, chunks = ((11, 7), (10, 5), (4, 3)) if ndim == 2 else ((13,), (3,), (5,))
    missing = {(1, 1)} if ndim == 2 else {(1,)}
    return _array_at(rng.random(shape), starts, chunks, mask=rng.random(shape) > 0.3,
                     missing=missing)


class TestSubarrayGather:
    """The dense array is the oracle: ``to_dense(fill)[np.ix_(...)]``."""

    @pytest.mark.parametrize("kinds", [(kind,) for kind in _SELECTIONS]
                             + [(row, column) for row in _SELECTIONS for column in _SELECTIONS])
    def test_matches_dense_oracle(self, kinds, rng):
        array = _battery_array(len(kinds), rng)
        selections = [_SELECTIONS[kind](length, rng) for kind, length in zip(kinds, array.shape, strict=True)]
        kept = [np.arange(length) if s is None else s[(s >= 0) & (s < length)]
                for s, length in zip(selections, array.shape, strict=True)]
        expected = array.to_dense(fill=0.0)[np.ix_(*kept)]
        result = ops.subarray(array, selections)
        assert [d.chunk_size for d in result.schema.dimensions] == \
            [d.chunk_size for d in array.schema.dimensions]
        assert all(d.start == 0 for d in result.schema.dimensions)
        if expected.size == 0:
            assert result.chunk_count == 0
        else:
            assert result.shape == expected.shape
            np.testing.assert_array_equal(result.to_dense(), expected)


def _shifted_frames(dimension_names=("patient_id", "gene_id")) -> dict:
    """patient_id 10..13 × gene_id 5..7 holding ``arange(12)``, 2 × 2 chunks."""
    array = _array_at(np.arange(12.0).reshape(4, 3), (10, 5), (2, 2),
                      names=list(dimension_names), attribute="expression_value")
    return {"microarray": MatrixFrame(array, "expression_value")}


class TestDimensionJoinGather:
    def test_two_dimension_selection_offsets_each_axis_from_its_start(self):
        plan = Pivot(Filter(Filter(Scan("microarray"), col("patient_id").isin([11, 13])),
                            col("gene_id") == 6),
                     "patient_id", "gene_id", "expression_value")
        dense, rows, cols = run_shared_plan(plan, _shifted_frames())
        assert rows.tolist() == [11, 13] and cols.tolist() == [6]
        assert dense.tolist() == [[4.0], [10.0]]

    def test_dimension_joins_never_densify_the_source(self, monkeypatch, rng):
        matrix = rng.random((40, 30))
        frames = {
            "microarray": MatrixFrame(
                ChunkedArray.from_dense("expression", matrix, ["patient_id", "gene_id"],
                                        "expression_value", chunk_sizes=[16, 8]),
                "expression_value"),
            "patients": ArrayFrame("patient_id", {
                "age": metadata_array("age", rng.integers(20, 80, 40).astype(float),
                                      "patient_id", "age", chunk_size=16)}),
            "genes": ArrayFrame("gene_id", {
                "function": metadata_array("function", rng.integers(0, 5, 30).astype(float),
                                           "gene_id", "function", chunk_size=8)}),
        }
        source = frames["microarray"].array
        calls = []
        to_dense = ChunkedArray.to_dense

        def counting_to_dense(self, *args, **kwargs):
            if self is source:
                calls.append(args)
            return to_dense(self, *args, **kwargs)

        monkeypatch.setattr(ChunkedArray, "to_dense", counting_to_dense)
        plan = Pivot(
            Join(Filter(Scan("genes"), col("function") < 2),
                 Join(Filter(Scan("patients"), col("age") < 45), Scan("microarray"),
                      "patient_id", "patient_id"),
                 "gene_id", "gene_id"),
            "patient_id", "gene_id", "expression_value")
        dense, rows, cols = run_shared_plan(plan, frames)
        assert calls == []
        assert 0 < len(rows) < 40 and 0 < len(cols) < 30
        np.testing.assert_array_equal(dense, matrix[np.ix_(rows, cols)])


def test_scidb_drug_response_aligns_with_labels(tiny_dataset, rng):
    engine = make_engine("scidb")
    engine.load(tiny_dataset)
    n_patients = len(tiny_dataset.patients.drug_response)
    labels = rng.permutation(n_patients)[: n_patients // 2]
    response = engine._drug_response_for(labels, PhaseTimer())
    np.testing.assert_array_equal(response, tiny_dataset.patients.drug_response[labels])
