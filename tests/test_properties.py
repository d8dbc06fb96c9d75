"""Property-based tests (hypothesis) for the core data structures and kernels."""

from __future__ import annotations

import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.colstore.column import ColumnVector
from repro.colstore.compression import (
    DeltaEncoding,
    DictionaryEncoding,
    PlainEncoding,
    RunLengthEncoding,
    _direct_address_budget,
    _distinct,
    best_encoding,
    encoding_sizes,
)
from repro.colstore.query import ColumnQuery, materialise_join
from repro.colstore.table import ColumnTable
from repro.datagen.writer import read_table_csv, write_table_csv
from repro.linalg.covariance import covariance_matrix
from repro.linalg.qr import householder_qr, linear_regression, lstsq_qr
from repro.linalg.lanczos import lanczos_svd
from repro.linalg.wilcoxon import _rank_with_ties, enrichment_analysis
from repro.mapreduce.engine import MapReduceEngine, MapReduceJob
from repro.plan import col
from repro.relational import ColumnType
from repro.relational.schema import Column, Schema
from repro.relational.storage import HeapFile

# ---------------------------------------------------------------------------- #
# Strategies
# ---------------------------------------------------------------------------- #

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False, width=64
)


def matrices(min_rows=2, max_rows=12, min_cols=1, max_cols=8):
    return hnp.arrays(
        dtype=np.float64,
        shape=st.tuples(
            st.integers(min_rows, max_rows), st.integers(min_cols, max_cols)
        ),
        elements=finite_floats,
    )


int_arrays = hnp.arrays(
    dtype=np.int64,
    shape=st.integers(0, 200),
    elements=st.integers(-1000, 1000),
)


# ---------------------------------------------------------------------------- #
# Column encodings
# ---------------------------------------------------------------------------- #

class TestEncodingProperties:
    @given(int_arrays)
    @settings(max_examples=60, deadline=None)
    def test_rle_roundtrip(self, values):
        encoding = RunLengthEncoding()
        encoding.encode(values)
        np.testing.assert_array_equal(encoding.decode(), values)

    @given(int_arrays)
    @settings(max_examples=60, deadline=None)
    def test_dictionary_roundtrip(self, values):
        encoding = DictionaryEncoding()
        encoding.encode(values)
        np.testing.assert_array_equal(encoding.decode(), values)

    @given(int_arrays)
    @settings(max_examples=60, deadline=None)
    def test_delta_roundtrip(self, values):
        encoding = DeltaEncoding()
        encoding.encode(values)
        np.testing.assert_array_equal(encoding.decode(), values)

    @given(hnp.arrays(dtype=np.float64, shape=st.integers(0, 200), elements=finite_floats))
    @settings(max_examples=60, deadline=None)
    def test_best_encoding_roundtrip_floats(self, values):
        encoding = best_encoding(values)
        np.testing.assert_array_equal(encoding.decode(), values)


# ---------------------------------------------------------------------------- #
# Compressed execution: encoded fast paths must match the plain-decode answers
# ---------------------------------------------------------------------------- #

ALL_ENCODINGS = (PlainEncoding, RunLengthEncoding, DictionaryEncoding, DeltaEncoding)

# Includes all-ties (constant) columns explicitly: one value repeated.
encodable_int_arrays = st.one_of(
    int_arrays,
    st.builds(
        lambda value, n: np.full(n, value, dtype=np.int64),
        st.integers(-1000, 1000),
        st.integers(0, 200),
    ),
    # Sorted / low-cardinality shapes that exercise long runs and small dicts.
    int_arrays.map(np.sort),
    int_arrays.map(lambda a: a % 5),
)


def _indices_for(draw, length):
    """Index arrays into a column of ``length`` rows, empty ones included."""
    if length == 0:
        return np.empty(0, dtype=np.int64)
    return draw(
        hnp.arrays(
            dtype=np.int64,
            shape=st.integers(0, 50),
            elements=st.integers(0, length - 1),
        )
    )


class TestCompressedExecutionProperties:
    @given(encodable_int_arrays, st.data())
    @settings(max_examples=60, deadline=None)
    def test_take_matches_plain_gather(self, values, data):
        indices = _indices_for(data.draw, len(values))
        for encoding_class in ALL_ENCODINGS:
            encoding = encoding_class()
            encoding.encode(values)
            np.testing.assert_array_equal(
                encoding.take(indices), values[indices],
                err_msg=f"take mismatch for {encoding.name}",
            )

    @given(encodable_int_arrays, st.integers(-1000, 1000))
    @settings(max_examples=60, deadline=None)
    def test_filter_mask_matches_plain_predicate(self, values, threshold):
        predicates = [
            lambda v: v < threshold,
            lambda v: v >= threshold,
            lambda v: v == threshold,
            lambda v: (v % 3) == 0,
        ]
        for encoding_class in ALL_ENCODINGS:
            encoding = encoding_class()
            encoding.encode(values)
            for predicate in predicates:
                np.testing.assert_array_equal(
                    encoding.filter_mask(predicate), predicate(values),
                    err_msg=f"filter_mask mismatch for {encoding.name}",
                )

    @given(encodable_int_arrays, int_arrays)
    @settings(max_examples=60, deadline=None)
    def test_isin_matches_plain_membership(self, values, lookup):
        expected = np.isin(values, lookup)
        for encoding_class in ALL_ENCODINGS:
            encoding = encoding_class()
            encoding.encode(values)
            np.testing.assert_array_equal(
                encoding.isin(lookup), expected,
                err_msg=f"isin mismatch for {encoding.name}",
            )

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_membership_mask_matches_isin(self, data):
        # Int or float operands, NaN among the floats, against int or float
        # key sets, empty ones included, given as a set or as an array.
        ints = st.integers(-20, 20)
        floats = ints.map(float) | st.floats(-20, 20) | st.just(np.nan)
        sizes = st.integers(0, 30)
        operand = data.draw(hnp.arrays(np.int64, sizes, elements=ints)
                            | hnp.arrays(np.float64, sizes, elements=floats))
        keys = data.draw(st.lists(ints) | st.lists(floats))
        expected = np.isin(operand, np.asarray(keys))
        if data.draw(st.booleans()):
            keys = np.asarray(keys)
        mask = col("v").isin(keys).evaluate({"v": operand})
        assert mask.dtype == bool
        np.testing.assert_array_equal(mask, expected)

    @given(encodable_int_arrays)
    @settings(max_examples=60, deadline=None)
    def test_predicted_sizes_match_real_encodings(self, values):
        sizes = encoding_sizes(values)
        real = {
            "plain": PlainEncoding(),
            "rle": RunLengthEncoding(),
            "dictionary": DictionaryEncoding(),
            "delta": DeltaEncoding(),
        }
        for name, predicted in sizes.items():
            real[name].encode(values)
            assert predicted == real[name].encoded_bytes(), name

    @given(encodable_int_arrays, st.integers(-1000, 1000))
    @settings(max_examples=40, deadline=None)
    def test_query_where_compressed_equals_uncompressed(self, values, threshold):
        arrays = {"key": values, "payload": np.arange(len(values), dtype=np.int64)}
        compressed = ColumnQuery(ColumnTable.from_arrays("c", arrays, compress=True))
        plain = ColumnQuery(ColumnTable.from_arrays("p", arrays, compress=False))
        for query in (
            lambda q: q.where(col("key") < threshold),
            lambda q: q.where(col("key") == threshold),  # maybe empty
            lambda q: q.where(col("key").isin(np.asarray([threshold, threshold, 0]))),
        ):
            left, right = query(compressed), query(plain)
            np.testing.assert_array_equal(left.selection, right.selection)
            np.testing.assert_array_equal(left.column("payload"), right.column("payload"))

    @given(
        st.one_of(int_arrays, int_arrays.map(lambda a: a % 4)),
        st.one_of(int_arrays, int_arrays.map(lambda a: a % 4)),
    )
    @settings(max_examples=40, deadline=None)
    def test_join_compressed_equals_uncompressed(self, left_keys, right_keys):
        left_arrays = {"k": left_keys, "lv": np.arange(len(left_keys), dtype=np.int64)}
        right_arrays = {"k": right_keys, "rv": np.arange(len(right_keys), dtype=np.int64)}

        def join(compress):
            left = ColumnQuery(ColumnTable.from_arrays("l", left_arrays, compress=compress))
            right = ColumnQuery(ColumnTable.from_arrays("r", right_arrays, compress=compress))
            return materialise_join(left, right, "k", "k", compress=False)

        compressed, plain = join(True), join(False)
        assert compressed.column_names == plain.column_names
        for name in plain.column_names:
            np.testing.assert_array_equal(compressed.values(name), plain.values(name))
            assert compressed.values(name).dtype == plain.values(name).dtype

    @given(int_arrays)
    @settings(max_examples=40, deadline=None)
    def test_join_empty_result_dtypes_match_populated_case(self, keys):
        arrays = {"k": keys, "v": np.arange(len(keys), dtype=np.int64) * 0.5}
        left = ColumnQuery(ColumnTable.from_arrays("l", arrays))
        right_arrays = {"k": np.asarray([2000], dtype=np.int64), "w": np.asarray([1.5])}
        right = ColumnQuery(ColumnTable.from_arrays("r", right_arrays))
        empty = materialise_join(left, right, "k", "k")  # 2000 is outside the key domain
        assert empty.row_count == 0
        assert empty.values("k").dtype == np.int64
        assert empty.values("v").dtype == np.float64
        assert empty.values("w").dtype == np.float64

    @given(encodable_int_arrays, st.data())
    @settings(max_examples=40, deadline=None)
    def test_column_vector_paths_match_values(self, values, data):
        indices = _indices_for(data.draw, len(values))
        column = ColumnVector("x", values)
        np.testing.assert_array_equal(column.take(indices), values[indices])
        np.testing.assert_array_equal(column.isin(np.asarray([0, 1])), np.isin(values, [0, 1]))
        np.testing.assert_array_equal(
            column.filter_mask(lambda v: v > 0), values > 0
        )


# ---------------------------------------------------------------------------- #
# Aggregation push-down: compressed grouping must be bit-identical to
# aggregating the plain, decoded (and gathered) column.
# ---------------------------------------------------------------------------- #

def _aggregate_reference(groups, values, function):
    """The seed GROUP BY: np.unique over decoded values + bincount/ufunc.at."""
    keys, inverse = np.unique(groups, return_inverse=True)
    if function == "count":
        return keys, np.bincount(inverse, minlength=len(keys)).astype(np.float64)
    if function == "sum":
        return keys, np.bincount(inverse, weights=values, minlength=len(keys))
    if function == "mean":
        totals = np.bincount(inverse, weights=values, minlength=len(keys))
        counts = np.bincount(inverse, minlength=len(keys))
        return keys, totals / np.maximum(counts, 1)
    result = np.full(len(keys), np.inf if function == "min" else -np.inf)
    reducer = np.minimum if function == "min" else np.maximum
    reducer.at(result, inverse, values)
    return keys, result


@st.composite
def addressable_arrays(draw):
    """Bool/integer arrays whose value span is pinned on either side of the
    direct-address budget (the 1,024 floor for short input, 2 × rows past it)."""
    dtype = np.dtype(draw(st.sampled_from(
        ["bool", "int8", "uint8", "int16", "int64", "uint32", "uint64"])))
    n = draw(st.one_of(st.integers(0, 40), st.integers(513, 700)))
    if dtype.kind == "b":
        return draw(hnp.arrays(dtype, n))
    info = np.iinfo(dtype)
    budget = _direct_address_budget(n)
    span = draw(st.sampled_from([1, 2, 7, budget - 1, budget, budget + 1, 4 * budget]))
    low = draw(st.integers(info.min, info.max))
    high = min(info.max, low + span - 1)
    values = draw(hnp.arrays(dtype, n, elements=st.integers(low, high)))
    if n >= 2:  # both endpoints present: the span is exactly the one drawn
        values[0], values[-1] = low, high
    return values


class TestAggregationPushdownProperties:
    @given(addressable_arrays())
    @settings(max_examples=200, deadline=None)
    def test_direct_address_distinct_is_np_unique(self, values):
        keys, codes = _distinct(values, return_inverse=True)
        expected_keys, expected_codes = np.unique(values, return_inverse=True)
        for got, wanted in ((keys, expected_keys), (codes, expected_codes),
                            (_distinct(values, return_inverse=False), expected_keys)):
            np.testing.assert_array_equal(got, wanted)
            assert got.dtype == wanted.dtype and got.shape == wanted.shape

    def test_direct_address_distinct_leaves_the_rest_to_the_sort(self):
        narrow = np.array([5, 3, 5, 900], dtype=np.int64)
        sorts = {
            "float": narrow.astype(np.float64),
            "string": narrow.astype("U4"),
            "uint64": narrow.astype(np.uint64),
            "wide span": np.array([0, _direct_address_budget(2)], dtype=np.int64),
            "empty": narrow[:0],
        }
        with mock.patch.object(np, "unique", wraps=np.unique) as unique:
            _distinct(narrow, return_inverse=True)
            _distinct(narrow.astype(np.int8), return_inverse=False)
            _distinct(narrow > 4, return_inverse=True)
            assert unique.call_count == 0
            for calls, (label, values) in enumerate(sorts.items(), start=1):
                _distinct(values, return_inverse=True)
                assert unique.call_count == calls, label

    @given(encodable_int_arrays, st.data())
    @settings(max_examples=60, deadline=None)
    def test_distinct_inverse_matches_unique(self, values, data):
        positions = _indices_for(data.draw, len(values))
        for encoding_class in ALL_ENCODINGS:
            encoding = encoding_class()
            encoding.encode(values)
            for selection, selected in ((None, values), (positions, values[positions])):
                keys, inverse = encoding.distinct_inverse(selection)
                expected_keys, expected_inverse = np.unique(selected, return_inverse=True)
                np.testing.assert_array_equal(
                    keys, expected_keys,
                    err_msg=f"distinct keys mismatch for {encoding.name}",
                )
                np.testing.assert_array_equal(
                    inverse, expected_inverse,
                    err_msg=f"inverse mismatch for {encoding.name}",
                )

    @given(encodable_int_arrays, st.data())
    @settings(max_examples=60, deadline=None)
    def test_group_reduce_bit_identical_to_plain_decode(self, groups, data):
        # Integer-valued floats keep every intermediate sum exact, so run
        # folding (RLE) and code-order accumulation (dictionary) must land on
        # bit-identical aggregates, not merely close ones.
        values = data.draw(
            hnp.arrays(
                dtype=np.float64,
                shape=st.just(len(groups)),
                elements=st.integers(-1000, 1000).map(float),
            )
        )
        positions = _indices_for(data.draw, len(groups))
        for encoding_class in ALL_ENCODINGS:
            encoding = encoding_class()
            encoding.encode(groups)
            for function in ("count", "sum", "mean", "min", "max"):
                for selection, grouped, reduced in (
                    (None, groups, values),
                    (positions, groups[positions], values[positions]),
                ):
                    keys, aggregates = encoding.group_reduce(reduced, function, selection)
                    expected_keys, expected = _aggregate_reference(grouped, reduced, function)
                    np.testing.assert_array_equal(
                        keys, expected_keys,
                        err_msg=f"group keys mismatch for {encoding.name}/{function}",
                    )
                    np.testing.assert_array_equal(
                        aggregates, expected,
                        err_msg=f"aggregate mismatch for {encoding.name}/{function}",
                    )

    @given(encodable_int_arrays, st.data())
    @settings(max_examples=40, deadline=None)
    def test_query_aggregate_compressed_equals_uncompressed(self, groups, data):
        values = data.draw(
            hnp.arrays(
                dtype=np.float64,
                shape=st.just(len(groups)),
                elements=st.integers(-1000, 1000).map(float),
            )
        )
        threshold = data.draw(st.integers(-1000, 1000))
        arrays = {"g": groups, "c": groups % 7 if len(groups) else groups, "v": values}
        compressed = ColumnQuery(ColumnTable.from_arrays("c", arrays, compress=True))
        plain = ColumnQuery(ColumnTable.from_arrays("p", arrays, compress=False))
        for narrow in (lambda q: q, lambda q: q.where(col("g") < threshold)):
            left, right = narrow(compressed), narrow(plain)
            for function in ("count", "sum", "mean", "min", "max"):
                fast = left.group_aggregate("g", "v", function)
                slow = right.group_aggregate("g", "v", function)
                np.testing.assert_array_equal(fast[0], slow[0])
                np.testing.assert_array_equal(fast[1], slow[1])
            fast_pivot = left.pivot("g", "c", "v")
            slow_pivot = right.pivot("g", "c", "v")
            for fast_part, slow_part in zip(fast_pivot, slow_pivot, strict=True):
                np.testing.assert_array_equal(fast_part, slow_part)


# ---------------------------------------------------------------------------- #
# Numerical kernels
# ---------------------------------------------------------------------------- #

class TestKernelProperties:
    @given(matrices(min_rows=3, max_rows=15, min_cols=1, max_cols=6))
    @settings(max_examples=40, deadline=None)
    def test_qr_reconstructs_input(self, matrix):
        if matrix.shape[0] < matrix.shape[1]:
            matrix = matrix.T
        q, r = householder_qr(matrix)
        scale = max(1.0, np.abs(matrix).max())
        np.testing.assert_allclose(q @ r, matrix, atol=1e-8 * scale)

    @given(matrices(min_rows=4, max_rows=20, min_cols=1, max_cols=5))
    @settings(max_examples=40, deadline=None)
    def test_lstsq_residual_orthogonal_to_columns(self, matrix):
        # The un-pivoted Householder QR targets full-column-rank designs
        # (which GenBase's expression matrices always are); restrict the
        # property to reasonably conditioned full-rank inputs.
        from hypothesis import assume

        assume(np.linalg.matrix_rank(matrix) == matrix.shape[1])
        assume(np.linalg.cond(matrix) < 1e6)
        rng = np.random.default_rng(0)
        target = rng.standard_normal(matrix.shape[0])
        beta, _ = lstsq_qr(matrix, target, method="householder")
        residual = target - matrix @ beta
        # Normal equations: the residual is orthogonal to the column space.
        scale = max(1.0, np.abs(matrix).max() * np.abs(target).max())
        np.testing.assert_allclose(matrix.T @ residual, 0, atol=1e-6 * scale)

    @given(matrices(min_rows=3, max_rows=20, min_cols=2, max_cols=6))
    @settings(max_examples=40, deadline=None)
    def test_covariance_symmetric_psd(self, matrix):
        cov = covariance_matrix(matrix)
        np.testing.assert_array_equal(cov, cov.T)
        eigenvalues = np.linalg.eigvalsh(cov)
        assert eigenvalues.min() >= -1e-6 * max(1.0, abs(eigenvalues.max()))

    @given(matrices(min_rows=3, max_rows=15, min_cols=3, max_cols=10))
    @settings(max_examples=30, deadline=None)
    def test_lanczos_values_bounded_by_frobenius(self, matrix):
        result = lanczos_svd(matrix, k=3, seed=1)
        frobenius = np.linalg.norm(matrix)
        assert np.all(result.singular_values <= frobenius + 1e-6)
        assert np.all(result.singular_values >= -1e-9)
        assert np.all(np.diff(result.singular_values) <= 1e-9)

    @given(
        hnp.arrays(dtype=np.float64, shape=st.integers(2, 40), elements=finite_floats),
        hnp.arrays(dtype=np.float64, shape=st.integers(2, 40), elements=finite_floats),
    )
    @settings(max_examples=60, deadline=None)
    def test_rank_sum_symmetry_and_bounds(self, first, second):
        # One term holding ``first``, one holding ``second``: the same test both ways.
        membership = np.zeros((len(first) + len(second), 2))
        membership[:len(first), 0] = membership[len(first):, 1] = 1
        result = enrichment_analysis(np.concatenate([first, second]), membership)
        (forward, backward), (z_forward, z_backward) = result.p_values, result.z_scores
        assert 0.0 <= forward <= 1.0
        # Swapping the samples flips the z-score but keeps the p-value.
        assert forward == pytest.approx(backward, abs=1e-9)
        assert z_forward == pytest.approx(-z_backward, abs=1e-9)

    @given(hnp.arrays(dtype=np.float64, shape=st.integers(1, 60), elements=finite_floats))
    @settings(max_examples=60, deadline=None)
    def test_midranks_sum_is_invariant(self, values):
        ranks, tie_sizes = _rank_with_ties(values)
        n = len(values)
        assert ranks.sum() == pytest.approx(n * (n + 1) / 2)
        assert int(tie_sizes.sum()) == n

    @given(matrices(min_rows=5, max_rows=25, min_cols=1, max_cols=4))
    @settings(max_examples=30, deadline=None)
    def test_regression_r_squared_bounded(self, features):
        rng = np.random.default_rng(0)
        target = rng.standard_normal(features.shape[0])
        fit = linear_regression(features, target)
        assert fit.r_squared <= 1.0 + 1e-9


# ---------------------------------------------------------------------------- #
# Storage and serialisation
# ---------------------------------------------------------------------------- #

class TestStorageProperties:
    @given(
        st.lists(
            st.tuples(st.integers(-10**6, 10**6), finite_floats,
                      st.text(max_size=20).filter(lambda s: "\x00" not in s)),
            max_size=60,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_heap_file_roundtrip(self, rows):
        schema = Schema([Column("id", ColumnType.INT), Column("value", ColumnType.FLOAT),
                         Column("label", ColumnType.STRING)])
        heap = HeapFile(schema, page_size=512)
        for row in rows:
            heap.insert(schema.coerce_row(row))
        restored = list(heap.scan())
        assert len(restored) == len(rows)
        for (id_value, float_value, text), row in zip(rows, restored, strict=True):
            assert row[0] == id_value
            assert row[1] == pytest.approx(float_value, nan_ok=True)
            assert row[2] == text

    @given(matrices(min_rows=1, max_rows=10, min_cols=1, max_cols=6))
    @settings(max_examples=40, deadline=None)
    def test_matrix_csv_roundtrip_exact(self, matrix):
        buffer = io.StringIO()
        columns = [f"c{i}" for i in range(matrix.shape[1])]
        write_table_csv(map(tuple, matrix), columns, buffer)
        buffer.seek(0)
        names, rows = read_table_csv(buffer)
        assert names == columns
        np.testing.assert_array_equal(np.asarray(rows), matrix)


# ---------------------------------------------------------------------------- #
# MapReduce
# ---------------------------------------------------------------------------- #

class TestMapReduceProperties:
    @given(st.lists(st.integers(-50, 50), max_size=100), st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_grouped_sum_matches_direct_sum(self, values, n_splits):
        engine = MapReduceEngine(n_splits=n_splits)

        def mapper(value):
            yield (value % 5, value)

        def reducer(key, group):
            yield (key, sum(group))

        output = dict(engine.run(MapReduceJob("sum", mapper, reducer, combiner=reducer), values))
        expected: dict[int, int] = {}
        for value in values:
            expected[value % 5] = expected.get(value % 5, 0) + value
        assert output == expected

    @given(st.lists(st.integers(0, 100), min_size=1, max_size=80), st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_split_count_never_exceeds_requested(self, values, n_splits):
        engine = MapReduceEngine(n_splits=n_splits)

        def mapper(value):
            yield (None, value)

        def reducer(key, group):
            yield (key, len(group))

        engine.run(MapReduceJob("count", mapper, reducer), values)
        assert engine.history[-1].counters.splits <= n_splits
        assert engine.history[-1].counters.map_input_records == len(values)
