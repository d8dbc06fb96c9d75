"""Tests for the column-store engine."""

from __future__ import annotations

import ast
import pathlib

import numpy as np
import pytest

from repro.colstore import (
    AGGREGATE_FUNCTIONS,
    ColumnQuery,
    ColumnStore,
    ColumnTable,
    ColumnVector,
    DeltaEncoding,
    DictionaryEncoding,
    MergedColumn,
    PlainEncoding,
    RunLengthEncoding,
    best_encoding,
    reduce_by_inverse,
)
from repro.colstore import query as query_module
from repro.colstore import run_plan
from repro.colstore.compression import encoding_sizes
from repro.colstore.query import (
    _DIRECT_ADDRESS_MIN_SPAN,
    _DIRECT_ADDRESS_SLACK,
    _direct_address_positions,
    _sorted_match_positions,
    materialise_join,
    merge_join_positions,
)
from repro.colstore.udf import UdfHost
from repro.plan import Aggregate, Filter, Join, Pivot, Sample, Scan, col, lit


class TestEncodings:
    def test_rle_roundtrip_and_compression(self):
        values = np.repeat(np.array([1, 2, 3, 2]), 500)
        encoding = RunLengthEncoding()
        encoding.encode(values)
        np.testing.assert_array_equal(encoding.decode(), values)
        assert encoding.run_count == 4
        assert encoding.encoded_bytes() < values.nbytes / 10

    def test_dictionary_roundtrip_and_narrow_codes(self):
        values = np.tile(np.arange(10), 300)
        encoding = DictionaryEncoding()
        encoding.encode(values)
        np.testing.assert_array_equal(encoding.decode(), values)
        assert encoding.encoded_bytes() < values.nbytes / 4

    def test_delta_roundtrip_monotone(self):
        values = np.cumsum(np.random.default_rng(0).integers(1, 100, 1000))
        encoding = DeltaEncoding()
        encoding.encode(values)
        np.testing.assert_array_equal(encoding.decode(), values)
        assert encoding.encoded_bytes() < values.nbytes

    def test_plain_roundtrip(self):
        values = np.random.default_rng(0).random(100)
        encoding = PlainEncoding()
        encoding.encode(values)
        np.testing.assert_array_equal(encoding.decode(), values)

    def test_empty_columns(self):
        for encoding in (PlainEncoding(), RunLengthEncoding(), DeltaEncoding()):
            encoding.encode(np.empty(0, dtype=np.int64))
            assert len(encoding.decode()) == 0

    def test_best_encoding_choices(self):
        constant = np.zeros(10_000, dtype=np.int64)
        assert best_encoding(constant).name == "rle"
        monotone = np.arange(10_000, dtype=np.int64)
        assert best_encoding(monotone).name in ("delta", "rle")
        random_floats = np.random.default_rng(0).random(10_000)
        assert best_encoding(random_floats).name == "plain"

    def test_best_encoding_roundtrips(self, rng):
        for values in (
            rng.integers(0, 3, 5000),
            rng.integers(0, 100_000, 5000),
            rng.random(2000),
            np.repeat(rng.random(5), 1000),
        ):
            encoding = best_encoding(values)
            np.testing.assert_array_equal(encoding.decode(), values)

    def test_best_encoding_matches_brute_force(self, rng):
        """The stats-driven picker must agree with encode-all-and-compare."""
        samples = [
            np.zeros(1, dtype=np.int64),
            np.zeros(5000, dtype=np.int64),
            np.arange(5000, dtype=np.int64),
            rng.integers(0, 3, 5000),
            rng.integers(0, 300, 5000),
            rng.integers(0, 100_000, 5000),
            np.sort(rng.integers(0, 40, 5000)),
            rng.random(2000),
            np.repeat(rng.random(5), 1000),
            rng.integers(0, 2, 500).astype(bool),
        ]
        for values in samples:
            candidates = [PlainEncoding()]
            if values.size:
                if np.issubdtype(values.dtype, np.integer) or np.issubdtype(values.dtype, np.bool_):
                    candidates.extend(
                        [RunLengthEncoding(), DictionaryEncoding(), DeltaEncoding()]
                    )
                else:
                    candidates.append(RunLengthEncoding())
                    if len(np.unique(values[: min(len(values), 10_000)])) <= 4096:
                        candidates.append(DictionaryEncoding())
            best = best_size = None
            for candidate in candidates:
                candidate.encode(values)
                size = candidate.encoded_bytes()
                if best is None or size < best_size:
                    best, best_size = candidate, size
            chosen = best_encoding(values)
            assert chosen.name == best.name, values[:10]
            assert chosen.encoded_bytes() == best.encoded_bytes()

    def test_best_encoding_nan_floats_can_pick_dictionary(self):
        values = np.where(np.arange(10_000) % 2 == 0, np.nan, 1.5)
        chosen = best_encoding(values)
        brute = DictionaryEncoding()
        brute.encode(values)
        assert chosen.encoded_bytes() <= brute.encoded_bytes()
        np.testing.assert_array_equal(chosen.decode(), values)

    def test_encoding_sizes_are_exact(self, rng):
        values = rng.integers(0, 300, 5000)
        sizes = encoding_sizes(values)
        for name, encoding in (
            ("plain", PlainEncoding()),
            ("rle", RunLengthEncoding()),
            ("dictionary", DictionaryEncoding()),
            ("delta", DeltaEncoding()),
        ):
            if name in sizes:
                encoding.encode(values)
                assert sizes[name] == encoding.encoded_bytes(), name


class TestCompressedFastPaths:
    def test_rle_take_hits_run_boundaries(self):
        values = np.repeat(np.array([7, 3, 3, 9]), [4, 1, 2, 3])
        encoding = RunLengthEncoding()
        encoding.encode(values)
        indices = np.array([0, 3, 4, 5, 6, 7, 9, -1])
        np.testing.assert_array_equal(encoding.take(indices), values[indices])
        with pytest.raises(IndexError):
            encoding.take(np.array([len(values)]))

    RLE_TAKE_INDICES = {
        "sorted": np.array([0, 2, 3, 4, 9, 10, 17, 29]),
        "sorted-with-duplicates": np.array([0, 0, 3, 3, 3, 4, 12, 12, 29, 29]),
        "unsorted": np.array([17, 0, 29, 4, 3, 12]),
        "negative": np.array([-30, -1, 0, -13, 5]),
        "sorted-after-a-negative": np.array([-1, 0, 1, 2]),
        "empty": np.empty(0, dtype=np.int64),
        "single": np.array([11]),
        "all-in-one-run": np.array([5, 6, 6, 8, 9]),
        "every-row": np.arange(30),
        "two-dimensional": np.array([[0, 4, 29], [12, 3, 3]]),
    }

    @pytest.mark.parametrize("decoded", [False, True], ids=["encoded", "decoded"])
    @pytest.mark.parametrize("shape", list(RLE_TAKE_INDICES))
    def test_rle_take_equals_plain_indexing(self, shape, decoded):
        """Per-run gather (sorted), per-position search (anything else) and
        the decode buffer all answer like ``values()[indices]``."""
        values = np.repeat(np.array([7, 3, 8, 3, 9, 1]), [4, 1, 5, 2, 10, 8])
        encoding = RunLengthEncoding()
        encoding.encode(values)
        if decoded:
            encoding.values()
        indices = self.RLE_TAKE_INDICES[shape]
        taken = encoding.take(indices)
        np.testing.assert_array_equal(taken, values[indices])
        assert taken.shape == indices.shape and taken.dtype == values.dtype

    @pytest.mark.parametrize("decoded", [False, True], ids=["encoded", "decoded"])
    @pytest.mark.parametrize("indices", [[0, 5, 30], [30], [3, 31, 2], [-31, 0], [0, 1, 2**40]],
                             ids=["sorted", "single", "unsorted", "negative", "far"])
    def test_rle_take_out_of_range_raises_index_error(self, indices, decoded):
        encoding = RunLengthEncoding()
        encoding.encode(np.repeat(np.array([7, 3, 8]), [4, 1, 25]))
        if decoded:
            encoding.values()
        with pytest.raises(IndexError):
            encoding.take(np.array(indices))

    def test_rle_narrowed_operators_agree_on_sorted_and_unsorted_positions(self):
        """``distinct_inverse`` reads the rows the sorted-positions search of
        the gather finds, for sorted, unsorted and repeated positions."""
        values = np.repeat(np.array([7, 3, 8, 3, 9, 1]), [4, 1, 5, 2, 10, 8])
        encoding = RunLengthEncoding()
        encoding.encode(values)
        rng = np.random.default_rng(5)
        for positions in (np.flatnonzero(rng.random(30) < 0.4), rng.permutation(30)[:12],
                          np.array([4, 4, 9, 9, 9])):
            keys, inverse = encoding.distinct_inverse(positions)
            expected_keys, expected_inverse = np.unique(values[positions], return_inverse=True)
            np.testing.assert_array_equal(keys, expected_keys)
            np.testing.assert_array_equal(inverse, expected_inverse)

    def test_delta_take_window(self):
        values = np.cumsum(np.arange(1, 50, dtype=np.int64))
        encoding = DeltaEncoding()
        encoding.encode(values)
        indices = np.array([10, 12, 17, 10, -1])
        np.testing.assert_array_equal(encoding.take(indices), values[indices])
        assert encoding.take(np.empty(0, dtype=np.int64)).dtype == values.dtype
        with pytest.raises(IndexError):
            encoding.take(np.array([len(values)]))

    def test_filter_mask_shape_check_on_distinct_values(self):
        values = np.tile(np.arange(10), 100)
        encoding = DictionaryEncoding()
        encoding.encode(values)
        with pytest.raises(ValueError):
            encoding.filter_mask(lambda v: np.array([True]))


#: Contract columns: the stored form, and values that make it interesting.
#: The wrapping column jumps between the int64 extremes, so its deltas
#: overflow (and wrap back on decode) as well as changing sign.
CONTRACT_COLUMNS = {
    "plain": ("plain", lambda rng, n: rng.integers(0, 12, n).astype(np.float64)),
    "rle": ("rle", lambda rng, n: np.sort(rng.integers(0, 12, n))),
    "dictionary": ("dictionary", lambda rng, n: rng.integers(0, 12, n)),
    "delta-monotone": ("delta", lambda rng, n: np.cumsum(rng.integers(0, 2, n))),
    "delta-wrapping": ("delta", lambda rng, n: rng.choice(
        np.array([-2**63, -3, 0, 4, 2**63 - 1], dtype=np.int64), n)),
}
CONTRACT_ROWS = 400


def _contract_column(kind: str, merged: bool):
    """``(column, decoded concatenation)`` for one contract cell."""
    encoding, make = CONTRACT_COLUMNS[kind]
    full = make(np.random.default_rng(11), CONTRACT_ROWS)
    if not merged:
        return ColumnVector("x", full, encoding=encoding), full
    split = CONTRACT_ROWS - CONTRACT_ROWS // 20  # a 5 % tail, in two chunks
    sealed = ColumnVector("x", full[:split], encoding=encoding)
    return MergedColumn(sealed, [full[split:split + 7], full[split + 7:]]), full


def _contract_selection(shape: str) -> np.ndarray | None:
    rng = np.random.default_rng(12)
    if shape == "none":
        return None
    if shape == "sorted":
        return np.flatnonzero(rng.random(CONTRACT_ROWS) < 0.3)
    return rng.permutation(CONTRACT_ROWS)[:120]  # sealed and tail rows interleave


@pytest.mark.parametrize("selection_shape", ["none", "sorted", "interleaved"])
@pytest.mark.parametrize("merged", [False, True], ids=["sealed", "merged"])
@pytest.mark.parametrize("kind", list(CONTRACT_COLUMNS))
class TestColumnContract:
    """Every operator a ``ColumnQuery`` reaches, on every column it can see.

    Each answer must equal numpy over the decoded concatenation, both while
    the column is still encoded and after ``values()`` has decoded it — the
    one contract behind the per-encoding fast paths, the decode-once buffer
    and the sealed/tail merge.
    """

    PREDICATES = (
        lambda v: v < 4,          # prefix of the sorted distinct values
        lambda v: v >= 7,         # suffix
        lambda v: v % 2 == 0,     # scattered verdicts
        lambda v: v < -2.0**64,   # nothing
        lambda v: v < 2.0**64,    # everything
    )

    def _check(self, column, full, selection):
        rows = full if selection is None else full[selection]
        positions = np.arange(len(full)) if selection is None else selection
        np.testing.assert_array_equal(column.take(positions), rows)
        for predicate in self.PREDICATES:
            np.testing.assert_array_equal(column.filter_mask(predicate), predicate(full))
        lookup = np.concatenate([full[::37], full[:1] + 1])
        np.testing.assert_array_equal(column.isin(lookup), np.isin(full, lookup))
        keys, inverse = column.distinct_inverse(selection)
        expected_keys, expected_inverse = np.unique(rows, return_inverse=True)
        np.testing.assert_array_equal(keys, expected_keys)
        np.testing.assert_array_equal(inverse, expected_inverse)
        np.testing.assert_array_equal(column.distinct_values(selection), expected_keys)
        # Integer-valued floats: every association of the sums is exact.
        reduced = np.random.default_rng(13).integers(-50, 50, len(rows)).astype(np.float64)
        for function in AGGREGATE_FUNCTIONS:
            keys, aggregates = column.group_reduce(
                None if function == "count" else reduced, function, selection)
            np.testing.assert_array_equal(keys, expected_keys)
            np.testing.assert_array_equal(
                aggregates,
                reduce_by_inverse(expected_inverse, len(expected_keys), reduced, function))

    def test_operators_match_numpy_before_and_after_decode(self, kind, merged,
                                                           selection_shape):
        column, full = _contract_column(kind, merged)
        selection = _contract_selection(selection_shape)
        self._check(column, full, selection)  # answered from the stored form
        np.testing.assert_array_equal(column.values(), full)
        self._check(column, full, selection)  # the decode buffer is filled


@pytest.mark.parametrize("selection_shape", ["none", "sorted", "interleaved"])
@pytest.mark.parametrize("function", AGGREGATE_FUNCTIONS)
@pytest.mark.parametrize("kind", ["plain", "rle", "dictionary", "delta-monotone"])
def test_sealed_group_reduce_is_bit_identical_over_float_values(kind, function,
                                                                selection_shape):
    """Every encoding groups a sealed column through the same reduction, so
    non-integer float sums and means come out as the same bits as
    ``reduce_by_inverse`` over ``np.unique``'s inverse.  Merged columns are
    left to the contract's integer-valued floats: their sealed+tail partial
    merge still reassociates float addition."""
    column, full = _contract_column(kind, merged=False)
    selection = _contract_selection(selection_shape)
    rows = full if selection is None else full[selection]
    expected_keys, expected_inverse = np.unique(rows, return_inverse=True)
    reduced = np.random.default_rng(14).random(len(rows))
    expected = reduce_by_inverse(expected_inverse, len(expected_keys), reduced, function)
    for _ in ("stored form", "decode buffer"):
        keys, aggregates = column.group_reduce(reduced, function, selection)
        np.testing.assert_array_equal(keys, expected_keys)
        assert aggregates.tobytes() == expected.tobytes()
        column.values()


@pytest.mark.parametrize("kind", list(CONTRACT_COLUMNS))
class TestDecodeBuffer:
    def test_bounds_do_not_depend_on_decode_history(self, kind):
        # ``isin`` sizes its direct-address table from ``bounds()``, so a
        # decoded and a still-encoded column must report the same endpoints.
        column, full = _contract_column(kind, merged=False)
        before = column._encoding.bounds()
        if before is not None:
            assert before == (full.min(), full.max())
        decoded, _ = _contract_column(kind, merged=False)
        decoded.values()
        assert decoded._encoding.bounds() == before
        wanted = np.array([full.min(), full.max(), full.max() - 1])
        np.testing.assert_array_equal(column.isin(wanted), np.isin(full, wanted))
        np.testing.assert_array_equal(decoded.isin(wanted), np.isin(full, wanted))

    def test_values_is_shared_and_read_only(self, kind):
        column, _ = _contract_column(kind, merged=False)
        assert column.values() is column.values()
        with pytest.raises(ValueError, match="read-only"):
            column.values()[0] = 0
        if kind == "plain":  # the stored array itself, not a second copy
            assert np.shares_memory(column.values(), column._encoding._values)


def test_decode_has_one_call_site_in_the_column_store():
    """Every decode-then-numpy fallback reads ``Encoding.values()``: one
    buffer, one place to count (or tag) a full decompression."""
    root = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro" / "colstore"
    sites = []
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text())
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                sites += [
                    f"{path.name}:{function.name}" for call in ast.walk(function)
                    if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                    and call.func.attr == "decode"
                ]
    assert sites == ["compression.py:values"]


class TestMergeJoinPositions:
    def _reference(self, left, right):
        pairs = [
            (i, j)
            for j, rk in enumerate(right.tolist())
            for i, lk in enumerate(left.tolist())
            if lk == rk
        ]
        return pairs

    def test_direct_and_sorted_paths_agree(self, rng):
        left = rng.integers(0, 40, 120).astype(np.int64)
        right = rng.integers(0, 40, 300).astype(np.int64)
        direct = _direct_address_positions(left, right, int(left.min()),
                                           int(left.max()) - int(left.min()) + 1)
        sorted_path = _sorted_match_positions(left, right)
        np.testing.assert_array_equal(direct[0], sorted_path[0])
        np.testing.assert_array_equal(direct[1], sorted_path[1])

    def test_matches_quadratic_reference(self, rng):
        left = rng.integers(0, 8, 25).astype(np.int64)
        right = rng.integers(0, 8, 40).astype(np.int64)
        left_positions, right_positions = merge_join_positions(left, right)
        assert sorted(zip(left_positions.tolist(), right_positions.tolist(), strict=True)) == sorted(
            self._reference(left, right)
        )

    def test_float_keys_use_sort_merge(self, rng):
        left = rng.choice(np.array([0.5, 1.5, 2.5]), 20)
        right = rng.choice(np.array([0.5, 1.5, 9.5]), 30)
        left_positions, right_positions = merge_join_positions(left, right)
        np.testing.assert_array_equal(left[left_positions], right[right_positions])
        assert sorted(zip(left_positions.tolist(), right_positions.tolist(), strict=True)) == sorted(
            self._reference(left, right)
        )

    def test_probe_keys_outside_build_range(self):
        left = np.array([5, 6, 7], dtype=np.int64)
        right = np.array([1, 5, 900, 7, -3], dtype=np.int64)
        left_positions, right_positions = merge_join_positions(left, right)
        np.testing.assert_array_equal(left[left_positions], [5, 7])
        np.testing.assert_array_equal(right_positions, [1, 3])

    def test_uint64_keys_do_not_wrap(self):
        left = np.array([-5, 1, 2], dtype=np.int64)
        right = np.array([2**64 - 5, 1], dtype=np.uint64)
        left_positions, right_positions = merge_join_positions(left, right)
        # 2**64 - 5 must not wrap to -5 and fabricate a match.
        np.testing.assert_array_equal(left[left_positions], [1])
        np.testing.assert_array_equal(right_positions, [1])

    def test_empty_sides(self):
        empty = np.empty(0, dtype=np.int64)
        keys = np.array([1, 2], dtype=np.int64)
        for left, right in ((empty, keys), (keys, empty), (empty, empty)):
            left_positions, right_positions = merge_join_positions(left, right)
            assert len(left_positions) == len(right_positions) == 0


    def test_direct_address_budget_is_proportional_to_the_inputs(self, monkeypatch):
        taken = []
        for name in ("_unique_key_positions", "_direct_address_positions",
                     "_sorted_match_positions"):
            real = getattr(query_module, name)
            monkeypatch.setattr(
                query_module, name,
                lambda *args, _name=name, _real=real: taken.append(_name) or _real(*args))

        def strategy(build_keys, probe_keys):
            """Which strategy ``merge_join_positions`` hands this join to."""
            taken.clear()
            merge_join_positions(np.asarray(build_keys, dtype=np.int64),
                                 np.asarray(probe_keys, dtype=np.int64))
            return taken

        # Two rows a side never justify a million-entry table ...
        assert strategy([0, 1_000_000], [1_000_000, 5]) == ["_sorted_match_positions"]
        # ... the floor admits small spans whatever the row count ...
        floor = _DIRECT_ADDRESS_MIN_SPAN
        assert strategy([0, floor - 1], [3]) == ["_unique_key_positions"]
        assert strategy([0, floor], [3]) == ["_sorted_match_positions"]
        # ... and past it the span may grow with build + probe rows.
        probe = np.zeros(2 * floor, dtype=np.int64)
        budget = _DIRECT_ADDRESS_SLACK * (2 + len(probe))
        assert strategy([0, budget - 1], probe) == ["_unique_key_positions"]
        assert strategy([0, budget], probe) == ["_sorted_match_positions"]
        # Duplicate build keys inside the budget expand hit ranges instead.
        assert strategy([0, 0, floor - 1], [3]) == ["_direct_address_positions"]


# --------------------------------------------------------------------------- #
# The join contract: dimension(k, d) ⋈ fact(fk, g, v) against a nested loop
# --------------------------------------------------------------------------- #

JOIN_FACT_ROWS = 400

#: Foreign-key column of the fact table: forced encoding + values.
JOIN_FOREIGN_KEYS = {
    "rle": ("rle", lambda rng, n: np.sort(rng.integers(0, 12, n))),
    "dictionary": ("dictionary", lambda rng, n: rng.integers(0, 12, n)),
    "delta-monotone": ("delta", lambda rng, n: np.cumsum(rng.integers(0, 2, n)) // 16),
    "delta-wrapping": ("delta", lambda rng, n: np.arange(n) % 12),  # GenBase's gene_id
    "plain": ("plain", lambda rng, n: rng.integers(0, 12, n)),
}

#: Build-side (dimension) keys, given the fact's distinct foreign keys.
JOIN_BUILD_KEYS = {
    "unique": lambda present: present[::-1],
    "duplicated": lambda present: np.concatenate([present, present[::3]]),
    "partly-absent": lambda present: np.concatenate(
        [present[::2], [present.max() + 3, present.max() + 9]]),
    "empty": lambda present: present[:0],
    "negative": lambda present: np.concatenate([[present.min() - 4], present]),
    "narrow-dtypes": lambda present: present[::-1].astype(np.int8),
    "span-past-budget": lambda present: np.concatenate([present, [10**9]]),
}


def _join_world(foreign_key: str, storage: str, build_keys: str) -> ColumnStore:
    """A store holding ``dim(k, d)`` and ``fact(fk, g, v)`` for one contract cell."""
    rng = np.random.default_rng(21)
    encoding, make = JOIN_FOREIGN_KEYS[foreign_key]
    fk = np.asarray(make(rng, JOIN_FACT_ROWS), dtype=np.int64)
    if build_keys == "negative":
        fk = fk - 6  # matches at negative keys too
    if build_keys == "narrow-dtypes":
        fk = fk.astype(np.uint32)
    # g numbers a row within its foreign key, so no (fk, g) pivot cell repeats.
    order = np.argsort(fk, kind="stable")
    g = np.empty(JOIN_FACT_ROWS, dtype=np.int64)
    g[order] = np.arange(JOIN_FACT_ROWS) - np.searchsorted(fk[order], fk[order])
    fact = {"fk": fk, "g": g,
            "v": rng.integers(-50, 50, JOIN_FACT_ROWS).astype(np.float64)}
    k = np.asarray(JOIN_BUILD_KEYS[build_keys](np.unique(fk)))
    store = ColumnStore()
    store.create_table("dim", {"k": k, "d": np.arange(len(k)) * 0.5})
    split = JOIN_FACT_ROWS if storage == "sealed" else JOIN_FACT_ROWS - JOIN_FACT_ROWS // 20
    store.register(ColumnTable("fact", [
        ColumnVector("fk", fk[:split], encoding=encoding),
        ColumnVector("g", g[:split]),
        ColumnVector("v", fact["v"][:split]),
    ]))
    if storage != "sealed":  # a 5 % tail ...
        store.append("fact", {name: values[split:] for name, values in fact.items()})
    if storage == "merged-deleted":  # ... and deleted rows in both parts
        store.delete("fact", [3, 50, 51, split - 1, split + 2, JOIN_FACT_ROWS - 1])
    return store


JOIN_PROBE_SIDES = {
    "unfiltered": (lambda query: query, lambda scan: scan),
    "filtered": (lambda query: query.where(col("v") >= -10),
                 lambda scan: Filter(scan, col("v") >= -10)),
    "sampled": (lambda query: query.sample(0.5, seed=3),
                lambda scan: Sample(scan, 0.5, seed=3)),
}


def _nested_loop_join(left: dict, right: dict, left_key: str, right_key: str) -> dict:
    """The oracle: every matching pair, right-major, left positions ascending."""
    matches = left[left_key][:, None] == right[right_key][None, :]
    right_rows, left_rows = np.nonzero(matches.T)
    joined = {name: values[left_rows] for name, values in left.items()}
    joined.update({name: values[right_rows] for name, values in right.items()
                   if name != right_key})
    return joined


@pytest.mark.parametrize("probe_side", list(JOIN_PROBE_SIDES))
@pytest.mark.parametrize("build_keys", list(JOIN_BUILD_KEYS))
@pytest.mark.parametrize("storage", ["sealed", "merged", "merged-deleted"])
@pytest.mark.parametrize("foreign_key", list(JOIN_FOREIGN_KEYS))
class TestJoinContract:
    """One join contract over every foreign-key encoding, storage tier, build-key
    shape and probe-side narrowing the column store can meet, with the
    dimension on either side of the join."""

    def test_materialise_join_equals_the_nested_loop(self, foreign_key, storage,
                                                     build_keys, probe_side):
        store = _join_world(foreign_key, storage, build_keys)
        narrow, _ = JOIN_PROBE_SIDES[probe_side]
        dim, fact = store.query("dim"), narrow(store.query("fact"))
        dim_rows = dim.columns(["k", "d"])
        fact_rows = fact.columns(["fk", "g", "v"])
        for left, right, keys, rows in (
            (dim, fact, ("k", "fk"), (dim_rows, fact_rows)),
            (fact, dim, ("fk", "k"), (fact_rows, dim_rows)),
        ):
            joined = materialise_join(left, right, *keys, compress=False)
            expected = _nested_loop_join(*rows, *keys)
            assert joined.column_names == list(expected)
            for name, values in expected.items():
                np.testing.assert_array_equal(joined.values(name), values)
                assert joined.values(name).dtype == values.dtype

    def test_fused_terminals_equal_the_plan_as_written(self, foreign_key, storage,
                                                       build_keys, probe_side):
        store = _join_world(foreign_key, storage, build_keys)
        narrow, narrow_plan = JOIN_PROBE_SIDES[probe_side]
        joined = Join(Scan("dim"), narrow_plan(Scan("fact")), "k", "fk")
        rows = _nested_loop_join(store.query("dim").columns(["k", "d"]),
                                 narrow(store.query("fact")).columns(["fk", "g", "v"]),
                                 "k", "fk")
        row_labels, row_codes = np.unique(rows["k"], return_inverse=True)
        column_labels, column_codes = np.unique(rows["g"], return_inverse=True)
        matrix = np.zeros((len(row_labels), len(column_labels)))
        matrix[row_codes, column_codes] = rows["v"]
        terminals = {
            Pivot(joined, "k", "g", "v"): (matrix, row_labels, column_labels),
            Aggregate(joined, "g", "v", "sum"): (
                column_labels,
                np.bincount(column_codes, weights=rows["v"], minlength=len(column_labels))),
        }
        for plan, expected in terminals.items():
            for optimized in (True, False):
                answer = run_plan(plan, store, optimized=optimized)
                for part, wanted in zip(answer, expected, strict=True):
                    np.testing.assert_array_equal(part, wanted)
                    assert part.dtype == wanted.dtype


class TestColumnVectorAndTable:
    def test_vector_cache_and_take(self, rng):
        values = rng.integers(0, 5, 1000)
        column = ColumnVector("x", values)
        np.testing.assert_array_equal(column.values(), values)
        np.testing.assert_array_equal(column.take(np.array([3, 7])), values[[3, 7]])
        assert column.encoded_bytes > 0

    def test_vector_validation(self, rng):
        with pytest.raises(ValueError):
            ColumnVector("", rng.random(5))
        with pytest.raises(ValueError):
            ColumnVector("x", rng.random((5, 2)))

    def test_table_construction_checks(self, rng):
        with pytest.raises(ValueError):
            ColumnTable("t", [ColumnVector("a", rng.random(3)), ColumnVector("a", rng.random(3))])
        with pytest.raises(ValueError):
            ColumnTable("t", [ColumnVector("a", rng.random(3)), ColumnVector("b", rng.random(4))])
        with pytest.raises(ValueError):
            ColumnTable("t", [])

    def test_table_from_arrays_and_rows(self, rng):
        table = ColumnTable.from_arrays("t", {"a": np.arange(5), "b": rng.random(5)})
        assert table.row_count == 5
        assert table.column_names == ["a", "b"]
        assert table.values("a").tolist() == list(range(5))
        assert table.compressed_bytes > 0
        assert all(table.column(name).encoding_name for name in table.column_names)

    def test_gather_with_indices(self, rng):
        table = ColumnTable.from_arrays("t", {"a": np.arange(10), "b": rng.random(10)})
        gathered = table.gather(["a"], indices=np.array([2, 4]))
        np.testing.assert_array_equal(gathered["a"], [2, 4])


class TestColumnQuery:
    @pytest.fixture()
    def store(self, tiny_dataset) -> ColumnStore:
        store = ColumnStore()
        micro = tiny_dataset.microarray_relational()
        store.create_table(
            "microarray",
            {
                "gene_id": micro[:, 0].astype(np.int64),
                "patient_id": micro[:, 1].astype(np.int64),
                "expression_value": micro[:, 2],
            },
        )
        store.create_table(
            "genes",
            {
                "gene_id": tiny_dataset.genes.gene_id,
                "function": tiny_dataset.genes.function,
            },
        )
        store.create_table(
            "patients",
            {
                "patient_id": tiny_dataset.patients.patient_id,
                "disease_id": tiny_dataset.patients.disease_id,
            },
        )
        return store

    def test_where_narrows_selection(self, store, tiny_dataset):
        query = store.query("genes").where(col("function") < 10)
        expected = int(np.sum(tiny_dataset.genes.function < 10))
        assert len(query) == expected

    def test_isin_and_chaining(self, store):
        query = (
            store.query("microarray")
            .where(col("gene_id").isin([0, 1, 2]))
            .where(col("expression_value") > 0)
        )
        assert np.all(np.isin(query.column("gene_id"), [0, 1, 2]))

    def test_isin_accepts_ndarray_and_dedupes(self, store):
        reference = store.query("microarray").where(col("gene_id").isin([0, 1, 2])).selection
        for keys in (
            np.array([0, 1, 2], dtype=np.int64),
            np.array([2, 0, 1, 1, 2, 0, 0]),  # duplicated, unsorted
            iter([0, 1, 2, 2]),               # any iterable still works
        ):
            np.testing.assert_array_equal(
                store.query("microarray").where(col("gene_id").isin(keys)).selection, reference
            )

    def test_isin_chained_after_filter(self, store):
        narrowed = store.query("microarray").where(col("expression_value") > 0)
        chained = narrowed.where(col("gene_id").isin(np.array([0, 1])))
        assert np.all(np.isin(chained.column("gene_id"), [0, 1]))
        assert np.all(chained.column("expression_value") > 0)

    def test_isin_empty_values_returns_empty_selection(self, store):
        """An empty key list (a float64 array once converted) selects nothing
        on string and int columns alike."""
        table = ColumnTable.from_arrays(
            "mixed",
            {
                "label": np.array(["a", "b", "a", "c"] * 25),
                "count": np.arange(100, dtype=np.int64),
            },
        )
        for column, empty in (("label", []), ("count", []), ("count", iter(()))):
            query = ColumnQuery(table).where(col(column).isin(empty))
            assert len(query) == 0
            assert query.selection.dtype == np.int64
        # Also after a narrowing filter, and with an empty ndarray.
        narrowed = ColumnQuery(table).where(col("count") > 10)
        assert len(narrowed.where(col("label").isin(np.array([], dtype=np.float64)))) == 0
        # An unknown column still raises even when the key set is empty.
        with pytest.raises(KeyError):
            ColumnQuery(table).where(col("missing").isin([]))

    def test_where_predicate_shape_check(self, store):
        # Filters are lazy: the shape check fires when the selection is
        # first materialised, not at .where() time.
        query = store.query("genes").where(lit(np.array([True])))
        with pytest.raises(ValueError):
            len(query)

    def test_sample_deterministic(self, store):
        first = store.query("patients").sample(0.2, seed=3).column("patient_id")
        second = store.query("patients").sample(0.2, seed=3).column("patient_id")
        np.testing.assert_array_equal(first, second)
        with pytest.raises(ValueError):
            store.query("patients").sample(0.0)

    @staticmethod
    def _stable_sort_rule(scores, selection, fraction):
        """The parent's ``sample`` body, written out: a full stable argsort."""
        rows = np.sort(selection)
        n_keep = max(1, int(round(fraction * len(rows)))) if len(rows) else 0
        return np.sort(rows[np.argsort(scores[rows], kind="stable")[:n_keep]])

    SAMPLE_FRACTIONS = (1e-4, 1e-3, 0.01, 0.05, 0.3, 0.5, 0.999, 1.0)

    @pytest.mark.parametrize("shape", ["full", "unsorted", "filtered", "one-row", "empty"])
    def test_sample_keeps_the_rows_of_the_stable_sort_rule(self, shape):
        n = 20_000
        table = ColumnTable.from_arrays("t", {"x": np.arange(n) % 97})
        rng = np.random.default_rng(8)
        query = {
            "full": lambda: ColumnQuery(table),
            "unsorted": lambda: ColumnQuery(table, rng.permutation(n)[:7_001]),
            "filtered": lambda: ColumnQuery(table).where(col("x") < 40),
            "one-row": lambda: ColumnQuery(table, np.array([4_321])),
            "empty": lambda: ColumnQuery(table).where(col("x") < 0),
        }[shape]()
        for seed in (0, 3):
            scores = np.random.default_rng(seed).random(n)
            for fraction in self.SAMPLE_FRACTIONS:
                kept = query.sample(fraction, seed).selection
                np.testing.assert_array_equal(
                    kept, self._stable_sort_rule(scores, query.selection, fraction))
                assert kept.dtype == np.int64

    def test_sample_breaks_score_ties_by_row_position(self, monkeypatch):
        """Duplicate scores straddling the threshold: the kept rows are the
        stable sort's, i.e. the lowest positions among the tied."""
        n = 600
        tied = np.random.default_rng(21).integers(0, 6, n) / 8.0  # ~100 rows per score

        class Tied:
            def random(self, size):
                assert size == n
                return tied

        monkeypatch.setattr(np.random, "default_rng", lambda seed: Tied())
        table = ColumnTable.from_arrays("t", {"x": np.arange(n)})
        reversed_rows = ColumnQuery(table, np.arange(n)[::-1])
        narrowed = ColumnQuery(table, np.flatnonzero(np.arange(n) % 3 > 0))
        for query in (ColumnQuery(table), reversed_rows, narrowed):
            for n_keep in (1, 2, 99, 100, 101, 250, len(query) - 1, len(query)):
                fraction = n_keep / len(query)
                expected = self._stable_sort_rule(tied, query.selection, fraction)
                assert len(expected) == n_keep
                np.testing.assert_array_equal(
                    query.sample(fraction, seed=0).selection, expected)

    def test_smallest_scored_is_the_head_of_a_stable_argsort(self):
        rng = np.random.default_rng(2)
        for scores in (rng.random(257), rng.integers(0, 4, 257) / 4.0, np.zeros(9),
                       np.empty(0)):
            for n_keep in range(len(scores) + 2):
                np.testing.assert_array_equal(
                    query_module.smallest_scored(scores, n_keep),
                    np.sort(np.argsort(scores, kind="stable")[:n_keep]))

    def test_unfiltered_column_is_caller_owned(self, store):
        query = store.query("microarray")
        for name in query.table.column_names:
            shared = query.table.column(name).values()
            expected = shared.copy()
            for owned in (query.column(name), query.columns([name])[name]):
                assert owned.flags.writeable
                assert not np.shares_memory(owned, shared)
                owned[...] = 0  # scribbling on a result must not reach the store
            np.testing.assert_array_equal(query.column(name), expected)
        # ... and none of it built a full-table selection vector to gather through.
        assert len(query) == query.table.row_count and query._cached is None

    def test_join_matches_reference(self, store, tiny_dataset):
        threshold = 10
        genes = store.query("genes").where(col("function") < threshold)
        _, counts = genes.select("gene_id").join(
            store.query("microarray"), "gene_id", "gene_id",
        ).group_aggregate("gene_id", "expression_value", "count")
        expected_genes = int(np.sum(tiny_dataset.genes.function < threshold))
        assert counts.sum() == expected_genes * tiny_dataset.n_patients

    def test_pivot_matches_source(self, store, tiny_dataset):
        matrix, rows, cols = store.query("microarray").pivot(
            "patient_id", "gene_id", "expression_value"
        )
        np.testing.assert_allclose(matrix, tiny_dataset.expression_matrix, atol=1e-12)
        np.testing.assert_array_equal(rows, np.arange(tiny_dataset.n_patients))

    def test_group_aggregate_functions(self, store, tiny_dataset):
        keys, means = store.query("microarray").group_aggregate(
            "gene_id", "expression_value", "mean"
        )
        np.testing.assert_allclose(means, tiny_dataset.expression_matrix.mean(axis=0), atol=1e-12)
        _, counts = store.query("microarray").group_aggregate(
            "gene_id", "expression_value", "count"
        )
        assert np.all(counts == tiny_dataset.n_patients)
        _, minimums = store.query("microarray").group_aggregate(
            "gene_id", "expression_value", "min"
        )
        np.testing.assert_allclose(minimums, tiny_dataset.expression_matrix.min(axis=0), atol=1e-12)
        with pytest.raises(ValueError):
            store.query("microarray").group_aggregate("gene_id", "expression_value", "median")


ENCODING_NAMES = ("plain", "rle", "dictionary", "delta")


class TestAggregationPushdown:
    """Aggregation on narrowed selections, forced through every encoding."""

    def _table(self, encoding_name: str) -> ColumnTable:
        rng = np.random.default_rng(42)
        n = 400
        groups = np.sort(rng.integers(0, 12, n))  # sorted: valid for delta too
        others = rng.integers(0, 5, n)
        values = rng.integers(-50, 50, n).astype(np.float64)
        return ColumnTable(
            "t",
            [
                ColumnVector("g", groups, encoding=encoding_name),
                ColumnVector("c", others),
                ColumnVector("v", values),
            ],
        )

    @staticmethod
    def _reference_aggregate(groups, values, function):
        keys, inverse = np.unique(groups, return_inverse=True)
        if function == "min":
            result = np.full(len(keys), np.inf)
            np.minimum.at(result, inverse, values)
        else:
            result = np.full(len(keys), -np.inf)
            np.maximum.at(result, inverse, values)
        return keys, result

    @pytest.mark.parametrize("encoding_name", ENCODING_NAMES)
    @pytest.mark.parametrize("function", ["min", "max"])
    def test_group_aggregate_min_max_on_narrowed_selection(self, encoding_name, function):
        table = self._table(encoding_name)
        query = ColumnQuery(table).where(col("v") > 0)
        assert 0 < len(query) < table.row_count  # genuinely narrowed
        keys, aggregates = query.group_aggregate("g", "v", function)
        expected_keys, expected = self._reference_aggregate(
            query.column("g"), query.column("v"), function
        )
        np.testing.assert_array_equal(keys, expected_keys)
        np.testing.assert_array_equal(aggregates, expected)

    @pytest.mark.parametrize("encoding_name", ENCODING_NAMES)
    def test_pivot_on_narrowed_selection(self, encoding_name):
        table = self._table(encoding_name)
        query = ColumnQuery(table).where(col("v") <= 0)
        assert 0 < len(query) < table.row_count
        matrix, row_labels, column_labels = query.pivot("g", "c", "v")
        rows, cols, values = query.column("g"), query.column("c"), query.column("v")
        expected_rows, row_positions = np.unique(rows, return_inverse=True)
        expected_cols, column_positions = np.unique(cols, return_inverse=True)
        expected = np.zeros((len(expected_rows), len(expected_cols)))
        expected[row_positions, column_positions] = values
        np.testing.assert_array_equal(row_labels, expected_rows)
        np.testing.assert_array_equal(column_labels, expected_cols)
        np.testing.assert_array_equal(matrix, expected)

    @pytest.mark.parametrize("encoding_name", ENCODING_NAMES)
    def test_pivot_duplicate_cells_are_last_write_wins(self, encoding_name):
        """Duplicate (row, column) pairs keep the *last* value in selection
        order — documented behaviour, pinned per encoding."""
        rows = np.array([0, 0, 1, 0], dtype=np.int64)
        cols = np.array([2, 2, 3, 3], dtype=np.int64)
        values = np.array([1.0, 7.5, 3.0, 4.25])
        table = ColumnTable(
            "dup",
            [
                ColumnVector("r", rows, encoding=encoding_name),
                ColumnVector("c", cols),
                ColumnVector("v", values),
            ],
        )
        matrix, row_labels, column_labels = ColumnQuery(table).pivot("r", "c", "v")
        np.testing.assert_array_equal(row_labels, [0, 1])
        np.testing.assert_array_equal(column_labels, [2, 3])
        # (0, 2) appears twice: 1.0 then 7.5 — the later row wins.
        np.testing.assert_array_equal(matrix, [[7.5, 4.25], [0.0, 3.0]])

    @pytest.mark.parametrize("encoding_name", ENCODING_NAMES)
    def test_returned_keys_are_safe_to_mutate(self, encoding_name):
        """group_aggregate/pivot/distinct must never leak a mutable alias of
        encoding state (the dictionary itself) out of the query layer."""
        table = self._table(encoding_name)
        original = table.column("g").values().copy()
        query = ColumnQuery(table)
        keys, _ = query.group_aggregate("g", "v", "count")
        keys += 100
        matrix, row_labels, column_labels = query.pivot("g", "c", "v")
        row_labels += 100
        column_labels += 100
        query.distinct("g")[:] = -1
        np.testing.assert_array_equal(table.column("g").values(), original)
        np.testing.assert_array_equal(
            query.group_aggregate("g", "v", "count")[0], np.unique(original)
        )

    @pytest.mark.parametrize("encoding_name", ENCODING_NAMES)
    def test_count_needs_no_values(self, encoding_name):
        """count never reads the value column: group_reduce accepts None."""
        table = self._table(encoding_name)
        keys, counts = table.column("g").group_reduce(None, "count")
        expected_keys, expected_inverse = np.unique(
            table.column("g").values(), return_inverse=True
        )
        np.testing.assert_array_equal(keys, expected_keys)
        np.testing.assert_array_equal(
            counts, np.bincount(expected_inverse, minlength=len(expected_keys))
        )

    @pytest.mark.parametrize("encoding_name", ENCODING_NAMES)
    def test_distinct_matches_unique(self, encoding_name):
        table = self._table(encoding_name)
        full = ColumnQuery(table)
        np.testing.assert_array_equal(
            full.distinct("g"), np.unique(full.column("g"))
        )
        narrowed = full.where(col("v") > 0)
        np.testing.assert_array_equal(
            narrowed.distinct("g"), np.unique(narrowed.column("g"))
        )

    @pytest.mark.parametrize("encoding_name", ENCODING_NAMES)
    def test_narrowed_selection_drops_absent_group_keys(self, encoding_name):
        table = self._table(encoding_name)
        # Narrow to one group value: every other key must vanish, exactly as
        # np.unique over the gathered rows would report.
        query = ColumnQuery(table).where(col("g") == 3)
        keys, counts = query.group_aggregate("g", "v", "count")
        np.testing.assert_array_equal(keys, [3])
        assert counts[0] == len(query)


class TestColumnStoreCatalog:
    def test_create_and_register(self, rng):
        store = ColumnStore()
        store.create_table("t", {"x": np.arange(3)})
        with pytest.raises(ValueError):
            store.create_table("t", {"x": np.arange(3)})
        other = ColumnTable.from_arrays("u", {"y": rng.random(4)})
        store.register(other)
        assert set(store.table_names()) == {"t", "u"}
        with pytest.raises(KeyError):
            store.table("v")
        assert store.total_compressed_bytes() > 0
        assert store.live_row_count("t") == 3

    def test_unknown_table_message(self):
        with pytest.raises(KeyError, match="known tables"):
            ColumnStore().query("missing")


class TestUdfHost:
    def test_marshalling_copies_are_counted(self, rng):
        host = UdfHost()
        matrix = rng.random((50, 4))
        result = host.call("covariance", matrix)
        np.testing.assert_allclose(result, np.cov(matrix, rowvar=False), atol=1e-10)
        assert host.total_bytes_marshalled == matrix.nbytes * host.copies_per_call
        assert host.calls[0].name == "covariance"

    def test_register_additional_udf(self):
        host = UdfHost()
        host.register("sum", lambda m: float(np.sum(m)))
        assert host.call("sum", np.ones(5)) == pytest.approx(5.0)
        with pytest.raises(ValueError):
            host.register("sum", lambda m: 0.0)

    def test_marshalling_does_not_mutate_input(self, rng):
        host = UdfHost()
        matrix = rng.random((10, 3))
        original = matrix.copy()
        host.call("covariance", matrix)
        np.testing.assert_array_equal(matrix, original)
