"""Tests for the MapReduce engine, the Hive layer and the Mahout layer."""

from __future__ import annotations

import dataclasses
import math
import pickle
from itertools import pairwise

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import BenchmarkRunner
from repro.core.engines import make_engine
from repro.core.spec import QUERY_NAMES
from repro.fuzz.reference import run_reference
from repro.mapreduce import HiveTable, Mahout, MapReduceEngine, MapReduceJob
from repro.mapreduce.bridge import (
    HiveBackend,
    _projector,
    run_shared_plan,
)
from repro.mapreduce.engine import JobCounters, JobResult, _sort_by_key
from repro.plan import Aggregate, Filter, Join, Pivot, Project, Scan, col


def word_count_job() -> MapReduceJob:
    def mapper(line):
        for word in line.split():
            yield (word, 1)

    def reducer(word, counts):
        yield (word, sum(counts))

    return MapReduceJob("wordcount", mapper, reducer, combiner=reducer)


class TestEngine:
    def test_word_count(self):
        engine = MapReduceEngine(n_splits=3)
        output = dict(engine.run(word_count_job(), ["a b a", "b c", "a"]))
        assert output == {"a": 3, "b": 2, "c": 1}

    def test_counters_populated(self):
        engine = MapReduceEngine(n_splits=2)
        engine.run(word_count_job(), ["x y", "y z", "z z"])
        counters = engine.history[-1].counters
        assert counters.map_input_records == 3
        assert counters.map_output_records == 6
        assert counters.reduce_input_groups == 3
        assert counters.shuffle_bytes > 0
        assert counters.splits == 2
        # The history keeps name + counters only; run() returned the output.
        assert not hasattr(engine.history[-1], "output")

    def test_combiner_reduces_shuffle_volume(self):
        records = ["a a a a a a a a"] * 20
        with_combiner = MapReduceEngine(n_splits=2)
        with_combiner.run(word_count_job(), records)
        job = word_count_job()
        without = MapReduceEngine(n_splits=2)
        without.run(MapReduceJob("nc", job.mapper, job.reducer, combiner=None), records)
        assert (
            with_combiner.history[-1].counters.shuffle_bytes
            < without.history[-1].counters.shuffle_bytes
        )

    def test_empty_input(self):
        engine = MapReduceEngine()
        assert engine.run(word_count_job(), []) == []

    def test_jobs_feed_outputs_forward(self):
        engine = MapReduceEngine(n_splits=2)

        def second_mapper(pair):
            word, count = pair
            yield ("total", count)

        def second_reducer(key, values):
            yield (key, sum(values))

        counts = engine.run(word_count_job(), ["a b", "a"])
        output = dict(engine.run(MapReduceJob("sum", second_mapper, second_reducer), counts))
        assert output == {"total": 3}
        assert len(engine.history) == 2
        assert sum(job.counters.shuffle_bytes for job in engine.history) > 0

    def test_invalid_split_count(self):
        with pytest.raises(ValueError):
            MapReduceEngine(n_splits=0)

    def test_shuffle_sorts_keys(self):
        engine = MapReduceEngine(n_splits=1)

        def mapper(record):
            yield (record, 1)

        def reducer(key, values):
            yield (key, sum(values))

        output = engine.run(MapReduceJob("sort", mapper, reducer), [3, 1, 2, 1])
        assert [key for key, _ in output] == [1, 2, 3]


_INTS = st.integers(-3, 3)
_TEXT = st.text(alphabet="ab", max_size=2)
_FLOATS = st.one_of(st.floats(-2, 2), st.sampled_from([-0.0, 0.0, math.inf, -math.inf, math.nan]))
_SCALARS = st.one_of(_INTS, st.booleans(), _FLOATS, _TEXT, st.none(),
                     _INTS.map(np.int64), _FLOATS.map(np.float64))
_ANY_KEY = st.recursive(_SCALARS, lambda items: st.lists(items, max_size=3).map(tuple),
                        max_leaves=6)
#: Keys of another class that compare equal to an ``int`` or raise against one.
_INTRUDERS = st.sampled_from([st.booleans(), _INTS.map(np.int64), _INTS.map(float), st.none()])


def _mixed(family, intruder):
    """``family`` keys with at least one ``intruder`` key shuffled in."""
    return st.tuples(st.lists(family, min_size=1, max_size=15),
                     st.lists(intruder, min_size=1, max_size=15)).flatmap(
        lambda parts: st.permutations(parts[0] + parts[1]))


#: Homogeneous key families (NaN among the floats), tuples whose items
#: may not compare, the int families with one intruding class (a tuple's
#: second item for the pairs), and arbitrary mixes of every kind, nested
#: and ragged tuples, NaN items among them.
_KEY_LISTS = st.one_of(
    st.lists(_INTS, max_size=30),
    st.lists(_TEXT, max_size=30),
    st.lists(_FLOATS, max_size=30),
    st.lists(st.none(), max_size=5),
    st.lists(st.lists(_INTS | _TEXT, max_size=3).map(tuple), max_size=30),
    _INTRUDERS.flatmap(lambda other: _mixed(_INTS, other)),
    _INTRUDERS.flatmap(lambda other: _mixed(st.tuples(_INTS, _INTS), st.tuples(_INTS, other))),
    st.lists(_ANY_KEY, max_size=30),
)


def _holds_nan(key) -> bool:
    if isinstance(key, tuple):
        return any(map(_holds_nan, key))
    return isinstance(key, float) and math.isnan(key)


class TestShuffleOrder:
    """``_sort_by_key``: one key class per job, sorted in its native order."""

    @given(_KEY_LISTS)
    @settings(max_examples=300, deadline=None)
    def test_native_order_or_an_error_naming_the_job(self, keys):
        pairs = [(key, index) for index, key in enumerate(keys)]
        emitted = list(pairs)
        if len({type(key) for key in keys}) > 1:
            with pytest.raises(TypeError, match="job 'shuffle-test': .* more than one class"):
                _sort_by_key(pairs, "shuffle-test")
            return
        if any(map(_holds_nan, keys)):
            with pytest.raises(ValueError, match="job 'shuffle-test': .* NaN"):
                _sort_by_key(pairs, "shuffle-test")
            return
        try:
            got = _sort_by_key(pairs, "shuffle-test")
        except TypeError as error:
            assert "job 'shuffle-test'" in str(error)
            with pytest.raises((TypeError, ValueError)):
                sorted(keys)  # the keys themselves have no order
            return
        assert pairs == emitted and got is not pairs  # sorted into a new list
        assert sorted(map(id, got)) == sorted(map(id, pairs))
        if keys and keys[0] is None:
            assert got == emitted  # all keys equal: the emission order
            return
        # Ordered and stable: equal keys, tuples whose items differ in class
        # but compare equal among them, keep their emission order.
        for (key_a, index_a), (key_b, index_b) in pairwise(got):
            assert not key_b < key_a
            if key_a == key_b:
                assert index_a < index_b

    @pytest.mark.parametrize("keys", [
        [1, 2.0], [np.int64(2), 1], [1, True], [None, 0], [(1,), 1],
    ], ids=["int-float", "numpy", "bool", "none", "tuple"])
    def test_keys_of_two_classes_fail_the_job(self, keys):
        with pytest.raises(TypeError, match="job 'mixed': .* more than one class"):
            _sort_by_key([(key, index) for index, key in enumerate(keys)], "mixed")

    @pytest.mark.parametrize("keys", [
        [1.0, math.nan, 0.0],
        [np.float64(1), np.float64(math.nan)],
        [(1, 1.0), (1, math.nan), (0, 2.0)],
        [(2, (0.5,)), (1, (math.nan,))],
    ], ids=["float", "numpy", "tuple-item", "nested-item"])
    def test_nan_key_fails_the_job(self, keys):
        with pytest.raises(ValueError, match="job 'nan': a map output key is or holds NaN"):
            _sort_by_key([(key, index) for index, key in enumerate(keys)], "nan")

    def test_tuple_items_of_another_class_that_compare_equal_share_a_group(self):
        pairs = [((1, 1), "a"), ((0, 5), "b"), ((1, True), "c"), ((1, 1.0), "d")]
        grouped = MapReduceEngine._group(_sort_by_key(pairs, "pairs"))
        assert grouped == [((0, 5), ["b"]), ((1, 1), ["a", "c", "d"])]

    def test_tuple_keys_that_do_not_compare_fail_the_job(self):
        keys = [(5,), (4,), (3,), (2, 7), (1, "a"), (0,), (1, 2), (1, "b"), (1, 1)]
        with pytest.raises(TypeError, match="job 'tuples': map output keys do not sort"):
            _sort_by_key([(key, index) for index, key in enumerate(keys)], "tuples")

    def test_engine_fails_a_job_whose_mapper_mixes_key_classes(self):
        def mapper(record):
            yield (record, record)

        def reducer(key, values):
            yield (key, len(values))

        engine = MapReduceEngine(n_splits=2)
        with pytest.raises(TypeError, match="job 'ids': .* float, int"):
            engine.run(MapReduceJob("ids", mapper, reducer), [3, 1.0, 2, 1])
        assert engine.run(MapReduceJob("ids", mapper, reducer), [3, 1, 2, 1]) == [
            (1, 2), (2, 1), (3, 1)]


    def test_map_only_job_returns_the_map_output_in_input_order(self):
        def mapper(record):
            if record % 3:
                yield (record, -record)

        records = [5, 3, 7, 1, 9, 2, 4]
        engine = MapReduceEngine(n_splits=3)
        output = engine.run(MapReduceJob("keep", mapper), records)
        assert output == [(5, -5), (7, -7), (1, -1), (2, -2), (4, -4)]  # unsorted
        counters = engine.history[-1].counters
        assert (counters.splits, counters.map_input_records,
                counters.map_output_records) == (3, 7, 5)
        assert counters.shuffle_bytes == counters.reduce_input_groups == 0
        assert counters.reduce_output_records == 0


def _reference_run(self: MapReduceEngine, job: MapReduceJob, records):
    """The per-pair loop ``MapReduceEngine.run`` used before it collected
    each phase's output with one ``chain.from_iterable`` call: the oracle
    for the framework loop, which must not change a pair or a counter."""
    counters = JobCounters()
    splits = self._make_splits(records)
    counters.splits = len(splits)
    output = []
    spilled_splits = []
    for split in splits:
        pairs = []
        for record in split:
            counters.map_input_records += 1
            for pair in job.mapper(record):
                pairs.append(pair)
                counters.map_output_records += 1
        if job.reducer is None:
            output.extend(pairs)
            continue
        if job.combiner is not None:
            grouped = self._group(_sort_by_key(pairs, job.name))
            pairs = []
            for key, values in grouped:
                pairs.extend(job.combiner(key, values))
            counters.combine_output_records += len(pairs)
        spill = pickle.dumps(pairs)
        counters.shuffle_bytes += len(spill)
        spilled_splits.append(spill)
    if job.reducer is None:
        self.history.append(JobResult(name=job.name, counters=counters))
        return output
    merged = []
    for spill in spilled_splits:
        merged.extend(pickle.loads(spill))
    groups = self._group(_sort_by_key(merged, job.name))
    counters.reduce_input_groups = len(groups)
    for key, values in groups:
        for pair in job.reducer(key, values):
            output.append(pair)
            counters.reduce_output_records += 1
    self.history.append(JobResult(name=job.name, counters=counters))
    return output


def _history(engine: MapReduceEngine) -> list[tuple[str, dict]]:
    return [(job.name, dataclasses.asdict(job.counters)) for job in engine.history]


def _emit(form: str, pairs: list):
    """``pairs`` as a mapper, combiner or reducer of ``form`` returns them."""
    if form == "generator":
        return (pair for pair in pairs)
    if form == "list":
        return list(pairs)
    if form == "tuple":
        return tuple(pairs)
    return ()  # "nothing": every call drops its input


def _forms_job(form: str, kind: str) -> MapReduceJob:
    """A job whose functions return ``form``; records emit 0, 1 or 2 pairs."""
    def mapper(record):
        return _emit(form, [(record % 4, record), (record % 4, -record)][:record % 3])

    def reducer(key, values):
        return _emit(form, [(key, sum(values)), (key, len(values))])

    if kind == "map-only":
        return MapReduceJob("forms", mapper)
    return MapReduceJob("forms", mapper, reducer, combiner=reducer)


def _run_hadoop_queries(dataset):
    """Every GenBase query on a fresh Hadoop engine, and its job history."""
    hadoop = make_engine("hadoop")
    hadoop.load(dataset)
    runner = BenchmarkRunner()
    results = [runner.run(query, hadoop, dataset) for query in QUERY_NAMES]
    return results, _history(hadoop.mr_engine)


class TestFrameworkLoop:
    """``MapReduceEngine.run`` against the per-pair reference loop."""

    def test_hadoop_queries_match_the_reference_loop(self, tiny_dataset, monkeypatch):
        results, history = _run_hadoop_queries(tiny_dataset)
        monkeypatch.setattr(MapReduceEngine, "run", _reference_run)
        expected, expected_history = _run_hadoop_queries(tiny_dataset)
        assert [r.status for r in results] == [r.status for r in expected]
        assert [r.status.value for r in results].count("ok") == 4  # no biclustering
        for got, want in zip(results, expected, strict=True):
            if want.output is None:
                assert got.output is None
                continue
            assert pickle.dumps(got.output.summary) == pickle.dumps(want.output.summary)
            assert pickle.dumps(got.output.payload) == pickle.dumps(want.output.payload)
        assert history == expected_history
        assert {name for name, _ in history} >= {
            "shared_join(genes,microarray)", "scan(patients)", "mahout-covariance"}

    @pytest.mark.parametrize("form", ["generator", "list", "tuple", "nothing"])
    @pytest.mark.parametrize("kind", ["map-only", "reduce"])
    def test_any_iterable_gives_the_reference_output_and_counters(self, form, kind):
        records = list(range(23))
        engine, reference = MapReduceEngine(n_splits=3), MapReduceEngine(n_splits=3)
        output = engine.run(_forms_job(form, kind), records)
        assert output == _reference_run(reference, _forms_job(form, kind), records)
        assert _history(engine) == _history(reference)
        if form == "nothing":
            assert output == []
            return
        generator = MapReduceEngine(n_splits=3)
        assert generator.run(_forms_job("generator", kind), records) == output
        assert _history(generator) == _history(engine)


class TestHive:
    @pytest.fixture()
    def engine(self) -> MapReduceEngine:
        return MapReduceEngine(n_splits=2)

    @pytest.fixture()
    def genes(self) -> HiveTable:
        return HiveTable(
            "genes", ("gene_id", "function"),
            [(0, 5), (1, 15), (2, 25), (3, 8), (4, 40)],
        )

    @pytest.fixture()
    def micro(self) -> HiveTable:
        rows = [(g, p, float(g * 10 + p)) for g in range(5) for p in range(3)]
        return HiveTable("micro", ("gene_id", "patient_id", "value"), rows)

    def test_table_validation_and_accessors(self, genes):
        assert len(genes) == 5
        assert genes.index_of("function") == 1
        with pytest.raises(KeyError):
            genes.index_of("nope")
        with pytest.raises(ValueError):
            HiveTable("bad", ("a", "a"), [])
        with pytest.raises(ValueError):
            HiveTable.from_columns("bad", {"a": np.ones(2), "b": np.ones(3)})

    def test_from_columns_keeps_each_column_dtype(self):
        table = HiveTable.from_columns(
            "t", {"id": np.array([2, 1], dtype=np.int64), "value": np.array([0.5, 1.5])})
        assert table.columns == ("id", "value")
        assert table.rows == [(2, 0.5), (1, 1.5)]
        assert [type(cell) for cell in table.rows[0]] == [int, float]

    @pytest.fixture()
    def tables(self, genes, micro) -> dict[str, HiveTable]:
        return {"genes": genes, "micro": micro}

    def test_select_runs_as_one_map_only_job(self, engine, tables):
        selected = run_shared_plan(Filter(Scan("genes"), col("function") < 10),
                                   tables, engine)
        assert selected.rows == [(0, 5), (3, 8)]
        [job] = engine.history
        assert job.counters.shuffle_bytes == job.counters.reduce_input_groups == 0

    def test_project(self, engine, tables):
        projected = run_shared_plan(Project(Scan("genes"), ("function",)), tables, engine)
        assert projected.columns == ("function",)
        assert [row[0] for row in projected.rows] == [5, 15, 25, 8, 40]  # input order

    def test_unprojected_scan_runs_no_job(self, engine, tables, genes):
        assert run_shared_plan(Scan("genes"), tables, engine) is genes
        assert engine.history == []

    def test_join_matches_expected_cardinality(self, engine, tables):
        plan = Join(Project(Filter(Scan("genes"), col("function") < 10), ("gene_id",)),
                    Scan("micro"), "gene_id", "gene_id")
        joined = run_shared_plan(plan, tables, engine)
        assert len(joined) == 2 * 3
        # The shared join output: left columns, then right minus its key.
        assert joined.columns == ("gene_id", "patient_id", "value")
        [job] = engine.history
        assert job.counters.map_output_records == 2 + 15  # filtered before the spill

    def test_filter_over_a_join_runs_map_only_after_it(self, engine, tables):
        plan = Filter(Join(Scan("genes"), Scan("micro"), "gene_id", "gene_id"),
                      col("value") > 30)
        joined = run_shared_plan(plan, tables, engine, optimized=False)
        assert sorted(row[3] for row in joined.rows) == [31.0, 32.0, 40.0, 41.0, 42.0]
        assert [job.name for job in engine.history] == [
            "shared_join(genes,micro)", "scan(join_result)"]
        assert engine.history[1].counters.shuffle_bytes == 0

    def test_hadoop_q1_lookup_runs_one_map_only_job(self, tiny_dataset):
        hadoop = make_engine("hadoop")
        hadoop.load(tiny_dataset)
        BenchmarkRunner().run("regression", hadoop, tiny_dataset)
        hive_jobs = [job for job in hadoop.mr_engine.history
                     if not job.name.startswith("mahout-")]
        assert [job.name for job in hive_jobs] == [
            "shared_join(genes,microarray)", "scan(patients)"]
        lookup = hive_jobs[1].counters
        assert lookup.map_output_records == tiny_dataset.spec.n_patients
        assert lookup.shuffle_bytes == lookup.reduce_input_groups == 0

    def test_only_a_join_shuffles(self, engine, tables):
        # A stand-alone stage is map-only and a Pivot runs driver-side over
        # its input's job.
        selected = Filter(Scan("micro"), col("value") > 5)
        joined = Join(Project(Filter(Scan("genes"), col("function") < 10), ("gene_id",)),
                      Scan("micro"), "gene_id", "gene_id")
        for plan in (selected, Project(selected, ("gene_id",)),
                     Pivot(selected, "patient_id", "gene_id", "value")):
            run_shared_plan(plan, tables, engine)
            assert engine.history[-1].counters.shuffle_bytes == 0
        run_shared_plan(Pivot(joined, "patient_id", "gene_id", "value"), tables, engine)
        assert engine.history[-1].counters.shuffle_bytes > 0


def _chain_of(table: str, predicates) -> Filter | Scan:
    node = Scan(table)
    for predicate in predicates:
        node = Filter(node, predicate)
    return node


class TestBridgeStages:
    """The projection helper and the stage's one bound predicate."""

    @given(st.lists(st.integers(), min_size=1, max_size=6).map(tuple).flatmap(
        lambda row: st.tuples(st.just(row),
                              st.lists(st.integers(0, len(row) - 1), max_size=8))))
    @example((("a", 1, 2.5, None), []))
    @example((("a", 1, 2.5, None), [2]))
    @example((("a", 1, 2.5, None), [3, 0, 1]))
    @example((("a", 1, 2.5, None), [1, 1, 3, 1]))
    @settings(max_examples=200, deadline=None)
    def test_projector_equals_the_tuple_of_the_indexed_cells(self, row_and_indices):
        row, indices = row_and_indices
        projected = _projector(indices)(row)
        assert type(projected) is tuple
        assert projected == tuple(row[i] for i in indices)

    #: Columns of the staged table and its join partner, as the fuzz
    #: reference reads them.
    COLUMNS = {
        "t": {"a": np.arange(20, dtype=np.int64),
              "b": np.linspace(0.0, 9.5, 20),
              "c": np.arange(20, dtype=np.int64) % 7},
        "u": {"a": np.arange(0, 20, 3, dtype=np.int64),
              "d": np.arange(7, dtype=np.int64) * 10},
    }
    PREDICATES = (col("a") > 4, col("b") < 7.5, col("c").isin([0, 2, 3, 6]))

    @pytest.fixture()
    def tables(self) -> dict[str, HiveTable]:
        return {name: HiveTable.from_columns(name, columns)
                for name, columns in self.COLUMNS.items()}

    @staticmethod
    def _rows(result: dict) -> list[tuple]:
        return list(zip(*(column.tolist() for column in result.values()), strict=True))

    @pytest.mark.parametrize("n_predicates", [0, 1, 3])
    def test_stage_keeps_the_rows_the_reference_keeps(self, tables, n_predicates):
        predicates = self.PREDICATES[:n_predicates]
        stage = Project(_chain_of("t", predicates), ("c", "a"))
        engine = MapReduceEngine(n_splits=3)
        assert (HiveBackend(tables, engine)._stage(stage).predicate is None) == (
            n_predicates == 0)
        got = run_shared_plan(stage, tables, engine, optimized=False)
        want = self._rows(run_reference(stage, self.COLUMNS))
        assert got.rows == want and got.columns == ("c", "a")
        assert engine.history[-1].counters.map_output_records == len(want)
        assert n_predicates == 0 or len(want) < len(tables["t"])

        for joined in (Join(stage, Scan("u"), "a", "a"), Join(Scan("u"), stage, "a", "a")):
            got = run_shared_plan(joined, tables, engine, optimized=False)
            want = self._rows(run_reference(joined, self.COLUMNS))
            assert sorted(got.rows) == sorted(want)


def _per_entry_covariance(engine: MapReduceEngine, matrix: np.ndarray) -> np.ndarray:
    """``Mahout.covariance`` as it ran before its jobs emitted row vectors:
    one scalar record per column (means) and per upper-triangle entry
    (outer products).  The oracle for the row-vector jobs, which must keep
    every bit."""
    n_samples, n_features = matrix.shape
    records = Mahout._matrix_records(matrix)

    def mean_mapper(record):
        _, row = record
        for column, value in enumerate(row):
            yield (column, value)

    def mean_combiner(key, values):
        yield (key, (sum(values_or_partials(values)), count_of(values)))

    def mean_reducer(key, values):
        partials = [value if isinstance(value, tuple) else (value, 1) for value in values]
        total = sum(p[0] for p in partials)
        count = sum(p[1] for p in partials)
        yield (key, total / count)

    def values_or_partials(values):
        return [value[0] if isinstance(value, tuple) else value for value in values]

    def count_of(values):
        return sum(value[1] if isinstance(value, tuple) else 1 for value in values)

    mean_pairs = engine.run(
        MapReduceJob("mahout-colmeans", mean_mapper, mean_reducer, mean_combiner), records
    )
    means = [0.0] * n_features
    for column, mean in mean_pairs:
        means[column] = mean

    def outer_mapper(record):
        _, row = record
        centred = [value - means[column] for column, value in enumerate(row)]
        for i in range(n_features):
            c_i = centred[i]
            for j in range(i, n_features):
                yield ((i, j), c_i * centred[j])

    def outer_combiner(key, values):
        yield (key, sum(values))

    def outer_reducer(key, values):
        yield (key, sum(values) / (n_samples - 1))

    pairs = engine.run(
        MapReduceJob("mahout-covariance", outer_mapper, outer_reducer, outer_combiner), records
    )
    cov = np.zeros((n_features, n_features))
    for (i, j), value in pairs:
        cov[i, j] = value
        cov[j, i] = value
    return cov


def _assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()  # the signs of zeros too


#: Finite values with repeats, so columns can be constant and sums can cancel.
_ENTRIES = st.one_of(st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
                     st.sampled_from([0.0, 1.0, -2.5]))


@st.composite
def _matrices(draw):
    """An ``(n_samples, n_features)`` matrix and a split count."""
    n_samples = draw(st.integers(2, 12))
    n_features = draw(st.integers(1, 9))
    cells = draw(st.lists(_ENTRIES, min_size=n_samples * n_features,
                          max_size=n_samples * n_features))
    return np.array(cells, dtype=np.float64).reshape(n_samples, n_features), draw(st.integers(1, 5))


class TestMahoutRowVectors:
    """The covariance's jobs emit row vectors; every entry keeps the bits of
    the per-entry jobs, and the counters count vectors."""

    @settings(max_examples=150, deadline=None)
    @given(_matrices())
    @example((np.array([[1.0, 2.0], [3.0, 5.0]]), 1))  # n_samples == 2
    @example((np.array([[0.5], [1.5], [-4.0]]), 2))  # one feature
    @example((np.array([[7.0, 0.1, 1.0], [7.0, 0.2, -1.0], [7.0, 0.4, 3.0],
                        [7.0, 0.8, 0.0]]), 3))  # a constant column
    @example((np.arange(18.0).reshape(2, 9) / 7.0, 5))  # more features than samples
    def test_covariance_matches_per_entry_jobs_bit_for_bit(self, case):
        matrix, n_splits = case
        _assert_same_bits(Mahout(MapReduceEngine(n_splits)).covariance(matrix),
                          _per_entry_covariance(MapReduceEngine(n_splits), matrix))

    @pytest.mark.parametrize("n_samples,n_features,n_splits", [(2, 1, 1), (6, 3, 2), (5, 9, 4)])
    def test_covariance_counters_count_row_vectors(self, rng, n_samples, n_features, n_splits):
        mahout = Mahout(MapReduceEngine(n_splits))
        mahout.covariance(rng.random((n_samples, n_features)))
        means, outer = (job.counters for job in mahout.engine.history)
        assert means.map_output_records == n_samples
        assert means.reduce_input_groups == means.reduce_output_records == 1
        assert outer.map_input_records == n_samples
        assert outer.map_output_records == n_samples * n_features
        assert outer.reduce_input_groups == outer.reduce_output_records == n_features
        assert outer.combine_output_records == outer.splits * n_features


class TestMahout:
    @pytest.fixture()
    def mahout(self) -> Mahout:
        return Mahout(MapReduceEngine(n_splits=2))

    def test_covariance_matches_numpy(self, mahout, rng):
        matrix = rng.random((10, 5))
        np.testing.assert_allclose(
            mahout.covariance(matrix), np.cov(matrix, rowvar=False), atol=1e-10
        )

    def test_covariance_needs_two_samples(self, mahout, rng):
        with pytest.raises(ValueError):
            mahout.covariance(rng.random((1, 4)))

    def test_linear_regression_recovers_coefficients(self, mahout, rng):
        features = rng.random((40, 3))
        beta_true = np.array([2.0, -1.0, 0.5])
        target = features @ beta_true + 1.0
        beta = mahout.linear_regression(features, target)
        assert beta[0] == pytest.approx(1.0, abs=1e-6)
        np.testing.assert_allclose(beta[1:], beta_true, atol=1e-6)

    def test_linear_regression_validation(self, mahout, rng):
        with pytest.raises(ValueError):
            mahout.linear_regression(rng.random((5, 2)), rng.random(6))

    def test_truncated_svd_close_to_lapack(self, mahout, rng):
        matrix = rng.random((12, 6))
        values = mahout.truncated_svd(matrix, k=2, n_iterations=100, seed=0)
        reference = np.linalg.svd(matrix, compute_uv=False)[:2]
        np.testing.assert_allclose(values, reference, rtol=1e-3)

    def test_wilcoxon_enrichment_p_values(self, mahout, rng):
        scores = rng.standard_normal(40)
        membership = (rng.random((40, 3)) < 0.3).astype(int)
        membership[:, 1] = 0
        membership[rng.choice(40, 10, replace=False), 1] = 1
        scores[membership[:, 1] == 1] += 5.0
        p_values = mahout.wilcoxon_enrichment(scores, membership)
        assert p_values.shape == (3,)
        assert p_values[1] < 0.01
        assert np.all((p_values >= 0) & (p_values <= 1))

    def test_wilcoxon_validation(self, mahout, rng):
        with pytest.raises(ValueError):
            mahout.wilcoxon_enrichment(rng.random(5), rng.integers(0, 2, (6, 2)))

    def test_analytics_run_as_mapreduce_jobs(self, mahout, rng):
        mahout.covariance(rng.random((6, 3)))
        mahout.truncated_svd(rng.random((6, 3)), k=1, n_iterations=2)
        mahout.linear_regression(rng.random((6, 3)), rng.random(6))
        mahout.wilcoxon_enrichment(rng.random(6), rng.integers(0, 2, (6, 2)))
        assert [job.name for job in mahout.engine.history] == [
            "mahout-colmeans", "mahout-covariance",  # means, then outer products
            "mahout-poweriter", "mahout-poweriter",
            "mahout-normal-equations", "mahout-wilcoxon",
        ]
