"""Tests for the MapReduce engine, the Hive layer and the Mahout layer."""

from __future__ import annotations

import math
from itertools import pairwise

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mapreduce import HiveSession, HiveTable, Mahout, MapReduceEngine, MapReduceJob
from repro.mapreduce.bridge import estimate_shuffle_bytes
from repro.mapreduce.engine import _sort_by_key
from repro.plan import Aggregate, Filter, Pivot, Scan, col


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


class TestHive:
    @pytest.fixture()
    def session(self) -> HiveSession:
        return HiveSession(MapReduceEngine(n_splits=2))

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

    def test_select_runs_as_job(self, session, genes):
        before = len(session.engine.history)
        selected = session.select(genes, col("function") < 10)
        assert {row[0] for row in selected.rows} == {0, 3}
        assert len(session.engine.history) == before + 1

    def test_project(self, session, genes):
        projected = session.project(genes, ["function"])
        assert projected.columns == ("function",)
        assert sorted(row[0] for row in projected.rows) == [5, 8, 15, 25, 40]

    def test_join_matches_expected_cardinality(self, session, genes, micro):
        selected = session.select(genes, col("function") < 10)
        projected = session.project(selected, ["gene_id"])
        joined = session.join(projected, micro, "gene_id", "gene_id")
        assert len(joined) == 2 * 3
        assert joined.columns == ("gene_id", "gene_id_right", "patient_id", "value")

    def test_shuffle_estimate_covers_the_jobs_hive_runs(self, micro):
        # A Pivot runs driver-side over its input's job, so it estimates
        # what that job shuffles; Hive runs no exact Aggregate, so there is
        # no job to predict.
        selected = Filter(Scan("micro"), col("value") > 5)
        tables = {"micro": micro}
        scanned = estimate_shuffle_bytes(selected, tables)
        assert scanned > 0
        assert estimate_shuffle_bytes(
            Pivot(selected, "patient_id", "gene_id", "value"), tables) == scanned
        assert estimate_shuffle_bytes(
            Aggregate(selected, "gene_id", "value", "mean"), tables) is None


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
        before = len(mahout.engine.history)
        mahout.covariance(rng.random((6, 3)))
        assert len(mahout.engine.history) >= before + 2  # means + outer products
