"""Tests for the MapReduce engine, the Hive layer and the Mahout layer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mapreduce import HiveSession, HiveTable, Mahout, MapReduceEngine, MapReduceJob
from repro.plan import col


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
            HiveTable.from_array("bad", ["a"], np.ones((2, 2)))

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

    def test_group_by_aggregates(self, session, micro):
        for aggregate, expected in [
            ("count", 3.0),
            ("sum", 0.0 + 1.0 + 2.0),
            ("avg", 1.0),
            ("min", 0.0),
            ("max", 2.0),
        ]:
            result = session.group_by(micro, "gene_id", "value", aggregate)
            lookup = dict(result.rows)
            assert lookup[0] == pytest.approx(expected)
        with pytest.raises(ValueError):
            session.group_by(micro, "gene_id", "value", "median")


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

    def test_biclustering_unsupported(self, mahout):
        with pytest.raises(NotImplementedError):
            mahout.biclustering(np.ones((4, 4)))

    def test_analytics_run_as_mapreduce_jobs(self, mahout, rng):
        before = len(mahout.engine.history)
        mahout.covariance(rng.random((6, 3)))
        assert len(mahout.engine.history) >= before + 2  # means + outer products
