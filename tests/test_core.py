"""Tests for the benchmark core: spec, timing, reference queries, runner, results."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core import (
    QUERY_NAMES,
    BenchmarkRunner,
    PhaseTimer,
    QueryResult,
    ReferenceImplementation,
    ResultTable,
    make_engine,
    speedup_table,
)
from repro.core.engines import ENGINE_FACTORIES, MULTI_NODE_ENGINES, SINGLE_NODE_ENGINES
from repro.core.engines.base import Engine, UnsupportedQueryError
from repro.core.queries import (
    bicluster_patient_ids,
    covariance_patient_ids,
    selected_gene_ids,
    statistics_patient_ids,
)
from repro.core.results import breakdown_series, figure_series, render_speedup_table
from repro.core.runner import RunStatus
from repro.core.spec import default_parameters, validate_query_name


class TestSpec:
    def test_query_names_and_aliases(self):
        assert len(QUERY_NAMES) == 5
        assert validate_query_name("Q1") == "regression"
        assert validate_query_name("linear regression") == "regression"
        assert validate_query_name("wilcoxon") == "statistics"
        assert validate_query_name("SVD") == "svd"
        with pytest.raises(ValueError):
            validate_query_name("clustering")

    def test_default_parameters_scale_with_spec(self, tiny_dataset):
        parameters = default_parameters(tiny_dataset.spec)
        threshold = parameters.function_threshold(tiny_dataset.spec)
        assert 0 < threshold <= tiny_dataset.spec.n_functions
        assert 1 <= parameters.svd_k(tiny_dataset.spec) <= tiny_dataset.spec.n_genes
        fraction = parameters.sample_fraction(tiny_dataset.spec)
        assert fraction * tiny_dataset.n_patients >= 3

    def test_parameters_are_frozen(self, tiny_parameters):
        with pytest.raises(AttributeError):
            tiny_parameters.svd_rank = 5


class TestPhaseTimer:
    def test_accumulates_phases(self):
        timer = PhaseTimer()
        with timer.data_management():
            time.sleep(0.01)
        with timer.analytics():
            time.sleep(0.005)
        assert timer.data_management_seconds >= 0.01
        assert timer.analytics_seconds >= 0.005
        assert timer.total_seconds == pytest.approx(
            timer.data_management_seconds + timer.analytics_seconds
        )

    def test_modelled_seconds_and_notes(self):
        timer = PhaseTimer()
        timer.add_data_management(1.5)
        timer.add_analytics(0.5)
        timer.note("bytes", 10)
        timer.note("bytes", 5)
        assert timer.total_seconds == pytest.approx(2.0)
        assert timer.notes["bytes"] == 15
        with pytest.raises(ValueError):
            timer.add_analytics(-1)


class TestSelections:
    def test_selection_helpers_match_filters(self, tiny_dataset, tiny_parameters):
        genes = selected_gene_ids(tiny_dataset, tiny_parameters)
        threshold = tiny_parameters.function_threshold(tiny_dataset.spec)
        np.testing.assert_array_equal(
            genes, np.flatnonzero(tiny_dataset.genes.function < threshold)
        )
        patients = covariance_patient_ids(tiny_dataset, tiny_parameters)
        assert np.all(np.isin(tiny_dataset.patients.disease_id[patients],
                              sorted(tiny_parameters.covariance_diseases)))
        young_males = bicluster_patient_ids(tiny_dataset, tiny_parameters)
        assert np.all(tiny_dataset.patients.age[young_males] < tiny_parameters.bicluster_max_age)
        assert np.all(tiny_dataset.patients.gender[young_males] == tiny_parameters.bicluster_gender)
        sample = statistics_patient_ids(tiny_dataset, tiny_parameters)
        np.testing.assert_array_equal(sample, statistics_patient_ids(tiny_dataset, tiny_parameters))


class TestReferenceImplementation:
    def test_all_queries_produce_summaries(self, tiny_dataset):
        reference = ReferenceImplementation(tiny_dataset)
        for query in QUERY_NAMES:
            output = reference.run(query)
            assert output.query == query
            assert output.summary
            assert output.payload is not None

    def test_regression_finds_signal(self, tiny_dataset):
        output = ReferenceImplementation(tiny_dataset).run("regression")
        assert 0 <= output.summary["r_squared"] <= 1
        assert output.summary["n_patients"] == tiny_dataset.n_patients

    def test_statistics_recovers_planted_terms(self, small_dataset):
        output = ReferenceImplementation(small_dataset).run("statistics")
        significant = set(output.payload.significant_terms().tolist())
        planted = set(small_dataset.ontology.enriched_terms.tolist())
        assert planted <= significant

    def test_svd_spectrum_descends(self, tiny_dataset):
        output = ReferenceImplementation(tiny_dataset).run("svd")
        values = output.payload.singular_values
        assert np.all(np.diff(values) <= 1e-9)


class TestEngineRegistry:
    def test_registry_contents(self):
        assert set(SINGLE_NODE_ENGINES) <= set(ENGINE_FACTORIES)
        assert set(MULTI_NODE_ENGINES) <= set(ENGINE_FACTORIES)
        assert "scidb" in SINGLE_NODE_ENGINES
        assert "pbdr" in MULTI_NODE_ENGINES

    def test_make_engine_and_unknown(self):
        engine = make_engine("scidb")
        assert engine.name == "scidb"
        cluster_engine = make_engine("pbdr", n_nodes=3)
        assert cluster_engine.n_nodes == 3
        with pytest.raises(KeyError, match="known engines"):
            make_engine("oracle")

    def test_engine_requires_load_before_run(self, tiny_parameters):
        engine = make_engine("scidb")
        with pytest.raises(RuntimeError, match="no dataset loaded"):
            engine.run("svd", tiny_parameters, PhaseTimer())

    def test_unsupported_query_raises(self, tiny_dataset, tiny_parameters):
        engine = make_engine("hadoop")
        engine.load(tiny_dataset)
        with pytest.raises(UnsupportedQueryError):
            engine.run("biclustering", tiny_parameters, PhaseTimer())


class TestRunner:
    def test_successful_run_records_phases(self, tiny_dataset):
        runner = BenchmarkRunner(timeout_seconds=60)
        result = runner.run("covariance", "scidb", tiny_dataset)
        assert result.status is RunStatus.OK
        assert result.total_seconds == pytest.approx(
            result.data_management_seconds + result.analytics_seconds
        )
        assert result.output is not None
        assert result.as_dict()["engine"] == "scidb"

    def test_unsupported_is_reported_not_raised(self, tiny_dataset):
        runner = BenchmarkRunner()
        result = runner.run("biclustering", "postgres-madlib", tiny_dataset)
        assert result.status is RunStatus.UNSUPPORTED
        assert not result.status.is_infinite

    def test_memory_error_is_infinite(self, tiny_dataset):
        runner = BenchmarkRunner()
        result = runner.run("covariance", "vanilla-r", tiny_dataset, max_cells=100)
        assert result.status is RunStatus.MEMORY_ERROR
        assert result.status.is_infinite
        assert result.plot_value(ceiling=999.0) == 999.0

    def test_timeout_enforced(self, tiny_dataset):
        runner = BenchmarkRunner(timeout_seconds=0.2)

        class SlowEngine(Engine):
            name = "slow"

            def _load(self, dataset):
                return None

            def _run_regression(self, parameters, timer):
                with timer.analytics():
                    time.sleep(2.0)

        result = runner.run("regression", SlowEngine(), tiny_dataset)
        assert result.status is RunStatus.TIMEOUT
        assert result.total_seconds < 1.5

    def test_verification_passes_for_correct_engine(self, tiny_dataset):
        runner = BenchmarkRunner(verify=True)
        result = runner.run("regression", "columnstore-udf", tiny_dataset)
        assert result.status is RunStatus.OK

    def test_verification_catches_wrong_answers(self, tiny_dataset, tiny_parameters):
        class WrongEngine(Engine):
            name = "wrong"

            def _load(self, dataset):
                return None

            def _run_svd(self, parameters, timer):
                from repro.core.queries import QueryOutput

                return QueryOutput(query="svd", summary={
                    "n_selected_genes": 1, "k": 1, "top_singular_value": 0.0,
                })

        runner = BenchmarkRunner(verify=True)
        result = runner.run("svd", WrongEngine(), tiny_dataset)
        assert result.status is RunStatus.ERROR
        assert "mismatch" in result.error

    def test_engine_instance_reuse_skips_reload(self, tiny_dataset):
        engine = make_engine("scidb")
        engine.load(tiny_dataset)
        runner = BenchmarkRunner()
        first = runner.run("svd", engine, tiny_dataset)
        second = runner.run("covariance", engine, tiny_dataset)
        assert first.status is RunStatus.OK and second.status is RunStatus.OK


class TestResults:
    def _result(self, engine, query, size, dm, an, status=RunStatus.OK, n_nodes=1):
        return QueryResult(
            engine=engine, query=query, dataset_size=size, status=status,
            data_management_seconds=dm, analytics_seconds=an, n_nodes=n_nodes,
        )

    def test_table_filter_and_render(self):
        table = ResultTable()
        table.add(self._result("scidb", "svd", "small", 1.0, 2.0))
        table.add(self._result("hadoop", "svd", "small", 5.0, 50.0))
        table.add(self._result("scidb", "svd", "medium", 2.0, 4.0))
        assert len(table.filter(engine="scidb")) == 2
        assert table.engines() == ["hadoop", "scidb"]
        assert table.sizes() == ["small", "medium"]
        rendered = table.render()
        assert "scidb" in rendered and "hadoop" in rendered

    def test_figure_series_marks_unsupported_and_infinite(self):
        table = ResultTable()
        table.add(self._result("scidb", "svd", "small", 1.0, 2.0))
        table.add(self._result("hadoop", "svd", "small", 0.0, 0.0, status=RunStatus.UNSUPPORTED))
        table.add(self._result("vanilla-r", "svd", "small", 0.0, 0.0, status=RunStatus.MEMORY_ERROR))
        series = figure_series(table, "svd", ceiling=100.0)
        assert series["scidb"][0][1] == pytest.approx(3.0)
        assert series["hadoop"][0][1] is None
        assert series["vanilla-r"][0][1] == 100.0

    def test_breakdown_series(self):
        table = ResultTable()
        table.add(self._result("scidb", "regression", "small", 1.0, 2.0))
        table.add(self._result("scidb", "regression", "medium", 3.0, 8.0))
        series = breakdown_series(table, "regression")
        assert series["scidb"]["data_management"] == [("small", 1.0), ("medium", 3.0)]
        assert series["scidb"]["analytics"][1][1] == 8.0

    def test_speedup_table_and_rendering(self):
        baseline = ResultTable()
        accelerated = ResultTable()
        for nodes, base_time, accel_time in [(1, 10.0, 4.0), (2, 6.0, 4.0), (4, 4.0, 3.5)]:
            baseline.add(self._result("scidb-cluster", "covariance", "large", 1.0, base_time, n_nodes=nodes))
            accelerated.add(self._result("scidb-phi-cluster", "covariance", "large", 1.0, accel_time, n_nodes=nodes))
        speedups = speedup_table(baseline, accelerated, queries=("covariance",))
        assert speedups["covariance"][1] == pytest.approx(2.5)
        assert speedups["covariance"][4] == pytest.approx(4.0 / 3.5)
        rendered = render_speedup_table(speedups)
        assert "covariance" in rendered and "2.50" in rendered

    def test_figure_series_node_axis(self):
        table = ResultTable()
        for nodes in (1, 2, 4):
            table.add(self._result("pbdr", "regression", "large", 1.0, 10.0 / nodes, n_nodes=nodes))
        series = figure_series(table, "regression", x_axis="n_nodes")
        xs = [x for x, _ in series["pbdr"]]
        assert xs == [1, 2, 4]
        with pytest.raises(ValueError):
            figure_series(table, "regression", x_axis="bogus")
