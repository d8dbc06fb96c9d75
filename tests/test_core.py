"""Tests for the benchmark core: spec, timing, reference queries, runner, and the
figure tables ``examples/paper_figures.py`` prints from the runner's results."""

from __future__ import annotations

import importlib.util
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    QUERY_NAMES,
    BenchmarkRunner,
    PhaseTimer,
    QueryResult,
    ReferenceImplementation,
    make_engine,
)
from repro.core.engines import ENGINE_FACTORIES, MULTI_NODE_ENGINES, SINGLE_NODE_ENGINES
from repro.core.engines.base import Engine, UnsupportedQueryError
from repro.core.queries import (
    bicluster_patient_ids,
    covariance_patient_ids,
    selected_gene_ids,
    statistics_patient_ids,
)
from repro.core.runner import RunStatus
from repro.core.spec import default_parameters, validate_query_name

PAPER_FIGURES = Path(__file__).resolve().parent.parent / "examples" / "paper_figures.py"


@pytest.fixture(scope="module")
def figures():
    """``examples/paper_figures.py`` loaded as a module (it is a script, not a package)."""
    spec = importlib.util.spec_from_file_location("paper_figures", PAPER_FIGURES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
            assert output.summary == output.answer.summary()

    def test_regression_finds_signal(self, tiny_dataset):
        output = ReferenceImplementation(tiny_dataset).run("regression")
        assert 0 <= output.summary["r_squared"] <= 1
        assert output.summary["n_patients"] == tiny_dataset.n_patients

    def test_statistics_recovers_planted_terms(self, small_dataset):
        output = ReferenceImplementation(small_dataset).run("statistics")
        answer = output.answer
        significant = set(answer.go_ids[answer.significant].tolist())
        planted = set(small_dataset.ontology.enriched_terms.tolist())
        assert planted <= significant

    def test_svd_spectrum_descends(self, tiny_dataset):
        output = ReferenceImplementation(tiny_dataset).run("svd")
        values = output.answer.singular_values
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
        assert result.engine == "scidb" and result.dataset_size == tiny_dataset.spec.name

    def test_one_node_request_builds_a_one_node_engine(self, tiny_dataset, monkeypatch):
        """A multi-node factory defaults to two nodes: ``n_nodes=1`` must reach it."""
        from repro.core import runner as runner_module
        built, real = [], runner_module.make_engine
        monkeypatch.setattr(runner_module, "make_engine",
                            lambda name, **options: built.append(real(name, **options))
                            or built[-1])
        result = BenchmarkRunner().run("covariance", "pbdr", tiny_dataset, n_nodes=1)
        assert result.status is RunStatus.OK and result.n_nodes == 1
        (engine,) = built
        assert engine.n_nodes == engine.cluster.n_nodes == 1

    def test_an_engine_instance_is_recorded_with_its_own_node_count(self, tiny_dataset):
        runner = BenchmarkRunner()
        result = runner.run("covariance", make_engine("pbdr", n_nodes=4), tiny_dataset)
        assert result.status is RunStatus.OK and result.n_nodes == 4
        assert runner.run("covariance", make_engine("scidb"), tiny_dataset).n_nodes == 1

    def test_unsupported_is_reported_not_raised(self, tiny_dataset):
        runner = BenchmarkRunner()
        result = runner.run("biclustering", "postgres-madlib", tiny_dataset)
        assert result.status is RunStatus.UNSUPPORTED
        assert result.output is None and "does not support" in result.error

    def test_memory_error_is_infinite(self, tiny_dataset):
        runner = BenchmarkRunner()
        result = runner.run("covariance", "vanilla-r", tiny_dataset, max_cells=100)
        assert result.status is RunStatus.MEMORY_ERROR
        assert result.output is None and "limit 100" in result.error

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
                from repro.core.queries import QueryOutput, SvdAnswer

                return QueryOutput("svd", SvdAnswer(n_selected_genes=1, singular_values=np.zeros(1)))

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
    """The figure tables: a cell per engine × query × column, split into data
    management and analytics, with the run status in place of a time."""

    def _result(self, engine, query, size, dm, an, status=RunStatus.OK, n_nodes=1):
        return QueryResult(
            engine=engine, query=query, dataset_size=size, status=status,
            data_management_seconds=dm, analytics_seconds=an, n_nodes=n_nodes,
        )

    def test_table_filter_and_render(self, figures, capsys):
        grid = {
            ("scidb", "svd", "small"): self._result("scidb", "svd", "small", 1.0, 2.0),
            ("hadoop", "svd", "small"): self._result("hadoop", "svd", "small", 5.0, 50.0),
            ("scidb", "svd", "medium"): self._result("scidb", "svd", "medium", 2.0, 4.0),
            ("hadoop", "svd", "medium"): self._result("hadoop", "svd", "medium", 6.0, 60.0),
        }
        figures.print_tables("Figure 1", grid, ("scidb", "hadoop"), ("svd",), ("small", "medium"))
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "=== Figure 1 ==="
        header, scidb, hadoop = lines[-3:]
        assert header.split() == ["engine", "small", "medium"]
        assert scidb.split() == ["scidb", "1.0000+2.0000", "2.0000+4.0000"]
        assert hadoop.split() == ["hadoop", "5.0000+50.0000", "6.0000+60.0000"]

    def test_figure_series_marks_unsupported_and_infinite(self, figures):
        assert figures.cell(self._result("scidb", "svd", "small", 1.0, 2.0)) == "1.0000+2.0000"
        unsupported = self._result("hadoop", "svd", "small", 0.0, 0.0, status=RunStatus.UNSUPPORTED)
        memory = self._result("vanilla-r", "svd", "small", 0.0, 0.0, status=RunStatus.MEMORY_ERROR)
        assert figures.cell(unsupported) == "unsupported"
        assert figures.cell(memory) == "memory_error"
        # Only a failed run fails the script; an unsupported cell is expected.
        assert RunStatus.MEMORY_ERROR in figures.FAILED
        assert RunStatus.UNSUPPORTED not in figures.FAILED

    def test_breakdown_series(self, figures):
        small = figures.cell(self._result("scidb", "regression", "small", 1.0, 2.0))
        medium = figures.cell(self._result("scidb", "regression", "medium", 3.0, 8.0))
        assert [float(part) for part in small.split("+")] == [1.0, 2.0]
        assert [float(part) for part in medium.split("+")] == [3.0, 8.0]

    def test_speedup_table_and_rendering(self, figures):
        ratios = {}
        for nodes, base_time, accel_time in [(1, 10.0, 4.0), (2, 6.0, 4.0), (4, 4.0, 3.5)]:
            base = self._result("scidb-cluster", "covariance", "large", 1.0, base_time, n_nodes=nodes)
            fast = self._result("scidb-phi-cluster", "covariance", "large", 1.0, accel_time,
                                n_nodes=nodes)
            ratios[nodes] = figures.analytics_ratio(base, fast)
        assert ratios[1] == "2.50"
        assert float(ratios[4]) == pytest.approx(4.0 / 3.5, abs=0.005)
        failed = self._result("scidb-phi-cluster", "covariance", "large", 0.0, 0.0,
                              status=RunStatus.TIMEOUT)
        assert figures.analytics_ratio(self._result("scidb-cluster", "covariance", "large",
                                                    1.0, 10.0), failed) == "-"

    def test_cell_is_the_median_run(self, figures):
        runs = [self._result("hadoop", "svd", "small", dm, an)
                for dm, an in [(1.0, 9.0), (5.0, 0.5), (2.0, 2.0), (0.1, 0.2), (3.0, 3.0)]]
        assert figures.median_run(runs) is runs[1]  # totals 10, 5.5, 4, 0.3, 6
        assert figures.median_run(runs[:1]) is runs[0]
        timeout = self._result("hadoop", "svd", "small", 0.0, 20.0, status=RunStatus.TIMEOUT)
        unsupported = self._result("hadoop", "svd", "small", 0.0, 0.0,
                                   status=RunStatus.UNSUPPORTED)
        # One run that did not finish is the cell, so a failure is never outvoted.
        assert figures.median_run([*runs, timeout, unsupported]) is timeout

    def test_figure_series_node_axis(self, figures, tiny_dataset, monkeypatch):
        built = []

        def counting_make_engine(name, **options):
            built.append(options)
            return make_engine(name, **options)

        monkeypatch.setattr(figures, "make_engine", counting_make_engine)
        runner = BenchmarkRunner()
        grid = figures.run_grid(runner, ("pbdr",),
                                {n: (tiny_dataset, {"n_nodes": n}) for n in (1, 2)}, runs=2)
        # Every run of a column gets its own engine.
        assert built == [{"n_nodes": 1}] * 2 + [{"n_nodes": 2}] * 2
        assert sorted(grid) == sorted(("pbdr", query, n) for query in QUERY_NAMES for n in (1, 2))
        for (_, query, nodes), result in grid.items():
            assert result.query == query and result.n_nodes == nodes
            assert result.status is RunStatus.OK
