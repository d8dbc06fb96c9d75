"""Integration tests: every engine configuration × every query it supports.

Each engine's answer is compared field by field with the engine-independent
reference implementation in ``tests/test_cross_engine.py``'s
``TestAnswersMatchReference``; this file checks what runs around the answers
(statuses, capabilities, the recipes' shared hooks, timing phases).
"""

from __future__ import annotations

import ast
import pathlib
from contextlib import contextmanager

import numpy as np
import pytest

import repro.core.engines
from repro.core import QUERY_NAMES, BenchmarkRunner
from repro.core.engines import (
    ENGINE_FACTORIES,
    SINGLE_NODE_ENGINES,
    make_engine,
)
from repro.core.runner import RunStatus
from repro.core.timing import PhaseTimer


@pytest.fixture(scope="module")
def runner() -> BenchmarkRunner:
    return BenchmarkRunner(timeout_seconds=120, verify=False)


@pytest.fixture(scope="module")
def loaded_single_node_engines(tiny_dataset):
    engines = {}
    for name in SINGLE_NODE_ENGINES:
        engine = make_engine(name)
        engine.load(tiny_dataset)
        engines[name] = engine
    return engines


class TestSingleNodeEngines:
    def test_phase_timing_recorded(self, runner, tiny_dataset, loaded_single_node_engines):
        result = runner.run("covariance", loaded_single_node_engines["postgres-r"], tiny_dataset)
        assert result.data_management_seconds > 0
        assert result.analytics_seconds > 0

    def test_external_r_engines_pay_export_cost(self, runner, tiny_dataset,
                                                loaded_single_node_engines):
        result = runner.run("svd", loaded_single_node_engines["postgres-r"], tiny_dataset)
        assert result.notes.get("export_bytes", 0) > 0

    def test_vanilla_r_memory_ceiling(self, tiny_dataset):
        runner = BenchmarkRunner()
        result = runner.run("covariance", "vanilla-r", tiny_dataset, max_cells=200)
        assert result.status is RunStatus.MEMORY_ERROR


class TestMultiNodeEngines:
    def test_multi_node_charges_network_time(self, tiny_dataset):
        runner = BenchmarkRunner()
        single = runner.run("covariance", "scidb-cluster", tiny_dataset, n_nodes=1)
        quad = runner.run("covariance", "scidb-cluster", tiny_dataset, n_nodes=4)
        assert single.status is RunStatus.OK and quad.status is RunStatus.OK
        # The 4-node run must include redistribution/communication time that
        # the single node run does not have.
        assert quad.notes is not None
        engine = make_engine("scidb-cluster", n_nodes=4)
        engine.load(tiny_dataset)
        runner.run("covariance", engine, tiny_dataset)
        assert engine.cluster.network.total_bytes > 0


class TestCoprocessorEngines:
    def test_phi_analytics_time_is_modelled(self, tiny_dataset):
        runner = BenchmarkRunner()
        result = runner.run("covariance", "scidb-phi", tiny_dataset)
        engine_offloads = result.output.payload["offload"]
        # The timer holds exactly the modelled device time: neither the
        # measured host time nor the host-side top-pairs pass is charged.
        assert result.analytics_seconds == engine_offloads.device_total_seconds

    def test_phi_cluster_runs_all_node_counts(self, runner, tiny_dataset):
        for n_nodes in (1, 2, 4):
            result = runner.run("svd", "scidb-phi-cluster", tiny_dataset, n_nodes=n_nodes)
            assert result.status is RunStatus.OK, result.error
            assert result.analytics_seconds > 0

    def test_phi_regression_not_offloaded(self, tiny_dataset):
        runner = BenchmarkRunner()
        engine = make_engine("scidb-phi")
        engine.load(tiny_dataset)
        calls = engine.runtime.device.offloads
        runner.run("regression", engine, tiny_dataset)
        # Regression is the inherited host kernel: the runtime never sees it.
        assert calls == []
        result = runner.run("covariance", engine, tiny_dataset)
        (call,) = calls
        assert call.bytes_transferred > 0 and call.transfer_seconds > 0
        # The device keeps the timing record only; the result stays the caller's.
        assert call.value is None
        assert result.output.payload["offload"].value is not None


class TestPhaseAttribution:
    """Hooks own all timing: the recipes in ``Engine`` charge nothing themselves."""

    @pytest.mark.parametrize("engine_name", sorted(ENGINE_FACTORIES))
    def test_every_query_charges_both_phases(self, engine_name, runner, tiny_dataset):
        engine = make_engine(engine_name)
        engine.load(tiny_dataset)
        for query in QUERY_NAMES:
            result = runner.run(query, engine, tiny_dataset)
            if not engine.capabilities.supports(query):
                assert result.status is RunStatus.UNSUPPORTED
                continue
            assert result.status is RunStatus.OK, f"{engine_name}/{query}: {result.error}"
            assert result.data_management_seconds > 0, f"{engine_name}/{query}"
            assert result.analytics_seconds > 0, f"{engine_name}/{query}"
            # The CSV hand-off to R is noted on every query, by exactly the -r engines.
            exports = engine_name in ("postgres-r", "columnstore-r")
            assert ("export_bytes" in result.notes) == exports, f"{engine_name}/{query}"
            # Every offloaded kernel of the Phi cluster reports its host seconds.
            modelled = engine_name == "scidb-phi-cluster" and query != "regression"
            assert ("host_analytics_seconds" in result.notes) == modelled, (
                f"{engine_name}/{query}"
            )

    def test_each_query_recipe_is_defined_once(self):
        """One ``_run_<query>`` per query under ``core/engines/`` — the recipe."""
        definitions = {f"_run_{query}": [] for query in QUERY_NAMES}
        for path in sorted(pathlib.Path(repro.core.engines.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.FunctionDef) and node.name in definitions:
                    definitions[node.name].append(path.name)
        assert definitions == {name: ["base.py"] for name in definitions}

    def test_each_lookup_step_is_built_once(self):
        """The three lookups are aligned once, in ``base.py``; each family
        supplies one ``_relation``: column store, row store, Hive, R, SciDB,
        and the multi-node driver."""
        definitions = {name: [] for name in (
            "_drug_response_for", "_annotate_pairs", "_membership_matrix", "_relation")}
        for path in sorted(pathlib.Path(repro.core.engines.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.FunctionDef) and node.name in definitions:
                    definitions[node.name].append(path.name)
        assert definitions == {
            "_drug_response_for": ["base.py"],
            "_annotate_pairs": ["base.py"],
            "_membership_matrix": ["base.py"],
            "_relation": ["base.py", "colstore_engine.py", "hadoop.py", "multinode.py",
                          "postgres.py", "rlang_engine.py", "scidb.py"],
        }


@pytest.fixture(scope="module")
def every_engine(tiny_dataset) -> dict:
    engines = {}
    for name in sorted(ENGINE_FACTORIES):
        engines[name] = make_engine(name)
        engines[name].load(tiny_dataset)
    return engines


@pytest.mark.parametrize("engine_name", sorted(ENGINE_FACTORIES))
class TestLookupSteps:
    """Q1's drug responses and Q5's GO membership, through each engine's ``_relation``."""

    def test_drug_responses_follow_the_labels(self, engine_name, every_engine,
                                              tiny_dataset, rng):
        engine = every_engine[engine_name]
        responses = tiny_dataset.patients.drug_response
        labels = rng.permutation(len(responses))[: len(responses) // 2]
        np.testing.assert_array_equal(
            engine._drug_response_for(labels, PhaseTimer()), responses[labels])
        for unknown in (len(responses), -1):
            with pytest.raises(KeyError):
                engine._drug_response_for(np.append(labels, unknown), PhaseTimer())

    def test_membership_equals_the_dataset_bit_for_bit(self, engine_name, every_engine,
                                                       tiny_dataset, rng):
        engine = every_engine[engine_name]
        membership = tiny_dataset.ontology.membership
        whole = engine._membership_matrix(np.arange(tiny_dataset.n_genes), PhaseTimer())
        assert whole.dtype == membership.dtype == np.int8
        np.testing.assert_array_equal(whole, membership)
        subset = rng.permutation(tiny_dataset.n_genes)[: tiny_dataset.n_genes // 3]
        np.testing.assert_array_equal(
            engine._membership_matrix(subset, PhaseTimer()), membership[subset])


def test_no_phase_block_opens_inside_another(tiny_dataset, runner, monkeypatch):
    """``PhaseTimer`` adds a nested block's seconds twice, so no hook may
    open a phase while another of the same timer is open."""
    open_timers, nested = set(), []

    def guarded(phase):
        original = getattr(PhaseTimer, phase)

        @contextmanager
        def block(self):
            if id(self) in open_timers:
                nested.append(phase)
            open_timers.add(id(self))
            try:
                with original(self):
                    yield self
            finally:
                open_timers.discard(id(self))

        return block

    for phase in ("data_management", "analytics"):
        monkeypatch.setattr(PhaseTimer, phase, guarded(phase))
    for name in sorted(ENGINE_FACTORIES):
        engine = make_engine(name)
        engine.load(tiny_dataset)
        for query in QUERY_NAMES:
            nested.clear()
            result = runner.run(query, engine, tiny_dataset)
            assert result.status in (RunStatus.OK, RunStatus.UNSUPPORTED), f"{name}/{query}"
            assert nested == [], f"{name}/{query}: {nested} block opened inside an open block"

