"""The differential fuzzer: property tests, calibration gate, tolerances.

Three layers:

- **Properties** (hypothesis): every case the grammar can draw passes the
  full cross-engine differential check.  The PR profile is bounded and
  derandomized; the deep variant is marked ``slow`` and runs nightly.
- **Calibration gate**: the real fuzz run's report passes
  ``tools/check_cost_calibration.py``, and a report produced with every
  selectivity forced to 1.0 demonstrably trips it.
- **Units**: the shared tolerance table, plan/expression serialisation
  round-trips, and the reference executor's sample semantics.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
import pathlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.queries import dataset_tables
from repro.datagen.dataset import GenBaseDataset
from repro.colstore import ColumnStore
from repro.colstore.sketches import ApproxResult
from repro.fuzz.calibration import CalibrationRecord, q_error, write_report
from repro.fuzz.generate import (
    FuzzCase,
    FuzzSchema,
    UNMUTATED_SHAPES,
    MutationOp,
    case_from_seed,
    lower_mutations,
)
from fuzz_strategies import fuzz_cases
from repro.fuzz.harness import FuzzHarness
from repro.fuzz.reference import mutated_tables
from repro.fuzz.serialize import (
    expression_from_json,
    expression_to_json,
    plan_from_json,
    plan_to_json,
)
from repro.fuzz.tolerances import (
    EXACT,
    ULP,
    aggregate_tolerance,
    assert_values_match,
)
from repro.plan import Filter, Join, Pivot, Project, Scan, col
from repro.plan.logical import explain

REPO = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def harness() -> FuzzHarness:
    return FuzzHarness(size="tiny", dataset_seed=7)


def test_slow_marker_is_registered(pytestconfig):
    """A typo'd marker must fail collection, so the real one must exist."""
    markers = [line.split(":")[0] for line in pytestconfig.getini("markers")]
    assert "slow" in markers
    assert "--strict-markers" in pytestconfig.getini("addopts")


# hypothesis's @given needs the strategy at definition time, so the grammar
# schema is built module-level (cheap: tables only); the engine contexts
# come from one lazily-built shared harness.
_SCHEMA = FuzzSchema.from_tables(
    dataset_tables(GenBaseDataset.generate("tiny", seed=7))
)
_HARNESS_CACHE: list[FuzzHarness] = []


def _shared_harness() -> FuzzHarness:
    if not _HARNESS_CACHE:
        _HARNESS_CACHE.append(FuzzHarness(size="tiny", dataset_seed=7))
    return _HARNESS_CACHE[0]


@settings(max_examples=40, derandomize=True, deadline=None)
@given(data=fuzz_cases(_SCHEMA))
def test_fuzzed_plans_agree_across_engines(data: FuzzCase):
    """PR profile: bounded, derandomized differential property."""
    outcome = _shared_harness().check_case(data)
    assert outcome.record.observed_rows is not None


@pytest.mark.slow
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=fuzz_cases(_SCHEMA))
def test_fuzzed_plans_agree_across_engines_deep(data: FuzzCase):
    """Nightly profile: many more examples, randomized exploration."""
    _shared_harness().check_case(data)


@pytest.mark.slow
def test_seed_sweep_nightly(harness):
    """Nightly profile: 500 sequential CLI seeds stay green."""
    for seed in range(500):
        harness.check_case(case_from_seed(seed, harness.schema))


class TestSeedPath:
    """The CLI's seed-driven generator is reproducible and serialisable."""

    def test_same_seed_same_plan(self, harness):
        a = case_from_seed(42, harness.schema)
        b = case_from_seed(42, harness.schema)
        assert explain(a.plan) == explain(b.plan)
        assert (a.shape, a.table, a.key) == (b.shape, b.table, b.key)

    def test_case_json_round_trip(self, harness):
        for seed in range(30):
            case = case_from_seed(seed, harness.schema)
            rebuilt = FuzzCase.from_json(json.loads(json.dumps(case.to_json())))
            assert explain(rebuilt.plan) == explain(case.plan)
            assert rebuilt.shape == case.shape
            assert rebuilt.has_value_predicate == case.has_value_predicate

    def test_expression_round_trip_evaluates_identically(self, harness):
        batch = harness.tables["patients"]
        predicate = ((col("age") < 50) & ~col("gender").isin([0])) | \
            (col("disease_id") == 3)
        rebuilt = expression_from_json(expression_to_json(predicate))
        np.testing.assert_array_equal(
            predicate.evaluate(batch), rebuilt.evaluate(batch)
        )

    def test_plan_round_trip_rejects_unknown_tags(self):
        with pytest.raises(ValueError):
            plan_from_json({"t": "mystery"})

    def test_sample_plans_serialise(self):
        plan = Pivot(
            Project(
                Filter(Join(Scan("patients"), Scan("microarray"),
                            "patient_id", "patient_id"),
                       col("age") >= 40),
                ("patient_id", "gene_id", "expression_value"),
            ),
            "patient_id", "gene_id", "expression_value",
        )
        assert explain(plan_from_json(plan_to_json(plan))) == explain(plan)


class TestMutationPrelude:
    """Write preludes: delta-tier writes replayed identically on both sides."""

    def test_mutated_cases_agree_with_reference(self, harness):
        checked = 0
        kinds: set[str] = set()
        for seed in range(150):
            case = case_from_seed(seed, harness.schema)
            if not case.mutations:
                continue
            kinds.update(op.kind for op in case.mutations)
            outcome = harness.check_case(case)
            if not outcome.skipped_empty:
                # Mutated cases admit the two column-store lowerings only.
                assert outcome.engines_checked == ["colstore", "colstore-unopt"]
                checked += 1
            # Shuffle-byte predictions are skipped (gate ignores None).
            assert outcome.record.predicted_shuffle_bytes is None
        assert checked >= 10  # the grammar must actually exercise preludes
        assert kinds == {"append", "delete", "compact"}

    def test_mutated_case_json_round_trips(self, harness):
        seen = 0
        for seed in range(150):
            case = case_from_seed(seed, harness.schema)
            if not case.mutations:
                continue
            rebuilt = FuzzCase.from_json(json.loads(json.dumps(case.to_json())))
            assert [op.to_json() for op in rebuilt.mutations] == \
                   [op.to_json() for op in case.mutations]
            assert explain(rebuilt.plan) == explain(case.plan)
            seen += 1
        assert seen >= 10

    def test_artifacts_predating_mutations_still_load(self, harness):
        """Backwards compatibility: old failure artifacts have no key."""
        case = case_from_seed(0, harness.schema)
        data = json.loads(json.dumps(case.to_json()))
        data.pop("mutations")
        assert FuzzCase.from_json(data).mutations == ()

    def test_sample_shapes_never_carry_mutations(self, harness):
        """Sampling is position-dependent; compaction renumbers positions."""
        for seed in range(300):
            case = case_from_seed(seed, harness.schema)
            if case.shape in UNMUTATED_SHAPES:
                assert case.mutations == ()

    def test_lowered_steps_match_delta_store_semantics(self, harness):
        """The reference's replay equals the real delta tier's snapshot."""
        ops = (
            MutationOp("append", "patients", seed=11, count=4),
            MutationOp("delete", "patients", seed=12, count=3),
            MutationOp("compact", "patients", seed=0, count=0),
            MutationOp("append", "patients", seed=13, count=2),
            MutationOp("delete", "patients", seed=14, count=2),
        )
        steps = lower_mutations(ops, harness.tables, harness.schema)
        assert [kind for kind, _, _ in steps] == \
            ["append", "delete", "compact", "append", "delete"]
        store = ColumnStore()
        for name, columns in harness.tables.items():
            store.create_table(name, columns)
        for kind, table, payload in steps:
            if kind == "append":
                store.append(table, payload)
            elif kind == "delete":
                store.delete(table, payload)
            else:
                store.compact(table)
        expected = mutated_tables(harness.tables, steps)["patients"]
        arrays = store.snapshot("patients").logical_arrays()
        assert set(arrays) == set(expected)
        for name, values in expected.items():
            np.testing.assert_array_equal(arrays[name], values)


class TestCalibrationGate:
    """The q-error gate passes honest reports and trips skewed ones."""

    def _run_gate(self, report_path) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, str(REPO / "tools" / "check_cost_calibration.py"),
             "--report", str(report_path)],
            capture_output=True, text=True,
        )

    def test_gate_passes_on_real_predictions(self, harness, tmp_path):
        records = [harness.check_case(case_from_seed(seed, harness.schema)).record
                   for seed in range(60)]
        report = tmp_path / "report.json"
        write_report(report, records)
        result = self._run_gate(report)
        assert result.returncode == 0, result.stdout + result.stderr

    def test_gate_trips_when_selectivity_forced_to_one(self, harness, tmp_path):
        """The ISSUE's trip-wire: selectivity 1.0 must fail the gate."""
        records = [
            harness.check_case(case_from_seed(seed, harness.schema),
                               skew_selectivity=True).record
            for seed in range(60)
        ]
        report = tmp_path / "skewed.json"
        write_report(report, records)
        result = self._run_gate(report)
        assert result.returncode == 1, result.stdout + result.stderr
        assert "FAILED" in result.stdout

    def test_gate_refuses_tiny_samples(self, tmp_path):
        report = tmp_path / "tiny.json"
        write_report(report, [CalibrationRecord(seed=0, shape="meta",
                                                predicted_rows=1.0,
                                                observed_rows=1)])
        result = self._run_gate(report)
        assert result.returncode == 1

    def test_q_error_is_symmetric_and_smoothed(self):
        assert q_error(10, 10) == 1.0
        assert q_error(0, 0) == 1.0
        assert q_error(9, 99) == q_error(99, 9) == 10.0


class TestTolerances:
    """One shared tolerance table for the fuzzer and the query tests."""

    def test_structural_results_are_exact_everywhere(self):
        for function in ("count", "min", "max"):
            assert aggregate_tolerance(function) is EXACT

    def test_reassociating_reductions_are_ulp_on_every_engine(self):
        for function in ("sum", "mean", "avg"):
            assert aggregate_tolerance(function) is ULP

    def test_assert_values_match_exact_rejects_last_ulp(self):
        base = np.array([1.0, 2.0])
        off = base + np.array([0.0, np.finfo(np.float64).eps * 2])
        with pytest.raises(AssertionError):
            assert_values_match(off, base, EXACT)
        assert_values_match(off, base, ULP)  # within rel=1e-9

    def test_ulp_tolerance_still_rejects_real_divergence(self):
        with pytest.raises(AssertionError):
            assert_values_match(np.array([1.0]), np.array([1.001]), ULP)


class TestReferenceSampleSemantics:
    """The reference's Sample replicates the column store bit for bit."""

    def test_sample_plans_match_colstore_for_many_seeds(self, harness):
        checked = 0
        for seed in range(200):
            case = case_from_seed(seed, harness.schema)
            if case.shape != "sample":
                continue
            harness.check_case(case)
            checked += 1
        assert checked >= 10  # the grammar must actually exercise Sample


class TestApproxShapes:
    """``approx_mean`` estimates equal the reference's mean over the same sample."""

    def test_approx_plans_match_exact_reference_for_many_seeds(self, harness):
        checked = 0
        for seed in range(200):
            case = case_from_seed(seed, harness.schema)
            if case.shape != "approx":
                continue
            outcome = harness.check_case(case)
            if not outcome.skipped_empty:
                assert outcome.engines_checked == ["colstore", "colstore-unopt"]
                checked += 1
        assert checked >= 10  # the grammar must actually exercise approx
        # Unfiltered cases are answered through the synopsis catalog.
        assert len(harness.store.synopses) >= 1

    def test_approx_plans_serialise(self, harness):
        for seed in range(200):
            case = case_from_seed(seed, harness.schema)
            if case.shape != "approx":
                continue
            data = plan_to_json(case.plan)
            assert plan_to_json(plan_from_json(data)) == data

    def _first_approx_case(self, harness) -> FuzzCase:
        return next(case for case in (case_from_seed(seed, harness.schema)
                                      for seed in range(200))
                    if case.shape == "approx")

    @pytest.mark.parametrize("answer, reference", [
        (ApproxResult(5.0, 4.0, 6.0, 0.95), 5.5),
        (ApproxResult(5.0, 5.5, 6.0, 0.95), 5.0),
        (ApproxResult(5.0, 4.0, 6.0, 0.95), float("nan")),
        (ApproxResult(float("nan"), float("nan"), float("nan"), 0.95), 5.0),
        (ApproxResult(5.0, 4.0, 6.0, 1.0), 5.0),
    ], ids=["off-the-sample-mean", "outside-its-interval", "answer-on-empty",
            "nan-on-nonempty", "confidence-out-of-range"])
    def test_check_approx_rejects_a_wrong_answer(self, harness, answer, reference):
        with pytest.raises(AssertionError):
            harness._check_approx(self._first_approx_case(harness), answer,
                                  reference, "colstore", "probe")

    def test_check_approx_accepts_the_sample_mean_and_nan_on_empty(self, harness):
        case = self._first_approx_case(harness)
        harness._check_approx(case, ApproxResult(5.0, 4.0, 6.0, 0.95), 5.0,
                              "colstore", "probe")
        nan = float("nan")
        harness._check_approx(case, ApproxResult(nan, nan, nan, 0.95), nan,
                              "colstore", "probe")

    def test_a_mutated_approx_case_is_refused(self, harness):
        """The drawn rows depend on physical positions, which writes move."""
        case = self._first_approx_case(harness)
        mutated = dataclasses.replace(
            case, mutations=(MutationOp("compact", case.table, seed=0, count=0),))
        with pytest.raises(ValueError, match="does not admit a mutation prelude"):
            harness.check_case(mutated)
