"""Statistical acceptance of the approximate query tier.

Three layers, matching docs/APPROXIMATE.md:

- **Coverage**: over 200 fixed sampling seeds, the 95% confidence
  intervals for ``approx_mean`` — sample-last, and with a filter above
  the sample — cover the exact answer at the nominal rate, within a
  binomial tolerance band — the test is deterministic, so it either
  always passes or always fails.
- **Planner equivalence**: ``approx_mean`` builds its ``Sample`` node,
  and optimized and unoptimized lowerings agree bit for bit — on a written,
  uncompacted table too.
- **Gates**: the verifier's ``invalid-confidence`` /
  ``non-mergeable-aggregate`` rejection classes carry node paths (a
  serialized plan naming a retired estimator is refused, not run as a
  mean), and the bench regression gate demonstrably trips when the
  committed ``approx_aggregate`` speedup is doctored away.
"""

from __future__ import annotations

import json
import math
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from repro.colstore.catalog import ColumnStore
from repro.colstore.sketches import ApproxResult, normal_quantile, sampled_mean
from repro.core.queries import dataset_tables
from repro.datagen.dataset import GenBaseDataset
from repro.colstore.planner import explain_plan, run_plan
from repro.plan import (
    ApproxAggregate,
    Filter,
    Project,
    Sample,
    Scan,
    StaticTypeError,
    approx_mean,
    col,
    explain,
    lit,
)
from repro.plan.verify import PlanVerificationError, verified_schema

REPO = pathlib.Path(__file__).resolve().parent.parent

#: Coverage sweep: 200 fixed seeds at 95% nominal coverage.  The binomial
#: count of covering intervals has mean 190 and sd ~3.08; a floor four
#: sigma below the mean (178) never flakes, yet still fails any estimator
#: whose true coverage drops under ~92% — an interval that is honestly
#: wrong, not an unlucky draw.
N_SEEDS = 200
MIN_HITS = 178
FRACTION = 0.1


class ApproxFixture:
    """One GenBase store plus the exact answers the intervals must cover."""

    def __init__(self, size: str):
        tables = dataset_tables(GenBaseDataset.generate(size, seed=7))
        self.store = ColumnStore()
        for name, columns in tables.items():
            self.store.create_table(name, columns)
        self.values = np.asarray(tables["microarray"]["expression_value"],
                                 dtype=np.float64)
        self.exact_mean = float(self.values.mean())
        # Filter-above-sample ground truth.
        self.predicate = col("gene_id") < lit(25)
        mask = np.asarray(tables["microarray"]["gene_id"]) < 25
        self.filtered_mean = float(self.values[mask].mean())
        # A written, uncompacted copy of the patients: appended to, then deleted from.
        patients = tables["patients"]
        self.store.create_table("written", patients)
        self.store.append("written", {name: values[:20] for name, values in patients.items()})
        self.store.delete_where("written", col("age") < lit(30))


@pytest.fixture(scope="module", params=("tiny", "small"))
def fx(request) -> ApproxFixture:
    return ApproxFixture(request.param)


class TestStatisticalCoverage:
    """95% intervals cover the exact answer ~95% of the time, never flaking."""

    def _hits(self, fx, make_plan, exact) -> int:
        hits = 0
        for seed in range(N_SEEDS):
            result = run_plan(make_plan(seed), fx.store)
            assert result.ci_low <= result.estimate <= result.ci_high
            hits += result.covers(exact)
        return hits

    def test_sampled_mean_population_known(self, fx):
        hits = self._hits(
            fx,
            lambda seed: approx_mean(Scan("microarray"), "expression_value",
                                     fraction=FRACTION, seed=seed),
            fx.exact_mean,
        )
        assert MIN_HITS <= hits <= N_SEEDS

    def test_sampled_mean_filter_above_sample(self, fx):
        hits = self._hits(
            fx,
            lambda seed: approx_mean(
                Filter(Sample(Scan("microarray"), FRACTION, seed), fx.predicate),
                "expression_value"),
            fx.filtered_mean,
        )
        assert MIN_HITS <= hits <= N_SEEDS

    def test_sweep_reused_one_synopsis_per_seed(self, fx):
        # Every (fraction, seed) pair the sweeps above drew is cached: the
        # synopsis catalog holds one selection per key, not one per query.
        assert len(fx.store.synopses) == N_SEEDS


def _written_fixture() -> ApproxFixture:
    """``small`` with every sweep synopsis drawn *before* three rounds of
    writes, so the sweeps below are answered from maintained entries."""
    fx = ApproxFixture("small")
    store, catalog = fx.store, fx.store.synopses
    rng = np.random.default_rng(99)
    n_genes = int(store.table("microarray").column("gene_id").values().max()) + 1
    for round_ in range(3):
        for seed in range(N_SEEDS):
            if round_ == 0 or seed % 3 == round_:  # some entries skip versions
                catalog.uniform("microarray", FRACTION, seed)
        patients = np.arange(1_000 + 4 * round_, 1_004 + 4 * round_)
        store.append("microarray", {
            "gene_id": np.tile(np.arange(n_genes), len(patients)),
            "patient_id": np.repeat(patients, n_genes),
            "expression_value": rng.normal(9.0, 3.0, n_genes * len(patients)),
        })
        store.delete_where("microarray", col("patient_id") == lit(5 + round_))
        live = store.snapshot("microarray").live_selection()
        store.delete("microarray", rng.choice(live, size=len(live) // 50, replace=False))
    assert store.snapshot("microarray").generation == 0  # entries carried, never renumbered
    logical = store.snapshot("microarray").logical_arrays()
    fx.values = np.asarray(logical["expression_value"], dtype=np.float64)
    fx.exact_mean = float(fx.values.mean())
    mask = np.asarray(logical["gene_id"]) < 25
    fx.filtered_mean = float(fx.values[mask].mean())
    return fx


class TestStatisticalCoverageOnMaintainedSynopses(TestStatisticalCoverage):
    """The same sweeps on a store whose synopses were carried through writes.

    Equality with the fresh draw is what ``tests/test_delta.py`` proves; this
    is the statistical contract checked end to end on the maintained path.
    """

    @pytest.fixture(scope="class")
    def fx(self) -> ApproxFixture:
        return _written_fixture()

    def test_maintained_selections_are_the_fresh_draws(self, fx):
        for seed in range(0, N_SEEDS, 7):
            np.testing.assert_array_equal(
                fx.store.synopses.uniform("microarray", FRACTION, seed),
                fx.store.query("microarray").sample(FRACTION, seed).selection)


class TestPlannerEquivalence:
    """Optimized and unoptimized lowerings agree; the synopsis is pure caching."""

    WRITTEN = approx_mean(Scan("written"), "drug_response", fraction=0.3, seed=4)
    PLANS = [
        approx_mean(Scan("microarray"), "expression_value", fraction=0.2, seed=3),
        approx_mean(Scan("microarray"), "expression_value", fraction=0.05),
        approx_mean(Filter(Scan("patients"), col("age") >= 40), "age", fraction=0.5),
        ApproxAggregate(
            Filter(Sample(Scan("microarray"), 0.2, 5), col("gene_id") < lit(10)),
            "expression_value", "approx_mean"),
        ApproxAggregate(
            Sample(Project(Scan("microarray"), ("expression_value",)), 0.25, 2),
            "expression_value", "approx_mean"),
        WRITTEN,
    ]

    def test_optimized_matches_unoptimized_bit_for_bit(self, fx):
        for plan in self.PLANS:
            fast = run_plan(plan, fx.store, optimized=True)
            slow = run_plan(plan, fx.store, optimized=False)
            assert tuple(fast) == tuple(slow), explain_plan(plan, fx.store)

    def test_approx_mean_builds_the_sample_node(self):
        plan = approx_mean(Scan("microarray"), "expression_value", fraction=0.2, seed=3)
        assert plan == ApproxAggregate(
            Sample(Scan("microarray"), 0.2, 3), "expression_value", "approx_mean")
        assert explain(plan).splitlines() == [
            "ApproxAggregate approx_mean(expression_value) confidence=0.95",
            "  Sample fraction=0.2 seed=3",
            "    Scan microarray",
        ]

    @pytest.mark.parametrize("fraction", [0.0, -0.1, 1.5])
    def test_approx_mean_refuses_a_fraction_outside_the_unit_interval(self, fraction):
        # An empty sample has no mean, so 0 is refused although Sample admits it.
        with pytest.raises(StaticTypeError) as excinfo:
            approx_mean(Scan("microarray"), "expression_value", fraction=fraction)
        assert excinfo.value.rule == "invalid-sample-fraction"

    def test_written_table_answers_the_snapshot_sample(self, fx):
        snapshot = fx.store.snapshot("written")
        assert snapshot.tail_rows and snapshot.deleted_count  # written, not compacted
        sampled = snapshot.query().sample(0.3, 4)
        expected = sampled_mean(sampled.column("drug_response"),
                                len(sampled) / snapshot.live_rows)
        for optimized in (True, False):
            result = run_plan(self.WRITTEN, fx.store, optimized=optimized)
            assert tuple(result) == tuple(expected)

    def test_repeated_queries_reuse_one_cached_synopsis(self):
        fx = ApproxFixture("tiny")
        plan = approx_mean(Scan("microarray"), "expression_value",
                           fraction=0.15, seed=11)
        first = run_plan(plan, fx.store)
        assert len(fx.store.synopses) == 1
        assert tuple(run_plan(plan, fx.store)) == tuple(first)
        # A projection wrapper (what projection pruning inserts between the
        # Sample and the Scan) still hits the same cached selection.
        wrapped = ApproxAggregate(
            Sample(Project(Scan("microarray"), ("expression_value",)), 0.15, 11),
            "expression_value", "approx_mean")
        assert tuple(run_plan(wrapped, fx.store)) == tuple(first)
        assert len(fx.store.synopses) == 1

    def test_plan_answers_sampled_mean_over_the_synopsis(self, fx):
        # The estimate is the mean of the cached selection's rows and the
        # interval is priced at the realised fraction, the population read
        # off the same snapshot the selection was drawn from.  0.03335 of
        # neither fixture's row count is whole, so realised and asked differ.
        plan = approx_mean(Scan("microarray"), "expression_value",
                           fraction=0.03335, seed=3)
        selection = fx.store.synopses.uniform("microarray", 0.03335, 3)
        assert len(selection) / len(fx.values) != 0.03335
        expected = sampled_mean(fx.values[selection], len(selection) / len(fx.values))
        assert tuple(run_plan(plan, fx.store)) == tuple(expected)

    def test_no_sample_means_exact_and_zero_width(self, fx):
        result = run_plan(
            approx_mean(Scan("microarray"), "expression_value"), fx.store)
        assert result.estimate == result.ci_low == result.ci_high
        assert result.estimate == pytest.approx(fx.exact_mean, rel=1e-12)


class TestVerifierRejections:
    """The new rejection classes carry their rule names and node paths."""

    SCHEMAS = {"microarray": {"patient_id": np.dtype(np.int64),
                              "gene_id": np.dtype(np.int64),
                              "expression_value": np.dtype(np.float64)}}

    def _rejects(self, plan) -> PlanVerificationError:
        with pytest.raises(PlanVerificationError) as excinfo:
            verified_schema(plan, self.SCHEMAS)
        return excinfo.value

    def test_invalid_confidence_names_node_path(self):
        error = self._rejects(ApproxAggregate(
            Filter(Scan("microarray"), col("gene_id") < lit(5)),
            "expression_value", "approx_mean", confidence=1.5))
        assert error.rule == "invalid-confidence"
        assert error.path.startswith("ApproxAggregate")

    # A kind this tier never had, and the four it retired: a serialized plan
    # naming one is refused, not run as a mean.
    @pytest.mark.parametrize("kind", ["approx_mode", "approx_distinct", "approx_quantile",
                                      "approx_count", "approx_sum"])
    def test_non_mergeable_kind_names_the_contract(self, kind):
        error = self._rejects(ApproxAggregate(
            Scan("microarray"), "expression_value", kind))
        assert error.rule == "non-mergeable-aggregate"
        assert "mergeable" in str(error) and repr(kind) in str(error)
        assert error.path.startswith("ApproxAggregate")

    def test_well_formed_plan_verifies_to_interval_schema(self):
        schema = verified_schema(
            approx_mean(Scan("microarray"), "gene_id"), self.SCHEMAS)
        assert list(schema) == ["approx_mean(gene_id)", "ci_low",
                                "ci_high", "confidence"]


class TestBenchGateTrips:
    """The committed approx_aggregate entry is gated and its gate is live."""

    GATE = REPO / "benchmarks" / "check_bench_regression.py"
    RECORD = REPO / "BENCH_colstore.json"

    def _run_gate(self, candidate: pathlib.Path) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, str(self.GATE), "--candidate", str(candidate)],
            capture_output=True, text=True,
        )

    def _approx_entry(self, record: dict) -> dict:
        (entry,) = [e for e in record["results"] if e["op"] == "approx_aggregate"]
        return entry

    def test_committed_record_gates_a_real_speedup(self):
        entry = self._approx_entry(json.loads(self.RECORD.read_text()))
        assert entry["gated"] is True
        assert entry["speedup"] > 1.0

    def test_identical_candidate_passes(self, tmp_path):
        candidate = tmp_path / "candidate.json"
        candidate.write_text(self.RECORD.read_text())
        result = self._run_gate(candidate)
        assert result.returncode == 0, result.stdout + result.stderr

    def test_simulated_sampling_loss_trips_the_gate(self, tmp_path):
        record = json.loads(self.RECORD.read_text())
        entry = self._approx_entry(record)
        # Simulate losing the sampling fast path: the "approximate" run
        # costs twice the exact scan.
        entry["compressed_s"] = entry["baseline_s"] * 2
        entry["speedup"] = 0.5
        candidate = tmp_path / "doctored.json"
        candidate.write_text(json.dumps(record))
        result = self._run_gate(candidate)
        assert result.returncode == 1
        assert "REGRESSION" in result.stdout
        assert "approx_aggregate" in result.stdout


class TestApproxResultContract:
    """The (estimate, ci_low, ci_high, confidence) tuple behaves as one."""

    def test_unpacks_in_documented_order(self):
        estimate, low, high, confidence = ApproxResult(3.0, 2.0, 4.0, 0.9)
        assert (estimate, low, high, confidence) == (3.0, 2.0, 4.0, 0.9)

    def test_covers_is_inclusive(self):
        result = ApproxResult(3.0, 2.0, 4.0, 0.9)
        assert result.covers(2.0) and result.covers(4.0)
        assert not result.covers(4.0000001)

    def test_normal_quantile_brackets_the_textbook_z(self):
        assert normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-5)
        with pytest.raises(ValueError):
            normal_quantile(1.0)



class TestSampledMeanInterval:
    """The one estimator's interval, pinned against its closed form."""

    VALUES = np.array([2.0, 4.0, 4.0, 5.0, 7.0, 9.0])

    def _width(self, result: ApproxResult) -> float:
        return result.ci_high - result.ci_low

    def test_margin_is_the_fpc_corrected_clt_half_width(self):
        mean = float(np.mean(self.VALUES))
        margin = (normal_quantile(0.975) * float(np.std(self.VALUES, ddof=1))
                  / math.sqrt(len(self.VALUES)) * math.sqrt(1.0 - 0.25))
        assert tuple(sampled_mean(self.VALUES, 0.25)) == (
            mean, mean - margin, mean + margin, 0.95)

    def test_empty_sample_is_a_nan_interval_at_the_asked_confidence(self):
        estimate, low, high, confidence = sampled_mean(np.array([]), 0.1, 0.9)
        assert np.isnan([estimate, low, high]).all()
        assert confidence == 0.9

    def test_single_value_has_zero_width(self):
        assert tuple(sampled_mean(np.array([3.5]), 0.1)) == (3.5, 3.5, 3.5, 0.95)

    def test_full_fraction_collapses_to_the_exact_mean(self):
        result = sampled_mean(self.VALUES, 1.0)
        assert result.ci_low == result.estimate == result.ci_high == np.mean(self.VALUES)

    def test_higher_confidence_widens_the_interval(self):
        widths = [self._width(sampled_mean(self.VALUES, 0.25, confidence))
                  for confidence in (0.8, 0.95, 0.99)]
        assert 0.0 < widths[0] < widths[1] < widths[2]

    @pytest.mark.parametrize("confidence", [0.0, 1.0, -0.5, 1.5])
    def test_confidence_outside_the_open_unit_interval_raises(self, confidence):
        with pytest.raises(ValueError, match="confidence must be in"):
            sampled_mean(self.VALUES, 0.25, confidence)

    # Both tails and the central region of Acklam's approximation.
    @pytest.mark.parametrize("p, z", [(0.001, -3.090232), (0.01, -2.326348),
                                      (0.3, -0.524401)])
    def test_normal_quantile_matches_the_table_and_is_antisymmetric(self, p, z):
        assert normal_quantile(p) == pytest.approx(z, abs=1e-6)
        assert normal_quantile(1.0 - p) == pytest.approx(-normal_quantile(p), rel=1e-9)

class TestSynopsisCatalog:
    """Synopses build once and cache by key."""

    def test_uniform_synopsis_is_cached_and_bit_identical_to_sample(self):
        fx = ApproxFixture("tiny")
        first = fx.store.synopses.uniform("microarray", 0.1, seed=4)
        again = fx.store.synopses.uniform("microarray", 0.1, seed=4)
        assert first is again
        assert len(fx.store.synopses) == 1
        inline = fx.store.query("microarray").sample(0.1, 4)
        np.testing.assert_array_equal(first, inline.selection)

    def test_one_entry_per_table_fraction_and_seed(self):
        fx = ApproxFixture("tiny")
        selection = fx.store.synopses.uniform("patients", 0.5, seed=1)
        assert len(selection) == 30
        assert fx.store.synopses.uniform("patients", 0.5, seed=1) is selection
        assert len(fx.store.synopses) == 1
        fx.store.synopses.uniform("patients", 0.5, seed=2)
        fx.store.synopses.uniform("patients", 0.25, seed=1)
        assert len(fx.store.synopses) == 3
