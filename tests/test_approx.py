"""Statistical acceptance of the approximate query tier.

Four layers, matching docs/APPROXIMATE.md:

- **Coverage**: over 200 fixed sampling seeds, the 95% confidence
  intervals for sampled sum/mean (sample-last, population known) and
  Horvitz-Thompson sum/count (filters above the sample) cover the exact
  answer at the nominal rate, within a binomial tolerance band — the
  test is deterministic, so it either always passes or always fails.
- **Merge invariance** (hypothesis): HyperLogLog and t-digest partition
  sketches merge to *exactly* the single-pass sketch, in any merge
  order, over every encoding and narrowed selections — the property the
  cluster bridge's driver-side reduction relies on.
- **Planner / cluster equivalence**: optimized and unoptimized lowerings
  agree bit for bit, synopsis routing materialises a reusable ``Sample``,
  and the cluster's merged partials equal one single-pass sketch.
- **Gates**: the verifier's ``invalid-confidence`` /
  ``non-mergeable-aggregate`` rejection classes carry node paths, and
  the bench regression gate demonstrably trips when the committed
  ``approx_aggregate`` speedup is doctored away.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, PartitionedTable
from repro.cluster.bridge import run_shared_plan as run_cluster_plan
from repro.colstore.catalog import ColumnStore
from repro.colstore.column import ColumnVector
from repro.colstore.sketches import (
    ApproxResult,
    HyperLogLog,
    TDigest,
    normal_quantile,
)
from repro.core.queries import dataset_tables
from repro.datagen.dataset import GenBaseDataset
from repro.colstore.planner import explain_plan, optimize_plan, run_plan
from repro.plan import (
    ApproxAggregate,
    Filter,
    Project,
    Sample,
    Scan,
    approx_distinct,
    approx_mean,
    approx_quantile,
    approx_sum,
    col,
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
        self.exact_sum = float(self.values.sum())
        self.exact_mean = float(self.values.mean())
        # Filter-above-sample ground truth (Horvitz-Thompson path).
        self.predicate = col("gene_id") < lit(25)
        mask = np.asarray(tables["microarray"]["gene_id"]) < 25
        self.ht_sum = float(self.values[mask].sum())
        self.ht_count = float(mask.sum())


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

    def test_sampled_sum_population_known(self, fx):
        hits = self._hits(
            fx,
            lambda seed: approx_sum(Scan("microarray"), "expression_value",
                                    fraction=FRACTION, seed=seed),
            fx.exact_sum,
        )
        assert MIN_HITS <= hits <= N_SEEDS

    def test_sampled_mean_population_known(self, fx):
        hits = self._hits(
            fx,
            lambda seed: approx_mean(Scan("microarray"), "expression_value",
                                     fraction=FRACTION, seed=seed),
            fx.exact_mean,
        )
        assert MIN_HITS <= hits <= N_SEEDS

    def test_horvitz_thompson_sum_filter_above_sample(self, fx):
        hits = self._hits(
            fx,
            lambda seed: ApproxAggregate(
                Filter(Sample(Scan("microarray"), FRACTION, seed), fx.predicate),
                "expression_value", "approx_sum"),
            fx.ht_sum,
        )
        assert MIN_HITS <= hits <= N_SEEDS

    def test_horvitz_thompson_count_filter_above_sample(self, fx):
        hits = self._hits(
            fx,
            lambda seed: ApproxAggregate(
                Filter(Sample(Scan("microarray"), FRACTION, seed), fx.predicate),
                "expression_value", "approx_count"),
            fx.ht_count,
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
    fx.exact_sum, fx.exact_mean = float(fx.values.sum()), float(fx.values.mean())
    mask = np.asarray(logical["gene_id"]) < 25
    fx.ht_sum, fx.ht_count = float(fx.values[mask].sum()), float(mask.sum())
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


ENCODINGS = ("plain", "rle", "dictionary", "delta")


@st.composite
def partitioned_columns(draw):
    """A column (any encoding), a narrowed selection, and a partition of it.

    Returns ``(column, positions, parts, merge_order)`` where ``parts``
    partition ``positions`` and ``merge_order`` permutes the parts — the
    merged sketch must equal the single-pass sketch over ``positions``
    whatever the order.
    """
    n = draw(st.integers(min_value=1, max_value=120))
    values = draw(st.lists(st.integers(min_value=-50, max_value=50),
                           min_size=n, max_size=n))
    encoding = draw(st.sampled_from(ENCODINGS))
    column = ColumnVector("x", np.asarray(values, dtype=np.int64),
                          encoding=encoding)
    keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    positions = np.flatnonzero(keep)
    if len(positions) == 0:
        positions = np.array([0], dtype=np.int64)
    n_parts = draw(st.integers(min_value=1, max_value=4))
    cuts = sorted(draw(st.lists(
        st.integers(min_value=0, max_value=len(positions)),
        min_size=n_parts - 1, max_size=n_parts - 1)))
    parts = np.split(positions, cuts)
    order = draw(st.permutations(range(len(parts))))
    return column, positions, parts, order


class TestMergeInvariance:
    """Partition sketches merge to the single-pass sketch, in any order."""

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(case=partitioned_columns())
    def test_hll_merge_is_order_and_partition_invariant(self, case):
        column, positions, parts, order = case
        single_pass = column.hll_sketch(positions)
        merged = HyperLogLog()
        for index in order:
            merged = merged.merge(column.hll_sketch(parts[index]))
        np.testing.assert_array_equal(merged.registers, single_pass.registers)
        assert tuple(merged.result()) == tuple(single_pass.result())

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(case=partitioned_columns())
    def test_tdigest_merge_is_order_and_partition_invariant(self, case):
        column, positions, parts, order = case
        single_pass = column.tdigest_sketch(positions)
        merged = TDigest()
        for index in order:
            merged = merged.merge(column.tdigest_sketch(parts[index]))
        np.testing.assert_array_equal(merged.means, single_pass.means)
        np.testing.assert_array_equal(merged.weights, single_pass.weights)
        for q in (0.0, 0.25, 0.5, 0.9, 1.0):
            assert merged.quantile(q) == single_pass.quantile(q)

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(case=partitioned_columns())
    def test_uncompressed_digest_matches_inverted_cdf_exactly(self, case):
        column, positions, _parts, _order = case
        digest = column.tdigest_sketch(positions)
        rows = column.take(positions).astype(np.float64)
        for q in (0.1, 0.5, 0.9):
            assert digest.quantile(q) == float(
                np.quantile(rows, q, method="inverted_cdf"))


class TestPlannerEquivalence:
    """Optimized and unoptimized lowerings agree; routing is pure caching."""

    PLANS = [
        approx_sum(Scan("microarray"), "expression_value", fraction=0.2, seed=3),
        approx_mean(Scan("microarray"), "expression_value", fraction=0.05),
        approx_distinct(Scan("microarray"), "gene_id"),
        approx_quantile(Filter(Scan("patients"), col("age") >= 40), "age", q=0.9),
        ApproxAggregate(
            Filter(Sample(Scan("microarray"), 0.2, 5), col("gene_id") < lit(10)),
            "expression_value", "approx_sum"),
        ApproxAggregate(
            Sample(Project(Scan("microarray"), ("expression_value",)), 0.25, 2),
            "expression_value", "approx_mean"),
    ]

    def test_optimized_matches_unoptimized_bit_for_bit(self, fx):
        for plan in self.PLANS:
            fast = run_plan(plan, fx.store, optimized=True)
            slow = run_plan(plan, fx.store, optimized=False)
            assert tuple(fast) == tuple(slow), explain_plan(plan, fx.store)

    def test_synopsis_routing_materialises_the_sample(self, fx):
        plan = approx_sum(Scan("microarray"), "expression_value",
                          fraction=0.2, seed=3)
        rendered = explain_plan(optimize_plan(plan, fx.store), fx.store)
        assert "Sample" in rendered
        explicit = ApproxAggregate(
            Sample(Scan("microarray"), 0.2, 3), "expression_value", "approx_sum")
        assert tuple(run_plan(plan, fx.store)) == tuple(run_plan(explicit, fx.store))

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

    def test_no_sample_means_exact_and_zero_width(self, fx):
        result = run_plan(
            approx_sum(Scan("microarray"), "expression_value"), fx.store)
        assert result.estimate == result.ci_low == result.ci_high
        assert result.estimate == pytest.approx(fx.exact_sum, rel=1e-12)

    def test_sketch_kinds_stay_inside_their_error_models(self, fx):
        distinct = run_plan(approx_distinct(Scan("microarray"), "gene_id"),
                            fx.store)
        true_distinct = len(np.unique(
            fx.store.table("microarray").column("gene_id").values()))
        assert abs(distinct.estimate - true_distinct) <= 0.05 * true_distinct
        quantile = run_plan(
            approx_quantile(Scan("microarray"), "expression_value", q=0.5),
            fx.store)
        exact_median = float(np.quantile(fx.values, 0.5, method="inverted_cdf"))
        assert quantile.covers(exact_median)


class TestClusterSketchMerge:
    """Per-partition sketch partials reduce driver-side to the single pass."""

    def _partitioned(self, fx, n_parts: int) -> PartitionedTable:
        gene = fx.store.table("microarray").column("gene_id").values()
        value = fx.values
        bounds = np.linspace(0, len(gene), n_parts + 1).astype(np.int64)
        return PartitionedTable.from_partitions("microarray", [
            {"gene_id": gene[a:b], "expression_value": value[a:b]}
            for a, b in zip(bounds[:-1], bounds[1:])
        ])

    def test_distinct_merge_equals_single_pass(self, fx):
        plan = approx_distinct(Scan("microarray"), "gene_id")
        table = self._partitioned(fx, 4)
        merged = run_cluster_plan(plan, table, Cluster(4))
        single = HyperLogLog().add_array(
            fx.store.table("microarray").column("gene_id").values())
        assert tuple(merged) == tuple(single.result(plan.confidence))

    def test_filtered_quantile_merge_equals_single_pass(self, fx):
        plan = approx_quantile(
            Filter(Scan("microarray"), col("gene_id") < lit(25)),
            "expression_value", q=0.9)
        table = self._partitioned(fx, 3)
        merged = run_cluster_plan(plan, table, Cluster(3))
        gene = fx.store.table("microarray").column("gene_id").values()
        single = TDigest().add_array(fx.values[gene < 25])
        assert tuple(merged) == tuple(single.result(0.9, plan.confidence))

    def test_sampled_kinds_are_rejected_with_guidance(self, fx):
        plan = approx_sum(Scan("microarray"), "expression_value", fraction=0.1)
        with pytest.raises(ValueError, match="column-store planner"):
            run_cluster_plan(plan, self._partitioned(fx, 2), Cluster(2))


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

    def test_out_of_range_quantile_is_invalid_confidence(self):
        error = self._rejects(approx_quantile(
            Scan("microarray"), "expression_value", q=1.5))
        assert error.rule == "invalid-confidence"

    def test_non_mergeable_kind_names_the_contract(self):
        error = self._rejects(ApproxAggregate(
            Scan("microarray"), "expression_value", "approx_mode"))
        assert error.rule == "non-mergeable-aggregate"
        assert "mergeable" in str(error)
        assert error.path.startswith("ApproxAggregate")

    def test_well_formed_plan_verifies_to_interval_schema(self):
        schema = verified_schema(
            approx_distinct(Scan("microarray"), "gene_id"), self.SCHEMAS)
        assert list(schema) == ["approx_distinct(gene_id)", "ci_low",
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

    def test_describe_reports_keys_and_row_counts(self):
        fx = ApproxFixture("tiny")
        fx.store.synopses.uniform("patients", 0.5, seed=1)
        description = fx.store.synopses.describe()
        # One entry per (kind, table, fraction, seed): the version it
        # answers is the entry's state, not part of its key.
        assert description == {("uniform", "patients", 0.5, 1): 30}
