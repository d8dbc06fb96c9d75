"""The six workloads, their correctness checks and the end-to-end metrics.

A *cell* is one ``(engine, query, n_nodes)`` run through
``repro.core.BenchmarkRunner``; a *sweep* runs every cell of the workload
once, in a fixed order; one client, the next query starts when the previous
one returned (closed loop).  ``colstore_writes`` replaces the cell by the
operations of one write batch.  Inputs come from ``--seed`` alone.
"""

from __future__ import annotations

import gc
import resource
import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro.colstore import ColumnStore, planner
from repro.core import BenchmarkRunner, RunStatus
from repro.core.engines import SINGLE_NODE_ENGINES, make_engine
from repro.core.queries import (
    covariance_patient_predicate,
    expression_pivot_plan,
    patient_expression_plan,
)
from repro.core.spec import QUERY_NAMES, default_parameters
from repro.datagen import GenBaseDataset
from repro.plan import Aggregate, Scan, approx_mean, col

#: Figure 3's engines without ``hadoop-cluster`` (it would be 70 % of the
#: sweep; Hadoop is covered by ``fig1_grid``).
CLUSTER_ENGINES = ("columnstore-pbdr", "columnstore-udf-cluster", "pbdr", "scidb-cluster")
NODE_COUNTS = (1, 2, 4)

#: Cells that *must* report UNSUPPORTED (the paper's missing bars).  Any
#: other non-OK status is a failure, so a newly unsupported query raises
#: ``fail_ratio`` instead of silently shrinking the sweep.
EXPECTED_UNSUPPORTED = frozenset({("hadoop", "biclustering"), ("postgres-madlib", "biclustering")})

#: Patients appended and deleted per ``colstore_writes`` batch.
WRITE_BATCH_PATIENTS = 8

#: Cold set-ups per untraced run; ``setup_s`` is the fastest (``Samples.fastest``
#: says why).  A set-up of a few milliseconds is repeated until
#: ``CHEAP_SETUPS_S`` are spent, so that it is as steady as one that takes seconds.
SETUPS = 3
SETUPS_MAX = 15
CHEAP_SETUPS_S = 1.0


@dataclass(frozen=True)
class Cell:
    engine: str
    query: str
    n_nodes: int = 1

    @property
    def key(self) -> str:
        return f"{self.engine}/{self.query}/n{self.n_nodes}"


@dataclass(frozen=True)
class Workload:
    """One named workload; ``BENCHMARK.json`` records why each was chosen.

    ``sweeps_per_10s`` fixes the work of a run: ``--seconds`` scales it
    linearly, so both commits of a comparison execute the same sweeps, and
    it is sized so the timed part takes about ``--seconds`` on the 2-core
    development sandbox.
    """

    name: str
    size: str
    engines: tuple[str, ...]
    sweeps_per_10s: int
    node_counts: tuple[int, ...] = (1,)
    writes: bool = False

    def instances(self) -> list[tuple[str, int]]:
        return [(engine, n) for engine in self.engines for n in self.node_counts]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("colstore_xl", "xlarge", ("columnstore-udf",), 14),
        Workload("colstore_small", "small", ("columnstore-udf", "columnstore-r"), 230),
        Workload("kernels_xl", "xlarge", ("scidb", "scidb-phi"), 11),
        Workload("fig1_grid", "small", SINGLE_NODE_ENGINES, 7),
        Workload("fig3_cluster", "medium", CLUSTER_ENGINES, 18, node_counts=NODE_COUNTS),
        Workload("colstore_writes", "large", ("columnstore-udf",), 70, writes=True),
    )
}


@dataclass
class Outcome:
    """What one timed operation reported."""

    ok: bool
    dm_s: float = 0.0
    analytics_s: float = 0.0
    error: str = ""
    notes: dict = field(default_factory=dict)
    payload: object | None = None


def reset_cluster_clocks(engines: dict) -> None:
    """Zero the cluster engines' simulated clocks and transfer logs.

    ``NetworkModel`` keeps every transfer and re-sums the list in each phase,
    so a query gets slower the longer its engine lives (a sweep took 1.1 s at
    first and 1.6 s ten sweeps later).  The figure scripts build a fresh
    engine per cell; resetting before each sweep measures what they see, and
    makes the sweeps repeats of one another.
    """
    for (name, _n_nodes), engine in engines.items():
        if name in CLUSTER_ENGINES:
            engine.cluster.reset_clock()


def load_instances(instances, dataset) -> tuple[dict, dict]:
    """Construct and load engines; returns them and their load seconds."""
    engines, load_s = {}, {}
    for engine, n_nodes in instances:
        clustered = engine in CLUSTER_ENGINES  # only these take n_nodes
        instance = make_engine(engine, n_nodes=n_nodes) if clustered else make_engine(engine)
        started = time.perf_counter()
        instance.load(dataset)
        load_s[(engine, n_nodes)] = time.perf_counter() - started
        engines[(engine, n_nodes)] = instance
        if clustered:
            # Fragments run on the engines' own deterministic fallback.  On the
            # threaded executor every dispatch builds a pool and wakes threads,
            # and on this sandbox that cost moved with the host's state, not the
            # program's: the same commit gave a fig3_cluster sweep of 0.8 s or
            # 1.6 s for minutes on end while every other workload stayed put.
            instance.cluster.executor = "sequential"
    return engines, load_s


# --------------------------------------------------------------------------- #
# Query-grid workloads
# --------------------------------------------------------------------------- #


class GridState:
    """Loaded engines plus the expected summary of every cell."""

    def __init__(self, instances, dataset: GenBaseDataset):
        self.dataset = dataset
        self.engines, self.load_s = load_instances(instances, dataset)
        self.runner = BenchmarkRunner()
        every = [Cell(engine, query, n_nodes)
                 for engine, n_nodes in instances for query in QUERY_NAMES]
        self.unsupported = [c for c in every if (c.engine, c.query) in EXPECTED_UNSUPPORTED]
        self.cells = [c for c in every if c not in self.unsupported]
        self.expected: dict[str, dict] = {}

    def warm_up(self) -> list[str]:
        """First sweep: fills lazy caches and checks every cell once.

        Supported cells must be OK and agree with ``ReferenceImplementation``
        under the tolerances ``BenchmarkRunner(verify=True)`` applies; the
        expected-UNSUPPORTED cells must still say so.
        """
        verifying = BenchmarkRunner(verify=True)
        failures = []
        for cell in self.cells + self.unsupported:
            engine = self.engines[(cell.engine, cell.n_nodes)]
            result = verifying.run(cell.query, engine, self.dataset)
            wanted = RunStatus.UNSUPPORTED if cell in self.unsupported else RunStatus.OK
            if result.status is not wanted:
                failures.append(f"{cell.key}: {result.status.value} {result.error}")
            elif wanted is RunStatus.OK:
                self.expected[cell.key] = result.output.summary
        return failures

    def checks(self) -> int:
        return len(self.cells) + len(self.unsupported)

    def run_cell(self, cell: Cell) -> Outcome:
        engine = self.engines[(cell.engine, cell.n_nodes)]
        result = self.runner.run(cell.query, engine, self.dataset)
        if result.status is not RunStatus.OK:
            return Outcome(False, error=f"{result.status.value} {result.error}")
        same = result.output.summary == self.expected.get(cell.key)
        return Outcome(
            same, result.data_management_seconds, result.analytics_seconds,
            "" if same else f"summary changed: {result.output.summary}",
            result.notes, result.output.payload)

    def ops(self, _sweep: int):
        reset_cluster_clocks(self.engines)
        return [(cell.key, lambda cell=cell: self.run_cell(cell)) for cell in self.cells]

    def final_check(self) -> list[str]:
        return []


# --------------------------------------------------------------------------- #
# colstore_writes
# --------------------------------------------------------------------------- #


class WriteState:
    """A loaded ``columnstore-udf`` store written and read batch by batch.

    Per batch: append 8 new patients (8 x n_genes fact rows + 8 patient
    rows), ``delete_where`` the 8 oldest, run Q2 through the runner, the
    exact per-gene mean and ``approx_mean(fraction=0.05)`` twice (cold right
    after the write, then warm), then ``maybe_compact()`` both tables.
    """

    def __init__(self, dataset: GenBaseDataset, seed: int):
        self.dataset = dataset
        self.engine = load_instances([("columnstore-udf", 1)], dataset)[0]["columnstore-udf", 1]
        self.store: ColumnStore = self.engine.store
        self.runner = BenchmarkRunner()
        self.rng = np.random.default_rng(seed + 7)
        self.exact_plan = Aggregate(Scan("microarray"), "gene_id", "expression_value", "mean")
        self.approx_plan = approx_mean(Scan("microarray"), "expression_value", fraction=0.05)
        self.q2_plan = expression_pivot_plan(patient_expression_plan(
            covariance_patient_predicate(default_parameters(dataset.spec))))
        self.batches = 0
        self.compacted: list[int] = []  # tables compacted, per batch
        self.tail_rows_max = 0

    def warm_up(self) -> list[str]:
        """Before any write the store must still answer like the reference."""
        failures = []
        result = BenchmarkRunner(verify=True).run("covariance", self.engine, self.dataset)
        if result.status is not RunStatus.OK:
            failures.append(f"covariance before writes: {result.status.value} {result.error}")
        keys, means = planner.run_plan(self.exact_plan, self.store)
        if not (np.array_equal(keys, np.arange(self.dataset.n_genes))
                and np.allclose(means, self.dataset.expression_matrix.mean(axis=0))):
            failures.append("exact aggregate before writes differs from the dataset's means")
        planner.run_plan(self.approx_plan, self.store)
        return failures

    def checks(self) -> int:
        return 2

    # -- one batch ----------------------------------------------------------------------

    def _new_rows(self) -> tuple[dict, dict]:
        n_genes, spec = self.dataset.n_genes, self.dataset.spec
        first = self.dataset.n_patients + self.batches * WRITE_BATCH_PATIENTS
        ids = np.arange(first, first + WRITE_BATCH_PATIENTS, dtype=np.int64)
        facts = {
            "gene_id": np.tile(np.arange(n_genes, dtype=np.int64), WRITE_BATCH_PATIENTS),
            "patient_id": np.repeat(ids, n_genes),
            "expression_value": self.rng.normal(5.0, 2.0, n_genes * WRITE_BATCH_PATIENTS),
        }
        patients = {
            "patient_id": ids,
            "age": self.rng.integers(18, 90, WRITE_BATCH_PATIENTS),
            "gender": self.rng.integers(0, 2, WRITE_BATCH_PATIENTS),
            "zipcode": self.rng.integers(10000, 99999, WRITE_BATCH_PATIENTS),
            "disease_id": self.rng.integers(0, spec.n_diseases, WRITE_BATCH_PATIENTS),
            "drug_response": self.rng.normal(0.0, 1.0, WRITE_BATCH_PATIENTS),
        }
        return facts, patients

    def _append(self, facts, patients) -> Outcome:
        self.store.append("microarray", facts)
        self.store.append("patients", patients)
        return Outcome(True)

    def _delete(self, oldest) -> Outcome:
        deleted = self.store.delete_where("microarray", col("patient_id") < oldest)
        deleted += self.store.delete_where("patients", col("patient_id") < oldest)
        wanted = WRITE_BATCH_PATIENTS * (self.dataset.n_genes + 1)
        return Outcome(deleted == wanted, error=f"deleted {deleted} rows, wanted {wanted}")

    def _covariance(self) -> Outcome:
        result = self.runner.run("covariance", self.engine, self.dataset)
        ok = result.status is RunStatus.OK and (
            result.output.summary["n_selected_patients"] > 0)
        return Outcome(ok, result.data_management_seconds, result.analytics_seconds,
                       f"{result.status.value} {result.error}", result.notes)

    def _exact(self) -> Outcome:
        keys, _means = planner.run_plan(self.exact_plan, self.store)
        return Outcome(len(keys) == self.dataset.n_genes, error="gene groups lost")

    def _approx(self) -> Outcome:
        answer = planner.run_plan(self.approx_plan, self.store)
        return Outcome(answer.covers(answer.estimate),
                       error="estimate outside its own interval")

    def _compact(self) -> Outcome:
        self.tail_rows_max = max(self.tail_rows_max, self.store.writable("microarray").tail_rows)
        self.compacted.append(sum(
            self.store.writable(table).maybe_compact() for table in ("microarray", "patients")))
        return Outcome(True)

    def ops(self, _sweep: int):
        facts, patients = self._new_rows()
        self.batches += 1
        oldest = self.batches * WRITE_BATCH_PATIENTS
        steps = (
            ("append", lambda: self._append(facts, patients)),
            ("delete", lambda: self._delete(oldest)),
            ("covariance", self._covariance),
            ("exact_aggregate", self._exact),
            ("approx_cold", self._approx),
            ("approx_warm", self._approx),
            ("compact", self._compact),
        )
        return [(f"writes/{name}/n1", step) for name, step in steps]

    def final_check(self) -> list[str]:
        """Fresh-store oracle: the written store must answer Q2 and the
        aggregate exactly like a store loaded from its logical content."""
        fresh = ColumnStore("oracle")
        for name in ("microarray", "patients"):
            fresh.create_table(name, self.store.snapshot(name).logical_arrays())
        failures = []
        written = planner.run_plan(self.q2_plan, self.store)
        oracle = planner.run_plan(self.q2_plan, fresh)
        if not all(np.array_equal(a, b) for a, b in zip(written, oracle, strict=True)):
            failures.append("Q2 pivot on the written store differs from the fresh store")
        (keys, means), oracle = (planner.run_plan(self.exact_plan, store)
                                 for store in (self.store, fresh))
        if not (np.array_equal(keys, oracle[0])
                and np.allclose(means, oracle[1], rtol=1e-12, atol=0.0)):
            failures.append("aggregate on the written store differs from the fresh store")
        return failures


def make_dataset(size: str, seed: int) -> GenBaseDataset:
    """``GenBaseDataset.generate(size, seed)`` with evenly spread filter columns.

    The generator draws ``function``, ``disease_id``, ``age`` and ``gender``
    independently per row, so how many genes and patients the five queries
    select is binomial in the seed: +-17 % genes and +-24 % patients at
    ``small``, which moves regression and biclustering time by far more than
    any bound.  The benchmark compares commits on equal work, so it replaces
    those four columns (nothing else depends on them) by seeded permutations
    of evenly spread values: every seed still gives different data, and every
    seed selects the same number of rows.
    """
    dataset = GenBaseDataset.generate(size, seed=seed)
    rng = np.random.default_rng(seed + 11)
    n_genes, n_patients = dataset.n_genes, dataset.n_patients
    person = rng.permutation(n_patients)  # gender and age move together: Q3 filters on both
    genes = replace(dataset.genes, function=rng.permutation(
        np.arange(n_genes, dtype=np.int64) * dataset.spec.n_functions // n_genes))
    patients = replace(
        dataset.patients,
        gender=person % 2,
        age=18 + (person // 2) * 77 // ((n_patients + 1) // 2),
        disease_id=1 + rng.permutation(n_patients) % dataset.spec.n_diseases,
    )
    return replace(dataset, genes=genes, patients=patients)


def build_state(workload: Workload, seed: int, size: str):
    """Cold set-up, first half: generate the dataset, construct and load engines."""
    dataset = make_dataset(size, seed)
    if workload.writes:
        return WriteState(dataset, seed)
    return GridState(workload.instances(), dataset)


# --------------------------------------------------------------------------- #
# Timed sweeps and the end-to-end metrics
# --------------------------------------------------------------------------- #


@dataclass
class Samples:
    """Per operation key: wall, data-management and analytics seconds per execution."""

    wall: dict[str, list[float]] = field(default_factory=dict)
    dm: dict[str, list[float]] = field(default_factory=dict)
    analytics: dict[str, list[float]] = field(default_factory=dict)
    sweep_wall: list[float] = field(default_factory=list)  # whole sweeps, loop included
    outcomes: dict[str, Outcome] = field(default_factory=dict)  # latest per key
    failures: list[str] = field(default_factory=list)
    attempted: int = 0
    sweeps: int = 0

    @staticmethod
    def fastest(series: dict[str, list[float]]) -> dict[str, float]:
        """Per key, the fastest execution.

        On the shared 2-core sandbox other tenants only ever *add* time, in
        phases that can outlast a run: over eight runs of ``colstore_small``
        the per-cell median moved by 17 % (quartile distance over median),
        the lower quartile by 8 % and the minimum by 3 %.  Every time this
        benchmark reports is therefore the fastest of its fixed number of
        repeats; what only happens now and then (compaction, collection
        pauses) is reported by ``core.query_tail_ms`` and
        ``colstore.write_stall_max_ms``.
        """
        return {key: min(values) for key, values in series.items()}


def sweep_count(workload: Workload, seconds: float) -> int:
    return max(1, round(workload.sweeps_per_10s * seconds / 10.0))


def timed_sweeps(state, n_sweeps: int, budget_s: float, tracer=None,
                 samples: Samples | None = None) -> Samples:
    """Run ``n_sweeps`` sweeps (extending ``samples`` when given); stop early only
    past ``budget_s`` — a slow machine must not run into the driver's per-run limit."""
    samples = samples or Samples()
    started = time.perf_counter()
    for _ in range(n_sweeps):
        sweep_started = time.perf_counter()
        for key, op in state.ops(samples.sweeps):
            begun = time.perf_counter()
            outcome = op() if tracer is None else tracer.root(f"cell:{key}", op)
            wall = time.perf_counter() - begun
            samples.wall.setdefault(key, []).append(wall)
            samples.dm.setdefault(key, []).append(outcome.dm_s)
            samples.analytics.setdefault(key, []).append(outcome.analytics_s)
            samples.outcomes[key] = outcome
            samples.attempted += 1
            if not outcome.ok:
                samples.failures.append(f"{key} sweep {samples.sweeps}: {outcome.error}")
        samples.sweeps += 1
        samples.sweep_wall.append(time.perf_counter() - sweep_started)
        if time.perf_counter() - started > budget_s:
            break
    return samples


def tail(samples: Samples) -> tuple[float, float, int]:
    """Over all timed executions: the highest percentile with ten samples beyond
    it (the maximum of ten or fewer samples, which only a smoke run has), which
    percentile that is, and the sample count."""
    ordered = sorted(value for values in samples.wall.values() for value in values)
    beyond = 10 if len(ordered) > 10 else 0
    return ordered[-1 - beyond], 100.0 * (len(ordered) - beyond) / len(ordered), len(ordered)


def phase_fastest(samples: Samples, writes: bool) -> tuple[dict, dict]:
    """Per key: fastest data-management and analytics seconds."""
    analytics = samples.fastest(samples.analytics)
    if not writes:
        return samples.fastest(samples.dm), analytics
    # Every write-batch step is data management; only Q2 has kernels to subtract.
    wall = samples.fastest(samples.wall)
    return {key: wall[key] - analytics[key] for key in wall}, analytics


def end_to_end(samples: Samples, setup_s: float, writes: bool) -> tuple[dict, dict]:
    """The six gated metrics (``fail_ratio`` travels as failed/attempted)."""
    wall = samples.fastest(samples.wall)
    dm, analytics = phase_fastest(samples, writes)
    tail_s, percentile, pooled = tail(samples)
    metrics = {
        "setup_s": setup_s,
        "sweep_ms": 1e3 * sum(wall.values()),
        "queries_per_s": len(wall) / min(samples.sweep_wall),
        "dm_ms": 1e3 * sum(dm.values()),
        "analytics_ms": 1e3 * sum(analytics.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "sweeps": samples.sweeps,
        "timed_s": sum(samples.sweep_wall),
        "query_tail_ms": 1e3 * tail_s,
        "tail_percentile": percentile,
        "tail_samples": pooled,
        "cell_ms": {key: 1e3 * value for key, value in wall.items()},
        "cell_dm_ms": {key: 1e3 * value for key, value in dm.items()},
        "cell_analytics_ms": {key: 1e3 * value for key, value in analytics.items()},
    }
    return metrics, detail


def measure(workload: Workload, seed: int, seconds: float, size: str) -> dict:
    """The untraced run: cold set-ups, then the timed sweeps on the last one."""
    setups, failures, attempted, state = [], [], 0, None
    wanted = SETUPS if seconds else 1  # a smoke run (no seconds) measures nothing
    while len(setups) < wanted or (
            seconds and sum(setups) < CHEAP_SETUPS_S and len(setups) < SETUPS_MAX):
        state = None
        gc.collect()
        started = time.perf_counter()
        state = build_state(workload, seed, size)
        failures += state.warm_up()
        setups.append(time.perf_counter() - started)
        attempted += state.checks()
    samples = timed_sweeps(state, sweep_count(workload, seconds), 1.5 * seconds)
    failures += samples.failures + state.final_check()
    metrics, detail = end_to_end(samples, min(setups), workload.writes)
    detail["setup_runs_s"] = setups
    return {
        "metrics": metrics,
        "attempted": attempted + samples.attempted + 1,
        "failures": failures,
        "detail": detail,
    }
