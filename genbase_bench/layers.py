"""The traced run: per-layer metrics from spans, engine counters and direct probes.

Order of one traced run:

1. set up the workload once, run a share of its sweeps untraced (the
   reference for tracing overhead and probe coverage);
2. load every engine the workload does *not* use on the ``small`` probe
   dataset, so that each traced run reports every metric name;
3. instrument the layers' public entry points (``spans.Tracer``) and run one
   pass over all cells — the workload's and the probe engines' — between two
   readings of the engines' own counters, then the rest of the traced sweeps;
4. time the calls no cell makes in isolation (pre-optimised plans, the
   static verifier, writes on a fresh store), each under a ``probe:`` root.

Which dataset a number was measured on: cells of the workload's engines, and
direct column-store probes when the workload has a column-store engine, use
the workload's dataset; everything else uses ``small``.  ``README.md`` says
which workload to read each metric at.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from repro import plan as plan_layer
from repro.colstore import ColumnStore, ColumnStoreCatalog, planner
from repro.core.engines import SINGLE_NODE_ENGINES
from repro.core.queries import (
    bicluster_patient_predicate,
    covariance_patient_predicate,
    dataset_tables,
    expression_pivot_plan,
    gene_expression_plan,
    patient_expression_plan,
    sampled_expression_filter_plan,
    sampled_expression_mean_plan,
    statistics_patient_ids,
)
from repro.core.spec import QUERY_NAMES, default_parameters
from repro.datagen import GenBaseDataset
from repro.plan.observe import PlanObservation

import spans
from workloads import (
    CLUSTER_ENGINES,
    NODE_COUNTS,
    GridState,
    Outcome,
    Samples,
    Workload,
    WriteState,
    build_state,
    make_dataset,
    phase_fastest,
    reset_cluster_clocks,
    sweep_count,
    tail,
    timed_sweeps,
)

#: The twelve engine names every traced run reports load and query time for.
ENGINE_NAMES = SINGLE_NODE_ENGINES + ("scidb-phi",) + CLUSTER_ENGINES
ALL_INSTANCES = [(engine, 1) for engine in SINGLE_NODE_ENGINES + ("scidb-phi",)] + [
    (engine, n) for engine in CLUSTER_ENGINES for n in NODE_COUNTS
]
LAYERS = ("core", "plan", "colstore", "relational", "arraydb", "mapreduce", "rlang",
          "linalg", "cluster", "accelerator")

#: Share of the untraced run's sweeps the traced run executes, once untraced
#: and once traced; the rest of the time goes to probe engines and probes.
TRACED_SHARE = 0.3
#: Write batches of the write probe where the workload itself does not write:
#: enough for one compaction of each table (one is due every 12.5 batches).
WRITE_PROBE_BATCHES = 14


@dataclass
class CellStats:
    """One cell's fastest times (``Samples.fastest`` says why) and its traced executions."""

    key: str
    native: bool
    fact_rows: int
    wall_ms: float
    dm_ms: float
    analytics_ms: float
    outcome: Outcome
    executions: list[dict] = field(default_factory=list)  # spans.per_query entries

    @property
    def engine(self) -> str:
        return self.key.split("/")[0]

    @property
    def query(self) -> str:
        return self.key.split("/")[1]

    @property
    def n_nodes(self) -> int:
        return int(self.key.split("/")[2][1:])

    def span_ms(self, name: str, kind: str = "total") -> float:
        return 1e3 * min(e[kind].get(name, 0.0) for e in self.executions)

    def traced_ms(self) -> float:
        return 1e3 * min(e["wall"] for e in self.executions)

    def covered_ms(self) -> float:
        """Time inside layer spans below the runner/engine glue."""
        return 1e3 * min(
            e["wall"] - sum(e["own"].get(name, 0.0)
                            for name in (e["root"], "core.runner", "core.engine"))
            for e in self.executions)

    def layer_own_ms(self, layer: str) -> float:
        return 1e3 * min(
            sum(own for name, own in e["own"].items() if spans.layer_of(name) == layer)
            for e in self.executions)


def cell_stats(timing: Samples, traced: Samples, executions: dict, native: bool,
               fact_rows: int, writes: bool) -> list[CellStats]:
    """Join the fastest times of ``timing`` with the traced executions of each key."""
    wall = timing.fastest(timing.wall)
    dm, analytics = phase_fastest(timing, writes)
    return [
        CellStats(key, native, fact_rows, 1e3 * wall[key], 1e3 * dm[key],
                  1e3 * analytics[key], traced.outcomes[key], executions[f"cell:{key}"])
        for key in wall
    ]


# --------------------------------------------------------------------------- #
# Engine counters
# --------------------------------------------------------------------------- #


def read_counters(engines: dict) -> dict[str, float]:
    """The engines' own cumulative counters, by per-layer metric name."""
    totals: dict[str, float] = defaultdict(float)
    for (name, _n_nodes), engine in engines.items():
        if name == "columnstore-udf":
            totals["colstore.udf_bytes_marshalled"] += engine.udf_host.total_bytes_marshalled
        elif name == "scidb":
            totals["arraydb.chunks_skipped"] += engine.filter_stats.chunks_skipped
        elif name == "hadoop":
            history = engine.mr_engine.history
            totals["mapreduce.shuffle_bytes"] += sum(j.counters.shuffle_bytes for j in history)
            totals["mapreduce.shuffle_records"] += sum(
                j.counters.map_output_records for j in history)
        elif name == "scidb-phi":
            offloads = engine.runtime.device.offloads
            totals["accelerator.offloads"] += len(offloads)
            totals["accelerator.transfer_ms"] += 1e3 * sum(o.transfer_seconds for o in offloads)
        elif name in CLUSTER_ENGINES:
            totals["cluster.partitions_scanned"] += engine.partition_stats.partitions_scanned
            totals["cluster.partitions_skipped"] += engine.partition_stats.partitions_skipped
            totals["cluster.network_bytes"] += engine.cluster.network.total_bytes
    return totals


# --------------------------------------------------------------------------- #
# Direct probes
# --------------------------------------------------------------------------- #


def timed(tracer: spans.Tracer, name: str, function, repeats: int = 3):
    """Fastest seconds of ``function()`` under a ``probe:`` root span, and its last result."""
    seconds, result = [], None
    for _ in range(repeats):
        started = time.perf_counter()
        result = tracer.root(f"probe:{name}", function)
        seconds.append(time.perf_counter() - started)
    return min(seconds), result


def query_plans(dataset: GenBaseDataset) -> dict:
    """The five queries' data-management plans as ``repro.core.queries`` builds them."""
    parameters = default_parameters(dataset.spec)
    by_gene = gene_expression_plan(parameters.function_threshold(dataset.spec))
    return {
        "regression": expression_pivot_plan(by_gene),
        "covariance": expression_pivot_plan(
            patient_expression_plan(covariance_patient_predicate(parameters))),
        "biclustering": expression_pivot_plan(
            patient_expression_plan(bicluster_patient_predicate(parameters))),
        "svd": expression_pivot_plan(by_gene),
        "statistics": sampled_expression_mean_plan(statistics_patient_ids(dataset, parameters)),
    }


def walk(node):
    yield node
    for child in node.children():
        yield from walk(child)


def datagen_probe(tracer: spans.Tracer, size: str, seed: int) -> dict:
    generate_s, dataset = timed(tracer, "datagen.generate",
                                lambda: make_dataset(size, seed), repeats=1)
    relational_s, facts = timed(tracer, "datagen.relational", dataset.microarray_relational,
                                repeats=1)
    return {
        "datagen.generate_ms": 1e3 * generate_s,
        "datagen.relational_ms": 1e3 * relational_s,
        "datagen.fact_rows": len(facts),
    }


def plan_and_colstore_probe(tracer: spans.Tracer, dataset: GenBaseDataset) -> dict:
    """Load a fresh store, then time optimizer, verifier and pre-optimised plans."""
    tables = dataset_tables(dataset)

    def load():
        store = ColumnStore("probe")
        for name, arrays in tables.items():
            store.create_table(name, arrays)
        return store

    load_s, store = timed(tracer, "colstore.load", load, repeats=1)
    user_bytes = sum(array.nbytes for arrays in tables.values() for array in arrays.values())
    catalog = ColumnStoreCatalog(store)
    metrics = {
        "colstore.load_ms": 1e3 * load_s,
        "colstore.stored_bytes_per_user_byte": store.total_compressed_bytes() / user_bytes,
        "plan.optimize_ms": 0.0, "plan.verify_ms": 0.0, "plan.nodes": 0,
    }

    optimized = {}
    for query, written in query_plans(dataset).items():
        seconds, optimized[query] = timed(
            tracer, "plan.optimize", lambda w=written: plan_layer.optimize(w, catalog), 5)
        metrics["plan.optimize_ms"] += 1e3 * seconds
        metrics["plan.nodes"] += sum(1 for _ in walk(optimized[query]))

        def verify(written=written, rewritten=optimized[query]):
            plan_layer.verify_rewrite(written, rewritten, catalog)
            plan_layer.verify_plan(rewritten, catalog)

        metrics["plan.verify_ms"] += 1e3 * timed(tracer, "plan.verify", verify, 5)[0]

    sampled = statistics_patient_ids(dataset, default_parameters(dataset.spec))
    row_filter = sampled_expression_filter_plan(sampled)
    probes = {
        "pivot": optimized["covariance"],
        "filter": timed(tracer, "plan.optimize",
                        lambda: plan_layer.optimize(row_filter, catalog), repeats=1)[1],
        "aggregate": optimized["statistics"],
    }
    rows_scanned, total_s = 0, 0.0
    for name, pre_optimized in probes.items():
        observation = PlanObservation()

        def execute(pre_optimized=pre_optimized, observation=observation):
            result = planner.run_plan(pre_optimized, store, optimized=False,
                                      observation=observation)
            return len(result)  # forces a lazy filter result

        seconds, _ = timed(tracer, f"colstore.{name}_plan", execute)
        metrics[f"colstore.{name}_plan_ms"] = 1e3 * seconds
        total_s += seconds
        rows_scanned += sum(store.live_row_count(node.table) for node in walk(pre_optimized)
                            if isinstance(node, plan_layer.Scan))
        if name == "pivot":
            metrics["colstore.pivot_cells"] = observation.output_cells
    metrics["colstore.rows_scanned"] = rows_scanned
    metrics["colstore.rows_per_s"] = rows_scanned / total_s

    exact = plan_layer.Aggregate(plan_layer.Scan("microarray"), "gene_id",
                                 "expression_value", "mean")
    metrics["colstore.exact_aggregate_ms"] = 1e3 * timed(
        tracer, "colstore.exact_aggregate", lambda: planner.run_plan(exact, store))[0]
    return metrics


def write_metrics(samples: Samples, state: WriteState) -> dict:
    """The write-side column-store metrics from the batches of one write state."""
    wall = {key.split("/")[1]: values for key, values in samples.wall.items()}
    batches = [sum(step[i] for step in wall.values()) for i in range(samples.sweeps)]
    compacted = state.compacted[-samples.sweeps:]  # earlier batches were not sampled
    compacting = [seconds for seconds, tables in zip(wall["compact"], compacted, strict=True)
                  if tables]

    def fastest_ms(step):
        return 1e3 * min(wall[step])

    return {
        "colstore.append_ms": fastest_ms("append"),
        "colstore.delete_ms": fastest_ms("delete"),
        "colstore.read_after_write_ms": fastest_ms("covariance"),
        "colstore.merged_aggregate_ms": fastest_ms("exact_aggregate"),
        "colstore.approx_cold_ms": fastest_ms("approx_cold"),
        "colstore.approx_warm_ms": fastest_ms("approx_warm"),
        "colstore.compact_ms": 1e3 * min(compacting, default=0.0),
        "colstore.compactions": sum(compacted),
        "colstore.tail_rows_max": state.tail_rows_max,
        "colstore.write_stall_max_ms": 1e3 * (max(batches) - statistics.median(batches)),
    }


# --------------------------------------------------------------------------- #
# Metrics from the cells
# --------------------------------------------------------------------------- #


def cell_metrics(cells: list[CellStats]) -> tuple[dict, dict]:
    """Per-layer metrics read off the cells' spans, and which cell each came from."""
    native = [cell for cell in cells if cell.native]
    sources: dict[str, str] = {}

    def find(metric: str, query: str, span: str, engine: str | None = None,
             n_nodes: int | None = None) -> float:
        """The span's time in the first matching cell that has it, workload cells first."""
        for cell in native + [cell for cell in cells if not cell.native]:
            if cell.query == query and engine in (None, cell.engine) \
                    and n_nodes in (None, cell.n_nodes) and cell.span_ms(span) > 0.0:
                sources[metric] = cell.key
                return cell.span_ms(span)
        raise LookupError(f"no cell has a {span!r} span for {metric}")

    def of_engine(engine: str) -> list[CellStats]:
        return [cell for cell in cells if cell.engine == engine]

    def total(selected, attribute: str = "wall_ms") -> float:
        return sum(getattr(cell, attribute) for cell in selected)

    metrics: dict[str, float] = {}
    for engine in ENGINE_NAMES:
        metrics[f"core.engine_ms.{engine}"] = total(of_engine(engine))
    for query in QUERY_NAMES:
        asked = [cell for cell in native if cell.query == query] or [
            cell for cell in cells if cell.query == query]
        metrics[f"core.query_ms.{query}"] = total(asked)
    metrics["core.runner_overhead_ms"] = sum(c.span_ms("core.runner", "own") for c in native)
    traced_ms = sum(cell.traced_ms() for cell in native)
    metrics["core.probe_coverage"] = sum(cell.covered_ms() for cell in native) / traced_ms
    metrics["core.trace_overhead"] = traced_ms / total(native)
    metrics["core.dm_share"] = total(native, "dm_ms") / (
        total(native, "dm_ms") + total(native, "analytics_ms"))
    metrics["plan.optimize_share"] = sum(
        c.span_ms("plan.optimize") for c in native) / total(native, "dm_ms")
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = sum(cell.layer_own_ms(layer) for cell in native)

    row_store = find("relational.run_plan_ms", "regression", "relational.run_plan")
    metrics["relational.run_plan_ms"] = row_store
    source = next(c for c in cells if c.key == sources["relational.run_plan_ms"])
    metrics["relational.rows_per_s"] = source.fact_rows / (row_store / 1e3)
    metrics["arraydb.run_plan_ms"] = find("arraydb.run_plan_ms", "regression", "arraydb.run_plan")
    metrics["arraydb.covariance_ms"] = find(
        "arraydb.covariance_ms", "covariance", "arraydb.covariance")
    metrics["arraydb.lanczos_ms"] = find("arraydb.lanczos_ms", "svd", "arraydb.lanczos")
    metrics["mapreduce.run_plan_ms"] = find(
        "mapreduce.run_plan_ms", "regression", "mapreduce.run_plan")
    metrics["mapreduce.mahout_ms"] = sum(
        c.span_ms("mapreduce.mahout") for c in of_engine("hadoop"))
    metrics["rlang.run_plan_ms"] = find("rlang.run_plan_ms", "regression", "rlang.run_plan")
    csv_cell = "columnstore-r"
    metrics["rlang.csv_roundtrip_ms"] = sum(
        find(f"rlang.csv_roundtrip_ms.{half}", "regression", f"rlang.csv_{half}", csv_cell)
        for half in ("export", "import"))
    metrics["rlang.csv_bytes"] = sum(
        c.outcome.notes.get("export_bytes", 0.0) for c in of_engine(csv_cell))
    for metric, query, span in (
            ("linalg.regression_ms", "regression", "linalg.regression"),
            ("linalg.covariance_ms", "covariance", "linalg.covariance"),
            ("linalg.biclustering_ms", "biclustering", "linalg.biclustering"),
            ("linalg.lanczos_ms", "svd", "linalg.lanczos"),
            ("linalg.wilcoxon_ms", "statistics", "linalg.wilcoxon")):
        metrics[metric] = find(metric, query, span)
    metrics["linalg.naive_ms"] = sum(
        c.span_ms("linalg.naive") for c in of_engine("hadoop") + of_engine("postgres-madlib"))
    lanczos = next(c for c in cells if c.key == sources["linalg.lanczos_ms"]).outcome.payload
    if isinstance(lanczos, dict):
        lanczos = lanczos["result"]
    metrics["linalg.lanczos_iterations"] = lanczos.iterations

    clustered = [cell for cell in cells if cell.engine in CLUSTER_ENGINES]

    def reported(n_nodes: int) -> float:
        at = [cell for cell in clustered if cell.n_nodes == n_nodes]
        return total(at, "dm_ms") + total(at, "analytics_ms")

    for n_nodes in NODE_COUNTS:
        metric = f"cluster.run_plan_ms.n{n_nodes}"
        metrics[metric] = find(metric, "covariance", "cluster.run_plan", n_nodes=n_nodes)
    metrics["cluster.reported_speedup_2n"] = reported(1) / reported(2)
    metrics["cluster.reported_speedup_4n"] = reported(1) / reported(4)
    metrics["cluster.wall_over_reported"] = total(clustered) / sum(
        reported(n) for n in NODE_COUNTS)

    offloaded = [q for q in QUERY_NAMES if q != "regression"]  # Table 1's rows
    host = [c for c in of_engine("scidb") if c.query in offloaded]
    device = [c for c in of_engine("scidb-phi") if c.query in offloaded]
    metrics["accelerator.phi_speedup"] = total(host, "analytics_ms") / total(
        device, "analytics_ms")
    return metrics, sources


# --------------------------------------------------------------------------- #
# The traced run
# --------------------------------------------------------------------------- #


def measure_layers(workload: Workload, seed: int, seconds: float, size: str,
                   probe_size: str, trace_path: Path) -> dict:
    budget = 1.5 * seconds
    tracer = spans.Tracer()
    metrics = datagen_probe(tracer, size, seed)

    state = build_state(workload, seed, size)
    failures = state.warm_up()
    n_sweeps = max(1, round(TRACED_SHARE * sweep_count(workload, seconds)))
    untraced = timed_sweeps(state, n_sweeps, budget)

    native_instances = [] if workload.writes else workload.instances()
    probe_dataset = make_dataset(probe_size, seed)
    probe_engines = GridState(
        [i for i in ALL_INSTANCES if i not in native_instances], probe_dataset)
    failures += probe_engines.warm_up()
    engines = {**probe_engines.engines, **({} if workload.writes else state.engines)}

    colstore_native = any(e in ("columnstore-udf", "columnstore-r") for e in workload.engines)
    writer = state if workload.writes else WriteState(probe_dataset, seed)
    if not workload.writes:
        failures += writer.warm_up()

    tracer.instrument()
    try:
        reset_cluster_clocks(engines)  # so that network bytes count one pass only
        before = read_counters(engines)
        traced = timed_sweeps(state, 1, budget, tracer)
        foreign = timed_sweeps(probe_engines, 1, budget, tracer)
        after = read_counters(engines)
        timed_sweeps(state, n_sweeps - 1, budget, tracer, traced)
        written = traced if workload.writes else timed_sweeps(
            writer, WRITE_PROBE_BATCHES, budget, tracer)
        metrics.update(write_metrics(written, writer))
        metrics.update(plan_and_colstore_probe(
            tracer, state.dataset if colstore_native else probe_dataset))
    finally:
        tracer.restore()
    failures += untraced.failures + traced.failures + foreign.failures + state.final_check()
    if not workload.writes:
        failures += written.failures + writer.final_check()

    executions: dict[str, list] = defaultdict(list)
    for entry in spans.per_query(tracer.spans).values():
        executions[entry["root"]].append(entry)
    cells = cell_stats(untraced, traced, executions, True, len(
        state.dataset.microarray_relational()), workload.writes) + cell_stats(
        foreign, foreign, executions, False, len(probe_dataset.microarray_relational()), False)
    from_cells, sources = cell_metrics(cells)
    metrics.update(from_cells)
    metrics.update({name: after[name] - before[name] for name in after})

    load_s = {**probe_engines.load_s, **({} if workload.writes else state.load_s)}
    for engine in ENGINE_NAMES:
        metrics[f"core.load_ms.{engine}"] = 1e3 * sum(
            seconds for (name, _n), seconds in load_s.items() if name == engine)
    metrics["relational.load_ms"] = metrics["core.load_ms.postgres-madlib"]

    metrics["core.query_tail_ms"] = 1e3 * tail(untraced)[0]
    spans.write_trace(trace_path, tracer, {
        "workload": workload.name, "seed": seed, "size": size, "probe_size": probe_size})
    attempted = (state.checks() + probe_engines.checks() + untraced.attempted
                 + traced.attempted + foreign.attempted + 1)
    if not workload.writes:
        attempted += writer.checks() + written.attempted + 1
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failures": failures,
        "detail": {
            "sweeps_untraced": untraced.sweeps,
            "sweeps_traced": traced.sweeps,
            "untraced_sweep_ms": 1e3 * sum(untraced.fastest(untraced.wall).values()),
            "traced_sweep_ms": 1e3 * sum(traced.fastest(traced.wall).values()),
            "metric_source_cell": sources,
            "spans": len(tracer.spans),
            "off_thread_spans_dropped": tracer.off_thread,
            "trace_file": str(trace_path),
        },
    }
