"""Microbenchmark: compressed execution vs the decode-everything baseline.

Sweeps the column-store hot operations — filter scans, membership tests,
the equi-join, group-aggregates, pivot, table load — plus the simulated
cluster's shared-plan path (partition pruning, simulated node scaling and
the concurrent fragment dispatch) over the four encodings at a chosen
size, timing each op twice:

* **compressed** — the current fast paths (predicate pushdown onto distinct
  values, the lookup join on the compressed key column, direct-address
  grouping, stats-driven encoding choice),
* **baseline** — the implementation each fast path replaced (full decode
  before every predicate, an interpreted Python hash join, the hit-range
  expansion join, ``np.unique``, encoding all four candidates per column),
  kept here verbatim so every future run measures against the same yardstick.

The run appends nothing and prints nothing fancy; it writes one JSON perf
record (default ``BENCH_colstore.json`` at the repo root) so later PRs have
a trajectory to regress against:

    PYTHONPATH=src python benchmarks/bench_colstore_ops.py --size tiny

This file is a script, not a pytest module — the CI smoke-runs it on the
``tiny`` size to keep the harness from rotting.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

from repro.colstore.column import ColumnVector
from repro.colstore.compression import (
    DeltaEncoding,
    DictionaryEncoding,
    PlainEncoding,
    RunLengthEncoding,
    best_encoding,
)
from repro.cluster import (
    Cluster,
    PartitionedTable,
    PartitionStats,
    reduce_partial_sums,
    run_shared_plan,
)
from repro.colstore.catalog import ColumnStore
from repro.colstore.planner import run_plan
from repro.colstore.query import (
    ColumnQuery,
    _direct_address_positions,
    materialise_join,
    merge_join_positions,
)
from repro.colstore.table import ColumnTable
from repro.plan import Filter, Scan, approx_mean, col

SIZES = {"tiny": 10_000, "small": 100_000, "medium": 1_000_000}

DEFAULT_OUTPUT = Path(__file__).resolve().parents[1] / "BENCH_colstore.json"


# --------------------------------------------------------------------------- #
# Seed baselines (what the compressed fast paths replaced)
# --------------------------------------------------------------------------- #

def baseline_filter(encoding, predicate) -> np.ndarray:
    """Seed filter: decode the whole column, then evaluate the predicate."""
    return np.asarray(predicate(encoding.decode()), dtype=bool)


def baseline_isin(encoding, lookup: np.ndarray) -> np.ndarray:
    """Seed membership test: decode, then ``np.isin`` over every row."""
    return np.isin(encoding.decode(), lookup)


def baseline_hash_join_positions(
    left_keys: np.ndarray, right_keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The seed's interpreted dict-of-lists hash join (verbatim)."""
    build_left = len(left_keys) <= len(right_keys)
    build_values = left_keys if build_left else right_keys
    probe_values = right_keys if build_left else left_keys

    index: dict[object, list[int]] = {}
    for position, key in enumerate(build_values.tolist()):
        index.setdefault(key, []).append(position)

    build_positions: list[int] = []
    probe_positions: list[int] = []
    for position, key in enumerate(probe_values.tolist()):
        matches = index.get(key)
        if not matches:
            continue
        for match in matches:
            build_positions.append(match)
            probe_positions.append(position)

    if build_left:
        return (
            np.asarray(build_positions, dtype=np.int64),
            np.asarray(probe_positions, dtype=np.int64),
        )
    return (
        np.asarray(probe_positions, dtype=np.int64),
        np.asarray(build_positions, dtype=np.int64),
    )


def baseline_expansion_join(left: ColumnQuery, right: ColumnQuery, key: str) -> ColumnTable:
    """The PR 1–18 equi-join on dense integer keys, build side left.

    Both key columns are fetched through a full ``arange`` selection, every
    probe row's hit *range* is expanded with ``repeat`` arithmetic
    (``_direct_address_positions``, which still serves duplicate build
    keys) although each build key is unique, and the output columns are
    gathered through the selection vectors — what ``materialise_join`` did
    before a PK–FK join became a semi-join on the compressed key column
    plus one lookup.
    """
    build_keys = left.table.column(key).take(left.selection)
    probe_keys = right.table.column(key).take(right.selection)
    key_min = int(build_keys.min())
    build_positions, probe_positions = _direct_address_positions(
        build_keys, probe_keys, key_min, int(build_keys.max()) - key_min + 1)
    left_rows = left.selection[build_positions]
    right_rows = right.selection[probe_positions]
    arrays = {name: left.table.column(name).take(left_rows)
              for name in left.output_columns}
    arrays.update({name: right.table.column(name).take(right_rows)
                   for name in right.output_columns if name != key})
    return ColumnTable.from_arrays("join_result", arrays, compress=False)


def baseline_group_aggregate(encoding, values: np.ndarray, function: str = "mean"):
    """Seed GROUP BY: decode the group column, ``np.unique`` + bincount (verbatim)."""
    groups = encoding.decode()
    values = values.astype(np.float64)
    keys, inverse = np.unique(groups, return_inverse=True)
    if function == "count":
        return keys, np.bincount(inverse, minlength=len(keys)).astype(np.float64)
    if function == "sum":
        return keys, np.bincount(inverse, weights=values, minlength=len(keys))
    if function == "mean":
        totals = np.bincount(inverse, weights=values, minlength=len(keys))
        counts = np.bincount(inverse, minlength=len(keys))
        return keys, totals / np.maximum(counts, 1)
    if function in ("min", "max"):
        result = np.full(len(keys), np.inf if function == "min" else -np.inf)
        reducer = np.minimum if function == "min" else np.maximum
        reducer.at(result, inverse, values)
        return keys, result
    raise ValueError(f"unsupported aggregate function {function!r}")


def baseline_pivot(table: ColumnTable, row_key: str, column_key: str, value: str):
    """Seed pivot: gather all three columns, two ``np.unique`` calls, scatter."""
    selection = np.arange(table.row_count, dtype=np.int64)
    rows = table.column(row_key).take(selection)
    cols = table.column(column_key).take(selection)
    values = table.column(value).take(selection).astype(np.float64)
    row_labels, row_positions = np.unique(rows, return_inverse=True)
    column_labels, column_positions = np.unique(cols, return_inverse=True)
    matrix = np.zeros((len(row_labels), len(column_labels)), dtype=np.float64)
    matrix[row_positions, column_positions] = values
    return matrix, row_labels, column_labels


def baseline_join_then_pivot(genes_table: ColumnTable, micro_table: ColumnTable,
                             threshold: int):
    """The PR 1–3 hand-stitched pipeline the fused plans replaced (verbatim).

    Filter the dimension table, materialise the join output as a new
    *compressed* column table carrying every mapped column (the old
    ``ColumnQuery.join`` semantics), then re-plan the pivot over it.  The
    fused path skips the re-encode, gathers only the three pivot columns
    through the join, and pushes the filter below it at the plan layer.
    """
    genes_query = ColumnQuery(genes_table).where(col("function") < threshold)
    micro_query = ColumnQuery(micro_table)
    left_keys = genes_query.column("gene_id")
    right_keys = micro_query.column("gene_id")
    left_positions, right_positions = merge_join_positions(left_keys, right_keys)
    left_rows = genes_query.selection[left_positions]
    right_rows = micro_query.selection[right_positions]
    arrays: dict[str, np.ndarray] = {}
    for name in genes_table.column_names:
        arrays[name] = genes_table.column(name).take(left_rows)
    for name in micro_table.column_names:
        if name != "gene_id":
            arrays[name] = micro_table.column(name).take(right_rows)
    joined = ColumnTable.from_arrays("joined", arrays)  # compress=True: seed behaviour
    return ColumnQuery(joined).pivot("patient_id", "gene_id", "expression_value")


def baseline_filter_chain(table: ColumnTable, steps) -> np.ndarray:
    """The eager-chain baseline the lazy plan API replaced.

    Every predicate computes a *full-column* mask through the encoding
    (the pre-plan ``ColumnQuery.where`` semantics), in the order written —
    no selectivity reordering, no narrowed evaluation.
    """
    selection = None
    for column, predicate in steps:
        mask = table.column(column).filter_mask(predicate)
        if selection is None:
            selection = np.flatnonzero(mask).astype(np.int64)
        else:
            selection = selection[mask[selection]]
    return selection


def baseline_best_encoding(values: np.ndarray):
    """The seed encoding picker: fully encode all candidates, keep smallest."""
    values = np.asarray(values)
    candidates = [PlainEncoding()]
    if values.size:
        if np.issubdtype(values.dtype, np.integer) or np.issubdtype(values.dtype, np.bool_):
            candidates.extend([RunLengthEncoding(), DictionaryEncoding(), DeltaEncoding()])
        else:
            candidates.append(RunLengthEncoding())
            if len(np.unique(values[: min(len(values), 10_000)])) <= 4096:
                candidates.append(DictionaryEncoding())
    best = best_size = None
    for encoding in candidates:
        encoding.encode(values)
        size = encoding.encoded_bytes()
        if best is None or size < best_size:
            best, best_size = encoding, size
    return best


# --------------------------------------------------------------------------- #
# Cluster workloads (the distributed shared-plan bridge)
# --------------------------------------------------------------------------- #

def cluster_workload(n: int, n_partitions: int, n_genes: int, seed: int,
                     partition_column: str):
    """A patients-shaped table row-partitioned across ``n_partitions`` nodes.

    ``partition_column="patient_id"`` gives contiguous id ranges per node
    (the statistics/covariance co-partitioned layout, where a narrow id
    sample prunes most partitions); ``"disease_id"`` gives shuffled
    low-cardinality values everywhere (no partition can be pruned — the
    scaling workload).  Each node also holds its block of a dense
    ``rows × n_genes`` expression matrix for the fragment payload.
    """
    rng = np.random.default_rng(seed)
    bounds = np.linspace(0, n, n_partitions + 1).astype(np.int64)
    partitions, blocks = [], []
    for low, high in zip(bounds[:-1], bounds[1:], strict=True):
        rows = int(high - low)
        if partition_column == "patient_id":
            partitions.append({"patient_id": np.arange(low, high, dtype=np.int64)})
        else:
            partitions.append({"disease_id": rng.integers(0, 50, rows).astype(np.int64)})
        blocks.append(rng.random((rows, n_genes)))
    return PartitionedTable.from_partitions("patients", partitions), blocks


def make_partial_sums(blocks, n_genes: int):
    """The statistics-query fragment: per-node ``(Σ rows, count)`` partials."""
    def partial(node_id: int, local_rows: np.ndarray):
        rows = blocks[node_id][local_rows]
        if rows.size == 0:
            return (np.zeros(n_genes), 0)
        return (rows.sum(axis=0), rows.shape[0])
    return partial


def simulated_plan_seconds(plan, table, blocks, n_genes: int, n_nodes: int,
                           rounds: int) -> float:
    """Best-of simulated parallel elapsed (max per-node compute + network).

    Nodes run one after another and each is timed alone, so the ratio
    between node counts does not depend on the host's core count — more
    nodes shrink the max-per-node term whether or not the host has cores
    to overlap them on.
    """
    cluster = Cluster(n_nodes)
    partial = make_partial_sums(blocks, n_genes)
    best = float("inf")
    for _ in range(rounds):
        cluster.reset_clock()
        run_shared_plan(plan, table, cluster, on_fragment=partial)
        best = min(best, cluster.simulated_elapsed_seconds)
    return best


# --------------------------------------------------------------------------- #
# Workload columns, one per encoding
# --------------------------------------------------------------------------- #

def workload_columns(n: int, seed: int = 7) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    return {
        "rle": np.sort(rng.integers(0, 50, n)),          # sorted low-cardinality
        "dictionary": rng.integers(0, 1_000, n),          # shuffled moderate card.
        "delta": np.cumsum(rng.integers(1, 20, n)),       # monotone ids/positions
        "plain": rng.random(n),                           # high-entropy floats
    }


def _encode_as(name: str, values: np.ndarray):
    encoding = {
        "rle": RunLengthEncoding,
        "dictionary": DictionaryEncoding,
        "delta": DeltaEncoding,
        "plain": PlainEncoding,
    }[name]()
    encoding.encode(values)
    return encoding


def _best_of(callable_, rounds: int) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


def _entry(op: str, encoding: str, n: int, compressed_s: float,
           baseline_s: float | None, gated: bool = False) -> dict:
    entry = {
        "op": op,
        "encoding": encoding,
        "n": n,
        "compressed_s": round(compressed_s, 6),
    }
    if baseline_s is not None:
        entry["baseline_s"] = round(baseline_s, 6)
        entry["speedup"] = round(baseline_s / compressed_s, 2) if compressed_s else None
    if gated:
        # Force the regression gate on regardless of the speedup magnitude:
        # for ops whose *existence* is the point (the fused join → pivot
        # plan must keep beating materialise-then-plan), not just their ratio.
        entry["gated"] = True
    return entry


# --------------------------------------------------------------------------- #
# The sweep
# --------------------------------------------------------------------------- #

def run_sweep(size: str, rounds: int = 3, seed: int = 7) -> dict:
    n = SIZES[size]
    columns = workload_columns(n, seed=seed)
    results: list[dict] = []

    # The three per-encoding loops below time ``ColumnVector`` methods — the
    # calls a ``ColumnQuery`` makes — so every row describes a path queries
    # take.  Dictionary/RLE answer from codes/runs on every round; plain and
    # delta columns answer from the decode-once buffer (zero-copy for plain),
    # which the first round fills and best-of therefore excludes: their rows
    # record what a *repeated* scan saves over decoding each time, the trade
    # being the retained buffer.  The baselines decode a private encoding.

    # Filter scans: predicate pushdown vs decode-then-compare.
    thresholds = {"rle": 25, "dictionary": 500, "delta": columns["delta"][n // 2], "plain": 0.5}
    for name, values in columns.items():
        column = ColumnVector(name, values, encoding=name)
        encoding = _encode_as(name, values)
        threshold = thresholds[name]
        predicate = lambda v, t=threshold: v < t
        compressed = _best_of(lambda: column.filter_mask(predicate), rounds)
        baseline = _best_of(lambda: baseline_filter(encoding, predicate), rounds)
        np.testing.assert_array_equal(
            column.filter_mask(predicate), baseline_filter(encoding, predicate)
        )
        results.append(_entry("filter", name, n, compressed, baseline))

    # Membership tests (isin pushdown).
    lookups = {
        "rle": np.arange(0, 50, 5),
        "dictionary": np.arange(0, 1_000, 7),
        "delta": columns["delta"][:: max(1, n // 100)],
        "plain": columns["plain"][:: max(1, n // 100)],
    }
    for name, values in columns.items():
        column = ColumnVector(name, values, encoding=name)
        encoding = _encode_as(name, values)
        lookup = lookups[name]
        compressed = _best_of(lambda: column.isin(lookup), rounds)
        baseline = _best_of(lambda: baseline_isin(encoding, lookup), rounds)
        np.testing.assert_array_equal(column.isin(lookup), baseline_isin(encoding, lookup))
        results.append(_entry("isin", name, n, compressed, baseline))

    # Equi-join: n-row build side, 4n-row probe side (GenBase's genes ⋈ microarray
    # shape).  Baseline is the seed's interpreted hash join.
    rng = np.random.default_rng(seed + 1)
    build_keys = rng.permutation(n).astype(np.int64)
    probe_keys = rng.integers(0, n, 4 * n).astype(np.int64)
    compressed = _best_of(lambda: merge_join_positions(build_keys, probe_keys), rounds)
    baseline = _best_of(
        lambda: baseline_hash_join_positions(build_keys, probe_keys), max(1, rounds - 1)
    )
    fast_left, fast_right = merge_join_positions(build_keys, probe_keys)
    slow_left, slow_right = baseline_hash_join_positions(build_keys, probe_keys)
    np.testing.assert_array_equal(build_keys[fast_left], build_keys[slow_left])
    np.testing.assert_array_equal(fast_right, slow_right)
    results.append(_entry("join", "int64-keys", n, compressed, baseline))

    # Group-aggregates: codes/runs consumed directly vs decode + np.unique.
    aggregate_values = rng.random(n)
    for name, values in columns.items():
        column = ColumnVector(name, values, encoding=name)
        encoding = _encode_as(name, values)
        compressed = _best_of(
            lambda: column.group_reduce(aggregate_values, "mean"), rounds
        )
        baseline = _best_of(
            lambda: baseline_group_aggregate(encoding, aggregate_values, "mean"), rounds
        )
        fast_keys, fast_aggregates = column.group_reduce(aggregate_values, "mean")
        slow_keys, slow_aggregates = baseline_group_aggregate(
            encoding, aggregate_values, "mean"
        )
        np.testing.assert_array_equal(fast_keys, slow_keys)
        # Every encoding reduces through np.unique's codes + bincount, like
        # the baseline: float means are the same bits.
        np.testing.assert_array_equal(fast_aggregates, slow_aggregates)
        results.append(_entry("aggregate", name, n, compressed, baseline))

    # Pivot: dictionary codes / run structure on both axes vs two np.unique.
    n_patients = max(1, int(np.sqrt(n)))
    n_genes = max(1, n // n_patients)
    pivot_table = ColumnTable.from_arrays(
        "micro",
        {
            "patient_id": np.repeat(np.arange(n_patients), n_genes),
            "gene_id": np.tile(np.arange(n_genes), n_patients),
            "expression_value": rng.random(n_patients * n_genes),
        },
    )
    query = ColumnQuery(pivot_table)
    compressed = _best_of(
        lambda: query.pivot("patient_id", "gene_id", "expression_value"), rounds
    )
    baseline = _best_of(
        lambda: baseline_pivot(pivot_table, "patient_id", "gene_id", "expression_value"),
        rounds,
    )
    fast_matrix, fast_rows, fast_cols = query.pivot(
        "patient_id", "gene_id", "expression_value"
    )
    slow_matrix, slow_rows, slow_cols = baseline_pivot(
        pivot_table, "patient_id", "gene_id", "expression_value"
    )
    np.testing.assert_array_equal(fast_matrix, slow_matrix)
    np.testing.assert_array_equal(fast_rows, slow_rows)
    np.testing.assert_array_equal(fast_cols, slow_cols)
    results.append(_entry("pivot", "mixed", n_patients * n_genes, compressed, baseline))

    # Filter chain: a 3-predicate conjunction through the lazy plan API
    # (conjunction splitting + selectivity-ordered pushdown: the equality
    # runs first over the full column, the two unselective range predicates
    # then evaluate on the narrowed selection only) vs the eager chain that
    # computes three full-column masks in the order written.
    chain_rng = np.random.default_rng(seed + 2)
    chain_table = ColumnTable(
        "chain",
        [
            ColumnVector("category", chain_rng.integers(0, 250, n), encoding="dictionary"),
            ColumnVector("status", np.sort(chain_rng.integers(0, 50, n)), encoding="rle"),
            ColumnVector("bucket", chain_rng.integers(0, 200, n), encoding="dictionary"),
        ],
    )
    chain_expressions = [  # written worst-first: two ~90% filters, then the needle
        col("status") < 45,
        col("bucket") < 180,
        col("category") == 7,
    ]
    chain_steps = [
        ("status", lambda v: v < 45),
        ("bucket", lambda v: v < 180),
        ("category", lambda v: v == 7),
    ]

    def plan_filter_chain():
        query = ColumnQuery(chain_table)
        for expression in chain_expressions:
            query = query.where(expression)
        return query.selection

    compressed = _best_of(plan_filter_chain, rounds)
    baseline = _best_of(lambda: baseline_filter_chain(chain_table, chain_steps), rounds)
    np.testing.assert_array_equal(
        plan_filter_chain(), baseline_filter_chain(chain_table, chain_steps)
    )
    results.append(_entry("filter_chain", "dictionary+rle", n, compressed, baseline))

    # Fused join → pivot: one logical plan (filter pushed below the join,
    # projections pruned through it, no re-encode of the join output) vs
    # the materialise-then-plan pipeline the engines used through PR 3.
    join_rng = np.random.default_rng(seed + 3)
    jp_patients = max(1, int(np.sqrt(n)) // 2)
    jp_genes = max(1, n // jp_patients)
    genes_table = ColumnTable.from_arrays(
        "genes",
        {
            "gene_id": np.arange(jp_genes, dtype=np.int64),
            "target": join_rng.integers(0, 2, jp_genes),
            "position": join_rng.integers(0, 10_000, jp_genes),
            "length": join_rng.integers(100, 5_000, jp_genes),
            "function": join_rng.integers(0, 1_000, jp_genes),
        },
    )
    micro_table = ColumnTable.from_arrays(
        "microarray",
        {
            "gene_id": np.tile(np.arange(jp_genes, dtype=np.int64), jp_patients),
            "patient_id": np.repeat(np.arange(jp_patients, dtype=np.int64), jp_genes),
            "expression_value": join_rng.random(jp_patients * jp_genes),
        },
    )
    function_threshold = 250  # keeps ~25% of genes, the GenBase Q1 shape

    def fused_join_pivot():
        return (
            ColumnQuery(genes_table)
            .where(col("function") < function_threshold)
            .join(ColumnQuery(micro_table), "gene_id", "gene_id")
            .pivot("patient_id", "gene_id", "expression_value")
        )

    compressed = _best_of(fused_join_pivot, rounds)
    baseline = _best_of(
        lambda: baseline_join_then_pivot(genes_table, micro_table, function_threshold),
        rounds,
    )
    fast_matrix, fast_rows, fast_cols = fused_join_pivot()
    slow_matrix, slow_rows, slow_cols = baseline_join_then_pivot(
        genes_table, micro_table, function_threshold
    )
    np.testing.assert_array_equal(fast_matrix, slow_matrix)
    np.testing.assert_array_equal(fast_rows, slow_rows)
    np.testing.assert_array_equal(fast_cols, slow_cols)
    results.append(
        _entry("join_pivot", "fused-plan", jp_patients * jp_genes, compressed,
               baseline, gated=True)
    )

    # PK–FK join at GenBase's shape: a filtered dimension (~25 % of its unique
    # keys) ⋈ the whole fact table, once per foreign-key encoding.  The probe
    # side is unfiltered, so the membership test runs on the compressed key
    # column (per run, per dictionary code, one table lookup over the retained
    # delta/plain buffer) and only matching rows are ever fetched; the
    # baseline is the hit-range expansion join every plan ran before.  Gated:
    # this join is the data-management half of four of the five queries.
    pk_keys = max(1, int(np.sqrt(n)))
    pk_rows = pk_keys * (n // pk_keys)
    dimension = ColumnTable.from_arrays("dimension", {
        "key": np.arange(pk_keys, dtype=np.int64),
        "function": join_rng.integers(0, 1_000, pk_keys),
    })
    shuffled_keys = join_rng.integers(0, pk_keys, pk_rows).astype(np.int64)
    foreign_keys = {
        "rle": np.repeat(np.arange(pk_keys, dtype=np.int64), pk_rows // pk_keys),
        "delta": np.tile(np.arange(pk_keys, dtype=np.int64), pk_rows // pk_keys),
        "dictionary": shuffled_keys,
        "plain": shuffled_keys,
    }
    fact_values = join_rng.random(pk_rows)
    for name, keys in foreign_keys.items():
        fact = ColumnTable("fact", [ColumnVector("key", keys, encoding=name),
                                    ColumnVector("value", fact_values)])

        def lookup_join(fact=fact):
            return materialise_join(
                ColumnQuery(dimension).where(col("function") < function_threshold),
                ColumnQuery(fact), "key", "key", compress=False)

        def expansion_join(fact=fact):
            return baseline_expansion_join(
                ColumnQuery(dimension).where(col("function") < function_threshold),
                ColumnQuery(fact), "key")

        compressed = _best_of(lookup_join, rounds)
        baseline = _best_of(expansion_join, rounds)
        fast, slow = lookup_join(), expansion_join()
        assert fast.column_names == slow.column_names
        for column_name in slow.column_names:
            np.testing.assert_array_equal(fast.values(column_name), slow.values(column_name))
        results.append(_entry("join_pk_fk", name, pk_rows, compressed, baseline, gated=True))

    # Grouping a plain integer column — what every join intermediate, a
    # narrowed MergedColumn and the plain/delta group-aggregates fall back
    # to: a presence table + cumsum over the bounded key span vs np.unique.
    intermediate = ColumnVector("key", shuffled_keys, compress=False)
    compressed = _best_of(intermediate.distinct_inverse, rounds)
    baseline = _best_of(lambda: np.unique(shuffled_keys, return_inverse=True), rounds)
    for fast_part, slow_part in zip(intermediate.distinct_inverse(),
                                    np.unique(shuffled_keys, return_inverse=True),
                                    strict=True):
        np.testing.assert_array_equal(fast_part, slow_part)
    results.append(_entry("distinct_inverse", "plain-int", pk_rows, compressed, baseline))

    # Load: stats-driven encoding choice vs encode-all-candidates.
    for name, values in columns.items():
        compressed = _best_of(lambda v=values: best_encoding(v), rounds)
        baseline = _best_of(lambda v=values: baseline_best_encoding(v), rounds)
        assert best_encoding(values).name == baseline_best_encoding(values).name
        results.append(_entry("load", name, n, compressed, baseline))

    # Cluster partition pruning: the statistics-query shape (a sparse
    # patient-id sample over id-range-partitioned nodes).  The pruned path
    # eliminates non-intersecting partitions on the driver from their
    # synopses; the baseline is the seed behaviour — evaluate the predicate
    # on every node, so the ratio isolates pruning.
    n_fragments = 16
    n_genes = 32
    cluster_rows = 4 * n   # partitions big enough that the mask evaluation
    #                        the pruning skips dwarfs the dispatch overhead
    prune_table, prune_blocks = cluster_workload(
        cluster_rows, n_fragments, n_genes, seed + 4, "patient_id"
    )
    sample_low = (2 * cluster_rows) // n_fragments
    sample_high = (4 * cluster_rows) // n_fragments  # spans 2 of the 16 partitions
    sample = np.arange(sample_low, sample_high, 100, dtype=np.int64)
    prune_plan = Filter(Scan("patients"), col("patient_id").isin(sample))
    prune_partial = make_partial_sums(prune_blocks, n_genes)
    prune_stats = PartitionStats()
    pruned_cluster = Cluster(n_fragments)
    seed_cluster = Cluster(n_fragments)

    def pruned_statistics():
        return reduce_partial_sums(run_shared_plan(
            prune_plan, prune_table, pruned_cluster,
            stats=prune_stats, on_fragment=prune_partial,
        ))

    def seed_statistics():
        return reduce_partial_sums(run_shared_plan(
            prune_plan, prune_table, seed_cluster,
            on_fragment=prune_partial, optimized=False,
        ))

    compressed = _best_of(pruned_statistics, rounds)
    baseline = _best_of(seed_statistics, rounds)
    fast_totals, fast_count = pruned_statistics()
    slow_totals, slow_count = seed_statistics()
    np.testing.assert_allclose(fast_totals, slow_totals, rtol=1e-12)
    assert fast_count == slow_count
    assert prune_stats.partitions_skipped > 0, "synopsis pruning never fired"
    results.append(
        _entry("cluster_prune", "fragments-16", cluster_rows, compressed, baseline,
               gated=True)
    )

    # Simulated node scaling: the same covariance-shaped scan-everywhere
    # workload (shuffled disease ids — nothing prunable) at 1 node vs 4.
    # Both timings are the *simulated* parallel elapsed (max per-node CPU +
    # network), so the ratio reflects the time model, not host core count:
    # near-linear, because this phase moves nothing over the network.
    scale_plan = Filter(Scan("patients"),
                        col("disease_id").isin(np.arange(0, 25, dtype=np.int64)))
    one_table, one_blocks = cluster_workload(
        cluster_rows, 1, n_genes, seed + 5, "disease_id"
    )
    four_table, four_blocks = cluster_workload(
        cluster_rows, 4, n_genes, seed + 5, "disease_id"
    )
    compressed = simulated_plan_seconds(
        scale_plan, four_table, four_blocks, n_genes, 4, rounds
    )
    baseline = simulated_plan_seconds(
        scale_plan, one_table, one_blocks, n_genes, 1, rounds
    )
    results.append(
        _entry("cluster_scale", "sim-1-vs-4-nodes", cluster_rows, compressed, baseline,
               gated=True)
    )

    # Approximate aggregate: MEAN over a 1% uniform synopsis with CLT bounds
    # vs the exact answer through the same plan API (an ApproxAggregate
    # with no Sample below it runs the full column).  The synopsis is
    # built once before timing — its catalog-cached selection is the whole
    # point of the reuse-across-queries lifecycle — so the timed fast path
    # is gather-over-sample plus closed-form interval arithmetic.  Gated:
    # the sampled path must stay an order of magnitude ahead at real
    # sizes, and its interval must actually cover the exact answer.
    approx_rng = np.random.default_rng(seed + 6)
    approx_store = ColumnStore()
    approx_store.create_table("measurements", {
        "measurement_id": np.arange(n, dtype=np.int64),
        "reading": approx_rng.lognormal(0.0, 0.5, n),
    })
    # A fixed sampling seed whose interval covers at every sweep size —
    # any one draw has a 5% chance of an honest miss, which would make
    # the bench flaky; the coverage *rate* is what tests/test_approx.py
    # verifies over hundreds of seeds.
    sampling_seed = 0
    approx_plan = approx_mean(Scan("measurements"), "reading",
                              fraction=0.01, seed=sampling_seed)
    exact_plan = approx_mean(Scan("measurements"), "reading")
    approx_store.synopses.uniform("measurements", 0.01, sampling_seed)

    def sampled_aggregate():
        return run_plan(approx_plan, approx_store)

    def exact_aggregate():
        return run_plan(exact_plan, approx_store)

    compressed = _best_of(sampled_aggregate, rounds)
    baseline = _best_of(exact_aggregate, rounds)
    sampled = sampled_aggregate()
    exact = exact_aggregate().estimate
    assert sampled.covers(exact), (
        f"sampled 95% interval [{sampled.ci_low}, {sampled.ci_high}] "
        f"misses the exact mean {exact} — measured error outside the "
        "promised bound"
    )
    results.append(
        _entry("approx_aggregate", "uniform-1pct", n, compressed, baseline,
               gated=True)
    )

    # Delta-tier scan: the INGEST.md worked-example query (sum(val) group
    # by grp) over a snapshot carrying a 5% uncompressed tail, answered
    # through the per-operator sealed/tail merge — the sealed part keeps
    # its dictionary grouped-reduction fast path, the tail reduces plain,
    # and ``merge_group_parts`` scatter-adds the partials — vs the
    # always-decode baseline a writable tier without MergedColumn would
    # force: materialise every column (sealed decode + tail concat) and
    # evaluate plain.  Gated: losing the merge means every scan of a
    # written table decodes — exactly the regression the delta tier
    # exists to avoid.  The same query over an unwritten store is timed
    # alongside and recorded as ``sealed_only_s``: a 5% tail must cost at
    # most 1.2x the pristine scan, plus a fixed noise floor covering the
    # merge's constant per-query costs (tail unique + partial merge),
    # which are microsecond-scale and would otherwise dominate the ratio
    # at the tiny CI-smoke size.  check_bench_regression.py holds the
    # recorded timings to that bound; this sweep asserts only results.
    delta_rng = np.random.default_rng(seed + 7)
    tail_n = max(1, n // 20)
    sealed_arrays = {
        "grp": delta_rng.integers(0, 50, n).astype(np.int64),
        "val": delta_rng.random(n),
    }
    tail_arrays = {
        "grp": delta_rng.integers(0, 50, tail_n).astype(np.int64),
        "val": delta_rng.random(tail_n),
    }
    sealed_store = ColumnStore()
    sealed_store.create_table("written", sealed_arrays)
    written_store = ColumnStore()
    written_store.create_table("written", sealed_arrays)
    written_store.append("written", tail_arrays)

    def merged_delta_scan():
        return written_store.query("written").group_aggregate("grp", "val", "sum")

    def decoded_delta_scan():
        arrays = written_store.snapshot("written").logical_arrays()
        values = arrays["val"].astype(np.float64)
        keys, inverse = np.unique(arrays["grp"], return_inverse=True)
        return keys, np.bincount(inverse, weights=values, minlength=len(keys))

    def sealed_only_scan():
        return sealed_store.query("written").group_aggregate("grp", "val", "sum")

    # Interleaved best-of: the three paths are timed round-robin rather
    # than phase by phase, so clock-frequency drift across the sweep can't
    # systematically favour whichever path happens to be timed last — the
    # 1.2x bound compares the merged and sealed timings directly.
    merged_delta_scan(), decoded_delta_scan(), sealed_only_scan()  # warm caches
    compressed = baseline = sealed_only = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        merged_delta_scan()
        compressed = min(compressed, time.perf_counter() - start)
        start = time.perf_counter()
        decoded_delta_scan()
        baseline = min(baseline, time.perf_counter() - start)
        start = time.perf_counter()
        sealed_only_scan()
        sealed_only = min(sealed_only, time.perf_counter() - start)
    fast_keys, fast_sums = merged_delta_scan()
    slow_keys, slow_sums = decoded_delta_scan()
    np.testing.assert_array_equal(fast_keys, slow_keys)
    # The merged path adds sealed and tail partials by key; the decoded
    # baseline accumulates in row order — the column store's one float
    # reassociation, so the sums may differ in the last ulps.
    np.testing.assert_allclose(fast_sums, slow_sums, rtol=1e-12)
    delta_entry = _entry("delta_scan", "dictionary+tail", n + tail_n,
                         compressed, baseline, gated=True)
    delta_entry["sealed_only_s"] = round(sealed_only, 6)
    results.append(delta_entry)

    # What a write costs the next reader (three rows, each against the body
    # it replaced, outputs asserted equal before timing).
    #
    # sample: the 5% uniform draw as a selection (partition + ties in
    # position order) vs the full stable argsort over every score it
    # replaced.  Gated: an argsort is ~20 exact scans at real sizes.
    sample_seed = 3
    sample_query = approx_store.query("measurements")

    def selected_sample():
        return sample_query.sample(0.05, sample_seed).selection

    def stable_sort_sample():
        rows = np.sort(sample_query.selection)
        scores = np.random.default_rng(sample_seed).random(n)
        n_keep = max(1, int(round(0.05 * len(rows))))
        return np.sort(rows[np.argsort(scores[rows], kind="stable")[:n_keep]])

    np.testing.assert_array_equal(selected_sample(), stable_sort_sample())
    results.append(_entry("sample", "uniform-5pct", n,
                          _best_of(selected_sample, rounds),
                          _best_of(stable_sort_sample, rounds), gated=True))

    # take: a sorted selection (the live rows after a delete) gathered from
    # an RLE column run by run — the run ends searched in the positions,
    # run values repeated by the counts — vs locating every position in the
    # run ends.  The column is never decoded: ``take`` would then index the
    # buffer.  Gated: this is the join-key gather of every written table.
    rle_values = columns["rle"]
    rle_column = ColumnVector("rle", rle_values, encoding="rle")
    live = np.flatnonzero(np.random.default_rng(seed + 8).random(n) < 0.95)
    run_starts = np.concatenate([[0], np.flatnonzero(rle_values[1:] != rle_values[:-1]) + 1])
    run_ends = np.concatenate([run_starts[1:], [n]])

    def per_run_take():
        return rle_column.take(live)

    def per_position_take():
        return rle_values[run_starts][np.searchsorted(run_ends, live, side="right")]

    np.testing.assert_array_equal(per_run_take(), per_position_take())
    np.testing.assert_array_equal(per_run_take(), rle_values[live])
    results.append(_entry("take", "rle-sorted", len(live),
                          _best_of(per_run_take, rounds),
                          _best_of(per_position_take, rounds), gated=True))

    # synopsis_refresh: the first approximate read after a write.  Each
    # round appends n/75 rows and deletes the n/75 oldest (the
    # ``colstore_writes`` batch shape), then times the catalog advancing its
    # 5% entry to the new snapshot — score the appended rows, evict the
    # deleted, re-select from the pool — vs a from-scratch draw on that same
    # snapshot, which must keep exactly the same rows.  Gated: losing the
    # maintenance makes every write cost the next reader a full draw.
    refresh_store = ColumnStore()
    refresh_store.create_table("measurements", {
        "measurement_id": np.arange(n, dtype=np.int64),
        "reading": approx_rng.lognormal(0.0, 0.5, n),
    })
    written = max(1, n // 75)
    refresh_store.synopses.uniform("measurements", 0.05, sample_seed)
    compressed = baseline = float("inf")
    for round_ in range(rounds):
        refresh_store.append("measurements", {
            "measurement_id": np.arange(written, dtype=np.int64) + n + round_ * written,
            "reading": approx_rng.lognormal(0.0, 0.5, written),
        })
        refresh_store.delete_where(
            "measurements", col("measurement_id") < (round_ + 1) * written)
        start = time.perf_counter()
        advanced = refresh_store.synopses.uniform("measurements", 0.05, sample_seed)
        compressed = min(compressed, time.perf_counter() - start)
        start = time.perf_counter()
        drawn = refresh_store.query("measurements").sample(0.05, sample_seed).selection
        baseline = min(baseline, time.perf_counter() - start)
        np.testing.assert_array_equal(advanced, drawn)
    results.append(_entry("synopsis_refresh", "append+delete", n, compressed,
                          baseline, gated=True))

    return {
        "benchmark": "colstore_ops",
        "size": size,
        "n_rows": n,
        "rounds": rounds,
        "results": results,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", choices=sorted(SIZES), default="small")
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    record = run_sweep(args.size, rounds=args.rounds)
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(record, indent=2) + "\n")

    print(f"== colstore ops @ {args.size} ({record['n_rows']} rows) ==")
    for entry in record["results"]:
        speedup = entry.get("speedup")
        rendered = f"  {entry['op']:6s} {entry['encoding']:12s} {entry['compressed_s']*1e3:9.3f} ms"
        if speedup is not None:
            rendered += f"   baseline {entry['baseline_s']*1e3:9.3f} ms   speedup {speedup:6.1f}x"
        print(rendered)
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
