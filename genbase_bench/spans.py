"""Spans recorded from the benchmark's side of every layer boundary.

Nothing under ``src/`` knows about tracing.  For the traced run the benchmark
swaps the layers' public entry points (``repro.plan.optimize``, the five
``run_shared_plan`` bridges, the ``linalg`` kernels, ...) for wrappers that
open a span around the real call, so the engines execute their own code and
the trace shows what they called, for how long, under which caller.

A span is ``name, start, end, parent, query``: ``parent`` is the index of the
span that was open on the same thread when this one started (``None`` for a
root) and ``query`` numbers the cell execution the span belongs to.  Spans
stay in memory until :func:`write_trace`.  A layer's *self time* is its
span's duration minus the part its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

#: ``module, attribute, span name`` — module-level public functions.  Every
#: ``repro.*`` module that imported the function by name is patched too.
FUNCTION_SPANS = (
    ("repro.plan.optimizer", "optimize", "plan.optimize"),
    ("repro.plan.verify", "maybe_verify_rewrite", "plan.verify"),
    ("repro.plan.verify", "maybe_verify_plan", "plan.verify"),
    ("repro.colstore.planner", "run_plan", "colstore.run_plan"),
    ("repro.relational.bridge", "run_shared_plan", "relational.run_plan"),
    ("repro.arraydb.bridge", "run_shared_plan", "arraydb.run_plan"),
    ("repro.arraydb.linalg", "to_scalapack", "arraydb.to_scalapack"),
    ("repro.arraydb.linalg", "covariance", "arraydb.covariance"),
    ("repro.arraydb.linalg", "lanczos_svd_chunked", "arraydb.lanczos"),
    ("repro.mapreduce.bridge", "run_shared_plan", "mapreduce.run_plan"),
    ("repro.rlang.bridge", "run_shared_plan", "rlang.run_plan"),
    ("repro.rlang.io", "dataframe_to_csv_string", "rlang.csv_export"),
    ("repro.rlang.io", "dataframe_from_csv_string", "rlang.csv_import"),
    ("repro.cluster.bridge", "run_shared_plan", "cluster.run_plan"),
    ("repro.linalg.qr", "linear_regression", "linalg.regression"),
    ("repro.linalg.covariance", "covariance_matrix", "linalg.covariance"),
    ("repro.linalg.covariance", "top_covariant_pairs", "linalg.top_pairs"),
    ("repro.linalg.biclustering", "cheng_church", "linalg.biclustering"),
    ("repro.linalg.lanczos", "lanczos_svd", "linalg.lanczos"),
    ("repro.linalg.wilcoxon", "enrichment_analysis", "linalg.wilcoxon"),
    ("repro.linalg.naive", "covariance_matrix", "linalg.naive"),
    ("repro.linalg.naive", "linear_regression", "linalg.naive"),
    ("repro.linalg.naive", "power_iteration_svd", "linalg.naive"),
    ("repro.linalg.naive", "wilcoxon_rank_sum", "linalg.naive"),
)

#: ``module, class, method, span name`` — public methods patched on the class.
METHOD_SPANS = (
    ("repro.core.runner", "BenchmarkRunner", "run", "core.runner"),
    ("repro.core.engines.base", "Engine", "run", "core.engine"),
    ("repro.colstore.query", "ColumnQuery", "pivot", "colstore.pivot"),
    ("repro.colstore.query", "ColumnQuery", "group_aggregate", "colstore.group_aggregate"),
    ("repro.colstore.query", "JoinedQuery", "pivot", "colstore.pivot"),
    ("repro.colstore.query", "JoinedQuery", "group_aggregate", "colstore.group_aggregate"),
    ("repro.colstore.udf", "UdfHost", "call", "colstore.udf_call"),
    ("repro.colstore.catalog", "ColumnStore", "append", "colstore.append"),
    ("repro.colstore.catalog", "ColumnStore", "delete_where", "colstore.delete_where"),
    ("repro.colstore.delta", "DeltaStore", "compact", "colstore.compact"),
    ("repro.relational.query", "QueryResultSet", "pivot", "relational.pivot"),
    ("repro.relational.udf", "UdfRegistry", "call", "relational.udf_call"),
    ("repro.mapreduce.mahout", "Mahout", "covariance", "mapreduce.mahout"),
    ("repro.mapreduce.mahout", "Mahout", "linear_regression", "mapreduce.mahout"),
    ("repro.mapreduce.mahout", "Mahout", "truncated_svd", "mapreduce.mahout"),
    ("repro.mapreduce.mahout", "Mahout", "wilcoxon_enrichment", "mapreduce.mahout"),
    ("repro.cluster.cluster", "Cluster", "run_on_nodes", "cluster.dispatch"),
    ("repro.cluster.cluster", "Cluster", "gather", "cluster.network"),
    ("repro.cluster.cluster", "Cluster", "scatter", "cluster.network"),
    ("repro.cluster.scalapack", "ScaLAPACK", "covariance", "cluster.scalapack"),
    ("repro.cluster.scalapack", "ScaLAPACK", "linear_regression", "cluster.scalapack"),
    ("repro.cluster.scalapack", "ScaLAPACK", "lanczos_svd", "cluster.scalapack"),
    ("repro.accelerator.offload", "OffloadRuntime", "run", "accelerator.offload"),
)


def layer_of(span_name: str) -> str:
    """The layer (package under ``src/repro``) a span name belongs to."""
    return span_name.split(".", 1)[0]


class Tracer:
    """In-memory span recorder for the thread that created it.

    Cluster fragments run on pool threads; a span opened there has no
    well-defined parent on the driver, so it is counted in ``off_thread``
    and not recorded — the fragment's time stays inside the driver-side
    ``cluster.dispatch`` span that waited for it.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, query]
        self.off_thread = 0
        self.query = -1
        self._stack: list[int] = []
        self._thread = threading.get_ident()
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------------

    def call(self, name: str, function, *args, **kwargs):
        """Run ``function`` inside a span called ``name``."""
        if threading.get_ident() != self._thread:
            self.off_thread += 1
            return function(*args, **kwargs)
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.query]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def root(self, name: str, function, *args, **kwargs):
        """Run ``function`` as a new query: a root span with a fresh query id."""
        self.query += 1
        return self.call(name, function, *args, **kwargs)

    # -- instrumentation ------------------------------------------------------------

    def _wrapper(self, original, name: str):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            return self.call(name, original, *args, **kwargs)

        return traced

    def instrument(self) -> None:
        """Swap the layers' public entry points for span-recording wrappers.

        A name that no longer resolves raises: a renamed layer function must
        be renamed here, not silently dropped from the trace.
        """
        for module_name, attribute, span_name in FUNCTION_SPANS:
            original = getattr(importlib.import_module(module_name), attribute)
            wrapper = self._wrapper(original, span_name)
            for name, module in list(sys.modules.items()):
                if not name.startswith("repro") or module is None:
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)
        for module_name, class_name, method, span_name in METHOD_SPANS:
            owner = getattr(importlib.import_module(module_name), class_name)
            original = vars(owner)[method]
            self._patched.append((owner, method, original))
            setattr(owner, method, self._wrapper(original, span_name))

    def restore(self) -> None:
        """Undo :meth:`instrument`."""
        while self._patched:
            owner, key, original = self._patched.pop()
            setattr(owner, key, original)


# -- analysis -------------------------------------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the durations of its direct children."""
    own = [end - start for _name, start, end, _parent, _query in spans]
    for _name, start, end, parent, _query in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def per_query(spans: list[list]) -> dict[int, dict]:
    """Per query id: root span name, root duration and per-name totals.

    ``total[name]`` sums the durations of that query's spans called ``name``
    that are not nested inside another span of the same name; ``own[name]``
    sums their self times.
    """
    own = self_times(spans)
    queries: dict[int, dict] = {}
    for index, (name, start, end, parent, query) in enumerate(spans):
        entry = queries.setdefault(
            query, {"root": None, "wall": 0.0, "total": defaultdict(float),
                    "own": defaultdict(float)})
        if parent is None:
            entry["root"], entry["wall"] = name, end - start
        entry["own"][name] += own[index]
        ancestor, nested = parent, False
        while ancestor is not None and not nested:
            nested = spans[ancestor][0] == name
            ancestor = spans[ancestor][3]
        if not nested:
            entry["total"][name] += end - start
    return queries


def write_trace(path: Path, tracer: Tracer, meta: dict) -> None:
    """Write the spans (times in seconds since the first span) as JSON."""
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    payload = {
        "meta": {**meta, "off_thread_spans_dropped": tracer.off_thread},
        "columns": ["id", "name", "start_s", "end_s", "parent", "query"],
        "spans": [
            [index, name, start - origin, end - origin, parent, query]
            for index, (name, start, end, parent, query) in enumerate(tracer.spans)
        ],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload))
