"""The benchmark runner.

Runs (query, engine, dataset) combinations and records per-phase times plus
a completion status.  Two of the paper's conventions are implemented here:

* **timeouts** — "we cut off all computation after two hours"; the runner
  enforces a configurable wall-clock budget (via ``SIGALRM`` on platforms
  that support it) and records the run as ``TIMEOUT``;
* **memory failures** — "temporary space allocation failed on the large
  data sizes"; ``MemoryError`` (including the R environment's cell-limit
  error) is caught and recorded as ``MEMORY_ERROR``.

Both are the paper's "infinite results": a figure shows the status in
place of a time.
"""

from __future__ import annotations

import signal
import time
from dataclasses import dataclass, field
from enum import Enum

from repro.core.engines import ENGINE_FACTORIES, make_engine
from repro.core.engines.base import Engine, UnsupportedQueryError
from repro.core.queries import QueryOutput
from repro.core.spec import QueryParameters, default_parameters, validate_query_name
from repro.core.timing import PhaseTimer
from repro.datagen.dataset import GenBaseDataset


class RunStatus(Enum):
    """Outcome of one benchmark run."""

    OK = "ok"
    TIMEOUT = "timeout"
    MEMORY_ERROR = "memory_error"
    UNSUPPORTED = "unsupported"
    ERROR = "error"


@dataclass
class QueryResult:
    """One (engine, query, dataset) measurement."""

    engine: str
    query: str
    dataset_size: str
    status: RunStatus
    data_management_seconds: float = 0.0
    analytics_seconds: float = 0.0
    n_nodes: int = 1
    output: QueryOutput | None = None
    error: str = ""
    notes: dict[str, float] = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        return self.data_management_seconds + self.analytics_seconds


class _Timeout(Exception):
    """Internal signal-based timeout marker."""


class _alarm_timeout:
    """Context manager arming a SIGALRM-based wall-clock budget (best effort)."""

    def __init__(self, seconds: float | None):
        self.seconds = seconds
        self._previous = None
        self._armed = False

    def __enter__(self):
        if self.seconds is None or self.seconds <= 0:
            return self
        if not hasattr(signal, "SIGALRM"):
            return self
        try:
            self._previous = signal.signal(signal.SIGALRM, self._raise_timeout)
            signal.setitimer(signal.ITIMER_REAL, self.seconds)
            self._armed = True
        except ValueError:
            # Not in the main thread: fall back to no enforcement.
            self._armed = False
        return self

    @staticmethod
    def _raise_timeout(_signum, _frame):
        raise _Timeout()

    def __exit__(self, exc_type, exc, tb):
        if self._armed:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        return False


@dataclass
class BenchmarkRunner:
    """Runs benchmark queries against engines with the paper's failure semantics.

    Attributes:
        timeout_seconds: per-run wall-clock budget (None disables; the paper
            used two hours, the scaled default here is 120 seconds).
        load_timeout_seconds: budget for the (untimed) data-load step.
        verify: when True, cross-check each engine answer against the
            reference implementation and record mismatches as errors.
    """

    timeout_seconds: float | None = 120.0
    load_timeout_seconds: float | None = 300.0
    verify: bool = False

    def run(
        self,
        query: str,
        engine: str | Engine,
        dataset: GenBaseDataset,
        parameters: QueryParameters | None = None,
        n_nodes: int = 1,
        **engine_options,
    ) -> QueryResult:
        """Run one query on one engine configuration.

        Args:
            query: query name (Q1–Q5 aliases accepted).
            engine: engine registry name, or an already constructed (and
                possibly already loaded) :class:`Engine` instance.
            dataset: the GenBase dataset to run against.
            parameters: query parameters; defaults derived from the dataset.
            n_nodes: forwarded to multi-node engine constructors.  The
                result records the engine instance's own node count (1 for
                a single-node engine), so a passed-in instance is recorded
                as built.
            engine_options: extra constructor arguments for the engine.
        """
        query = validate_query_name(query)
        parameters = parameters or default_parameters(dataset.spec)

        if isinstance(engine, Engine):
            engine_instance = engine
            engine_name = engine.name
        else:
            engine_name = engine
            # Multi-node factories default to two nodes, so even n_nodes=1
            # is forwarded; a single-node factory is handed one only when
            # asked for more, and refuses it.
            if n_nodes != 1 or hasattr(ENGINE_FACTORIES.get(engine_name), "n_nodes"):
                engine_options.setdefault("n_nodes", n_nodes)
            engine_instance = make_engine(engine_name, **engine_options)

        result = QueryResult(
            engine=engine_name,
            query=query,
            dataset_size=dataset.spec.name,
            status=RunStatus.OK,
            n_nodes=getattr(engine_instance, "n_nodes", 1),
        )

        # Load (not timed, but still subject to memory failures / budget).
        if engine_instance.dataset is not dataset:
            try:
                with _alarm_timeout(self.load_timeout_seconds):
                    engine_instance.load(dataset)
            except MemoryError as exc:
                result.status = RunStatus.MEMORY_ERROR
                result.error = f"load: {exc}"
                return result
            except _Timeout:
                result.status = RunStatus.TIMEOUT
                result.error = "load exceeded the time budget"
                return result

        timer = PhaseTimer()
        started = time.perf_counter()
        try:
            with _alarm_timeout(self.timeout_seconds):
                output = engine_instance.run(query, parameters, timer)
            result.output = output
        except UnsupportedQueryError as exc:
            result.status = RunStatus.UNSUPPORTED
            result.error = str(exc)
        except NotImplementedError as exc:
            result.status = RunStatus.UNSUPPORTED
            result.error = str(exc)
        except MemoryError as exc:
            result.status = RunStatus.MEMORY_ERROR
            result.error = str(exc)
        except _Timeout:
            result.status = RunStatus.TIMEOUT
            result.error = (
                f"exceeded the {self.timeout_seconds:.0f}s budget "
                f"(paper convention: report as infinite)"
            )
            # Attribute the whole budget to the phases measured so far plus
            # the remainder to whichever phase was running.
            elapsed = time.perf_counter() - started
            measured = timer.total_seconds
            timer.add_analytics(max(0.0, elapsed - measured))

        result.data_management_seconds = timer.data_management_seconds
        result.analytics_seconds = timer.analytics_seconds
        result.notes = dict(timer.notes)

        if self.verify and result.status is RunStatus.OK:
            mismatch = self._verify(result, dataset, parameters)
            if mismatch:
                result.status = RunStatus.ERROR
                result.error = mismatch
        return result

    # -- verification --------------------------------------------------------------------

    @staticmethod
    def _verify(result: QueryResult, dataset: GenBaseDataset,
                parameters: QueryParameters) -> str:
        """Cross-check a successful run against the reference implementation."""
        from repro.core.queries import ReferenceImplementation

        reference = ReferenceImplementation(dataset, parameters).run(result.query)
        engine_summary = result.output.summary if result.output else {}
        checks = {
            "regression": [("n_selected_genes", 0), ("n_patients", 0), ("r_squared", 0.05)],
            "covariance": [("n_selected_patients", 0), ("n_pairs_kept", 0)],
            "biclustering": [("n_selected_patients", 0)],
            "svd": [("n_selected_genes", 0), ("k", 0), ("top_singular_value", 1e-3)],
            "statistics": [("n_sampled_patients", 0), ("n_terms", 0)],
        }
        for key, tolerance in checks.get(result.query, []):
            expected = reference.summary.get(key)
            actual = engine_summary.get(key)
            if expected is None or actual is None:
                return f"missing summary field {key!r}"
            if abs(float(expected) - float(actual)) > tolerance + 1e-9:
                return (
                    f"summary field {key!r} mismatch: engine={actual!r} "
                    f"reference={expected!r}"
                )
        return ""
