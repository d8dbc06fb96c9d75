"""The MapReduce execution engine.

A :class:`MapReduceJob` bundles a mapper, an optional combiner and a
reducer.  The :class:`MapReduceEngine` executes jobs the way Hadoop does,
with every phase's cost actually paid:

1. the input is cut into splits,
2. each split is mapped, producing ``(key, value)`` pairs,
3. map output is *serialised* (pickled) per split — the spill-to-disk step,
4. optional combiners run per split on the deserialised pairs,
5. all pairs are shuffled: merged, sorted by key, grouped,
6. the reducer runs per key group.

Chaining jobs therefore re-serialises data between every stage, which is the
structural reason the Hadoop configuration trails every other engine in the
benchmark results.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence


#: A mapper takes one input record and yields (key, value) pairs.
Mapper = Callable[[object], Iterable[tuple[object, object]]]
#: A combiner/reducer takes (key, values) and yields (key, value) pairs.
Reducer = Callable[[object, list], Iterable[tuple[object, object]]]


@dataclass
class JobCounters:
    """Hadoop-style job counters, filled in by the engine."""

    map_input_records: int = 0
    map_output_records: int = 0
    combine_output_records: int = 0
    shuffle_bytes: int = 0
    reduce_input_groups: int = 0
    reduce_output_records: int = 0
    splits: int = 0


@dataclass
class MapReduceJob:
    """One MapReduce job specification.

    Attributes:
        name: job name (shows up in the engine's job history).
        mapper: record → iterable of (key, value).
        reducer: (key, [values]) → iterable of (key, value).
        combiner: optional per-split pre-aggregation with reducer semantics.
    """

    name: str
    mapper: Mapper
    reducer: Reducer
    combiner: Reducer | None = None


@dataclass
class JobResult:
    """One finished job's history record: its name and counters.

    The output is returned by :meth:`MapReduceEngine.run` and not retained,
    so a long-lived engine's history stays a few integers per job.
    """

    name: str
    counters: JobCounters


class MapReduceEngine:
    """Runs MapReduce jobs over in-memory input records."""

    def __init__(self, n_splits: int = 4, sort_shuffle: bool = True):
        if n_splits < 1:
            raise ValueError("need at least one split")
        self.n_splits = n_splits
        self.sort_shuffle = sort_shuffle
        self.history: list[JobResult] = []

    # -- split handling -----------------------------------------------------------

    def _make_splits(self, records: Sequence) -> list[list]:
        """Cut the input into ``n_splits`` contiguous splits."""
        records = list(records)
        if not records:
            return [[]]
        n_splits = min(self.n_splits, len(records))
        split_size = (len(records) + n_splits - 1) // n_splits
        return [records[i:i + split_size] for i in range(0, len(records), split_size)]

    # -- execution -----------------------------------------------------------------

    def run(self, job: MapReduceJob, records: Sequence) -> list[tuple[object, object]]:
        """Execute a job and return the reducer output pairs."""
        counters = JobCounters()
        splits = self._make_splits(records)
        counters.splits = len(splits)

        # Map + spill (serialise) per split.
        spilled_splits: list[bytes] = []
        for split in splits:
            pairs: list[tuple[object, object]] = []
            for record in split:
                counters.map_input_records += 1
                for pair in job.mapper(record):
                    pairs.append(pair)
                    counters.map_output_records += 1
            if job.combiner is not None:
                pairs = self._combine(job.combiner, pairs)
                counters.combine_output_records += len(pairs)
            spill = pickle.dumps(pairs)
            counters.shuffle_bytes += len(spill)
            spilled_splits.append(spill)

        # Shuffle: merge all spills, sort by key, group.
        merged: list[tuple[object, object]] = []
        for spill in spilled_splits:
            merged.extend(pickle.loads(spill))
        if self.sort_shuffle:
            merged.sort(key=lambda pair: _sort_key(pair[0]))
        groups = self._group(merged)
        counters.reduce_input_groups = len(groups)

        # Reduce.
        output: list[tuple[object, object]] = []
        for key, values in groups:
            for pair in job.reducer(key, values):
                output.append(pair)
                counters.reduce_output_records += 1

        self.history.append(JobResult(name=job.name, counters=counters))
        return output

    # -- helpers -------------------------------------------------------------------

    @staticmethod
    def _combine(combiner: Reducer, pairs: list[tuple[object, object]]) -> list[tuple[object, object]]:
        grouped = MapReduceEngine._group(sorted(pairs, key=lambda pair: _sort_key(pair[0])))
        combined: list[tuple[object, object]] = []
        for key, values in grouped:
            combined.extend(combiner(key, values))
        return combined

    @staticmethod
    def _group(sorted_pairs: Iterable[tuple[object, object]]) -> list[tuple[object, list]]:
        groups: list[tuple[object, list]] = []
        current_key: object = _SENTINEL
        current_values: list = []
        for key, value in sorted_pairs:
            if key != current_key:
                if current_key is not _SENTINEL:
                    groups.append((current_key, current_values))
                current_key = key
                current_values = []
            current_values.append(value)
        if current_key is not _SENTINEL:
            groups.append((current_key, current_values))
        return groups


class _Sentinel:
    def __repr__(self) -> str:
        return "<no-key>"


_SENTINEL = _Sentinel()


def _sort_key(key: object) -> tuple:
    """Total ordering for heterogeneous shuffle keys (type name, then value)."""
    if isinstance(key, tuple):
        return (1, tuple(_sort_key(part) for part in key))
    return (0, (type(key).__name__, key))
