"""The MapReduce execution engine.

A :class:`MapReduceJob` bundles a mapper, an optional combiner and a
reducer.  The :class:`MapReduceEngine` executes jobs the way Hadoop does,
and the cost of every phase is paid, not simulated:

1. **split** — the input is cut into contiguous splits;
2. **map** — each record of each split runs through the mapper, producing
   ``(key, value)`` pairs;
3. **pickle spill** — each split's map output is serialised (pickled), the
   spill-to-disk step, and its bytes are counted as ``shuffle_bytes``;
4. **combine** — the optional combiner runs per split, over the split's
   pairs sorted and grouped by key;
5. **shuffle sort** — all spills are deserialised, merged and sorted by key;
6. **group** — equal adjacent keys are collected into one value list;
7. **reduce** — the reducer runs once per key group.

Chaining jobs therefore re-serialises data between every stage, which is the
structural reason the Hadoop configuration trails every other engine in the
benchmark results.

What the shuffle models is the *order* it sorts into — a total order over
heterogeneous keys (:func:`_sort_key`: type name, then value; tuples after
scalars), stable within a key — not the decoration that computes it.
:func:`_sort_by_key` sorts by the keys' native order whenever that order is
provably the same, and decorates only when it is not.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from itertools import chain
from math import isnan
from operator import itemgetter
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

    def __init__(self, n_splits: int = 4):
        if n_splits < 1:
            raise ValueError("need at least one split")
        self.n_splits = n_splits
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
        groups = self._group(_sort_by_key(merged))
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
        grouped = MapReduceEngine._group(_sort_by_key(pairs))
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


_KEY = itemgetter(0)


def _sort_by_key(pairs: list[tuple[object, object]]) -> list[tuple[object, object]]:
    """``pairs`` stably sorted by :func:`_sort_key` of each key, as a new list.

    The result is always ``sorted(pairs, key=lambda p: _sort_key(p[0]))``;
    across types that puts a bool before an int, an int before a str and
    any tuple after every scalar:

    >>> _sort_by_key([((0,), "t"), ("a", "s"), (2, "i"), (True, "b"), (1, "j")])
    [(True, 'b'), (1, 'j'), (2, 'i'), ('a', 's'), ((0,), 't')]

    The keys' own ``<`` gives that order when every key is exactly ``int``,
    exactly ``str``, a tuple of exactly ``int``/``str`` items, or a ``float``
    with no NaN among them, so those sort natively.  All-``None`` keys are
    all equal, so their order is the emission order.  A tuple sort that
    meets an ``int`` against a ``str`` raises ``TypeError`` before it
    finishes and falls back to the decorated sort; every other mix (bools,
    numpy scalars, nested tuples, NaN) decorates from the start.
    """
    keys = list(map(_KEY, pairs))
    types = set(map(type, keys))
    if types == {type(None)}:
        return list(pairs)
    if types == {tuple}:
        native = set(map(type, chain.from_iterable(keys))) <= {int, str}
    elif types == {float}:
        native = not any(map(isnan, keys))
    else:
        native = types == {int} or types == {str}
    if native:
        try:
            return sorted(pairs, key=_KEY)
        except TypeError:  # an int met a str inside two tuple keys
            pass
    return sorted(pairs, key=lambda pair: _sort_key(pair[0]))


def _sort_key(key: object) -> tuple:
    """Total ordering for heterogeneous shuffle keys (type name, then value)."""
    if isinstance(key, tuple):
        return (1, tuple(_sort_key(part) for part in key))
    return (0, (type(key).__name__, key))
