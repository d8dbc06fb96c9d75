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

A job has one map-output key class, as in Hadoop: the shuffle sorts by
the keys' native order (:func:`_sort_by_key`), stable within a key, and a
job whose keys are of more than one class, or hold a float NaN, fails
instead of sorting.
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
                pairs = self._combine(job, pairs)
                counters.combine_output_records += len(pairs)
            spill = pickle.dumps(pairs)
            counters.shuffle_bytes += len(spill)
            spilled_splits.append(spill)

        # Shuffle: merge all spills, sort by key, group.
        merged: list[tuple[object, object]] = []
        for spill in spilled_splits:
            merged.extend(pickle.loads(spill))
        groups = self._group(_sort_by_key(merged, job.name))
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
    def _combine(job: MapReduceJob, pairs: list[tuple[object, object]]) -> list[tuple[object, object]]:
        grouped = MapReduceEngine._group(_sort_by_key(pairs, job.name))
        combined: list[tuple[object, object]] = []
        for key, values in grouped:
            combined.extend(job.combiner(key, values))
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


def _sort_by_key(pairs: list[tuple[object, object]], job: str) -> list[tuple[object, object]]:
    """``pairs`` stably sorted by their keys' native order, as a new list.

    >>> _sort_by_key([(2, "b"), (1, "a"), (2, "c")], "demo")
    [(1, 'a'), (2, 'b'), (2, 'c')]

    All-``None`` keys are all equal, so their order is the emission order.
    Like Hadoop, a job has one map-output key class: keys of more than one
    class, or a native sort that raises, fail the job with a ``TypeError``
    naming it, and a key that is or holds a NaN ``float``, which has no
    place in the order, with a ``ValueError``:

    >>> _sort_by_key([(1, "a"), (1.0, "b")], "demo")
    Traceback (most recent call last):
    TypeError: job 'demo': map output keys of more than one class: float, int

    The class rule is the top-level key's: the items of tuple keys are
    compared, not classed, so ``(1, 1)``, ``(1, 1.0)`` and ``(1, True)`` are
    one key, and their values one group in emission order.
    """
    keys = list(map(_KEY, pairs))
    classes = set(map(type, keys))
    if len(classes) > 1:
        names = ", ".join(sorted(cls.__name__ for cls in classes))
        raise TypeError(f"job {job!r}: map output keys of more than one class: {names}")
    if classes <= {type(None)}:
        return list(pairs)
    if _holds_nan(keys, classes):
        raise ValueError(f"job {job!r}: a map output key is or holds NaN")
    try:
        return sorted(pairs, key=_KEY)
    except (TypeError, ValueError) as error:  # ValueError: a numpy item against a tuple
        raise TypeError(f"job {job!r}: map output keys do not sort: {error}") from error


def _holds_nan(keys: list, classes: set[type]) -> bool:
    """Whether one of ``keys`` (of ``classes``) is a NaN ``float`` or a tuple holding one.

    Checked one class at a time, tuple items recursively, so keys and items
    of any other class cost one ``type`` call each.
    """
    for cls in classes:
        if not issubclass(cls, (float, tuple)):
            continue
        of_class = keys if len(classes) == 1 else [key for key in keys if type(key) is cls]
        if issubclass(cls, float):
            if any(map(isnan, of_class)):
                return True
        else:
            items = list(chain.from_iterable(of_class))
            if _holds_nan(items, set(map(type, items))):
                return True
    return False
