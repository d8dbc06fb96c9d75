"""The writable delta tier over the sealed compressed segments.

The column store is loaded once and sealed; production traffic writes.
This module layers an update-friendly tier over each sealed table (every
table of a :class:`~repro.colstore.catalog.ColumnStore` has one from
creation) — the HTAP split of Polynesia and the delta-store designs of
C-Store/SAP HANA:

- **tail** — appended rows kept as plain (uncompressed) numpy arrays, in
  append order, one chunk per ``append`` call;
- **deletion bitmap** — a boolean array over the *logical* row space
  (sealed rows first, then tail rows in append order); logical row ids are
  stable until a compaction reseals the table;
- **version counter** — bumped by every write; readers use it to detect
  staleness (a synopsis entry is stamped with the version it answers and is
  advanced, not served, when a snapshot's version is later —
  :mod:`repro.colstore.synopsis`).

Every piece of published state is immutable: a write builds a complete new
:class:`_TableState` and swaps one reference under the writer lock, so a
:class:`Snapshot` (one state reference, grabbed atomically) stays
internally consistent forever — readers never lock, never block writers,
and never observe a half-applied write.  ``compact()`` re-runs
``best_encoding`` over the surviving rows, seals a new segment generation
and publishes it the same way; live snapshots keep answering from the
state they captured.

Scans see fresh data through the *same* machinery as sealed data: a
version's table is an ordinary :class:`~repro.colstore.table.ColumnTable`
— the sealed one itself while the tail is empty, otherwise one whose
columns are :class:`MergedColumn` views.  A merged column implements the
:class:`~repro.colstore.column.ColumnVector` surface per operator instead
of decoding the sealed segment, running the compressed fast path on the
sealed part and vectorised plain evaluation on the tail — concatenated
filter masks, per-part group-reduce partials merged by key (the column
store's one float reassociation: a merged ``sum``/``mean`` may differ from a
sealed column's in the last ulps), distinct sets read off the concatenated
rows.
"""

from __future__ import annotations

import threading
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from repro.colstore.column import ColumnVector
from repro.colstore.compression import _distinct, predicate_mask, reduce_by_inverse
from repro.colstore.query import ColumnQuery
from repro.colstore.table import ColumnTable


def merge_group_parts(
    parts: Sequence[tuple[np.ndarray, np.ndarray]], function: str,
    key_dtype: np.dtype,
) -> tuple[np.ndarray, np.ndarray]:
    """Merge per-part ``(keys, aggregates)`` partials into one grouped result.

    Each part follows the :meth:`~repro.colstore.column.ColumnVector.group_reduce`
    contract (sorted unique keys, float64 aggregates).  ``sum``/``count``
    partials add; ``min``/``max`` partials combine element-wise.  ``mean``
    is *not* mergeable from per-part means — callers must merge ``sum`` and
    ``count`` partials and divide; a part's aggregates may carry a trailing
    axis (one row per key), so both merge in one call (:func:`_partials`).
    """
    parts = [(keys, values) for keys, values in parts if len(keys)]
    if not parts:
        return np.empty(0, dtype=key_dtype), np.empty(0, dtype=np.float64)
    if len(parts) == 1:
        keys, values = parts[0]
        return keys, np.asarray(values, dtype=np.float64)
    keys = parts[0][0]
    for more, _ in parts[1:]:
        keys = np.union1d(keys, more)
    merged = np.zeros((len(keys),) + np.shape(parts[0][1])[1:], dtype=np.float64)
    seen = np.zeros(len(keys), dtype=bool)
    for part_keys, part_values in parts:
        at = np.searchsorted(keys, part_keys)
        part_values = np.asarray(part_values, dtype=np.float64)
        if function in ("sum", "count"):
            merged[at] += part_values
        elif function == "min":
            merged[at] = np.where(seen[at], np.minimum(merged[at], part_values),
                                  part_values)
        elif function == "max":
            merged[at] = np.where(seen[at], np.maximum(merged[at], part_values),
                                  part_values)
        else:
            raise ValueError(f"cannot merge partials for function {function!r}")
        seen[at] = True
    return keys, merged


def _partials(codes: np.ndarray, n_groups: int, values: np.ndarray | None,
              function: str) -> np.ndarray:
    """One part's aggregates by group code; ``mean`` yields ``[sum, count]`` rows."""
    if function != "mean":
        return reduce_by_inverse(codes, n_groups, values, function)
    return np.column_stack([reduce_by_inverse(codes, n_groups, values, "sum"),
                            reduce_by_inverse(codes, n_groups, None, "count")])


class MergedColumn:
    """A sealed compressed column plus its plain tail, presented as one vector.

    Implements the :class:`~repro.colstore.column.ColumnVector` query
    surface over the concatenation ``[sealed rows..., tail rows...]``.
    Filters, gathers and grouped reductions run the encoding's
    compressed fast path on the sealed part and vectorised plain
    evaluation on the tail, merging per operator; ``distinct_inverse`` and
    ``distinct_values`` answer from the concatenated rows.

    ``tail_chunks`` are the appended arrays in append order (at least one
    row between them); they are concatenated the first time an operator
    reads the tail, so a column no query touches costs no O(tail) work.
    Instances are shared by every snapshot of one table version; their
    small caches (the tail, the decoded concatenation) are
    idempotent, so racing readers at worst compute the same value twice.
    """

    def __init__(self, sealed: ColumnVector, tail_chunks: Sequence[np.ndarray]):
        self.name = sealed.name
        self.dtype = sealed.dtype
        self._sealed = sealed
        self._tail_chunks = tail_chunks
        self._split = len(sealed)  # logical position of the first tail row
        self._length = self._split + sum(len(chunk) for chunk in tail_chunks)
        self._cache: np.ndarray | None = None
        self._tail_distinct: tuple[np.ndarray, np.ndarray] | None = None

    @cached_property
    def _tail(self) -> np.ndarray:
        """The concatenated tail, built when an operator first reads it."""
        chunks = self._tail_chunks
        return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)

    def __len__(self) -> int:
        return self._length

    def __repr__(self) -> str:
        return (
            f"MergedColumn({self.name!r}, sealed={self._split}, "
            f"tail={self._length - self._split}, encoding={self._sealed.encoding_name}+tail)"
        )

    @property
    def encoded_bytes(self) -> int:
        return self._sealed.encoded_bytes + self._tail.nbytes

    # -- materialisation -----------------------------------------------------------

    def values(self) -> np.ndarray:
        """Decode the sealed part and concatenate the tail (cached)."""
        if self._cache is None:
            self._cache = np.concatenate([self._sealed.values(), self._tail])
        return self._cache

    def _split_point(self, indices: np.ndarray) -> int | None:
        """Length of the sealed prefix, or None when parts interleave.

        Selections out of the query layer are sorted (``flatnonzero``
        order), so in practice every sealed position precedes every tail
        position and a gather splits into two *contiguous* slices.
        Detecting that costs two cheap passes and skips the
        mask/flatnonzero/scatter fallback's several full-array round
        trips — the difference between a merged scan tracking the sealed
        one and costing multiples of it.
        """
        in_sealed = indices < self._split
        cut = int(np.count_nonzero(in_sealed))
        if bool(in_sealed[:cut].all()):
            return cut
        return None

    def take(self, indices: np.ndarray) -> np.ndarray:
        """Gather by logical position, split between sealed and tail parts."""
        indices = np.asarray(indices)
        if self._cache is not None:
            return self._cache[indices]
        if indices.size and indices.min() < 0:
            indices = np.where(indices < 0, indices + len(self), indices)
        cut = self._split_point(indices)
        if cut is not None:
            if cut == indices.size:
                return self._sealed.take(indices)
            tail_part = self._tail[indices[cut:] - self._split]
            if cut == 0:
                return tail_part
            return np.concatenate([self._sealed.take(indices[:cut]), tail_part])
        in_sealed = indices < self._split
        out = np.empty(indices.shape, dtype=self.dtype)
        sealed_at = np.flatnonzero(in_sealed)
        if sealed_at.size:
            out[sealed_at] = self._sealed.take(indices[sealed_at])
        tail_at = np.flatnonzero(~in_sealed)
        out[tail_at] = self._tail[indices[tail_at] - self._split]
        return out

    # -- filtering -----------------------------------------------------------------

    def filter_mask(self, predicate) -> np.ndarray:
        """Sealed pushdown mask concatenated with a plain tail mask."""
        return np.concatenate([self._sealed.filter_mask(predicate),
                               predicate_mask(self._tail, predicate)])

    def isin(self, values: np.ndarray) -> np.ndarray:
        return np.concatenate([self._sealed.isin(values),
                               np.isin(self._tail, values)])

    # -- grouping ------------------------------------------------------------------

    def distinct_inverse(
        self, selection: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        rows = self.values() if selection is None else self.take(selection)
        return _distinct(rows, return_inverse=True)

    def distinct_values(self, selection: np.ndarray | None = None) -> np.ndarray:
        rows = self.values() if selection is None else self.take(selection)
        return _distinct(rows, return_inverse=False)

    def group_reduce(
        self,
        values: np.ndarray | None,
        function: str,
        selection: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Compressed sealed partials + plain tail partials, merged by key.

        ``mean`` merges ``sum`` and ``count`` partials and divides — a
        per-part mean cannot be combined without its weights.  Both come
        from the same split selection and the same per-part group codes
        (each part's ``distinct_inverse`` is taken once), so a mean costs
        one pass of the pipeline, not two.
        """
        if selection is None:
            sealed_selection = None
            sealed_values = None if values is None else values[:self._split]
            tail_values = None if values is None else values[self._split:]
            tail_keys_source = self._tail
        else:
            selection = np.asarray(selection)
            cut = self._split_point(selection)
            if cut is not None:
                sealed_selection = selection[:cut]
                tail_keys_source = self._tail[selection[cut:] - self._split]
                sealed_values = None if values is None else values[:cut]
                tail_values = None if values is None else values[cut:]
            else:
                in_sealed = selection < self._split
                sealed_selection = selection[in_sealed]
                tail_keys_source = self._tail[selection[~in_sealed] - self._split]
                sealed_values = None if values is None else values[in_sealed]
                tail_values = None if values is None else values[~in_sealed]
        parts = []
        if sealed_selection is None or sealed_selection.size:
            if function == "mean":
                sealed_keys, sealed_codes = self._sealed.distinct_inverse(sealed_selection)
                parts.append((sealed_keys, _partials(
                    sealed_codes, len(sealed_keys), sealed_values, function)))
            else:
                parts.append(
                    self._sealed.group_reduce(sealed_values, function, sealed_selection)
                )
        if tail_keys_source.size:
            if tail_keys_source is self._tail:
                # Full-tail grouping: the tail is immutable per state, so
                # its dictionary decomposition is computed once and reused
                # by every scan of this version — the sort that would
                # otherwise dominate the merge overhead.
                if self._tail_distinct is None:
                    self._tail_distinct = _distinct(self._tail, return_inverse=True)
                tail_keys, tail_codes = self._tail_distinct
            else:
                tail_keys, tail_codes = _distinct(tail_keys_source, return_inverse=True)
            parts.append((
                tail_keys,
                _partials(tail_codes, len(tail_keys), tail_values, function),
            ))
        if function != "mean":
            return merge_group_parts(parts, function, self.dtype)
        keys, totals = merge_group_parts(parts, "sum", self.dtype)
        sums, counts = totals.reshape(len(keys), 2).T
        return keys, sums / counts


class _TableState:
    """One immutable published version of a table.

    Never mutated after publication (the lazy tail/live caches are
    idempotent); a :class:`Snapshot` is one reference to one of these.
    ``deleted`` may be shorter than ``total_rows`` — rows appended after
    the last delete are implicitly live.
    """

    __slots__ = ("sealed", "generation", "version", "chunks", "tail_rows",
                 "deleted", "deleted_count", "_table", "_live")

    def __init__(self, sealed: ColumnTable, generation: int, version: int,
                 chunks: tuple, tail_rows: int,
                 deleted: np.ndarray | None, deleted_count: int):
        self.sealed = sealed
        self.generation = generation
        self.version = version
        self.chunks = chunks
        self.tail_rows = tail_rows
        self.deleted = deleted
        self.deleted_count = deleted_count
        self._table: ColumnTable | None = None
        self._live: np.ndarray | None = None

    @property
    def total_rows(self) -> int:
        return self.sealed.row_count + self.tail_rows

    @property
    def live_rows(self) -> int:
        return self.total_rows - self.deleted_count

    def table(self) -> ColumnTable:
        """This version as one logical table of ``sealed + tail`` rows (cached).

        The sealed table itself while the tail is empty — the pristine read
        path is exactly the sealed one — otherwise a table of
        :class:`MergedColumn` views.  States are shared by every snapshot of
        one version, so the columns' idempotent tail/decode caches
        amortise across scans.  Deletions are *not* applied here: they are a
        base selection the :class:`Snapshot` supplies to its queries, so
        logical row ids stay stable for delete targeting.
        """
        if self._table is None:
            sealed = self.sealed
            self._table = sealed if not self.tail_rows else ColumnTable(sealed.name, [
                MergedColumn(sealed.column(name), [chunk[name] for chunk in self.chunks])
                for name in sealed.column_names
            ])
        return self._table

    def live_positions(self) -> np.ndarray | None:
        """Sorted logical positions of live rows; None when nothing is deleted.

        Decided by the count, not by whether a bitmap exists: a write that
        deleted no row (``delete([])``) still publishes one, and an explicit
        ``arange`` selection would cost every later scan the full-selection
        compressed paths.
        """
        if not self.deleted_count:
            return None
        if self._live is None:
            mask = np.zeros(self.total_rows, dtype=bool)
            mask[:len(self.deleted)] = self.deleted
            self._live = np.flatnonzero(~mask).astype(np.int64)
        return self._live


class Snapshot:
    """A consistent, immutable view of one table version.

    Acquired with one atomic state-reference read; holding it costs
    nothing and never blocks writers.  All reads through :meth:`query`
    (and the plan executor, which scans through snapshots) see exactly the
    sealed segment, tail length and deletion bitmap frozen at acquisition
    — concurrent appends, deletes and even compactions are invisible.
    """

    def __init__(self, state: _TableState):
        self._state = state

    @property
    def version(self) -> int:
        return self._state.version

    @property
    def generation(self) -> int:
        return self._state.generation

    @property
    def sealed_table(self) -> ColumnTable:
        """The sealed segment under this version: one object per generation.

        Two snapshots share it exactly when they number rows the same way —
        same table incarnation, no compaction in between — which is what the
        synopsis catalog checks (by identity) before carrying row positions
        from one version to another.
        """
        return self._state.sealed

    @property
    def row_count(self) -> int:
        """Total logical rows (sealed + tail), *including* deleted rows."""
        return self._state.total_rows

    @property
    def tail_rows(self) -> int:
        return self._state.tail_rows

    @property
    def deleted_count(self) -> int:
        return self._state.deleted_count

    @property
    def live_rows(self) -> int:
        return self._state.live_rows

    @property
    def table(self) -> ColumnTable:
        """This version as a column table (:meth:`_TableState.table`)."""
        return self._state.table()

    def live_selection(self) -> np.ndarray | None:
        """Live logical positions as a query base; None when none deleted."""
        return self._state.live_positions()

    def deleted_at(self, positions: np.ndarray) -> np.ndarray:
        """Whether each logical position is deleted in this version.

        Within a generation a deleted row stays deleted: a bit set in one
        version is set in every later one.
        """
        deleted = self._state.deleted
        verdict = np.zeros(len(positions), dtype=bool)
        if deleted is not None:
            covered = positions < len(deleted)  # later appends are implicitly live
            verdict[covered] = deleted[positions[covered]]
        return verdict

    def query(self) -> ColumnQuery:
        """A query over this version's live rows (the scan entry point)."""
        return ColumnQuery(self.table, self.live_selection())

    def logical_arrays(self) -> dict[str, np.ndarray]:
        """The snapshot's logical content: live rows, logical order, plain arrays.

        Loading these into a fresh store must answer every (unsampled)
        query identically — the equivalence the property tests assert, and
        the content :meth:`DeltaStore.compact` reseals.
        """
        table = self.table
        return table.gather(table.column_names, self.live_selection())

    def __repr__(self) -> str:
        return (
            f"Snapshot({self._state.sealed.name!r}, version={self.version}, "
            f"generation={self.generation}, rows={self.live_rows})"
        )


class DeltaStore:
    """The writable tier over one sealed table: tail + bitmap + versions.

    Writers serialise on one lock and publish complete immutable
    :class:`_TableState` objects by a single reference swap; readers call
    :meth:`snapshot` (one reference read, no lock) and work off that state
    for as long as they like.  The version counter increases by exactly
    one per committed write, so observing versions ``v`` then ``v' > v``
    means every write in between is fully visible.
    """

    def __init__(self, sealed: ColumnTable):
        self._lock = threading.Lock()
        self._state = _TableState(sealed, generation=0, version=0, chunks=(),
                                  tail_rows=0, deleted=None, deleted_count=0)

    # -- read side -----------------------------------------------------------------

    @property
    def version(self) -> int:
        return self._state.version

    @property
    def generation(self) -> int:
        return self._state.generation

    @property
    def sealed_table(self) -> ColumnTable:
        """The current sealed segment generation (tail/deletes not applied)."""
        return self._state.sealed

    @property
    def tail_rows(self) -> int:
        return self._state.tail_rows

    @property
    def deleted_count(self) -> int:
        return self._state.deleted_count

    def snapshot(self) -> Snapshot:
        """Freeze the current version — one atomic state-reference read."""
        return Snapshot(self._state)

    def __repr__(self) -> str:
        state = self._state
        return (
            f"DeltaStore({state.sealed.name!r}, version={state.version}, "
            f"generation={state.generation}, tail={state.tail_rows}, "
            f"deleted={state.deleted_count})"
        )

    # -- write side ----------------------------------------------------------------

    def _publish(self, state: _TableState) -> None:
        self._state = state

    @staticmethod
    def _coerced_chunk(sealed: ColumnTable, rows: Mapping[str, np.ndarray]) -> tuple[dict, int]:
        """Validate and dtype-coerce one append's column arrays."""
        expected = set(sealed.column_names)
        given = set(rows)
        if given != expected:
            missing = sorted(expected - given)
            extra = sorted(given - expected)
            raise ValueError(
                f"append to {sealed.name!r} must supply exactly its columns; "
                f"missing {missing}, unexpected {extra}"
            )
        chunk: dict[str, np.ndarray] = {}
        length: int | None = None
        for name in sealed.column_names:
            coerced = sealed.column(name).coerce(rows[name])
            if length is None:
                length = len(coerced)
            elif len(coerced) != length:
                raise ValueError(
                    f"column {name!r}: {len(coerced)} values, expected {length}"
                )
            chunk[name] = coerced
        if not length:
            raise ValueError("append needs at least one row")
        return chunk, length

    def append(self, rows: Mapping[str, np.ndarray]) -> int:
        """Append rows (column name → array) to the tail; returns the new version.

        Values are cast to the sealed column dtypes with ``same_kind``
        casting (no silent float→int truncation; strings that do not fit
        the column width are rejected rather than clipped).
        """
        with self._lock:
            state = self._state
            chunk, length = self._coerced_chunk(state.sealed, rows)
            new = _TableState(state.sealed, state.generation, state.version + 1,
                              state.chunks + (chunk,), state.tail_rows + length,
                              state.deleted, state.deleted_count)
            self._publish(new)
        return new.version

    def delete(self, row_ids) -> int:
        """Mark logical row ids deleted (idempotent); returns the new version."""
        ids = np.atleast_1d(np.asarray(row_ids, dtype=np.int64))
        with self._lock:
            state = self._state
            total = state.total_rows
            if ids.size and (int(ids.min()) < 0 or int(ids.max()) >= total):
                raise IndexError(
                    f"row id out of range [0, {total}) for table "
                    f"{state.sealed.name!r}"
                )
            deleted = np.zeros(total, dtype=bool)
            if state.deleted is not None:
                deleted[:len(state.deleted)] = state.deleted
            deleted[ids] = True
            new = _TableState(state.sealed, state.generation, state.version + 1,
                              state.chunks, state.tail_rows,
                              deleted, int(deleted.sum()))
            self._publish(new)
        return new.version

    def delete_where(self, expression) -> int:
        """Delete every live row matching a plan expression; returns rows deleted."""
        matching = self.snapshot().query().where(expression).selection
        if matching.size:
            self.delete(matching)
        return int(matching.size)

    def compact(self) -> int:
        """Reseal the surviving rows as a new segment generation.

        Re-runs ``best_encoding`` over sealed + tail minus deletions and
        publishes a fresh state (empty tail, empty bitmap, generation + 1)
        with one atomic swap — snapshots acquired before the swap keep
        answering from their own generation.  Logical row ids are
        renumbered densely.
        """
        with self._lock:
            state = self._state
            arrays = Snapshot(state).logical_arrays()
            sealed = ColumnTable.from_arrays(state.sealed.name, arrays,
                                             compress=True)
            new = _TableState(sealed, state.generation + 1, state.version + 1,
                              chunks=(), tail_rows=0, deleted=None,
                              deleted_count=0)
            self._publish(new)
        return new.version

    def should_compact(self, tail_fraction: float = 0.25) -> bool:
        """True when tail + deletions exceed ``tail_fraction`` of the table."""
        state = self._state
        pending = state.tail_rows + state.deleted_count
        return bool(pending) and pending >= tail_fraction * max(1, state.total_rows)

    def maybe_compact(self, tail_fraction: float = 0.25) -> bool:
        """Compact when :meth:`should_compact`; returns whether it did."""
        if self.should_compact(tail_fraction):
            self.compact()
            return True
        return False
