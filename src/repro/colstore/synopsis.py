"""Reusable sample synopses: build once per table, carry across writes.

A synopsis is a *narrowed selection* — a sorted ``int64`` array of base-row
positions — drawn once with an explicit seed and cached, so every
approximate query over the same ``(table, fraction, seed)`` reuses the
same rows instead of re-scoring the table (the VerdictDB "scramble"
lifecycle: pay the sampling scan once, answer many queries from it).

A synopsis is exactly the rows :meth:`repro.colstore.query.ColumnQuery.sample`
would keep on a full-table query, which is what lets the column-store
executor serve a plan's ``Sample`` over ``Project*(Scan)`` from the catalog
as pure caching: the sampled row set is bit-identical whether it comes
from the catalog or from sampling the scan.

Everything is deterministic: the only randomness is ``default_rng(seed)``
with the caller's explicit seed.

**Writes and staleness.**  The catalog answers *for a snapshot* and keeps
one entry per ``("uniform", table, fraction, seed)``, stamped with the
version it answers; an entry is never served to another version — that
would silently exclude appended rows from every approximate answer.  A
stale **uniform** entry is *advanced*, not retired, at a cost proportional
to what was written.  Scores are indexed by row position and
``default_rng(seed).random(n)`` is prefix-stable, so a write never changes
the score of an existing row, and rows ``[a, b)`` appended since the entry
was drawn are scored on their own by jumping the generator ``a`` draws
ahead.  The entry holds a *candidate pool* — every live row scoring at most
a threshold τ, :data:`POOL_SLACK` more of them than the sample needs — and
is advanced by admitting appended rows that score ≤ τ, dropping pool rows
the snapshot's deletion bitmap has set (within a generation a bit is only
ever set), and re-selecting the sample from the pool.  The pool then still
holds *every* live row scoring ≤ τ, so whenever it holds at least the
``k`` rows the sample needs, its ``k`` smallest by (score, position) are
the table's: the advanced selection is bit-identical to a fresh
``ColumnQuery.sample`` on that snapshot.  The entry is redrawn from scratch
instead when positions do not carry over — a compaction renumbered the rows
(the snapshot sits on another sealed segment) — when the pool has fewer
than ``k`` rows left, or when the snapshot is *older* than the entry (a
long-held reader; its draw is answered but not kept).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from repro.colstore.delta import Snapshot
from repro.colstore.query import sample_size, smallest_scored
from repro.colstore.table import ColumnTable

#: Rows a uniform entry's candidate pool holds beyond its sample, as a share
#: of the sample: what deletes may eat before the entry must be redrawn.
POOL_SLACK = 0.25


@dataclass(frozen=True, eq=False)
class _Entry:
    """One cached selection and the table version it answers.

    Immutable: advancing builds a new entry, so racing readers at worst
    compute the same one twice.  ``sealed`` names the generation whose row
    numbering the positions use — weakly, so an entry nobody asks for again
    does not keep a compacted-away segment alive.  The pool holds positions
    ascending with their scores aligned; ``threshold`` is τ and ``scored``
    how many logical rows have been scored so far.
    """

    sealed: "weakref.ref[ColumnTable]"
    version: int
    selection: np.ndarray
    threshold: float
    scored: int
    pool_rows: np.ndarray
    pool_scores: np.ndarray


def _checked_fraction(fraction: float) -> float:
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"synopsis fraction {fraction!r} outside (0, 1]")
    return float(fraction)


def _draw_uniform(snapshot: Snapshot, fraction: float, seed: int) -> _Entry:
    """A uniform entry from scratch: score every row, keep the pool and the sample."""
    total = snapshot.row_count
    rows = snapshot.live_selection()
    scores = np.random.default_rng(seed).random(total)
    if rows is None:
        rows = np.arange(total, dtype=np.int64)
    else:
        scores = scores[rows]
    n_keep = sample_size(fraction, len(rows))
    n_pool = n_keep + int(np.ceil(POOL_SLACK * n_keep))
    # Scores lie in [0, 1): a pool that takes every row admits every later one.
    threshold = (1.0 if n_pool >= len(rows)
                 else float(np.partition(scores, n_pool - 1)[n_pool - 1]))
    pool = np.flatnonzero(scores <= threshold)
    pool_rows, pool_scores = rows[pool], scores[pool]
    kept = smallest_scored(pool_scores, n_keep)
    return _Entry(weakref.ref(snapshot.sealed_table), snapshot.version, pool_rows[kept],
                  threshold=threshold, scored=total,
                  pool_rows=pool_rows, pool_scores=pool_scores)


def _advance_uniform(entry: _Entry, snapshot: Snapshot, fraction: float,
                     seed: int) -> _Entry | None:
    """``entry`` carried to a later version of its generation; None on pool underflow."""
    rows, scores = entry.pool_rows, entry.pool_scores
    appended = snapshot.row_count - entry.scored
    if appended:
        jumped = np.random.PCG64(seed).advance(entry.scored)
        fresh = np.random.Generator(jumped).random(appended)
        admitted = np.flatnonzero(fresh <= entry.threshold)
        rows = np.concatenate([rows, admitted + entry.scored])
        scores = np.concatenate([scores, fresh[admitted]])
    live = ~snapshot.deleted_at(rows)
    rows, scores = rows[live], scores[live]
    n_keep = sample_size(fraction, snapshot.live_rows)
    if len(rows) < n_keep:
        return None
    return _Entry(entry.sealed, snapshot.version, rows[smallest_scored(scores, n_keep)],
                  threshold=entry.threshold, scored=snapshot.row_count,
                  pool_rows=rows, pool_scores=scores)


class SynopsisCatalog:
    """Per-store cache of sample synopses: one entry per build-parameter key."""

    def __init__(self, store):
        self._store = store
        self._entries: dict[tuple, _Entry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def uniform(self, table_name: str, fraction: float, seed: int = 0,
                snapshot: Snapshot | None = None) -> np.ndarray:
        """The uniform synopsis selection for ``(table, fraction, seed)``.

        Answers for ``snapshot`` (the table's current one when omitted):
        exactly the rows ``snapshot.query().sample(fraction, seed)`` keeps,
        whether drawn now, served from the entry, or advanced from an entry
        drawn before later writes (module docstring).  Treat the result as
        read-only (it is shared across queries).
        """
        fraction, seed = _checked_fraction(fraction), int(seed)
        if snapshot is None:
            snapshot = self._store.snapshot(table_name)
        key = ("uniform", table_name, fraction, seed)
        entry = self._entries.get(key)
        carries = entry is not None and entry.sealed() is snapshot.sealed_table
        if carries and entry.version == snapshot.version:
            return entry.selection
        fresh = None
        if carries and entry.version < snapshot.version:
            fresh = _advance_uniform(entry, snapshot, fraction, seed)
        if fresh is None:
            fresh = _draw_uniform(snapshot, fraction, seed)
        # A table's versions only grow, so an entry is replaced by newer
        # answers only: a reader holding an old snapshot never sets the
        # current readers back.
        if entry is None or snapshot.version >= entry.version:
            self._entries[key] = fresh
        return fresh.selection
