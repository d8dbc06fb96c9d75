"""Reusable sample synopses: build once per table version, reuse across queries.

A synopsis is a *narrowed selection* — a sorted ``int64`` array of base-row
positions — drawn once with an explicit seed and cached, so every
approximate query over the same ``(table, fraction, seed)`` reuses the
same rows instead of re-scoring the table (the VerdictDB "scramble"
lifecycle: pay the sampling scan once, answer many queries from it).

Two kinds:

- **uniform** — exactly the rows :meth:`repro.colstore.query.ColumnQuery.sample`
  would keep on a full-table query, which is what makes the optimizer's
  synopsis routing (:func:`repro.plan.optimizer.route_through_synopsis`)
  a pure caching rewrite: the sampled row set is bit-identical whether it
  comes from the catalog or from an inline ``Sample``.
- **stratified-by-column** — the same rank-by-score draw applied within
  each distinct value of a stratification column, keeping
  ``max(1, round(fraction * group_rows))`` rows per stratum so rare groups
  survive sampling (uniform samples starve small disease cohorts).

Everything is deterministic: the only randomness is ``default_rng(seed)``
with the caller's explicit seed.

**Writes and staleness.**  A cached selection is only valid for the table
version it was drawn from — serving it after an append would silently
exclude the new rows from every approximate answer.  Cache keys therefore
carry the table's :meth:`~repro.colstore.catalog.ColumnStore.store_version`,
and the store's write hook calls :meth:`SynopsisCatalog.invalidate` so
superseded entries are dropped eagerly rather than accumulating one
selection per version.  Dropping (and creating) a table invalidates too:
a table recreated under a dropped name restarts at version 0, so the
version alone would not tell its synopses from the dropped table's.
"""

from __future__ import annotations

import numpy as np

from repro.colstore.query import ColumnQuery


class SynopsisCatalog:
    """Per-store cache of sample synopses, keyed by build parameters + version."""

    def __init__(self, store):
        self._store = store
        self._selections: dict[tuple, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self._selections)

    def _version(self, table_name: str) -> int:
        return self._store.store_version(table_name)

    def invalidate(self, table_name: str) -> None:
        """Drop every cached synopsis of ``table_name`` (on write, create, drop)."""
        stale = [key for key in self._selections if key[1] == table_name]
        for key in stale:
            del self._selections[key]

    def uniform(self, table_name: str, fraction: float, seed: int = 0) -> np.ndarray:
        """The uniform synopsis selection for ``(table, fraction, seed)``.

        Built on first request by delegating to ``ColumnQuery.sample`` on a
        full-table query — the synopsis *is* that sample's row set — then
        cached; later calls return the stored selection. Treat it as
        read-only (it is shared across queries).  On a written table the
        draw runs over a current snapshot's live rows, and the cache key's
        version component retires the entry at the next write.
        """
        key = ("uniform", table_name, float(fraction), int(seed),
               self._version(table_name))
        selection = self._selections.get(key)
        if selection is None:
            query = self._store.query(table_name).sample(fraction, seed)
            selection = np.asarray(query.selection, dtype=np.int64)
            self._selections[key] = selection
        return selection

    def stratified(self, table_name: str, column: str, fraction: float,
                   seed: int = 0) -> np.ndarray:
        """A stratified-by-``column`` synopsis selection.

        Within each distinct value of ``column``, keeps the
        ``max(1, round(fraction * group_rows))`` rows with the smallest
        ``default_rng(seed)`` scores — the same rank-by-score rule the
        uniform sample uses, applied per stratum, so every group is
        represented at (at least) the requested rate.  On a written table
        the strata are formed over the snapshot's live rows only.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"synopsis fraction {fraction!r} outside (0, 1]")
        key = ("stratified", table_name, column, float(fraction), int(seed),
               self._version(table_name))
        selection = self._selections.get(key)
        if selection is None:
            query = self._store.query(table_name)
            table = query.table
            scores = np.random.default_rng(seed).random(table.row_count)
            base = None if query._full_selection else query.selection
            rows = np.arange(table.row_count, dtype=np.int64) if base is None else base
            _, inverse = table.column(column).distinct_inverse(base)
            inverse = np.asarray(inverse, dtype=np.int64)
            counts = np.bincount(inverse)
            # Order rows by (stratum, score): each stratum's cheapest rows
            # come first within its contiguous block.
            order = np.lexsort((scores[rows], inverse))
            starts = np.cumsum(counts) - counts
            rank_in_group = np.arange(len(order)) - np.repeat(starts, counts)
            keep_per_group = np.maximum(
                1, np.round(fraction * counts).astype(np.int64)
            )
            kept = rows[order[rank_in_group < np.repeat(keep_per_group, counts)]]
            selection = np.sort(kept).astype(np.int64)
            self._selections[key] = selection
        return selection

    def query(self, table_name: str, selection: np.ndarray) -> ColumnQuery:
        """Wrap a synopsis selection as a query over its base table."""
        return ColumnQuery(self._store.effective_table(table_name), selection)

    def describe(self) -> dict[tuple, int]:
        """Built synopses and their row counts (for EXPLAIN-style output)."""
        return {key: len(sel) for key, sel in sorted(self._selections.items(),
                                                     key=lambda kv: repr(kv[0]))}
