"""The column-store catalog: one ``name → DeltaStore`` map."""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.colstore.delta import DeltaStore, Snapshot
from repro.colstore.query import ColumnQuery
from repro.colstore.table import ColumnTable


class ColumnStore:
    """A single-node column-store database: a catalog of column tables.

    Every table is one :class:`~repro.colstore.delta.DeltaStore` from the
    moment it is created or registered — the sealed (compressed,
    read-optimised) segment plus the writable tail + deletion-bitmap tier
    — and every query resolves through a
    :class:`~repro.colstore.delta.Snapshot` of the table's current version,
    so readers see a consistent state while writers keep writing.  A table
    that was never written has an empty tail, and its snapshot's table *is*
    the sealed segment: there is no second read path to keep in step.
    A write costs the synopsis catalog nothing when it lands: each entry is
    stamped with the version it answers, and the next approximate query
    advances it to its own snapshot (:mod:`repro.colstore.synopsis`).
    Creating and dropping a table drop its entries — a table recreated under
    a dropped name restarts its version counter.
    """

    def __init__(self, name: str = "genbase"):
        self.name = name
        self._deltas: dict[str, DeltaStore] = {}
        self._synopses: "SynopsisCatalog | None" = None

    @property
    def synopses(self) -> "SynopsisCatalog":
        """The store's sample-synopsis catalog (built lazily, cached).

        Uniform synopses built here are narrowed selections shared across
        queries — see :mod:`repro.colstore.synopsis`.
        """
        if self._synopses is None:
            from repro.colstore.synopsis import SynopsisCatalog
            self._synopses = SynopsisCatalog(self)
        return self._synopses

    # -- catalog management --------------------------------------------------------

    def create_table(self, name: str, arrays: Mapping[str, np.ndarray],
                     compress: bool = True) -> ColumnTable:
        """Create and load a table from column arrays.

        Raises:
            ValueError: if the table already exists.
        """
        table = ColumnTable.from_arrays(name, arrays, compress=compress)
        self.register(table)
        return table

    def register(self, table: ColumnTable) -> None:
        """Register an externally built table (e.g. a materialised join)."""
        name = table.name
        if name in self._deltas:
            raise ValueError(f"table {name!r} already exists")
        self._deltas[name] = DeltaStore(table)

    def table(self, name: str) -> ColumnTable:
        """The table's current *sealed* segment (tail and deletes not applied).

        Written tables should be read through :meth:`query` /
        :meth:`effective_table`, which resolve the full logical content.
        """
        return self.writable(name).sealed_table

    def effective_table(self, name: str) -> ColumnTable:
        """The table's logical view: sealed + tail rows (deletes not applied)."""
        return self.snapshot(name).table

    def table_names(self) -> list[str]:
        return sorted(self._deltas)

    def __contains__(self, name: str) -> bool:
        return name in self._deltas

    # -- writes -----------------------------------------------------------------------

    def writable(self, name: str) -> DeltaStore:
        """The table's delta store.

        The returned store carries the write API (``append`` / ``delete``
        / ``compact``) and hands out :class:`Snapshot`
        handles.
        """
        try:
            return self._deltas[name]
        except KeyError:
            known = ", ".join(sorted(self._deltas)) or "<none>"
            raise KeyError(f"no table named {name!r}; known tables: {known}") from None

    def append(self, name: str, rows: Mapping[str, np.ndarray]) -> int:
        """Append rows to a table's tail; returns the new store version."""
        return self.writable(name).append(rows)

    def delete(self, name: str, row_ids) -> int:
        """Mark logical row ids deleted; returns the new store version."""
        return self.writable(name).delete(row_ids)

    def delete_where(self, name: str, expression) -> int:
        """Delete live rows matching a plan expression; returns rows deleted."""
        return self.writable(name).delete_where(expression)

    def compact(self, name: str) -> int:
        """Reseal a written table's surviving rows as a new generation."""
        return self.writable(name).compact()

    def snapshot(self, name: str) -> Snapshot:
        """A consistent point-in-time view of one table."""
        return self.writable(name).snapshot()

    def live_row_count(self, name: str) -> int:
        """Logical (live) rows: sealed + tail minus deletions."""
        return self.snapshot(name).live_rows

    # -- querying ---------------------------------------------------------------------

    def query(self, table_name: str) -> ColumnQuery:
        """Start a vectorised query on a table.

        The table is read through a fresh :class:`Snapshot` — the query
        sees the sealed segment, tail and deletion bitmap frozen at this
        call, however long it stays lazy.
        """
        return self.snapshot(table_name).query()

    # -- stats ------------------------------------------------------------------------

    def total_compressed_bytes(self) -> int:
        return sum(self.effective_table(name).compressed_bytes
                   for name in self._deltas)

    def describe(self) -> dict[str, dict]:
        return {
            name: {
                "rows": self.live_row_count(name),
                "columns": table.column_names,
                "compressed_bytes": table.compressed_bytes,
                "encodings": table.encodings(),
            }
            for name, table in sorted(
                (name, self.effective_table(name)) for name in self._deltas
            )
        }
