"""The R-like data frame and environment.

R's data model matters for the benchmark in three ways the paper calls out:

* everything must fit in main memory,
* a single array may not exceed 2³¹−1 cells (R's long-vector limit at the
  time of the paper),
* execution is single threaded.

:class:`REnvironment` carries those limits; :class:`DataFrame` checks its
allocations against the active environment so the "vanilla R cannot load
the large dataset" behaviour emerges naturally instead of being special
cased in the benchmark driver.

Row filters speak the shared expression AST: a :class:`DataFrame` is a
column batch (name → vector), so :meth:`DataFrame.subset` evaluates an
:class:`~repro.plan.expressions.Expression` vectorised over its columns
with ``Expression.evaluate`` — the same tree the other engines compile to
row callables or push into compression encodings.  Shared logical plans
are lowered onto these verbs by :mod:`repro.rlang.bridge`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.plan.expressions import Expression


class RMemoryError(MemoryError):
    """Raised when an allocation exceeds the R environment's limits.

    Mirrors R's "cannot allocate vector of size ..." failure mode.
    """


@dataclass
class REnvironment:
    """Resource limits for the R-like environment.

    Attributes:
        max_cells: maximum number of cells in any single object (R's
            2³¹−1 limit by default; the benchmark scales this down alongside
            its scaled-down dataset presets).
        max_total_bytes: soft cap on the sum of live data-frame/matrix bytes
            (models the machine's RAM); ``None`` disables the check.
    """

    max_cells: int = 2**31 - 1
    max_total_bytes: int | None = None
    _live_bytes: int = 0

    def check_allocation(self, n_cells: int, n_bytes: int) -> None:
        """Validate one allocation against the limits.

        Raises:
            RMemoryError: if the allocation exceeds either limit.
        """
        if n_cells > self.max_cells:
            raise RMemoryError(
                f"cannot allocate object with {n_cells} cells "
                f"(limit {self.max_cells})"
            )
        if self.max_total_bytes is not None and self._live_bytes + n_bytes > self.max_total_bytes:
            raise RMemoryError(
                f"cannot allocate {n_bytes} bytes: {self._live_bytes} already live, "
                f"limit {self.max_total_bytes}"
            )
        self._live_bytes += n_bytes

    def release(self, n_bytes: int) -> None:
        """Return bytes to the pool (garbage collection)."""
        self._live_bytes = max(0, self._live_bytes - n_bytes)


#: The default, effectively unlimited environment (standalone library use).
_DEFAULT_ENVIRONMENT = REnvironment()


class DataFrame:
    """A column-oriented data frame with R-flavoured verbs."""

    def __init__(self, columns: Mapping[str, np.ndarray],
                 environment: REnvironment | None = None):
        if not columns:
            raise ValueError("a data frame needs at least one column")
        self.environment = environment or _DEFAULT_ENVIRONMENT
        arrays = {}
        length = None
        total_cells = 0
        total_bytes = 0
        for name, values in columns.items():
            array = np.asarray(values)
            if array.ndim != 1:
                raise ValueError(f"column {name!r} must be one-dimensional")
            if length is None:
                length = len(array)
            elif len(array) != length:
                raise ValueError(
                    f"column {name!r} has length {len(array)}, expected {length}"
                )
            arrays[name] = array
            total_cells += array.size
            total_bytes += array.nbytes
        self.environment.check_allocation(total_cells, total_bytes)
        self._columns = arrays
        self._nbytes = total_bytes

    # -- basics -----------------------------------------------------------------

    def __len__(self) -> int:
        first = next(iter(self._columns.values()))
        return len(first)

    def __del__(self):
        try:
            self.environment.release(self._nbytes)
        except Exception:  # pragma: no cover - interpreter shutdown
            pass

    @property
    def names(self) -> list[str]:
        """Column names in insertion order (R's ``names(df)``)."""
        return list(self._columns)

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    def __getitem__(self, name: str) -> np.ndarray:
        try:
            return self._columns[name]
        except KeyError:
            raise KeyError(f"no column {name!r}; data frame has {self.names}") from None

    # -- R verbs ------------------------------------------------------------------

    def subset(self, predicate: Expression) -> "DataFrame":
        """Row filter by a shared-AST expression, evaluated vectorised.

        The expression's column references resolve against this frame's
        columns (the frame itself is the evaluation batch), so
        ``frame.subset(col("age") < 40)`` runs as one numpy mask — R's
        idiomatic vectorised ``subset``.

        Raises:
            KeyError: when the expression references a missing column.
            ValueError: when the produced mask is not one boolean per row.
        """
        mask = np.asarray(predicate.evaluate(self), dtype=bool)
        if mask.shape != (len(self),):
            raise ValueError("predicate must return one boolean per row")
        return DataFrame(
            {name: values[mask] for name, values in self._columns.items()},
            environment=self.environment,
        )

    def select(self, names: Sequence[str]) -> "DataFrame":
        """Column projection."""
        return DataFrame({name: self[name] for name in names}, environment=self.environment)

    def merge(self, other: "DataFrame", by: str, by_other: str | None = None,
              suffix: str = "_y") -> "DataFrame":
        """Inner join (R's ``merge``), implemented as a hash join.

        Args:
            other: right data frame.
            by: join key column in this frame.
            by_other: join key column in ``other`` (defaults to ``by``).
            suffix: appended to right-side columns whose names collide.
        """
        by_other = by_other or by
        left_keys = self[by]
        right_keys = other[by_other]

        index: dict[object, list[int]] = {}
        for position, key in enumerate(right_keys.tolist()):
            index.setdefault(key, []).append(position)

        left_positions: list[int] = []
        right_positions: list[int] = []
        for position, key in enumerate(left_keys.tolist()):
            matches = index.get(key)
            if not matches:
                continue
            for match in matches:
                left_positions.append(position)
                right_positions.append(match)

        left_index = np.asarray(left_positions, dtype=np.int64)
        right_index = np.asarray(right_positions, dtype=np.int64)

        columns: dict[str, np.ndarray] = {
            name: values[left_index] for name, values in self._columns.items()
        }
        for name, values in other._columns.items():
            if name == by_other:
                continue
            output_name = name if name not in columns else f"{name}{suffix}"
            columns[output_name] = values[right_index]
        return DataFrame(columns, environment=self.environment)

    # -- matrix interop -----------------------------------------------------------------

    def as_matrix(self, names: Sequence[str] | None = None) -> np.ndarray:
        """Convert (a projection of) the frame into a dense float matrix.

        The allocation is checked against the environment limits — this is
        where "R cannot load the large dataset into memory" bites.
        """
        names = list(names) if names is not None else self.names
        n_cells = len(self) * len(names)
        self.environment.check_allocation(n_cells, n_cells * 8)
        try:
            return np.column_stack([self[name].astype(np.float64) for name in names])
        finally:
            self.environment.release(n_cells * 8)

    def pivot_matrix(self, row_key: str, column_key: str, value: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Long-to-wide pivot (R's ``reshape``/``acast``), limit checked."""
        rows = self[row_key]
        cols = self[column_key]
        values = self[value].astype(np.float64)
        row_labels, row_positions = np.unique(rows, return_inverse=True)
        column_labels, column_positions = np.unique(cols, return_inverse=True)
        n_cells = len(row_labels) * len(column_labels)
        self.environment.check_allocation(n_cells, n_cells * 8)
        try:
            matrix = np.zeros((len(row_labels), len(column_labels)), dtype=np.float64)
            matrix[row_positions, column_positions] = values
            return matrix, row_labels, column_labels
        finally:
            self.environment.release(n_cells * 8)
