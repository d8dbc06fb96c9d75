"""Typed, compressed column vectors: a name, a dtype and
the write-admission rule around one :class:`~repro.colstore.compression.Encoding`,
to which every query operator is delegated."""

from __future__ import annotations

import numpy as np

from repro.colstore.compression import (
    Encoding,
    PlainEncoding,
    best_encoding,
    make_encoding,
)


class ColumnVector:
    """One named column stored in compressed form.

    The column keeps only its encoded representation and delegates every
    operator to it: the encoding answers from its compressed form where it
    can (dictionary codes, RLE runs) and from its decode-once buffer where
    it cannot (see :class:`~repro.colstore.compression.Encoding`).  Callers
    use the same calls, and get the same answer, whichever encoding sits
    underneath:

    >>> import numpy as np
    >>> for encoding in ("dictionary", "plain", "rle", "delta"):
    ...     column = ColumnVector("g", np.array([3, 1, 3, 2, 1, 3]), encoding=encoding)
    ...     mask = column.filter_mask(lambda v: v >= 2)
    ...     keys, sums = column.group_reduce(np.arange(6.0), "sum")
    ...     print(column.encoding_name, mask.astype(int), keys, sums)
    dictionary [1 0 1 1 0 1] [1 2 3] [5. 3. 7.]
    plain [1 0 1 1 0 1] [1 2 3] [5. 3. 7.]
    rle [1 0 1 1 0 1] [1 2 3] [5. 3. 7.]
    delta [1 0 1 1 0 1] [1 2 3] [5. 3. 7.]
    """

    def __init__(self, name: str, values: np.ndarray, compress: bool = True,
                 encoding: str | None = None):
        if not name:
            raise ValueError("column name must be non-empty")
        self.name = name
        values = np.asarray(values)
        if values.ndim != 1:
            raise ValueError("a column must be one-dimensional")
        self.dtype = values.dtype
        self._encoding: Encoding
        if encoding is not None:
            self._encoding = make_encoding(encoding, values)
        elif compress:
            self._encoding = best_encoding(values)
        else:
            self._encoding = PlainEncoding()
            self._encoding.encode(values)

    def __len__(self) -> int:
        return len(self._encoding)

    def __repr__(self) -> str:
        return (
            f"ColumnVector({self.name!r}, n={len(self)}, "
            f"encoding={self._encoding.name}, bytes={self.encoded_bytes})"
        )

    @property
    def encoding_name(self) -> str:
        return self._encoding.name

    @property
    def encoded_bytes(self) -> int:
        return self._encoding.encoded_bytes()

    def values(self) -> np.ndarray:
        """The full column, decoded once and kept — shared and read-only."""
        return self._encoding.values()

    def take(self, indices: np.ndarray) -> np.ndarray:
        """Gather the values at ``indices`` (late materialisation step).

        The encoding's compressed gather (dictionary codes, RLE runs) until
        the column has been decoded, plain fancy indexing on the buffer
        afterwards; a delta column decodes into its buffer on its first
        gather.
        """
        return self._encoding.take(indices)

    def filter_mask(self, predicate) -> np.ndarray:
        """Full-length boolean mask for a vectorised *element-wise* predicate.

        Dictionary/RLE columns evaluate the predicate on their distinct
        values only and expand the verdicts through codes/runs — the
        predicate therefore must not depend on the shape or order of its
        input.
        """
        return self._encoding.filter_mask(predicate)

    def isin(self, values: np.ndarray) -> np.ndarray:
        """Full-length boolean membership mask, pushed down the encoding."""
        return self._encoding.isin(values)

    def distinct_inverse(
        self, selection: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Sorted distinct values and per-row group codes (``np.unique`` contract).

        Restricted to ``selection`` when given.  Dictionary columns answer
        from their codes without decoding; every other encoding groups the
        (gathered) decoded values.  Key and code values match
        ``np.unique(..., return_inverse=True)`` exactly, though the code
        dtype may be narrower; the arrays may alias column state — treat
        them as read-only.
        """
        return self._encoding.distinct_inverse(selection)

    def distinct_values(self, selection: np.ndarray | None = None) -> np.ndarray:
        """Sorted distinct values only — skips the inverse entirely.

        Same read-only aliasing caveat as :meth:`distinct_inverse`.
        """
        return self._encoding.distinct_values(selection)

    def group_reduce(
        self,
        values: np.ndarray | None,
        function: str,
        selection: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Grouped reduction of ``values`` keyed by this column.

        ``values`` must be aligned with the grouped rows (the whole column,
        or ``selection`` when given); for ``count`` they are never read and
        may be None.  Every encoding reduces over :meth:`distinct_inverse`'s
        group codes (a dictionary column's stored codes), so the result is
        bit-identical whichever encoding sits underneath.
        """
        return self._encoding.group_reduce(values, function, selection)

    def coerce(self, values: np.ndarray) -> np.ndarray:
        """Cast incoming values to this column's dtype, refusing lossy casts.

        ``same_kind`` casting rejects float→int truncation outright, and
        string values wider than the column's fixed width raise instead of
        being silently clipped — the write path's (``DeltaStore.append``)
        admission rule.
        """
        values = np.atleast_1d(np.asarray(values))
        if values.ndim != 1:
            raise ValueError(f"column {self.name!r}: values must be 1-d")
        coerced = values.astype(self.dtype, casting="same_kind", copy=True)
        if self.dtype.kind in "US" and values.dtype.kind in "US":
            if (coerced != values).any():
                raise ValueError(
                    f"column {self.name!r}: value too wide for dtype {self.dtype}"
                )
        return coerced
