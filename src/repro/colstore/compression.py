"""Column encodings: plain, run-length, dictionary and delta.

Column stores get much of their edge from keeping columns compressed on disk
and, where possible, operating directly on the compressed form.  The
encodings here are honest implementations — they really do shrink the
stored representation and decode on access — so the engine's performance
trade-offs (cheap scans of low-cardinality columns, extra decode work on
high-entropy float columns) emerge from the data rather than from constants.

All encodings implement the small :class:`Encoding` interface:
``encode`` → opaque state, ``decode`` → a fresh copy of the original numpy
array, ``encoded_bytes`` → approximate storage footprint.

Beyond the round-trip interface, every encoding answers the operators a
query needs.  :class:`Encoding` itself holds the one decode-once buffer
(``values()``, the only caller of ``decode()``) and the generic
decode-then-numpy answer for each operator; an encoding overrides an
operator exactly where its compressed form is cheaper:

* ``take(indices)`` gathers individual positions (dictionary: gather codes
  then one dictionary lookup; RLE: sorted positions — every selection the
  query layer produces — are counted per run and the run values repeated,
  one ``searchsorted`` probe per *run*, anything else probes the run
  boundaries per position; delta: decode once into the buffer) — and, for
  every encoding, plain fancy indexing once the buffer exists,
* ``filter_mask(predicate)`` evaluates a vectorised element-wise predicate —
  for dictionary/RLE columns on the *distinct values only* — and expands the
  result through the codes/runs into a full-length boolean mask,
* ``isin(values)`` pushes membership tests down the same way (and, for an
  integer delta/plain column, through one table lookup over the buffer
  using the bounds the column keeps),
* ``distinct_inverse(positions)`` produces the ``(keys, inverse)`` pair that
  ``np.unique(..., return_inverse=True)`` would compute — a dictionary
  column already *is* that pair, any other bounded-span integer column
  reads it off a presence table over the buffer — and
* ``group_reduce(values, function, positions)`` runs a grouped reduction
  (count/sum/mean/min/max) keyed by the column: :func:`reduce_by_inverse`
  over that pair, so every encoding returns the same bits for the same
  rows (dictionary columns hand over their stored codes unchanged).

Predicates handed to ``filter_mask`` must be element-wise and stateless:
the encoding may invoke them on the distinct values rather than the full
column, so anything that inspects its whole input (``v > v.mean()``) would
silently change meaning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def predicate_mask(values: np.ndarray, predicate) -> np.ndarray:
    """Evaluate an element-wise predicate, insisting on a same-shape bool mask."""
    mask = np.asarray(predicate(values), dtype=bool)
    if mask.shape != values.shape:
        raise ValueError("predicate must return one boolean per input value")
    return mask


def _normalised_indices(indices: np.ndarray, length: int) -> np.ndarray:
    """Resolve negative positions the way plain fancy indexing would."""
    indices = np.asarray(indices)
    if indices.size and indices.min() < 0:
        indices = np.where(indices < 0, indices + length, indices)
    return indices


#: Grouped reductions every ``group_reduce`` implementation must support.
AGGREGATE_FUNCTIONS = ("mean", "sum", "count", "min", "max")


def reduce_by_inverse(
    inverse: np.ndarray, n_groups: int, values: np.ndarray | None, function: str
) -> np.ndarray:
    """Grouped reduction of ``values`` keyed by precomputed group codes.

    ``inverse`` assigns each row to one of ``n_groups`` groups (the
    ``np.unique(..., return_inverse=True)`` contract, but any non-negative
    integer codes work — dictionary codes go in unchanged).  ``count``
    never reads ``values``, which may then be None.
    """
    if function == "count":
        return np.bincount(inverse, minlength=n_groups).astype(np.float64)
    values = np.asarray(values, dtype=np.float64)
    if function == "sum":
        return np.bincount(inverse, weights=values, minlength=n_groups)
    if function == "mean":
        totals = np.bincount(inverse, weights=values, minlength=n_groups)
        counts = np.bincount(inverse, minlength=n_groups)
        return totals / np.maximum(counts, 1)
    if function in ("min", "max"):
        result = np.full(n_groups, np.inf if function == "min" else -np.inf)
        reducer = np.minimum if function == "min" else np.maximum
        reducer.at(result, inverse, values)
        return result
    raise ValueError(f"unsupported aggregate function {function!r}")


def _compact_distinct(
    keys: np.ndarray, codes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Drop distinct entries with no surviving rows, remapping the codes.

    A narrowed selection may miss some dictionary entries entirely;
    ``np.unique`` over the gathered rows would not list them, so neither may
    the pushed-down result.
    """
    counts = np.bincount(codes, minlength=len(keys))
    present = counts > 0
    if present.all():
        return keys, codes
    remap = np.cumsum(present) - 1
    return keys[present], remap[codes]


def _direct_address_budget(rows: int) -> int:
    """The widest value span worth a direct-address table over ``rows`` rows.

    A table over ``[min, max]`` replaces a sort or a hash probe only while
    allocating and scanning it costs less than they would: twice the rows
    read, above a floor under which the table is free.
    """
    return max(1 << 10, 2 * rows)


def _addressable(dtype: np.dtype) -> bool:
    """Bool and integer dtypes whose every value survives a cast to int64."""
    return dtype.kind in "biu" and np.can_cast(dtype, np.int64)


def _distinct(values: np.ndarray, return_inverse: bool):
    """``np.unique(values)`` / ``np.unique(values, return_inverse=True)`` of a
    one-dimensional array, without the sort where the values allow it.

    Bool/integer input whose span ``max - min + 1`` fits
    :func:`_direct_address_budget` is answered by direct addressing: mark a
    presence table, read the keys off it, and turn it into codes with one
    ``cumsum``.  Keys, codes and both dtypes are exactly ``np.unique``'s;
    anything else (floats, strings, ``uint64``, a wide span, empty input)
    *is* ``np.unique``.
    """
    if values.size and _addressable(values.dtype):
        low = int(values.min())
        span = int(values.max()) - low + 1
        if span <= _direct_address_budget(values.size):
            offsets = values.astype(np.intp, copy=False)
            if low:
                offsets = offsets - low
            present = np.zeros(span, dtype=bool)
            present[offsets] = True
            keys = (np.flatnonzero(present) + low).astype(values.dtype)
            if not return_inverse:
                return keys
            return keys, (np.cumsum(present, dtype=np.intp) - 1)[offsets]
    return np.unique(values, return_inverse=return_inverse)


class Encoding:
    """Interface for column encodings, plus every decode-then-numpy fallback.

    An encoding answers each operator from its compressed form where it
    can and inherits the generic answer from here where it cannot.  The
    generic answers all read :meth:`values` — the decode-once buffer — so
    a column pays its decode at most once however many operators fall
    back (the usual column-store buffer-pool behaviour).
    """

    name: str = "base"
    # The decode-once buffer behind values(); each encode() resets it.
    _buffer: np.ndarray | None = None

    def encode(self, values: np.ndarray) -> None:
        raise NotImplementedError

    def decode(self) -> np.ndarray:
        """A fresh, writable copy of the original array (never cached)."""
        raise NotImplementedError

    def encoded_bytes(self) -> int:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def values(self) -> np.ndarray:
        """The decoded column, decoded once and kept — shared and read-only."""
        if self._buffer is None:
            buffer = self.decode()  # decode-ok: the one decode site; every fallback reads this buffer
            buffer.setflags(write=False)
            self._buffer = buffer
        return self._buffer

    def _rows(self, positions: np.ndarray | None) -> np.ndarray:
        """The column's values at ``positions`` (the whole column when None)."""
        return self.values() if positions is None else self.take(positions)

    # -- compressed execution (generic fallbacks read the decode-once buffer) ---------

    def stats_hint(self) -> tuple[int | None, object, object]:
        """Cheap ``(distinct_count, minimum, maximum)`` facts, None when unknown.

        Selectivity estimation reads these through
        :meth:`repro.colstore.column.ColumnVector.stats`; encodings answer
        from their own metadata (dictionary cardinality, run values, the
        bounds a delta column keeps) without decoding, so the answer never
        depends on what ran before.  The base implementation knows nothing.
        """
        return None, None, None

    def take(self, indices: np.ndarray) -> np.ndarray:
        """Gather the values at ``indices``.

        Once the column has been decoded, plain fancy indexing on the
        buffer is the cheapest gather for every encoding; until then the
        encoding gathers from its compressed form (:meth:`_gather`).
        """
        indices = np.asarray(indices)
        if self._buffer is not None:
            return self._buffer[indices]
        return self._gather(indices)

    def _gather(self, indices: np.ndarray) -> np.ndarray:
        """Gather from the encoded form; the fallback decodes (and keeps)."""
        return self.values()[indices]

    def filter_mask(self, predicate) -> np.ndarray:
        """Full-length boolean mask for an element-wise predicate."""
        return predicate_mask(self.values(), predicate)

    def isin(self, values: np.ndarray) -> np.ndarray:
        """Full-length boolean membership mask.

        The generic answer reads the decode-once buffer.  An integer column
        that knows its bounds (:meth:`stats_hint` — a delta column keeps
        them, a plain one scans them once) marks the wanted values in a
        table over ``[minimum, maximum]`` and gathers it through the
        buffer: one pass, where ``np.isin`` would first rescan both inputs
        for their ranges and then mask as it gathers.  Everything else is
        ``np.isin``.
        """
        column = self.values()
        wanted = np.asarray(values)
        if _addressable(column.dtype) and _addressable(wanted.dtype):
            _, low, high = self.stats_hint()
            if low is not None:
                low, high = int(low), int(high)
                if high - low + 1 <= _direct_address_budget(column.size):
                    wanted = wanted[(wanted >= low) & (wanted <= high)]
                    member = np.zeros(high - low + 1, dtype=bool)
                    member[wanted.astype(np.intp) - low] = True
                    offsets = column.astype(np.intp, copy=False)
                    return member[offsets - low if low else offsets]
        return np.isin(column, wanted)

    def distinct_inverse(
        self, positions: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Sorted distinct values and per-row group codes.

        Equivalent to ``np.unique(column[positions], return_inverse=True)``
        (whole column when ``positions`` is None).  Key and code *values*
        match ``np.unique`` exactly; the code dtype may be narrower (e.g. a
        dictionary column hands back its stored codes).  Returned arrays may
        alias encoding state — treat them as read-only.  The generic answer
        (every encoding but dictionary, and every join intermediate) groups
        bounded-span integers by direct addressing and sorts only what it
        must (:func:`_distinct`).
        """
        return _distinct(self._rows(positions), return_inverse=True)

    def distinct_values(self, positions: np.ndarray | None = None) -> np.ndarray:
        """Sorted distinct values only — no inverse materialisation.

        Same aliasing caveat as :meth:`distinct_inverse`.
        """
        return _distinct(self._rows(positions), return_inverse=False)

    def group_reduce(
        self,
        values: np.ndarray | None,
        function: str,
        positions: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Grouped reduction of ``values`` keyed by this column's values.

        ``values`` must be aligned with the grouped rows: full column length
        when ``positions`` is None, else one value per position.  For
        ``count`` the values are never read and may be None.  Returns
        ``(group_keys, aggregates)`` with keys sorted ascending.
        """
        keys, inverse = self.distinct_inverse(positions)
        return keys, reduce_by_inverse(inverse, len(keys), values, function)


@dataclass
class PlainEncoding(Encoding):
    """No compression; the baseline every other encoding is compared against.

    The stored array doubles as the decode buffer, so :meth:`values` is
    zero-copy and every operator is the generic one over the stored array.
    """

    name: str = "plain"

    def __post_init__(self):
        self._values: np.ndarray | None = None
        self._bounds = None

    def encode(self, values: np.ndarray) -> None:
        self._values = np.asarray(values).copy()
        self._values.setflags(write=False)
        self._buffer = self._values
        self._bounds = None

    def decode(self) -> np.ndarray:
        if self._values is None:
            return np.empty(0)
        return self._values.copy()

    def encoded_bytes(self) -> int:
        return 0 if self._values is None else self._values.nbytes

    def __len__(self) -> int:
        return 0 if self._values is None else len(self._values)

    def stats_hint(self) -> tuple[int | None, object, object]:
        """Endpoints scanned from the stored array, once — no decode copy."""
        if self._values is None or not len(self._values):
            return None, None, None
        if self._values.dtype.kind not in "biuf":
            return None, None, None
        if self._bounds is None:
            self._bounds = (self._values.min(), self._values.max())
        return None, *self._bounds


@dataclass
class RunLengthEncoding(Encoding):
    """Run-length encoding: ``(value, run_length)`` pairs.

    Best for sorted or low-cardinality columns (disease ids, gender, GO
    membership flags).
    """

    name: str = "rle"

    def __post_init__(self):
        self._run_values: np.ndarray | None = None
        self._run_lengths: np.ndarray | None = None
        self._run_ends: np.ndarray | None = None
        self._dtype = None
        self._length = 0

    def encode(self, values: np.ndarray) -> None:
        values = np.asarray(values)
        self._dtype = values.dtype
        self._length = len(values)
        self._run_ends = self._buffer = None
        if len(values) == 0:
            self._run_values = values.copy()
            self._run_lengths = np.empty(0, dtype=np.int64)
            return
        change_points = np.flatnonzero(values[1:] != values[:-1]) + 1
        starts = np.concatenate([[0], change_points])
        ends = np.concatenate([change_points, [len(values)]])
        self._run_values = values[starts].copy()
        self._run_lengths = (ends - starts).astype(np.int64)

    def decode(self) -> np.ndarray:
        if self._run_values is None:
            return np.empty(0)
        return np.repeat(self._run_values, self._run_lengths)

    def _cumulative_run_ends(self) -> np.ndarray:
        if self._run_ends is None:
            self._run_ends = np.cumsum(self._run_lengths)
        return self._run_ends

    def _run_counts(self, positions: np.ndarray) -> np.ndarray | None:
        """Positions per run, for non-decreasing positions; else None.

        Every selection the query layer produces is sorted, so a run's
        positions are contiguous in it: searching the run ends *in the
        positions* (one probe per run) counts them, where locating each
        position in the run ends costs one probe per row.  Unsorted or
        negative positions are left to the per-position search.
        """
        if positions.ndim != 1 or not positions.size or positions[0] < 0:
            return None
        if not bool((positions[1:] >= positions[:-1]).all()):
            return None
        if positions[-1] >= self._length:
            raise IndexError(
                f"index out of bounds for RLE column of length {self._length}"
            )
        counts = np.searchsorted(positions, self._cumulative_run_ends(), side="left")
        counts[1:] -= counts[:-1].copy()  # positions below each run end → per run
        return counts

    def _per_position(self, per_run: np.ndarray, positions: np.ndarray) -> np.ndarray:
        """``per_run[r]`` for the run ``r`` holding each of ``positions``."""
        counts = self._run_counts(positions)
        if counts is not None:
            return np.repeat(per_run, counts)
        positions = _normalised_indices(positions, self._length)
        if positions.size and (positions.min() < 0 or positions.max() >= self._length):
            raise IndexError(
                f"index out of bounds for RLE column of length {self._length}"
            )
        run_index = np.searchsorted(self._cumulative_run_ends(), positions, side="right")
        return per_run[run_index]

    def _gather(self, indices: np.ndarray) -> np.ndarray:
        if self._run_values is None:
            return np.empty(0)[indices]
        return self._per_position(self._run_values, indices)

    def filter_mask(self, predicate) -> np.ndarray:
        if self._run_values is None:
            return np.empty(0, dtype=bool)
        run_mask = predicate_mask(self._run_values, predicate)
        return np.repeat(run_mask, self._run_lengths)

    def isin(self, values: np.ndarray) -> np.ndarray:
        if self._run_values is None:
            return np.empty(0, dtype=bool)
        return np.repeat(np.isin(self._run_values, values), self._run_lengths)

    def stats_hint(self) -> tuple[int | None, object, object]:
        """Distinct count and extrema from the run values (never the rows)."""
        if self._run_values is None or not len(self._run_values):
            return None, None, None
        uniques = np.unique(self._run_values)
        return len(uniques), uniques[0], uniques[-1]

    def encoded_bytes(self) -> int:
        if self._run_values is None:
            return 0
        return self._run_values.nbytes + self._run_lengths.nbytes

    def __len__(self) -> int:
        return self._length

    @property
    def run_count(self) -> int:
        return 0 if self._run_values is None else len(self._run_values)


@dataclass
class DictionaryEncoding(Encoding):
    """Dictionary encoding: distinct values + small integer codes.

    Best for moderate-cardinality columns (function codes, zipcodes).
    """

    name: str = "dictionary"

    def __post_init__(self):
        self._dictionary: np.ndarray | None = None
        self._codes: np.ndarray | None = None

    def encode(self, values: np.ndarray) -> None:
        values = np.asarray(values)
        self._buffer = None
        self._dictionary, codes = np.unique(values, return_inverse=True)
        # Use the narrowest integer width that can hold the codes.
        n_distinct = len(self._dictionary)
        if n_distinct <= np.iinfo(np.uint8).max + 1:
            dtype = np.uint8
        elif n_distinct <= np.iinfo(np.uint16).max + 1:
            dtype = np.uint16
        else:
            dtype = np.uint32
        self._codes = codes.astype(dtype)

    def decode(self) -> np.ndarray:
        if self._dictionary is None or self._codes is None:
            return np.empty(0)
        return self._dictionary[self._codes]

    def encoded_bytes(self) -> int:
        if self._dictionary is None or self._codes is None:
            return 0
        return self._dictionary.nbytes + self._codes.nbytes

    def __len__(self) -> int:
        return 0 if self._codes is None else len(self._codes)

    def _gather(self, indices: np.ndarray) -> np.ndarray:
        if self._dictionary is None or self._codes is None:
            return np.empty(0)[indices]
        return self._dictionary[self._codes[indices]]

    def filter_mask(self, predicate) -> np.ndarray:
        if self._dictionary is None or self._codes is None:
            return np.empty(0, dtype=bool)
        return self._expand_distinct_mask(predicate_mask(self._dictionary, predicate))

    def isin(self, values: np.ndarray) -> np.ndarray:
        if self._dictionary is None or self._codes is None:
            return np.empty(0, dtype=bool)
        return self._expand_distinct_mask(np.isin(self._dictionary, values))

    def distinct_inverse(
        self, positions: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """The stored ``(dictionary, codes)`` pair *is* the unique/inverse.

        The dictionary is sorted and deduplicated by construction, so the
        whole-column case costs nothing; a narrowed selection gathers its
        codes and drops dictionary entries no surviving row references.
        """
        if self._dictionary is None or self._codes is None:
            return np.unique(np.empty(0), return_inverse=True)
        if positions is None:
            return self._dictionary, self._codes
        return _compact_distinct(self._dictionary, self._codes[np.asarray(positions)])

    def stats_hint(self) -> tuple[int | None, object, object]:
        """The sorted dictionary *is* the statistics: cardinality + endpoints."""
        if self._dictionary is None or not len(self._dictionary):
            return None, None, None
        return len(self._dictionary), self._dictionary[0], self._dictionary[-1]

    def _expand_distinct_mask(self, distinct_mask: np.ndarray) -> np.ndarray:
        """Expand a per-distinct-value verdict to a full-length row mask.

        The dictionary is sorted, so range predicates (``<``, ``>=``, …)
        produce prefix/suffix verdict masks and equality/BETWEEN predicates
        produce a single contiguous run of verdicts; all of those expand as
        one or two code comparisons instead of a gather.
        """
        codes = self._codes
        true_count = int(distinct_mask.sum())
        cardinality = len(distinct_mask)
        if true_count == 0:
            return np.zeros(len(codes), dtype=bool)
        if true_count == cardinality:
            return np.ones(len(codes), dtype=bool)
        first_true = int(np.argmax(distinct_mask))
        if distinct_mask[first_true:first_true + true_count].all():
            # Contiguous verdict run [first_true, first_true + true_count).
            if first_true == 0:
                return codes < true_count
            if first_true + true_count == cardinality:
                return codes >= first_true
            if true_count == 1:
                return codes == first_true
            return (codes >= first_true) & (codes < first_true + true_count)
        return distinct_mask[codes]


@dataclass
class DeltaEncoding(Encoding):
    """Delta encoding for monotone / slowly varying integer columns.

    Stores the first value and the differences, using a narrow dtype when
    the deltas are small (positions, patient ids, gene ids).  The column's
    min/max are kept beside them as statistics metadata (like RLE's
    run-end cache, not part of the encoded footprint).
    """

    name: str = "delta"

    def __post_init__(self):
        self._first = None
        self._deltas: np.ndarray | None = None
        self._dtype = None
        self._bounds = None

    def encode(self, values: np.ndarray) -> None:
        values = np.asarray(values)
        self._dtype = values.dtype
        self._buffer = None
        if len(values) == 0:
            self._first = self._bounds = None
            self._deltas = np.empty(0, dtype=np.int64)
            return
        self._first = values[0]
        self._bounds = (values.min(), values.max())
        deltas = np.diff(values.astype(np.int64))
        if len(deltas) and np.abs(deltas).max() <= np.iinfo(np.int16).max:
            deltas = deltas.astype(np.int16)
        elif len(deltas) and np.abs(deltas).max() <= np.iinfo(np.int32).max:
            deltas = deltas.astype(np.int32)
        self._deltas = deltas

    def decode(self) -> np.ndarray:
        if self._first is None:
            return np.empty(0, dtype=self._dtype or np.int64)
        restored = np.concatenate(
            [[np.int64(self._first)], np.int64(self._first) + np.cumsum(self._deltas, dtype=np.int64)]
        )
        return restored.astype(self._dtype)

    def encoded_bytes(self) -> int:
        if self._deltas is None:
            return 0
        return 8 + self._deltas.nbytes

    def __len__(self) -> int:
        if self._first is None:
            return 0
        return len(self._deltas) + 1

    def stats_hint(self) -> tuple[int | None, object, object]:
        """The bounds kept at encode time — never a decode."""
        if self._bounds is None:
            return None, None, None
        return None, *self._bounds


def _dictionary_code_bytes(cardinality: int) -> int:
    """Per-code width the dictionary encoding would use (mirrors its encode)."""
    if cardinality <= np.iinfo(np.uint8).max + 1:
        return 1
    if cardinality <= np.iinfo(np.uint16).max + 1:
        return 2
    return 4


def _delta_item_bytes(max_abs_delta: int) -> int:
    """Per-delta width the delta encoding would use (mirrors its encode)."""
    if max_abs_delta <= np.iinfo(np.int16).max:
        return 2
    if max_abs_delta <= np.iinfo(np.int32).max:
        return 4
    return 8


def encoding_sizes(values: np.ndarray) -> dict[str, int]:
    """Predict each candidate encoding's footprint from column statistics.

    The predictions are exact — they reproduce ``encoded_bytes()`` of the
    real encodings — but are computed from cheap scalar statistics (run
    count, cardinality, maximum delta width) instead of materialising every
    candidate.  Cardinality (the only sort-cost statistic) is skipped when a
    lower bound proves the dictionary cannot win.
    """
    values = np.asarray(values)
    n = values.size
    itemsize = values.dtype.itemsize
    sizes: dict[str, int] = {"plain": values.nbytes}
    if not n:
        return sizes
    is_integral = np.issubdtype(values.dtype, np.integer) or np.issubdtype(
        values.dtype, np.bool_
    )

    run_count = int(np.count_nonzero(values[1:] != values[:-1])) + 1
    sizes["rle"] = run_count * itemsize + run_count * 8

    if is_integral:
        deltas = np.diff(values.astype(np.int64))
        max_abs_delta = int(np.abs(deltas).max()) if len(deltas) else 0
        sizes["delta"] = 8 + (n - 1) * _delta_item_bytes(max_abs_delta)

    dictionary_applies = is_integral
    if not dictionary_applies:
        # Floats: only dictionary-encode plausibly low-cardinality columns.
        dictionary_applies = _distinct_count(values[: min(n, 10_000)]) <= 4096
    if dictionary_applies:
        # Codes cost ≥ 1 byte/row and the dictionary ≥ 1 entry, so skip the
        # O(n log n) exact-cardinality pass when that bound cannot win.
        best_so_far = min(sizes.values())
        if n + itemsize <= best_so_far:
            cardinality = run_count if run_count <= 1 else _distinct_count(values)
            sizes["dictionary"] = (
                cardinality * itemsize + n * _dictionary_code_bytes(cardinality)
            )
    return sizes


def _distinct_count(values: np.ndarray) -> int:
    """Exact cardinality via sort-and-count (faster than ``np.unique`` here).

    Collapses NaNs to one distinct value, matching the ``np.unique`` the
    dictionary encoder itself uses — ``!=`` alone would count every NaN.
    """
    if not values.size:
        return 0
    sorted_values = np.sort(values)
    if sorted_values.dtype.kind == "f":
        nan_count = int(np.count_nonzero(np.isnan(sorted_values)))
        if nan_count:
            sorted_values = sorted_values[: len(sorted_values) - nan_count]
            if not sorted_values.size:
                return 1
            return int(np.count_nonzero(sorted_values[1:] != sorted_values[:-1])) + 2
    return int(np.count_nonzero(sorted_values[1:] != sorted_values[:-1])) + 1


_ENCODING_CLASSES: dict[str, type[Encoding]] = {
    "plain": PlainEncoding,
    "rle": RunLengthEncoding,
    "dictionary": DictionaryEncoding,
    "delta": DeltaEncoding,
}

# Tie-break order: simpler encodings win equal footprints.
_ENCODING_PRECEDENCE = ("plain", "rle", "dictionary", "delta")


def make_encoding(name: str, values: np.ndarray) -> Encoding:
    """Build a specific encoding by name (tests/benchmarks force one this way)."""
    try:
        encoding = _ENCODING_CLASSES[name]()
    except KeyError:
        raise ValueError(
            f"unknown encoding {name!r}; choose from {sorted(_ENCODING_CLASSES)}"
        ) from None
    encoding.encode(np.asarray(values))
    return encoding


def best_encoding(values: np.ndarray) -> Encoding:
    """Pick the smallest applicable encoding for a column.

    Float columns with many distinct values stay plain; integer columns
    consider RLE, dictionary and delta and keep whichever is smallest (ties
    go to the simpler encoding in the order plain → RLE → dictionary →
    delta).  Candidate footprints come from :func:`encoding_sizes` — O(1)
    statistics per candidate — so only the winning encoding is ever built.
    """
    values = np.asarray(values)
    sizes = encoding_sizes(values)
    best_name = min(
        (name for name in _ENCODING_PRECEDENCE if name in sizes),
        key=lambda name: (sizes[name], _ENCODING_PRECEDENCE.index(name)),
    )
    encoding = _ENCODING_CLASSES[best_name]()
    encoding.encode(values)
    return encoding
