"""AFL-style operators over chunked arrays.

Each operator consumes and produces :class:`~repro.arraydb.array.ChunkedArray`
objects and processes data one chunk at a time — the execution model that
lets the array DBMS skip the table↔matrix restructuring every relational
engine pays for in the GenBase queries.

Implemented operators (names follow SciDB's AFL where one exists) — the
ones :mod:`repro.arraydb.bridge` lowers the shared plans onto:

* :func:`expression_skips_chunk` — the chunk-skip test: whether a
  range/equality/membership predicate from the shared AST can match any
  value in a chunk's min/max synopsis (the bridge's metadata scan drops
  whole chunks on it),
* :func:`subarray` — keep the selected coordinates along every dimension
  and compact them, gathered in one pass over the stored chunks (what
  dimension joins against filtered metadata arrays produce),
* :func:`aggregate` — per-dimension aggregates computed chunk-wise.

Shared logical plans (Scan → Filter → Join → Aggregate/Pivot) are lowered
onto these operators by :mod:`repro.arraydb.bridge`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.arraydb.array import ChunkedArray
from repro.plan.expressions import (
    ColumnRef,
    Comparison,
    BooleanOp,
    Expression,
    InList,
    Literal,
)


@dataclass
class FilterStats:
    """Chunk-level accounting for the metadata scans of one plan execution.

    ``chunks_skipped`` counts metadata chunks eliminated purely from their
    min/max synopsis — no cell of those chunks was ever touched — and
    ``chunks_scanned`` the ones evaluated.  Callers (tests, the benchmark's
    layer probes) pass an instance into the :mod:`repro.arraydb.bridge`
    executor.
    """

    chunks_scanned: int = 0
    chunks_skipped: int = 0


_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "<>": "<>"}


def _comparison_bound(expression: Comparison) -> tuple[str, float] | None:
    """Extract ``(symbol, constant)`` from a column-vs-literal comparison."""
    left, right = expression.left, expression.right
    if isinstance(left, ColumnRef) and isinstance(right, Literal):
        symbol, value = expression.symbol, right.value
    elif isinstance(left, Literal) and isinstance(right, ColumnRef):
        symbol, value = _FLIP.get(expression.symbol), left.value
    else:
        return None
    if symbol is None:
        return None
    if not isinstance(value, (int, float, np.integer, np.floating, bool, np.bool_)):
        return None
    return symbol, float(value)


def expression_skips_chunk(expression: Expression, minimum: float, maximum: float) -> bool:
    """True when no value in ``[minimum, maximum]`` can satisfy the predicate.

    This is the chunk-skip test: the interval is a chunk's min/max synopsis
    for the one attribute the predicate reads, and a ``True`` answer lets
    the executor drop the whole chunk without touching its cells.  The test
    is *exact* about comparison strictness (``<`` vs ``<=``) and answers
    ``False`` — never skip — for any shape it cannot reason about
    (arithmetic, negation).

    >>> from repro.plan import col
    >>> expression_skips_chunk(col("v") < 10, minimum=10.0, maximum=20.0)
    True
    >>> expression_skips_chunk(col("v") <= 10, minimum=10.0, maximum=20.0)
    False
    >>> expression_skips_chunk(col("v").isin([3, 7]), minimum=8.0, maximum=9.0)
    True
    """
    if isinstance(expression, Comparison) and type(expression) is Comparison:
        bound = _comparison_bound(expression)
        if bound is None:
            return False
        symbol, constant = bound
        if symbol == "<":
            return minimum >= constant
        if symbol == "<=":
            return minimum > constant
        if symbol == ">":
            return maximum <= constant
        if symbol == ">=":
            return maximum < constant
        if symbol == "=":
            return constant < minimum or constant > maximum
        if symbol == "<>":
            return minimum == maximum == constant
        return False
    if isinstance(expression, InList) and isinstance(expression.operand, ColumnRef):
        try:
            keys = expression.key_array()
            if not np.issubdtype(keys.dtype, np.number):
                return False
            # key_array() is sorted: the smallest key >= minimum either
            # falls inside [minimum, maximum] or no key does — O(log k)
            # instead of scanning every key per chunk.
            position = int(np.searchsorted(keys, minimum, side="left"))
            return position == len(keys) or float(keys[position]) > maximum
        except (TypeError, ValueError):
            return False
    if isinstance(expression, BooleanOp):
        if expression.conjunction:
            return any(expression_skips_chunk(op, minimum, maximum)
                       for op in expression.operands)
        return all(expression_skips_chunk(op, minimum, maximum)
                   for op in expression.operands)
    return False


def subarray(
    array: ChunkedArray,
    offsets: Sequence[np.ndarray | None],
) -> ChunkedArray:
    """Keep selected coordinates along every dimension in one pass over the chunks.

    This is what joining filtered metadata arrays with the expression array
    produces in SciDB: the surviving patient and gene coordinates are
    gathered straight out of the stored chunks and renumbered densely from
    0.  ``offsets`` holds one entry per dimension: the ascending offsets
    from the dimension's start to keep (duplicates repeat a coordinate,
    offsets outside the dimension are dropped), or ``None`` to keep the
    whole axis.  Each stored chunk is visited once: a binary search finds
    the selected offsets inside its extent, and its block is copied into
    its slice of one zero-filled output, which is chunked with the source's
    chunk sizes.

    >>> from repro.arraydb.chunk import Chunk
    >>> from repro.arraydb.schema import ArraySchema, Attribute, Dimension
    >>> values = np.arange(12.0).reshape(4, 3)
    >>> array = ChunkedArray(ArraySchema(
    ...     "expression", [Dimension("patient_id", 10, 13, 2), Dimension("gene_id", 5, 7, 2)],
    ...     [Attribute("value")]))
    >>> for key in array.chunk_grid():
    ...     rows, cols = (range(s.start - d.start, s.stop - d.start) for s, d in
    ...                   zip(array.chunk_slices(key), array.schema.dimensions, strict=True))
    ...     array.put_chunk(Chunk(key, (rows[0] + 10, cols[0] + 5),
    ...                           {"value": values[np.ix_(rows, cols)]}))
    >>> picked = subarray(array, [np.array([1, 3]), np.array([1, 2])])  # patients 11, 13; genes 6, 7
    >>> picked.to_dense().tolist()
    [[4.0, 5.0], [10.0, 11.0]]
    >>> [(d.start, d.end) for d in picked.schema.dimensions]
    [(0, 1), (0, 1)]
    """
    schema = array.schema
    kept: list[np.ndarray | None] = []
    for dimension, selected in zip(schema.dimensions, offsets, strict=True):
        if selected is not None:
            selected = np.asarray(selected, dtype=np.int64)
            if np.any(selected[1:] < selected[:-1]):
                raise ValueError(f"offsets along {dimension.name!r} must be ascending")
            selected = selected[(selected >= 0) & (selected < dimension.length)]
        kept.append(selected)
    attribute = schema.attribute_names[0]
    gathered = np.zeros(
        [d.length if s is None else len(s) for d, s in zip(schema.dimensions, kept, strict=True)],
        dtype=np.result_type(schema.attribute(attribute).dtype, float),
    )
    for chunk in array.chunks():
        source, target = [], []
        for dimension, selected, origin, extent in zip(
                schema.dimensions, kept, chunk.origin, chunk.shape, strict=True):
            low = origin - dimension.start
            if selected is None:
                source.append(None)
                target.append(slice(low, low + extent))
                continue
            first, last = np.searchsorted(selected, (low, low + extent))
            if first == last:
                break  # no selected coordinate falls in this chunk
            source.append(selected[first:last] - low)
            target.append(slice(first, last))
        else:
            block = chunk.attribute(attribute)
            for axis, index in enumerate(source):
                if index is not None:
                    block = block.take(index, axis=axis)
            gathered[tuple(target)] = block
    return ChunkedArray.from_dense(
        f"subarray({schema.name})",
        gathered,
        dimension_names=schema.dimension_names,
        attribute_name=attribute,
        chunk_sizes=[d.chunk_size for d in schema.dimensions],
    )


def aggregate(array: ChunkedArray, attribute: str, function: str, along: str) -> np.ndarray:
    """Aggregate an attribute per coordinate of one dimension, chunk-wise.

    Args:
        array: input array.
        attribute: attribute to aggregate.
        function: one of sum / count / min / max / avg.
        along: the dimension whose coordinates group the cells (all the
            others collapse).

    Returns:
        A 1-D array indexed by the offset of the coordinate from the
        dimension's start.
    """
    if function not in ("sum", "count", "min", "max", "avg"):
        raise ValueError(f"unsupported aggregate {function!r}")
    axis = array.schema.dimension_index(along)
    dimension = array.schema.dimension(along)
    length = dimension.length
    sums = np.zeros(length)
    counts = np.zeros(length)
    minimums = np.full(length, np.inf)
    maximums = np.full(length, -np.inf)
    for chunk in array.chunks():
        values = chunk.attribute(attribute)
        # Each cell's offset along ``along``, in the cells' C order.
        coords = (np.indices(values.shape)[axis]
                  + (chunk.origin[axis] - dimension.start)).ravel()
        selected = values.ravel()
        np.add.at(sums, coords, selected)
        np.add.at(counts, coords, 1.0)
        np.minimum.at(minimums, coords, selected)
        np.maximum.at(maximums, coords, selected)
    if function == "sum":
        return sums
    if function == "count":
        return counts
    if function == "avg":
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(counts > 0, sums / counts, np.nan)
    if function == "min":
        return np.where(counts > 0, minimums, np.nan)
    return np.where(counts > 0, maximums, np.nan)
