"""AFL-style operators over chunked arrays.

Each operator consumes and produces :class:`~repro.arraydb.array.ChunkedArray`
objects and processes data one chunk at a time — the execution model that
lets the array DBMS skip the table↔matrix restructuring every relational
engine pays for in the GenBase queries.

Implemented operators (names follow SciDB's AFL where one exists) — the
ones :mod:`repro.arraydb.bridge` lowers the shared plans onto:

* :func:`filter_attribute` — keep cells satisfying a predicate on the
  attributes; the predicate is an :class:`~repro.plan.expressions.Expression`
  from the shared AST (range/equality/membership conjuncts skip whole
  chunks via the chunks' min/max synopses),
* :func:`subarray` — keep the selected coordinates along every dimension
  and compact them, gathered in one pass over the stored chunks (what
  dimension joins against filtered metadata arrays produce),
* :func:`aggregate` — whole-array or per-dimension aggregates computed
  chunk-wise.

Shared logical plans (Scan → Filter → Join → Aggregate/Pivot) are lowered
onto these operators by :mod:`repro.arraydb.bridge`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.arraydb.array import ChunkedArray
from repro.arraydb.chunk import Chunk
from repro.plan.expressions import (
    ColumnRef,
    Comparison,
    BooleanOp,
    Expression,
    InList,
    Literal,
    split_conjuncts,
)


@dataclass
class FilterStats:
    """Chunk-level accounting for one expression-driven filter pass.

    ``chunks_skipped`` counts chunks eliminated purely from their min/max
    synopsis — no cell of those chunks was ever touched.  Callers (tests,
    EXPLAIN-style diagnostics) pass an instance into
    :func:`filter_attribute` or the :mod:`repro.arraydb.bridge` executor.
    """

    chunks_scanned: int = 0
    chunks_skipped: int = 0
    cells_kept: int = 0


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
    (arithmetic, opaque callables, negation).

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


def _chunk_keep_mask(chunk: Chunk, conjuncts: Sequence[Expression],
                     batch_columns: Sequence[str]) -> np.ndarray | None:
    """Evaluate conjuncts over one chunk; None means the chunk is skipped.

    Single-attribute conjuncts are first tested against the chunk's min/max
    synopsis (:func:`expression_skips_chunk`); any conjunct that excludes
    the whole chunk short-circuits the evaluation of the rest.
    """
    for conjunct in conjuncts:
        referenced = conjunct.columns_referenced()
        if len(referenced) == 1:
            name = next(iter(referenced))
            if name in chunk.data:
                bounds = chunk.attribute_range(name)
                if bounds is not None and expression_skips_chunk(conjunct, *bounds):
                    return None
    batch = {name: chunk.attribute(name) for name in batch_columns}
    keep = chunk.mask.copy() if chunk.mask is not None else None
    for conjunct in conjuncts:
        verdict = np.asarray(conjunct.evaluate(batch), dtype=bool)
        keep = verdict if keep is None else keep & verdict
        if not keep.any():
            return keep
    return keep


def filter_attribute(
    array: ChunkedArray,
    attribute: str | None,
    predicate: Expression,
    result_name: str | None = None,
    stats: FilterStats | None = None,
) -> ChunkedArray:
    """Keep only cells whose attributes satisfy ``predicate``.

    The array's shape is unchanged; failing cells become empty
    (mask=False), exactly like SciDB's ``filter``.

    ``predicate`` is an :class:`~repro.plan.expressions.Expression` over
    the array's attribute names — the shared AST every engine consumes.
    It is evaluated chunk-wise, and each conjunct that is a classified
    range/equality/membership predicate on one attribute is first tested
    against the chunk's min/max synopsis
    (:meth:`~repro.arraydb.chunk.Chunk.attribute_range`): a chunk whose
    value interval cannot intersect the predicate is dropped without
    touching any cell.  ``stats`` (a :class:`FilterStats`) records how
    many chunks were skipped vs scanned.

    ``attribute`` is only validated (it may be None); the expression names
    the attributes it reads.
    """
    schema = array.schema.renamed(result_name or f"filter({array.schema.name})")
    result = ChunkedArray(schema)
    names = set(array.schema.attribute_names)
    referenced = predicate.columns_referenced()
    missing = referenced - names
    if missing:
        raise KeyError(
            f"expression references {sorted(missing)} but array "
            f"{array.schema.name!r} has attributes {sorted(names)}"
        )
    if attribute is not None and attribute not in names:
        raise KeyError(f"array {array.schema.name!r} has no attribute {attribute!r}")
    conjuncts = split_conjuncts(predicate)
    batch_columns = sorted(referenced)
    for chunk in array.chunks():
        keep = _chunk_keep_mask(chunk, conjuncts, batch_columns)
        if keep is None:
            if stats is not None:
                stats.chunks_skipped += 1
            continue
        if stats is not None:
            stats.chunks_scanned += 1
        if not keep.any():
            continue
        if stats is not None:
            stats.cells_kept += int(keep.sum())
        new_chunk = chunk.copy()
        new_chunk.mask = keep
        result.put_chunk(new_chunk)
    return result


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
    the selected offsets inside its extent, and its block (empty cells
    read as 0) is copied into its slice of one zero-filled output, which
    is chunked with the source's chunk sizes.

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
            block = chunk.masked_attribute(attribute)
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


def aggregate(
    array: ChunkedArray,
    attribute: str,
    function: str = "sum",
    along: str | None = None,
) -> np.ndarray | float:
    """Aggregate an attribute, either globally or per-coordinate of one dimension.

    Args:
        array: input array.
        attribute: attribute to aggregate.
        function: one of sum / count / min / max / avg.
        along: if given, aggregate *per coordinate* of this dimension
            (collapsing all the others); otherwise aggregate everything to a
            scalar.

    Returns:
        A scalar (``along is None``) or a 1-D array indexed by the offset of
        the coordinate from the dimension's start.
    """
    if function not in ("sum", "count", "min", "max", "avg"):
        raise ValueError(f"unsupported aggregate {function!r}")

    if along is None:
        total = 0.0
        count = 0
        minimum = np.inf
        maximum = -np.inf
        for chunk in array.chunks():
            values = chunk.attribute(attribute)
            mask = chunk.mask if chunk.mask is not None else np.ones(values.shape, bool)
            selected = values[mask]
            if selected.size == 0:
                continue
            total += float(selected.sum())
            count += int(selected.size)
            minimum = min(minimum, float(selected.min()))
            maximum = max(maximum, float(selected.max()))
        if function == "sum":
            return total
        if function == "count":
            return float(count)
        if function == "avg":
            return total / count if count else float("nan")
        if function == "min":
            return minimum if count else float("nan")
        return maximum if count else float("nan")

    axis = array.schema.dimension_index(along)
    dimension = array.schema.dimension(along)
    length = dimension.length
    sums = np.zeros(length)
    counts = np.zeros(length)
    minimums = np.full(length, np.inf)
    maximums = np.full(length, -np.inf)
    for chunk in array.chunks():
        values = chunk.attribute(attribute)
        mask = chunk.mask if chunk.mask is not None else np.ones(values.shape, bool)
        coords = chunk.coordinates_of_cells()[axis] - dimension.start
        selected = values[mask]
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
