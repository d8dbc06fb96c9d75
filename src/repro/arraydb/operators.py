"""AFL-style operators over chunked arrays.

Each operator consumes and produces :class:`~repro.arraydb.array.ChunkedArray`
objects and processes data one chunk at a time — the execution model that
lets the array DBMS skip the table↔matrix restructuring every relational
engine pays for in the GenBase queries.

Implemented operators (names follow SciDB's AFL where one exists):

* :func:`filter_attribute` — keep cells satisfying a predicate on the
  attributes; the predicate is an :class:`~repro.plan.expressions.Expression`
  from the shared AST (range/equality/membership conjuncts skip whole
  chunks via the chunks' min/max synopses),
* :func:`between` — subarray by dimension coordinate ranges,
* :func:`subarray_by_index` — keep a given list of coordinates along one
  dimension and compact them (what a dimension-join against a filtered
  metadata array produces),
* :func:`apply` — add a computed attribute,
* :func:`project` — keep a subset of attributes,
* :func:`aggregate` — whole-array or per-dimension aggregates computed
  chunk-wise,
* :func:`cross_join` — join two arrays on a shared dimension,
* :func:`redimension` — build a 2-D array from coordinate/value cell lists,
* :func:`regrid` — downsample by an integer factor per dimension.

Shared logical plans (Scan → Filter → Join → Aggregate/Pivot) are lowered
onto these operators by :mod:`repro.arraydb.bridge`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.arraydb.array import ChunkedArray
from repro.arraydb.chunk import Chunk
from repro.arraydb.schema import Attribute, Dimension
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


def between(
    array: ChunkedArray,
    bounds: dict[str, tuple[int, int]],
    result_name: str | None = None,
) -> ChunkedArray:
    """Subarray: keep cells inside inclusive coordinate ``bounds`` per dimension.

    Dimensions not named in ``bounds`` are kept whole.  Unlike
    :func:`subarray_by_index` the coordinate system is preserved (this is
    SciDB's ``between``, not ``subarray``).
    """
    for name in bounds:
        array.schema.dimension(name)  # validate
    schema = array.schema.renamed(result_name or f"between({array.schema.name})")
    result = ChunkedArray(schema)
    for chunk in array.chunks():
        keep = np.ones(chunk.shape, dtype=bool)
        for axis, dimension in enumerate(array.schema.dimensions):
            if dimension.name not in bounds:
                continue
            low, high = bounds[dimension.name]
            coords = chunk.origin[axis] + np.arange(chunk.shape[axis])
            axis_keep = (coords >= low) & (coords <= high)
            shape = [1] * len(chunk.shape)
            shape[axis] = len(coords)
            keep &= axis_keep.reshape(shape)
        if chunk.mask is not None:
            keep &= chunk.mask
        if not keep.any():
            continue
        new_chunk = chunk.copy()
        new_chunk.mask = keep
        result.put_chunk(new_chunk)
    return result


def subarray_by_index(
    array: ChunkedArray,
    dimension_name: str,
    coordinates: Sequence[int],
    result_name: str | None = None,
) -> ChunkedArray:
    """Keep selected coordinates along one dimension and compact the axis.

    This is what "join the filtered metadata array with the expression
    array" produces in SciDB: the surviving patient (or gene) coordinates
    are renumbered densely from 0 and the other dimensions are untouched.
    """
    axis = array.schema.dimension_index(dimension_name)
    coordinates = np.asarray(sorted(set(int(c) for c in coordinates)), dtype=np.int64)
    dense = array.to_dense()
    dimension = array.schema.dimension(dimension_name)
    offsets = coordinates - dimension.start
    valid = (offsets >= 0) & (offsets < dimension.length)
    offsets = offsets[valid]
    taken = np.take(dense, offsets, axis=axis)

    new_dimensions = []
    for index, old in enumerate(array.schema.dimensions):
        if index == axis:
            new_dimensions.append(
                Dimension(old.name, 0, max(0, taken.shape[index] - 1), old.chunk_size)
            )
        else:
            new_dimensions.append(old.resized(0, max(0, taken.shape[index] - 1)))
    name = result_name or f"subarray({array.schema.name})"
    attribute = array.schema.attribute_names[0]
    return ChunkedArray.from_dense(
        name,
        taken,
        dimension_names=[d.name for d in new_dimensions],
        attribute_name=attribute,
        chunk_sizes=[d.chunk_size for d in new_dimensions],
    )


def apply(
    array: ChunkedArray,
    new_attribute: str,
    function: Callable[[dict[str, np.ndarray]], np.ndarray],
    result_name: str | None = None,
) -> ChunkedArray:
    """Add a computed attribute evaluated chunk-wise from existing attributes."""
    attributes = list(array.schema.attributes) + [Attribute(new_attribute)]
    schema = array.schema.with_attributes(
        attributes, name=result_name or f"apply({array.schema.name})"
    )
    result = ChunkedArray(schema)
    for chunk in array.chunks():
        new_chunk = chunk.copy()
        new_chunk.data[new_attribute] = np.asarray(
            function({name: chunk.attribute(name) for name in array.schema.attribute_names}),
            dtype=np.float64,
        )
        result.put_chunk(new_chunk)
    return result


def project(array: ChunkedArray, attributes: Sequence[str],
            result_name: str | None = None) -> ChunkedArray:
    """Keep only the named attributes."""
    kept = [array.schema.attribute(name) for name in attributes]
    schema = array.schema.with_attributes(kept, name=result_name or f"project({array.schema.name})")
    result = ChunkedArray(schema)
    for chunk in array.chunks():
        result.put_chunk(
            Chunk(
                coordinates=chunk.coordinates,
                origin=chunk.origin,
                data={name: chunk.attribute(name).copy() for name in attributes},
                mask=None if chunk.mask is None else chunk.mask.copy(),
            )
        )
    return result


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


def cross_join(
    left: ChunkedArray,
    right: ChunkedArray,
    dimension_name: str,
    result_name: str | None = None,
) -> ChunkedArray:
    """Join two arrays on a shared dimension.

    The right array must be 1-D over ``dimension_name`` (a metadata vector,
    e.g. ``(function)[gene_id]``); its attributes are broadcast onto the
    left array's cells with matching coordinates, and left cells whose
    coordinate has no (non-empty) right cell become empty.  This covers how
    the GenBase queries use SciDB's ``cross_join``.
    """
    if right.schema.ndim != 1 or right.schema.dimensions[0].name != dimension_name:
        raise ValueError("cross_join expects the right array to be 1-D over the join dimension")
    axis = left.schema.dimension_index(dimension_name)
    right_dimension = right.schema.dimensions[0]

    # Materialise the right side as (coordinate -> attribute values, present?).
    right_dense = {
        name: right.to_dense(attribute=name, fill=np.nan)
        for name in right.schema.attribute_names
    }
    present = np.zeros(right_dimension.length, dtype=bool)
    coords, _ = right.attribute_cells(right.schema.attribute_names[0])
    present[coords[0] - right_dimension.start] = True

    attributes = list(left.schema.attributes) + [
        Attribute(name) for name in right.schema.attribute_names
    ]
    schema = left.schema.with_attributes(
        attributes, name=result_name or f"cross_join({left.schema.name},{right.schema.name})"
    )
    result = ChunkedArray(schema)
    for chunk in left.chunks():
        coords_along_axis = chunk.origin[axis] + np.arange(chunk.shape[axis])
        offsets = coords_along_axis - right_dimension.start
        in_range = (offsets >= 0) & (offsets < right_dimension.length)
        row_present = np.zeros(len(offsets), dtype=bool)
        row_present[in_range] = present[offsets[in_range]]
        shape = [1] * len(chunk.shape)
        shape[axis] = len(offsets)
        keep = row_present.reshape(shape) & (
            chunk.mask if chunk.mask is not None else np.ones(chunk.shape, bool)
        )
        if not keep.any():
            continue
        new_chunk = chunk.copy()
        new_chunk.mask = keep
        for name, dense in right_dense.items():
            broadcast_values = np.zeros(len(offsets))
            broadcast_values[in_range] = np.nan_to_num(dense[offsets[in_range]])
            new_chunk.data[name] = np.broadcast_to(
                broadcast_values.reshape(shape), chunk.shape
            ).copy()
        result.put_chunk(new_chunk)
    return result


def redimension(
    name: str,
    row_coordinates: np.ndarray,
    column_coordinates: np.ndarray,
    values: np.ndarray,
    dimension_names: tuple[str, str] = ("row", "column"),
    attribute_name: str = "value",
    chunk_sizes: tuple[int, int] | None = None,
) -> ChunkedArray:
    """Build a dense 2-D array from (row, column, value) cell triples.

    Coordinates are compacted (renumbered densely in sorted order), which is
    what SciDB's ``redimension`` does when loading a relational "long"
    table into an array.
    """
    row_coordinates = np.asarray(row_coordinates, dtype=np.int64)
    column_coordinates = np.asarray(column_coordinates, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    if not (len(row_coordinates) == len(column_coordinates) == len(values)):
        raise ValueError("coordinate and value arrays must be the same length")
    row_labels, row_positions = np.unique(row_coordinates, return_inverse=True)
    column_labels, column_positions = np.unique(column_coordinates, return_inverse=True)
    dense = np.zeros((len(row_labels), len(column_labels)), dtype=np.float64)
    dense[row_positions, column_positions] = values
    chunk_sizes = chunk_sizes or (
        min(256, max(1, dense.shape[0])),
        min(256, max(1, dense.shape[1])),
    )
    return ChunkedArray.from_dense(
        name,
        dense,
        dimension_names=list(dimension_names),
        attribute_name=attribute_name,
        chunk_sizes=list(chunk_sizes),
    )


def regrid(
    array: ChunkedArray,
    factors: dict[str, int],
    attribute: str | None = None,
    function: str = "avg",
    result_name: str | None = None,
) -> ChunkedArray:
    """Downsample an array by integer factors per dimension.

    Cells are grouped into ``factor``-sized blocks along each named
    dimension and aggregated (avg/sum/min/max).  Partial blocks at the array
    edge are aggregated over the cells that exist.
    """
    if function not in ("avg", "sum", "min", "max"):
        raise ValueError(f"unsupported regrid aggregate {function!r}")
    if attribute is None:
        attribute = array.schema.attribute_names[0]
    dense = array.to_dense(attribute=attribute, fill=np.nan)
    reducers = {"avg": np.nanmean, "sum": np.nansum, "min": np.nanmin, "max": np.nanmax}
    reducer = reducers[function]

    result = dense
    for axis, dimension in enumerate(array.schema.dimensions):
        factor = factors.get(dimension.name, 1)
        if factor <= 1:
            continue
        length = result.shape[axis]
        n_blocks = (length + factor - 1) // factor
        blocks = []
        for block_index in range(n_blocks):
            selector = [slice(None)] * result.ndim
            selector[axis] = slice(block_index * factor, min((block_index + 1) * factor, length))
            with np.errstate(invalid="ignore"):
                blocks.append(reducer(result[tuple(selector)], axis=axis, keepdims=True))
        result = np.concatenate(blocks, axis=axis)

    result = np.nan_to_num(result, nan=0.0)
    name = result_name or f"regrid({array.schema.name})"
    return ChunkedArray.from_dense(
        name,
        result,
        dimension_names=list(array.schema.dimension_names),
        attribute_name=attribute,
        chunk_sizes=[d.chunk_size for d in array.schema.dimensions],
    )
