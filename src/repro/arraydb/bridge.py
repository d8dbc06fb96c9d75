"""Execute shared logical plans (:mod:`repro.plan`) on the array DBMS.

The column store runs shared plans through
:func:`repro.colstore.planner.run_plan` and the row store through
:func:`repro.relational.bridge.run_shared_plan`; this module is the array
DBMS counterpart, so the *same* plan objects — built once per GenBase
query in :mod:`repro.core.queries` — drive all three storage
architectures.

The array data model has no tables, so the executor maps the plan's
relational vocabulary onto arrays through *frames*:

* an :class:`ArrayFrame` presents a set of 1-D metadata arrays sharing
  one dimension (``patients``: disease_id / age / gender vectors over
  ``patient_id``) as a logical table whose key column is the dimension;
* a :class:`MatrixFrame` presents the 2-D expression array as the long
  fact table ``(patient_id, gene_id, expression_value)`` — its id
  columns are the array's dimensions and its value column is the cell
  attribute.

Lowering then follows the array idiom the paper describes for SciDB: a
``Filter`` over a metadata frame is a chunk-wise scan of the metadata
vectors (each classified range/equality/membership conjunct first tests
the chunk's min/max synopsis and can skip the whole chunk, see
:func:`repro.arraydb.operators.expression_skips_chunk`); a ``Join``
against the matrix frame on a dimension is a dimension join, and every
dimension join of one subtree materialises as a single gather —
:func:`repro.arraydb.operators.subarray` copies the selected coordinates
of all dimensions out of the stored chunks in one pass and compacts the
axes, never densifying the source array; ``Aggregate`` runs chunk-wise
along a dimension and ``Pivot`` is
:meth:`~repro.arraydb.array.ChunkedArray.to_dense` of the gathered array
(the data is already a matrix — the restructuring every relational
engine pays for simply does not exist here).

A terminal-less plan answers like a relation of the other bridges, one
``column(name)`` at a time: a metadata subtree (``Project(Filter(Scan(
"patients"), …), columns)``, the engines' lookup shape) returns
:class:`MetadataRows` — the selected coordinates, ascending, and every
projected column read at them — and a dimension-filtered fact subtree
returns its :class:`ArrayQueryResult`, whose columns are the long form
(one row per cell, a zero cell included).

The executor *requires* the optimizer's predicate pushdown: a dimension
predicate must sit on the dimension table's side of the join before
lowering (``run_shared_plan`` optimizes by default, with every rule
enabled).

>>> import numpy as np
>>> from repro.plan import Filter, Join, Pivot, Scan, col
>>> matrix = np.arange(12.0).reshape(4, 3)
>>> expression = ChunkedArray.from_dense("expression", matrix, ["patient_id", "gene_id"],
...                                      "expression_value", chunk_sizes=[2, 2])
>>> frames = {
...     "microarray": MatrixFrame(expression, "expression_value"),
...     "patients": ArrayFrame("patient_id", {
...         "age": metadata_array("age", np.array([30.0, 50.0, 20.0, 60.0]),
...                               "patient_id", "age", chunk_size=2)}),
... }
>>> plan = Pivot(Join(Filter(Scan("patients"), col("age") < 45),
...                   Scan("microarray"), "patient_id", "patient_id"),
...              "patient_id", "gene_id", "expression_value")
>>> dense, rows, cols = run_shared_plan(plan, frames)
>>> rows.tolist(), dense.tolist()
([0, 2], [[0.0, 1.0, 2.0], [6.0, 7.0, 8.0]])
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from repro.arraydb.array import ChunkedArray
from repro.arraydb.operators import (
    FilterStats,
    aggregate,
    expression_skips_chunk,
    subarray,
)
from repro.plan import logical
from repro.plan.execute import Backend, execute
from repro.plan.expressions import Expression, split_conjuncts
from repro.plan.observe import PlanObservation
from repro.plan.optimizer import SchemaCatalog

#: Shared Aggregate function names → array-operator aggregate names.
_AGGREGATE_NAMES = {"mean": "avg"}


@dataclass(frozen=True)
class ArrayFrame:
    """A logical dimension table backed by 1-D metadata arrays.

    Attributes:
        dimension: the shared dimension name — the frame's key column.
        columns: column name → 1-D :class:`ChunkedArray` over ``dimension``
            whose single attribute carries the column's values.
    """

    dimension: str
    columns: Mapping[str, ChunkedArray]

    def __post_init__(self):
        # The filter pass walks one chunk grid for all columns at once.
        layouts = {}
        for name, array in self.columns.items():
            along = array.schema.dimensions[0]
            layouts[name] = (along.start, along.end, along.chunk_size)
        if len(set(layouts.values())) > 1:
            raise ValueError(
                f"metadata columns of frame {self.dimension!r} must share one "
                f"(start, end, chunk_size) layout, got {layouts}"
            )

    def column_names(self) -> list[str]:
        """The frame's columns: the dimension first, then the metadata."""
        return [self.dimension, *self.columns]

    @cached_property
    def plan_schema(self) -> dict:
        """``{column: dtype}`` for the shared optimizer: the dimension, then
        each metadata column's attribute dtype."""
        schema = {self.dimension: np.int64}
        for column, array in self.columns.items():
            schema[column] = array.schema.attribute(array.schema.attribute_names[0]).dtype
        return schema


@dataclass(frozen=True)
class MatrixFrame:
    """The fact table: an n-D array whose dimensions are the id columns.

    Attributes:
        array: the chunked data array.
        value_column: logical column name of the cell attribute (the
            array's attribute name must match, so shared expressions can
            reference it).
    """

    array: ChunkedArray
    value_column: str

    def column_names(self) -> list[str]:
        """Dimension (id) columns in schema order, then the value column."""
        return [*self.array.schema.dimension_names, self.value_column]

    @cached_property
    def plan_schema(self) -> dict:
        """``{column: dtype}`` for the shared optimizer: the dimension (id)
        columns, then the cell attribute's dtype."""
        cell = self.array.schema.attribute(self.array.schema.attribute_names[0])
        return ({name: np.int64 for name in self.array.schema.dimension_names}
                | {self.value_column: cell.dtype})


def metadata_array(name: str, values: np.ndarray, dimension: str,
                   attribute: str, chunk_size: int = 256) -> ChunkedArray:
    """Build one 1-D metadata array for an :class:`ArrayFrame` column."""
    return ChunkedArray.from_dense(
        name, np.asarray(values), dimension_names=[dimension],
        attribute_name=attribute, chunk_sizes=[chunk_size],
    )


@dataclass
class ArrayQueryResult:
    """A relational-algebra subtree's result on the array executor.

    ``array`` is the (compacted) chunked subarray; ``labels`` maps each
    dimension name to the original coordinates its compacted axis
    positions correspond to — what the pivot's row/column labels would
    be, and what the adapters report as selection cardinalities.
    """

    array: ChunkedArray
    labels: dict[str, np.ndarray] = field(default_factory=dict)

    def label(self, dimension: str) -> np.ndarray:
        """Original coordinates along one dimension, sorted ascending."""
        return self.labels[dimension]

    def __len__(self) -> int:
        """The result's cardinality: its cells."""
        return self.array.cell_count

    def column(self, name: str) -> np.ndarray:
        """One column of the long form, a row per cell in C order of the
        dimensions: a dimension's coordinates, or the cell attribute (a cell
        of an unstored chunk reads 0)."""
        dimensions = list(self.array.schema.dimension_names)
        if name not in dimensions:
            return self.array.to_dense(attribute=name).ravel()
        grid = np.meshgrid(*(self.labels[d] for d in dimensions), indexing="ij", sparse=True)
        return np.broadcast_to(grid[dimensions.index(name)], self.array.shape).ravel()


@dataclass
class MetadataRows:
    """A metadata subtree's result: ``columns`` maps each projected column to
    its values at the selected coordinates, ascending — the dimension column
    is the coordinates themselves."""

    columns: dict[str, np.ndarray]

    def column(self, name: str) -> np.ndarray:
        return self.columns[name]

    def __len__(self) -> int:
        """The result's cardinality: the selected coordinates."""
        return len(next(iter(self.columns.values())))


def _frames_catalog(frames: Mapping[str, ArrayFrame | MatrixFrame]) -> SchemaCatalog:
    """The frames' schemas (computed once per frame: the arrays are
    immutable in practice)."""
    return SchemaCatalog({table: frame.plan_schema for table, frame in frames.items()})


def _frame_bounds(frame: ArrayFrame) -> tuple[int, int]:
    first = next(iter(frame.columns.values()))
    dimension = first.schema.dimensions[0]
    return dimension.start, dimension.end


# --------------------------------------------------------------------------- #
# Lowering
# --------------------------------------------------------------------------- #

# eq=False: Expression.__eq__ builds an AST node, so the generated
# field-wise __eq__ would never return a bool.  Identity semantics.
@dataclass(eq=False)
class _MetaSelection:
    """A metadata-frame subtree: the frame, its stacked predicates and the
    projected columns (None: all of them)."""

    name: str
    frame: ArrayFrame
    predicates: list[Expression] = field(default_factory=list)
    columns: tuple[str, ...] | None = None


@dataclass(eq=False)
class _MatrixSelection:
    """A fact subtree: per-dimension coordinate selections."""

    name: str
    frame: MatrixFrame
    coordinates: dict[str, np.ndarray | None] = field(default_factory=dict)


class ArrayBackend(Backend):
    """The array frames behind the shared driver, for one plan execution.

    ``stats`` (optional :class:`~repro.arraydb.operators.FilterStats`)
    accumulates chunk-skip counters across every filter pass of the run.
    """

    engine = "scidb"

    def __init__(self, frames: Mapping[str, ArrayFrame | MatrixFrame],
                 stats: FilterStats | None):
        self.frames = frames
        self.stats = stats
        self.catalog = _frames_catalog(frames)

    def lower(self, node: logical.PlanNode):
        return _lower(node, self.frames, self.stats)

    def relation(self, selection):
        """Metadata subtree → :class:`MetadataRows`; fact subtree → subarray."""
        if isinstance(selection, _MetaSelection):
            return _metadata_rows(selection, self.stats)
        return _materialise(selection)

    def _fact(self, selection, terminal: str) -> ArrayQueryResult:
        if not isinstance(selection, _MatrixSelection):
            raise TypeError(f"{terminal} expects a fact-array subtree")
        return _materialise(selection)

    def aggregate(self, selection, plan: logical.Aggregate):
        result = self._fact(selection, "Aggregate")
        if plan.value != selection.frame.value_column:
            raise KeyError(f"no value column {plan.value!r} in frame {selection.name!r}")
        function = _AGGREGATE_NAMES.get(plan.function, plan.function)
        values = aggregate(result.array, plan.value, function, along=plan.group_by)
        return result.label(plan.group_by), np.asarray(values, dtype=np.float64)

    def pivot(self, selection, plan: logical.Pivot):
        result = self._fact(selection, "Pivot")
        dims = list(result.array.schema.dimension_names)
        if dims == [plan.row_key, plan.column_key]:
            dense = result.array.to_dense(attribute=plan.value)
        elif dims == [plan.column_key, plan.row_key]:
            dense = result.array.to_dense(attribute=plan.value).T
        else:
            raise KeyError(
                f"pivot keys ({plan.row_key!r}, {plan.column_key!r}) do not "
                f"match array dimensions {dims}"
            )
        return dense, result.label(plan.row_key), result.label(plan.column_key)


def run_shared_plan(plan: logical.PlanNode,
                    frames: Mapping[str, ArrayFrame | MatrixFrame],
                    optimized: bool = True,
                    stats: FilterStats | None = None,
                    observation: PlanObservation | None = None):
    """Execute a shared logical plan against the array frames.

    A one-line call into the shared driver
    (:func:`repro.plan.execute.execute`).  Relational-algebra subtrees
    over the fact array return an :class:`ArrayQueryResult` (the compacted
    subarray plus its coordinate labels, readable in long form); a
    metadata-only subtree returns :class:`MetadataRows` (the selected
    coordinates, ascending, and the projected columns read there);
    :class:`~repro.plan.logical.Aggregate` returns ``(group_keys,
    aggregates)`` and :class:`~repro.plan.logical.Pivot` returns
    ``(matrix, row_labels, column_labels)`` — the shared executor
    contract.

    Args:
        plan: the shared logical plan tree.
        frames: scan name → :class:`ArrayFrame` / :class:`MatrixFrame`.
        optimized: run the shared optimizer first.  The array lowering
            requires dimension predicates to sit on the dimension-table
            side of joins, which is exactly what the pushdown rule
            arranges; pass False only for plans already in that shape.
        stats: optional :class:`~repro.arraydb.operators.FilterStats`
            accumulating chunk-skip counters across every filter pass.
        observation: optional :class:`~repro.plan.observe.PlanObservation`
            filled with the observed output cardinality.
    """
    return execute(plan, ArrayBackend(frames, stats), optimized, observation)


def _lower(node: logical.PlanNode,
           frames: Mapping[str, ArrayFrame | MatrixFrame],
           stats: FilterStats | None = None):
    """Lower a relational-algebra subtree onto a selection description."""
    if isinstance(node, logical.Scan):
        frame = frames.get(node.table)
        if frame is None:
            raise KeyError(f"no frame named {node.table!r}; have {sorted(frames)}")
        if isinstance(frame, ArrayFrame):
            return _MetaSelection(node.table, frame)
        return _MatrixSelection(
            node.table, frame,
            {name: None for name in frame.array.schema.dimension_names},
        )
    if isinstance(node, logical.Project):
        selection = _lower(node.child, frames, stats)
        names = (selection.frame.column_names()
                 if isinstance(selection, (_MetaSelection, _MatrixSelection)) else [])
        missing = set(node.columns) - set(names)
        if missing:
            raise KeyError(
                f"no column {sorted(missing)[0]!r} in frame {selection.name!r}"
            )
        # Projection is structural on arrays: dimensions and the cell
        # attribute are always present, metadata attributes never survive
        # a dimension join.  Only a metadata relation reads its columns.
        if isinstance(selection, _MetaSelection):
            selection.columns = tuple(node.columns)
        return selection
    if isinstance(node, logical.Filter):
        selection = _lower(node.child, frames, stats)
        if isinstance(selection, _MetaSelection):
            _validate_columns(node.predicate, selection.frame.column_names(),
                              selection.name)
            selection.predicates.append(node.predicate)
            return selection
        return _filter_matrix(selection, node.predicate)
    if isinstance(node, logical.Join):
        left = _lower(node.left, frames, stats)
        right = _lower(node.right, frames, stats)
        if isinstance(left, _MetaSelection) and isinstance(right, _MatrixSelection):
            return _dimension_join(right, left, node.right_key, node.left_key, stats)
        if isinstance(left, _MatrixSelection) and isinstance(right, _MetaSelection):
            return _dimension_join(left, right, node.left_key, node.right_key, stats)
        raise TypeError(
            "the array executor joins a metadata frame against the fact "
            "array on a shared dimension; got "
            f"{type(left).__name__} ⋈ {type(right).__name__}"
        )
    raise TypeError(
        f"cannot execute plan node {type(node).__name__} on the array DBMS"
    )


def _validate_columns(predicate: Expression, names: Sequence[str], frame: str) -> None:
    missing = predicate.columns_referenced() - set(names)
    if missing:
        raise KeyError(f"no column {sorted(missing)[0]!r} in frame {frame!r}")


def _filter_matrix(selection: _MatrixSelection, predicate: Expression) -> _MatrixSelection:
    """Apply a predicate to the fact subtree: a filter on one dimension.

    A predicate on the cell value has no array counterpart here: absent
    cells would have to read as zeros, which is not what a row store's
    filter on the long fact table answers.
    """
    dims = list(selection.frame.array.schema.dimension_names)
    for conjunct in split_conjuncts(predicate):
        referenced = conjunct.columns_referenced()
        if selection.frame.value_column in referenced:
            raise TypeError(
                f"predicate {conjunct!r} filters the value column "
                f"{selection.frame.value_column!r}; the array executor filters "
                "fact-array cells only by dimension"
            )
        if len(referenced) == 1 and next(iter(referenced)) in dims:
            dimension = next(iter(referenced))
            schema_dim = selection.frame.array.schema.dimension(dimension)
            coords = np.arange(schema_dim.start, schema_dim.end + 1, dtype=np.int64)
            mask = np.asarray(conjunct.evaluate({dimension: coords}), dtype=bool)
            selected = coords[mask]
            current = selection.coordinates[dimension]
            selection.coordinates[dimension] = (
                selected if current is None else np.intersect1d(current, selected)
            )
            continue
        raise TypeError(
            f"predicate {conjunct!r} does not read exactly one dimension of "
            f"{selection.name!r}; push it onto the metadata frame (run the "
            "shared optimizer first)"
        )
    return selection


def _dimension_join(matrix: _MatrixSelection, meta: _MetaSelection,
                    matrix_key: str, meta_key: str,
                    stats: FilterStats | None = None) -> _MatrixSelection:
    """Join the fact array with a filtered metadata frame on a dimension."""
    if meta_key != meta.frame.dimension:
        raise KeyError(
            f"frame {meta.name!r} joins on its dimension "
            f"{meta.frame.dimension!r}, not {meta_key!r}"
        )
    if matrix_key not in matrix.frame.array.schema.dimension_names:
        raise KeyError(
            f"no dimension {matrix_key!r} in array frame {matrix.name!r}"
        )
    coordinates = _resolve_meta(meta, stats)
    if coordinates is not None:
        current = matrix.coordinates[matrix_key]
        matrix.coordinates[matrix_key] = (
            coordinates if current is None else np.intersect1d(current, coordinates)
        )
    return matrix


def _resolve_meta(selection: _MetaSelection,
                  stats: FilterStats | None) -> np.ndarray | None:
    """Evaluate the stacked predicates chunk-wise; None means "all rows".

    Each referenced metadata column is a separate 1-D array; the arrays
    share the dimension and its chunking (:class:`ArrayFrame` checks), so the
    pass walks the chunk grid once, testing every classified
    single-column conjunct against that column chunk's min/max synopsis
    first — a chunk excluded by any conjunct is skipped whole.  The
    dimension itself is exposed to expressions as a virtual column whose
    chunk values are the coordinate range (its synopsis is exact, so
    coordinate membership predicates skip chunks too).
    """
    if not selection.predicates:
        return None
    conjuncts: list[Expression] = []
    for predicate in selection.predicates:
        conjuncts.extend(split_conjuncts(predicate))
    frame = selection.frame
    referenced: set[str] = set()
    for conjunct in conjuncts:
        referenced |= conjunct.columns_referenced()
    column_arrays = {name: frame.columns[name]
                     for name in referenced if name != frame.dimension}
    first = next(iter(frame.columns.values()))  # every column shares its grid
    kept: list[np.ndarray] = []
    for chunk_coords in first.chunk_grid():
        chunks = {name: array.chunk_at(chunk_coords)
                  for name, array in column_arrays.items()}
        low, high = first.schema.dimensions[0].chunk_bounds(chunk_coords[0])
        coords = np.arange(low, high + 1, dtype=np.int64)
        skipped = False
        for conjunct in conjuncts:
            names = conjunct.columns_referenced()
            if len(names) != 1:
                continue
            name = next(iter(names))
            if name == frame.dimension:
                bounds = (float(coords[0]), float(coords[-1]))
            else:
                bounds = chunks[name].attribute_range(name)
            if bounds is not None and expression_skips_chunk(conjunct, *bounds):
                skipped = True
                break
        if skipped:
            if stats is not None:
                stats.chunks_skipped += 1
            continue
        if stats is not None:
            stats.chunks_scanned += 1
        batch = {frame.dimension: coords}
        mask = np.ones(len(coords), dtype=bool)
        for name, chunk in chunks.items():
            batch[name] = chunk.attribute(name)
        for conjunct in conjuncts:
            mask &= np.asarray(conjunct.evaluate(batch), dtype=bool)
            if not mask.any():
                break
        if mask.any():
            kept.append(coords[mask])
    if not kept:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(kept)


def _metadata_rows(selection: _MetaSelection, stats: FilterStats | None) -> MetadataRows:
    """The selected coordinates and each projected column read at them."""
    frame = selection.frame
    start, end = _frame_bounds(frame)
    coordinates = _resolve_meta(selection, stats)
    if coordinates is None:
        coordinates = np.arange(start, end + 1, dtype=np.int64)
    return MetadataRows({
        name: coordinates if name == frame.dimension
        else frame.columns[name].to_dense()[coordinates - start]
        for name in selection.columns or frame.column_names()
    })


def _materialise(selection: _MatrixSelection) -> ArrayQueryResult:
    """Apply the accumulated selections: one gather over the chunks."""
    array = selection.frame.array
    labels: dict[str, np.ndarray] = {}
    offsets: list[np.ndarray | None] = []
    for dimension in array.schema.dimensions:
        coords = selection.coordinates.get(dimension.name)
        if coords is None:
            labels[dimension.name] = np.arange(
                dimension.start, dimension.end + 1, dtype=np.int64
            )
            offsets.append(None)
        else:
            coords = np.unique(np.asarray(coords, dtype=np.int64))
            labels[dimension.name] = coords
            # Every coordinate selected: nothing to gather along this axis.
            offsets.append(None if len(coords) == dimension.length else coords - dimension.start)
    if any(selected is not None for selected in offsets):
        array = subarray(array, offsets)
    return ArrayQueryResult(array=array, labels=labels)
