"""Unoptimized numpy reference executor for shared logical plans.

The fuzzer's ground truth: a direct, rule-free interpretation of the plan
tree *exactly as written* — no pushdown, no pruning, no encoding fast
paths.  Every engine (optimized or not) must agree with this executor
under the tolerances in :mod:`repro.fuzz.tolerances`.

Relations are plain ``{column: np.ndarray}`` dicts (the
:func:`repro.core.queries.dataset_tables` form) plus the surviving base-row
positions of the leftmost scan, which lets ``Sample`` replicate the column
store's documented semantics: score every *base* row once with
``default_rng(seed)``, keep the ``max(1, round(fraction·n))`` selected rows
with the smallest scores (see :meth:`repro.colstore.query.ColumnQuery.sample`).

A :class:`ReferenceTrace` records the observed cardinalities: the fuzz
report's ``observed_rows``, and the empty-input test that skips a case's
comparisons.

For mutated cases (a :class:`~repro.fuzz.generate.MutationOp` prelude),
:func:`mutated_tables` replays the lowered write steps over the plain
dict-of-arrays tables with the delta tier's exact semantics — appends
extend the logical row space, deletes mark stable logical ids (idempotent,
no renumbering), compaction materialises survivors densely — so the
reference executes over precisely the rows a delta-store snapshot holds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.plan import logical


@dataclass
class ReferenceTrace:
    """Observed cardinalities of one reference execution."""

    #: Rows entering the terminal (Aggregate/Pivot), or the final row
    #: count for relational-algebra plans.
    terminal_input_rows: int | None = None
    #: Rows of the final result (groups for Aggregate, row labels for
    #: Pivot, rows otherwise).
    output_rows: int | None = None
    #: Cells of the final pivot matrix, when the terminal is a Pivot.
    output_cells: int | None = None


@dataclass
class _Relation:
    """Columns plus the base-row positions of the leftmost scan."""

    columns: dict[str, np.ndarray]
    base_positions: np.ndarray | None = None
    base_row_count: int = 0

    def __len__(self) -> int:
        if not self.columns:
            return 0
        return len(next(iter(self.columns.values())))

    def take(self, mask_or_index) -> "_Relation":
        positions = self.base_positions
        if positions is not None:
            positions = positions[mask_or_index]
        return _Relation(
            {name: values[mask_or_index] for name, values in self.columns.items()},
            positions,
            self.base_row_count,
        )


def mutated_tables(
    tables: dict[str, dict[str, np.ndarray]],
    steps: list,
) -> dict[str, dict[str, np.ndarray]]:
    """Apply lowered mutation steps to dict-of-arrays tables.

    ``steps`` is the output of :func:`repro.fuzz.generate.lower_mutations`
    — ``(kind, table, payload)`` triples.  Returns new table dicts holding
    only the live rows, in logical (append) order; the input is never
    mutated.
    """
    state = {name: {column: np.asarray(values)
                    for column, values in columns.items()}
             for name, columns in tables.items()}
    deleted: dict[str, set[int]] = {name: set() for name in tables}

    def survivors(name: str) -> dict[str, np.ndarray]:
        dead = deleted[name]
        if not dead:
            return state[name]
        length = len(next(iter(state[name].values())))
        keep = np.setdiff1d(np.arange(length, dtype=np.int64),
                            np.fromiter(dead, dtype=np.int64, count=len(dead)))
        return {column: values[keep]
                for column, values in state[name].items()}

    for kind, table, payload in steps:
        if kind == "append":
            state[table] = {
                column: np.concatenate([values, payload[column]])
                for column, values in state[table].items()
            }
        elif kind == "delete":
            deleted[table].update(int(i) for i in np.asarray(payload))
        elif kind == "compact":
            state[table] = survivors(table)
            deleted[table] = set()
        else:
            raise ValueError(f"unknown mutation step kind {kind!r}")
    return {name: survivors(name) for name in state}


def run_reference(plan: logical.PlanNode,
                  tables: dict[str, dict[str, np.ndarray]],
                  trace: ReferenceTrace | None = None):
    """Execute ``plan`` literally over dict-of-columns tables.

    Returns the shared executor shapes: a ``{column: array}`` dict for
    relational-algebra plans, ``(group_keys, aggregates)`` sorted by key
    for ``Aggregate``, ``(matrix, row_labels, column_labels)`` with
    sorted labels for ``Pivot``, and for ``ApproxAggregate`` the exact
    mean of the rows its ``Sample`` keeps — the column store's estimate,
    which draws the same sample.
    """
    if isinstance(plan, logical.Aggregate):
        child = _evaluate(plan.child, tables)
        if trace is not None:
            trace.terminal_input_rows = len(child)
        keys, values = _group_aggregate(
            child.columns[plan.group_by], child.columns[plan.value], plan.function
        )
        if trace is not None:
            trace.output_rows = int(len(keys))
        return keys, values
    if isinstance(plan, logical.Pivot):
        child = _evaluate(plan.child, tables)
        if trace is not None:
            trace.terminal_input_rows = len(child)
        matrix, row_labels, column_labels = _pivot(
            child.columns[plan.row_key],
            child.columns[plan.column_key],
            child.columns[plan.value],
        )
        if trace is not None:
            trace.output_rows = int(len(row_labels))
            trace.output_cells = int(matrix.size)
        return matrix, row_labels, column_labels
    if isinstance(plan, logical.ApproxAggregate):
        sampled = _evaluate(plan.child, tables)
        if trace is not None:
            trace.terminal_input_rows = len(sampled)
            trace.output_rows = 1
        return _mean(np.asarray(sampled.columns[plan.value]))
    result = _evaluate(plan, tables)
    if trace is not None:
        trace.terminal_input_rows = len(result)
        trace.output_rows = len(result)
    return dict(result.columns)


def _evaluate(node: logical.PlanNode,
              tables: dict[str, dict[str, np.ndarray]]) -> _Relation:
    if isinstance(node, logical.Scan):
        table = tables.get(node.table)
        if table is None:
            raise KeyError(f"no table named {node.table!r}; have {sorted(tables)}")
        length = len(next(iter(table.values())))
        return _Relation(
            {name: np.asarray(values) for name, values in table.items()},
            np.arange(length),
            length,
        )
    if isinstance(node, logical.Filter):
        relation = _evaluate(node.child, tables)
        mask = np.asarray(node.predicate.evaluate(relation.columns), dtype=bool)
        return relation.take(mask)
    if isinstance(node, logical.Project):
        relation = _evaluate(node.child, tables)
        missing = set(node.columns) - set(relation.columns)
        if missing:
            raise KeyError(f"no column {sorted(missing)[0]!r} to project")
        return _Relation(
            {name: relation.columns[name] for name in node.columns},
            relation.base_positions,
            relation.base_row_count,
        )
    if isinstance(node, logical.Sample):
        relation = _evaluate(node.child, tables)
        if relation.base_positions is None:
            raise TypeError("Sample requires a scan-rooted subtree")
        rows = np.sort(relation.base_positions)
        n_keep = (max(1, int(round(node.fraction * len(rows))))
                  if len(rows) else 0)
        scores = np.random.default_rng(node.seed).random(relation.base_row_count)
        kept = np.sort(rows[np.argsort(scores[rows], kind="stable")[:n_keep]])
        index = np.searchsorted(relation.base_positions, kept)
        return relation.take(index)
    if isinstance(node, logical.Join):
        left = _evaluate(node.left, tables)
        right = _evaluate(node.right, tables)
        left_keys = left.columns[node.left_key]
        right_keys = right.columns[node.right_key]
        positions: dict = {}
        for i, key in enumerate(right_keys.tolist()):
            positions.setdefault(key, []).append(i)
        left_index, right_index = [], []
        for i, key in enumerate(left_keys.tolist()):
            for j in positions.get(key, ()):
                left_index.append(i)
                right_index.append(j)
        li = np.asarray(left_index, dtype=np.int64)
        ri = np.asarray(right_index, dtype=np.int64)
        columns = {name: values[li] for name, values in left.columns.items()}
        for name, values in right.columns.items():
            if name != node.right_key:
                columns[name] = values[ri]
        # The join re-keys rows: base positions no longer track one scan.
        return _Relation(columns, None, 0)
    raise TypeError(
        f"cannot execute plan node {type(node).__name__} in the reference"
    )


def _mean(values: np.ndarray) -> float:
    """The mean ``approx_mean`` estimates from its sample, NaN over no rows."""
    return float(np.mean(values.astype(np.float64))) if len(values) else float("nan")


def _group_aggregate(keys: np.ndarray, values: np.ndarray, function: str):
    """Grouped reduction the obvious way: unique keys, one pass per group."""
    labels = np.unique(keys)
    out = np.empty(len(labels), dtype=np.float64)
    for i, label in enumerate(labels):
        group = values[keys == label]
        if function == "count":
            out[i] = float(len(group))
        elif function == "sum":
            out[i] = float(np.sum(group))
        elif function in ("mean", "avg"):
            out[i] = float(np.sum(group) / len(group))
        elif function == "min":
            out[i] = float(np.min(group))
        elif function == "max":
            out[i] = float(np.max(group))
        else:
            raise ValueError(f"unsupported aggregate {function!r}")
    return labels, out


def _pivot(rows: np.ndarray, cols: np.ndarray, values: np.ndarray):
    """Scatter long format into a dense matrix with sorted labels."""
    row_labels, row_positions = np.unique(
        np.asarray(rows, dtype=np.int64), return_inverse=True
    )
    column_labels, column_positions = np.unique(
        np.asarray(cols, dtype=np.int64), return_inverse=True
    )
    matrix = np.zeros((len(row_labels), len(column_labels)))
    matrix[row_positions, column_positions] = np.asarray(values, dtype=np.float64)
    return matrix, row_labels, column_labels
