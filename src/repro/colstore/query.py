"""Vectorised query execution over column tables.

A :class:`ColumnQuery` is a *lazy builder* over the shared declarative
query surface in :mod:`repro.plan`: ``where`` accepts an expression tree
(``col("function") < 250``, ``&``/``|``/``~``, ``isin``) and only records
it.  The accumulated conjunction runs when a result is first needed —
split into conjuncts, each classified structurally
(range/equality/membership), in written order: while most rows survive,
each conjunct is a full-column mask on the compressed form ANDed into the
last, and once few do, the rest evaluate on the gathered survivors only.
The materialised state is a *selection vector* (integer
row positions that survive the filters) — the late-materialisation
execution style of real column stores; ``column()`` / ``columns()``
gather only what the caller asks for, and ``select()`` prunes the
columns a join or pivot above it materialises to the projected set.

Joins are lazy too: :meth:`ColumnQuery.join` returns a :class:`JoinedQuery`
whose terminals (``group_aggregate`` / ``pivot``) assemble one whole
logical plan — ``Scan → Filter* → Join → Aggregate/Pivot`` — and execute
it through :func:`repro.colstore.planner.run_plan`,
so predicates and projections are optimized *across* the join boundary
(GenBase's join outputs feed a pivot or an aggregate immediately, which is
exactly the fusion opportunity).  There is no second join path:
:func:`materialise_join` is the primitive the plan executor itself uses.

Filters execute *on the compressed form* where the encoding allows it:
dictionary and RLE columns evaluate predicates on their distinct values
only and expand the verdicts through codes/runs
(:meth:`~repro.colstore.column.ColumnVector.filter_mask`), so predicates
must be element-wise and stateless.  The equi-join is vectorised position
arithmetic, never an interpreted hash loop, and reads what the data tells
it (:func:`merge_join_positions`): unique dense integer build keys — the PK–FK
shape of every GenBase plan — make it a semi-join on the probe side's
*compressed* key column (one verdict per RLE run or dictionary code, one
table lookup over a delta/plain buffer) followed by a single lookup;
duplicate keys expand hit ranges, sparse or non-integer keys sort.  An
unfiltered query is never gathered through an ``arange`` selection: it
reads its columns' buffers directly.

Aggregation pushes down the encodings the same way.  ``group_aggregate``
never re-derives the grouping with ``np.unique``: a dictionary-encoded
group column already stores the ``(keys, inverse)`` pair, so count/sum/mean
run as ``bincount`` over the codes and min/max as one ``ufunc.at`` scatter
of per-code partials; every other group column hands the same reduction
the codes of a direct-address grouping of its buffer (``np.unique`` only
for floats, strings and sparse keys).  ``pivot`` reuses the same
``distinct_inverse`` surface for both axes instead of two ``np.unique``
calls, scattering values through the stored codes; over a plain join intermediate that surface is a direct-address
grouping, so the fused join → pivot never sorts.  Narrowed selections
gather the codes and compact away group keys with no surviving rows.
Over a sealed table, results are bit-identical to aggregating the decoded,
gathered column with ``np.unique`` + ``bincount``, whatever the encoding.
The one reassociation left is a written table's
:class:`~repro.colstore.delta.MergedColumn`, which merges sealed and tail
partials by key, so a float sum/mean there may move in the last ulps.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.colstore.compression import predicate_mask
from repro.colstore.table import ColumnTable
from repro.plan.expressions import Expression, is_total, split_conjuncts
from repro.plan.logical import Aggregate, Filter, Join, Pivot, PlanNode, Project, Scan
from repro.plan.optimizer import classify


# Direct addressing allocates and scans O(key span) scratch, so the span it
# may cover is a multiple of the rows being joined (plus a floor below which
# the scratch is free): sparse keys take the sort instead.
_DIRECT_ADDRESS_SLACK = 16
_DIRECT_ADDRESS_MIN_SPAN = 1 << 10

# A filter chain gathers its survivors once fewer than one row in this many
# is left; until then a full-column mask (a code comparison) is cheaper.
_GATHER_BELOW = 16


def _key_array(keys) -> np.ndarray:
    """A join side as an array: itself, or the whole of a key column."""
    return keys if isinstance(keys, np.ndarray) else keys.values()


def merge_join_positions(left_keys, right_keys) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised equi-join returning aligned ``(left, right)`` position arrays.

    Indexes the left side by key and probes it with the right — no
    Python-level loop over rows.  This is the one place a join strategy is
    chosen:

    * Integer keys whose left-side span fits the budget
      ``max(_DIRECT_ADDRESS_MIN_SPAN, _DIRECT_ADDRESS_SLACK * (left + right
      rows))`` are directly addressed.  When the left keys then turn out
      unique — observed while filling the table, never assumed — the join
      is a semi-join plus one lookup (:func:`_unique_key_positions`: the
      PK–FK shape of every GenBase plan); duplicate left keys expand hit
      ranges (:func:`_direct_address_positions`).
    * Anything else — float or string keys, ``uint64``, a span past the
      budget — sorts the left side (:func:`_sorted_match_positions`).

    The pairs follow right position order, and within one right row the
    matches follow left position order — the row store's hash join emits
    the same order.  Either side may be handed over as its key *column* (a
    :class:`~repro.colstore.column.ColumnVector`) instead of an array — an
    unfiltered input does — so that the right side's membership test can
    run on the column's compressed form.
    """
    build_keys, probe_keys = _key_array(left_keys), right_keys
    # Direct addressing does int64 arithmetic on the keys, so both sides must
    # fit int64 losslessly (uint64 would wrap and fabricate matches).
    both_integral = all(
        np.issubdtype(keys.dtype, np.integer) and np.can_cast(keys.dtype, np.int64)
        for keys in (build_keys, probe_keys)
    )
    if both_integral and build_keys.size and len(probe_keys):
        key_min = int(build_keys.min())
        span = int(build_keys.max()) - key_min + 1
        budget = max(
            _DIRECT_ADDRESS_MIN_SPAN,
            _DIRECT_ADDRESS_SLACK * (len(build_keys) + len(probe_keys)),
        )
        if span <= budget:
            lookup = np.full(span, -1, dtype=np.int64)
            lookup[build_keys.astype(np.int64) - key_min] = np.arange(len(build_keys))
            if np.count_nonzero(lookup >= 0) == len(build_keys):
                return _unique_key_positions(build_keys, probe_keys, key_min, lookup)
            return _direct_address_positions(
                build_keys, _key_array(probe_keys), key_min, span
            )
    return _sorted_match_positions(build_keys, _key_array(probe_keys))


def _unique_key_positions(
    build_keys: np.ndarray, probe_keys, key_min: int, lookup: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Unique dense build keys: every probe row matches at most one build row.

    ``lookup[key - key_min]`` is the build position of ``key`` (-1 when
    absent).  A probe *column* answers the membership test from its
    encoding (:meth:`~repro.colstore.column.ColumnVector.isin` — per run,
    per dictionary code, or one table lookup over the retained buffer) and
    only the matching rows' keys are ever fetched; a probe array is range
    checked and looked up directly.
    """
    if isinstance(probe_keys, np.ndarray):
        shifted = probe_keys.astype(np.int64, copy=False) - key_min
        # One unsigned comparison checks both ends of [0, span).
        probe_positions = np.flatnonzero(shifted.view(np.uint64) < np.uint64(len(lookup)))
        build_positions = lookup[shifted[probe_positions]]
        present = build_positions >= 0
        if not present.all():
            probe_positions = probe_positions[present]
            build_positions = build_positions[present]
        return build_positions, probe_positions
    probe_positions = np.flatnonzero(probe_keys.isin(build_keys))
    matched = probe_keys.take(probe_positions).astype(np.int64, copy=False)
    return lookup[matched - key_min], probe_positions


def _expand_hit_ranges(
    low: np.ndarray, counts: np.ndarray, order: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Expand per-probe hit ranges ``[low, low+counts)`` over ``order``."""
    total = int(counts.sum())
    probe_positions = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    # Per-output offset within its probe row's hit range.
    within = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(counts, dtype=np.int64) - counts, counts
    )
    build_positions = order[np.repeat(low, counts) + within]
    return build_positions.astype(np.int64), probe_positions


def _direct_address_positions(
    build_keys: np.ndarray, probe_keys: np.ndarray, key_min: int, span: int
) -> tuple[np.ndarray, np.ndarray]:
    """Dense integers, duplicate build keys: bucket the build side by key value."""
    shifted_build = build_keys.astype(np.int64) - key_min
    per_key_counts = np.bincount(shifted_build, minlength=span)
    per_key_starts = np.cumsum(per_key_counts) - per_key_counts
    order = np.argsort(shifted_build, kind="stable")  # build positions by key
    shifted_probe = probe_keys.astype(np.int64) - key_min
    clipped = np.clip(shifted_probe, 0, span - 1)
    in_range = (shifted_probe >= 0) & (shifted_probe < span)
    counts = np.where(in_range, per_key_counts[clipped], 0)
    return _expand_hit_ranges(per_key_starts[clipped], counts, order)


def _sorted_match_positions(
    build_keys: np.ndarray, probe_keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Generic path: sort the build side, binary-search it with the probes."""
    order = np.argsort(build_keys, kind="stable")
    sorted_build = build_keys[order]
    low = np.searchsorted(sorted_build, probe_keys, side="left")
    high = np.searchsorted(sorted_build, probe_keys, side="right")
    return _expand_hit_ranges(low, high - low, order)


def materialise_join(
    left: "ColumnQuery",
    right: "ColumnQuery",
    left_key: str,
    right_key: str,
    result_name: str = "join_result",
    compress: bool = True,
) -> ColumnTable:
    """Execute an equi-join eagerly, materialising the output columns.

    This is the execution primitive behind every join: the lazy
    :class:`JoinedQuery` terminals reach it through the plan executor
    (:func:`repro.colstore.planner.run_plan`), which prunes the gathered
    columns first; calling it directly reproduces the pre-plan eager join.
    An unfiltered input joins on its key *column* — no selection vector is
    built for it and, on the right (probe) side, the match runs on the
    compressed form (:func:`merge_join_positions`); a narrowed input joins
    on the keys gathered at its selection.  The output is the left input's
    columns, then the right's minus its key; its rows follow the right
    input's order, and within one right row the matches follow left order.
    ``compress=False`` stores the gathered arrays plain — the right choice
    for a query intermediate that is consumed once (re-encoding it would
    cost more than it saves).
    """
    left_positions, right_positions = merge_join_positions(
        left._join_keys(left_key), right._join_keys(right_key)
    )
    # One gather path for both sides: compose the join positions with the
    # selection vectors and let the (possibly compressed) column gather —
    # empty position arrays then yield empty outputs whose dtype matches
    # the populated case by construction.
    left_rows = left._base_rows(left_positions)
    right_rows = right._base_rows(right_positions)
    arrays: dict[str, np.ndarray] = {}
    for name in left.output_columns:
        arrays[name] = left.table.column(name).take(left_rows)
    for name in right.output_columns:
        if name != right_key:
            arrays[name] = right.table.column(name).take(right_rows)
    return ColumnTable.from_arrays(result_name, arrays, compress=compress)


def _columnwise(expression: Expression, column: str):
    """Compile a single-column expression to an element-wise mask function.

    The result is safe for the encodings' distinct-value pushdown: every
    expression node evaluates element-wise, so verdicts on distinct values
    expand correctly through codes/runs.
    """
    return lambda values: expression.evaluate({column: values})


def sample_size(fraction: float, rows: int) -> int:
    """Rows a ``fraction`` sample keeps out of ``rows``: at least one, unless none."""
    return max(1, int(round(fraction * rows))) if rows else 0


def smallest_scored(scores: np.ndarray, n_keep: int) -> np.ndarray:
    """Ascending indices of the ``n_keep`` smallest ``(score, index)`` pairs.

    The set a stable ``argsort(scores)[:n_keep]`` keeps, found by selection:
    one ``np.partition`` for the ``n_keep``-th score, everything strictly
    below it, then the ties *at* it in index order until the count is met.
    """
    if n_keep >= len(scores):
        return np.arange(len(scores), dtype=np.int64)
    if n_keep <= 0:
        return np.empty(0, dtype=np.int64)
    threshold = np.partition(scores, n_keep - 1)[n_keep - 1]
    keep = scores < threshold
    ties = np.flatnonzero(scores == threshold)
    keep[ties[:n_keep - np.count_nonzero(keep)]] = True
    return np.flatnonzero(keep)


class ColumnQuery:
    """A lazy query over one column table.

    Filters accumulate as declarative predicate expressions; the selection
    vector is computed (and cached) the first time a result is needed, via
    the written-order execution described in the module docstring.
    """

    def __init__(self, table: ColumnTable, selection: np.ndarray | None = None,
                 pending: Sequence[Expression] = (),
                 projection: tuple[str, ...] | None = None):
        self.table = table
        self._base = (
            None if selection is None else np.asarray(selection, dtype=np.int64)
        )
        self._pending: tuple[Expression, ...] = tuple(pending)
        self._projection = projection
        self._cached: np.ndarray | None = self._base if not self._pending else None

    # -- lazy state -----------------------------------------------------------------

    @property
    def selection(self) -> np.ndarray:
        """The materialised selection vector (runs pending filters once)."""
        if self._cached is None:
            self._cached = self._execute_filters()
        return self._cached

    @property
    def _full_selection(self) -> bool:
        return self._base is None and not self._pending

    def _derive(self, extra: Expression) -> "ColumnQuery":
        """Stack one more filter; an already-materialised selection becomes
        the new base so earlier results are never recomputed."""
        if self._cached is not None and self._pending:
            return ColumnQuery(self.table, self._cached, (extra,), self._projection)
        return ColumnQuery(
            self.table, self._base, self._pending + (extra,), self._projection
        )

    def _validate_columns(self, names) -> None:
        for name in sorted(names):
            self.table.column(name)  # raises KeyError naming column and table

    # -- filter execution ------------------------------------------------------------

    def _execute_filters(self) -> np.ndarray:
        """Run the pending conjuncts in written order.

        While the survivors are still a large share of the table, each
        conjunct runs as the encoding's full-column mask ANDed into the
        running mask: a code comparison over the whole column costs less
        than gathering most of it.  Once fewer than one row in
        ``_GATHER_BELOW`` survives, or a conjunct is partial (a division
        must not see the rows earlier conjuncts removed), the rest evaluate
        on the gathered survivors only.
        """
        selection, mask = self._base, None
        for pending in self._pending:
            for conjunct in split_conjuncts(pending):
                predicate = classify(conjunct)
                if mask is not None and (
                    not is_total(conjunct)
                    or np.count_nonzero(mask) * _GATHER_BELOW < mask.size
                ):
                    selection, mask = np.flatnonzero(mask).astype(np.int64), None
                if selection is None:
                    verdicts = self._full_mask(conjunct, predicate)
                    mask = verdicts if mask is None else mask & verdicts
                else:
                    selection = self._narrow(selection, conjunct, predicate)
        if mask is not None:
            return np.flatnonzero(mask).astype(np.int64)
        if selection is None:
            return np.arange(self.table.row_count, dtype=np.int64)
        return selection

    def _full_mask(self, expression, predicate) -> np.ndarray:
        """One classified predicate over the whole table, through the
        encoding's pushdown (``isin`` / distinct-value ``filter_mask``)."""
        if predicate.column is not None:
            vector = self.table.column(predicate.column)
            if predicate.kind == "membership":
                return vector.isin(expression.key_array())
            return vector.filter_mask(_columnwise(expression, predicate.column))
        names = sorted(expression.columns_referenced())
        return self._batch_mask(
            expression, {name: self.table.column(name).values() for name in names},
            self.table.row_count,
        )

    def _narrow(self, selection, expression, predicate) -> np.ndarray:
        """Narrow ``selection`` by one classified predicate evaluated on the
        gathered survivors only."""
        if predicate.column is not None:
            values = self.table.column(predicate.column).take(selection)
            if predicate.kind == "membership":
                return selection[np.isin(values, expression.key_array())]
            fn = _columnwise(expression, predicate.column)
            return selection[predicate_mask(values, fn)]
        names = sorted(expression.columns_referenced())
        return selection[self._batch_mask(
            expression, {name: self.table.column(name).take(selection) for name in names},
            len(selection),
        )]

    @staticmethod
    def _batch_mask(expression, batch, length) -> np.ndarray:
        """A multi-column (or column-free) predicate, evaluated vectorised."""
        mask = np.asarray(expression.evaluate(batch), dtype=bool)
        if mask.ndim == 0:
            mask = np.full(length, bool(mask))
        if mask.shape != (length,):
            raise ValueError("predicate must return one boolean per input row")
        return mask

    # -- filtering -----------------------------------------------------------------

    def where(self, expression: Expression) -> "ColumnQuery":
        """Keep rows satisfying a predicate expression (lazily)::

            query.where(col("function") < 250)
            query.where((col("gender") == 1) & (col("age") < 40))

        Conjunctions are split and run in written order; range/equality/
        ``isin`` shapes map straight onto the encodings' fast paths.
        """
        self._validate_columns(expression.columns_referenced())
        return self._derive(expression)

    def sample(self, fraction: float, seed: int = 0) -> "ColumnQuery":
        """Keep a deterministic random sample of the current selection.

        Each base-table row gets a score from ``default_rng(seed)``, indexed
        by its position; the sample keeps the ``max(1, round(fraction * n))``
        selected rows smallest by ``(score, row position)``
        (:func:`smallest_scored` — a selection, not a sort).  The kept rows
        are therefore a pure function of the *set* of selected rows —
        independent of the order the selection vector lists them in or the
        order earlier filters were applied (and re-applied by the optimizer)
        — so narrowing after ``sample`` composes deterministically for equal
        seeds, and a row's score never depends on which other rows exist:
        the property the synopsis catalog relies on to carry a sample across
        writes (:mod:`repro.colstore.synopsis`).  Sampling remains an
        optimizer barrier: filters never move across it.
        """
        if not 0 < fraction <= 1:
            raise ValueError("fraction must be in (0, 1]")
        rows = np.sort(self.selection)
        scores = np.random.default_rng(seed).random(self.table.row_count)
        kept = rows[smallest_scored(scores[rows], sample_size(fraction, len(rows)))]
        return ColumnQuery(self.table, kept, projection=self._projection)

    # -- projection --------------------------------------------------------------------

    def select(self, *names: str) -> "ColumnQuery":
        """Restrict the query's output to the named columns (lazily).

        Only the selected columns are ever decoded by a join above the
        query — the column-store form of projection pruning.
        """
        self._validate_columns(names)
        derived = ColumnQuery(self.table, self._base, self._pending, tuple(names))
        derived._cached = self._cached
        return derived

    @property
    def output_columns(self) -> list[str]:
        """The columns this query materialises (projection or all)."""
        if self._projection is not None:
            return list(self._projection)
        return self.table.column_names

    # -- inspection -----------------------------------------------------------------

    def __len__(self) -> int:
        return self.table.row_count if self._full_selection else len(self.selection)

    def _read(self, name: str) -> np.ndarray:
        """One column at the current selection, for reading only.

        An unfiltered query hands back the column's shared read-only buffer
        instead of building an ``arange`` selection just to gather through
        it; callers that let the array escape go through :meth:`column`.
        """
        vector = self.table.column(name)
        return vector.values() if self._full_selection else vector.take(self.selection)

    def column(self, name: str) -> np.ndarray:
        """Materialise one column restricted to the current selection.

        Always a fresh array the caller owns (never the column's buffer).
        """
        values = self._read(name)
        return values.copy() if self._full_selection else values

    def distinct(self, name: str) -> np.ndarray:
        """Sorted distinct values of ``name`` within the current selection.

        Pushed down the encoding: a dictionary column answers from its
        (compacted) dictionary — no decode, no ``np.unique`` sort, no
        inverse materialisation.  Returns a fresh
        array the caller may mutate.
        """
        selection = None if self._full_selection else self.selection
        keys = self.table.column(name).distinct_values(selection)
        # distinct_values may hand back encoding state (the dictionary
        # itself); at this public layer, never leak a mutable alias.
        return keys.copy()

    def columns(self, names: Sequence[str]) -> dict[str, np.ndarray]:
        """Materialise several columns restricted to the current selection."""
        return {name: self.column(name) for name in names}

    # -- joins ------------------------------------------------------------------------

    def join(self, other: "ColumnQuery", left_key: str, right_key: str) -> "JoinedQuery":
        """Equi-join with ``other`` — returns a lazy :class:`JoinedQuery`.

        Nothing executes here: the join's terminals
        (:meth:`~JoinedQuery.group_aggregate`, :meth:`~JoinedQuery.pivot`)
        assemble one logical plan ``Scan → Filter* → Join → [Aggregate |
        Pivot]`` and run it through :func:`repro.colstore.planner.run_plan`,
        so the optimizer prunes projections and pushes predicates *across*
        the join boundary.
        The output is this query's columns, then ``other``'s minus
        ``right_key``; a non-key column name both inputs produce is a
        ``ValueError`` (``select`` one side first).
        """
        return JoinedQuery(self, other, left_key, right_key)

    def _join_keys(self, name: str):
        """This input's join keys: the key column itself when unfiltered (so a
        probe can be pushed down its encoding), else the keys at the selection."""
        vector = self.table.column(name)
        return vector if self._full_selection else vector.take(self.selection)

    def _base_rows(self, positions: np.ndarray) -> np.ndarray:
        """Table rows behind ``positions`` of this query's output."""
        return positions if self._full_selection else self.selection[positions]

    def _plan_fragment(self, scan_name: str) -> tuple["PlanNode", "ColumnQuery"]:
        """This query as a logical-plan fragment plus its scan binding.

        Pending (not yet executed) filters become :class:`Filter` nodes the
        optimizer can see and move; an already-materialised selection (a
        ``sample``, filters forced by an earlier result) cannot be
        re-expressed declaratively, so it rides along as the *binding* — a
        base query the executor lowers the :class:`Scan` onto.
        """
        plan: PlanNode = Scan(scan_name)
        if self._cached is not None:
            # Filters already ran; their result is the binding's base.
            binding = ColumnQuery(self.table, self._cached)
        else:
            binding = ColumnQuery(self.table, self._base)
            for expression in self._pending:
                plan = Filter(plan, expression)
        if self._projection is not None:
            plan = Project(plan, tuple(self._projection))
        return plan, binding

    # -- aggregation -----------------------------------------------------------------

    def group_aggregate(
        self,
        group_column: str,
        value_column: str,
        function: str = "mean",
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised GROUP BY returning ``(group_keys, aggregated_values)``.

        Supported functions: mean, sum, count, min, max.  The grouping is
        pushed down the group column's encoding (codes/runs consumed
        directly — see the module docstring) rather than re-derived with
        ``np.unique`` over decoded values.
        """
        value_vector = self.table.column(value_column)  # validate even for count
        if function == "count":
            values = None  # count never reads the values: stay fully compressed
        elif self._full_selection:
            # The aggregate consumes every row: materialising the column is
            # the gather, without first building (and indexing through) an
            # arange selection vector.  ``astype`` copies, so the
            # encoding's shared (read-only) buffer stays unaliased.
            values = value_vector.values().astype(np.float64)
        else:
            values = value_vector.take(self.selection).astype(np.float64)
        selection = None if self._full_selection else self.selection
        keys, aggregates = self.table.column(group_column).group_reduce(
            values, function, selection
        )
        # The keys may alias encoding state (a dictionary column hands back
        # its dictionary); never leak a mutable alias from the query layer.
        return keys.copy(), aggregates

    # -- pivot -------------------------------------------------------------------------

    def pivot(self, row_key: str, column_key: str, value: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Pivot the selected rows into a dense matrix.

        Returns ``(matrix, row_labels, column_labels)``; labels are the
        sorted distinct key values and missing cells are 0.  Both axes reuse
        the key columns' stored dictionary codes / run structure
        (:meth:`~repro.colstore.column.ColumnVector.distinct_inverse`)
        instead of two ``np.unique`` calls.  Duplicate ``(row, column)``
        pairs resolve last-write-wins, in selection order.
        """
        values = self._read(value).astype(np.float64, copy=False)
        selection = None if self._full_selection else self.selection
        row_labels, row_positions = self.table.column(row_key).distinct_inverse(selection)
        column_labels, column_positions = self.table.column(column_key).distinct_inverse(selection)
        matrix = np.zeros((len(row_labels), len(column_labels)), dtype=np.float64)
        matrix[row_positions, column_positions] = values
        # Labels may alias encoding state (the dictionary itself); the
        # positions stay internal, but the labels leave the query layer.
        return matrix, row_labels.copy(), column_labels.copy()


class JoinedQuery:
    """A lazy equi-join of two :class:`ColumnQuery` inputs.

    Built by :meth:`ColumnQuery.join`; nothing executes until a terminal
    runs.  Each terminal assembles **one** logical plan — the inputs'
    pending filters become :class:`~repro.plan.logical.Filter` nodes below a
    :class:`~repro.plan.logical.Join`, topped by the terminal's
    :class:`~repro.plan.logical.Aggregate` / :class:`~repro.plan.logical.Pivot`
    — and hands it to :func:`repro.colstore.planner.run_plan`.  Each side
    therefore decodes only the join key plus the columns the terminal
    references.  The join output is materialised *uncompressed* (it is
    consumed once; re-encoding it is pure overhead) — the measured win over
    the eager materialise-then-plan path is the ``join_pivot`` op in
    ``benchmarks/bench_colstore_ops.py``.

    Join output rows follow the right input's order, and within one right
    row the matches follow left order (:func:`merge_join_positions`).
    Aggregates accumulate in that order, so a float sum/mean follows it to
    the last ulp; pivots resolve duplicate ``(row, column)`` pairs
    last-write-wins in output order.
    """

    def __init__(self, left: ColumnQuery, right: ColumnQuery, left_key: str,
                 right_key: str):
        left.table.column(left_key)   # raises KeyError naming column and table
        right.table.column(right_key)
        shared = (set(right.output_columns) - {right_key}) & set(left.output_columns)
        if shared:
            raise ValueError(
                f"join output column(s) {sorted(shared)} come from both inputs; "
                "select the columns of one side first"
            )
        self._left = left
        self._right = right
        self._left_key = left_key
        self._right_key = right_key

    def _join(self) -> tuple[Join, dict[str, ColumnQuery]]:
        """The ``Scan → Filter* → Join`` plan and its scan bindings."""
        left_name = self._left.table.name
        right_name = self._right.table.name
        if right_name == left_name:
            right_name = f"{right_name}__right"
        left_plan, left_binding = self._left._plan_fragment(left_name)
        right_plan, right_binding = self._right._plan_fragment(right_name)
        join = Join(left_plan, right_plan, self._left_key, self._right_key)
        return join, {left_name: left_binding, right_name: right_binding}

    def group_aggregate(
        self,
        group_column: str,
        value_column: str,
        function: str = "mean",
    ) -> tuple[np.ndarray, np.ndarray]:
        """Fused join → GROUP BY returning ``(group_keys, aggregated_values)``.

        One plan ``Join → Aggregate``: each join input decodes only its key
        plus the group/value columns it contributes, and the grouped
        reduction runs directly over the gathered arrays — the joined rows
        are never re-encoded.  Keys match ``np.unique`` of the joined group
        column exactly; see the class docstring for the float-sum ordering
        caveat.
        """
        from repro.colstore.planner import run_plan

        join, bindings = self._join()
        return run_plan(Aggregate(join, group_column, value_column, function), bindings=bindings)

    def pivot(
        self, row_key: str, column_key: str, value: str
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Fused join → pivot into a dense ``(matrix, row_labels, column_labels)``.

        One plan ``Join → Pivot``: only the two key columns and the value
        column cross the join.  Labels are the sorted distinct key values of
        the joined rows; missing cells are 0; duplicate ``(row, column)``
        pairs resolve last-write-wins in join output order.
        """
        from repro.colstore.planner import run_plan

        join, bindings = self._join()
        return run_plan(Pivot(join, row_key, column_key, value), bindings=bindings)
