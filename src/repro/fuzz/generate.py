"""The fuzz grammar: random-but-valid expressions and plans.

One grammar, two drivers.  Every decision the generator makes goes through
a tiny :class:`Chooser` interface, so the same code yields

- seed-reproducible cases for the CLI (``RandomChooser`` wraps
  ``random.Random(seed)`` — ``python -m repro.fuzz.repro <seed>`` replays
  any case bit for bit), and
- shrinkable cases for the property tests (``tests/fuzz_strategies.py``
  wraps hypothesis ``draw`` calls, so failures minimise structurally).

The grammar is the *portable* subset of the plan algebra — shapes every
engine family executes (see ``docs/FUZZING.md`` for the admission table):

- **meta**: ``[Project] Filter* (Scan(meta-table))`` — the shape of the
  engines' three lookup steps (:mod:`repro.core.queries`).  Every column
  is compared row for row, in key order, on the five single-node
  executors; the cluster's fragments are row positions, so it is
  compared as a sorted id set.
- **aggregate** / **pivot**: the GenBase join spine
  ``terminal(Project(Filter(Join(meta, microarray)), EXPRESSION_TRIPLE))``
  with metadata predicates (and, optionally, an ``expression_value`` cell
  predicate, which excludes the array DBMS — its empty-group labelling
  legitimately differs).
- **sample**: ``Sample(Filter*(Scan(meta-table)))`` — column store versus
  reference only; no other engine lowers ``Sample``.
- **approx**: ``approx_mean`` over ``Filter*(Scan(meta-table))`` with a
  drawn ``fraction`` and ``seed`` — column store versus the reference's
  mean over the same seeded ``Sample``, under the ``ULP`` tolerance in
  :mod:`repro.fuzz.tolerances`.  ``approx_mean`` builds that ``Sample``,
  and an unfiltered case's ``Sample(Scan)`` is served from the synopsis
  catalog.

Division stays out: it is partial (the row store raises on a zero
divisor mid-scan).

**Mutation preludes.**  Any ``meta``, ``aggregate`` or ``pivot`` case may
additionally carry a short sequence of :class:`MutationOp` writes —
appends, deletes, a compaction — applied to the case's meta table through
the column store's delta tier *before* the plan runs.  Mutated cases
compare the column store (optimized and unoptimized) against the
reference interpreter only: the other engine families load the pristine
dataset once and have no write path.  ``sample`` and ``approx``
(:data:`UNMUTATED_SHAPES`) are excluded because the drawn row set is a
function of physical row positions, which compaction legitimately
renumbers.  Ops are lowered to concrete arrays by :func:`lower_mutations`,
deterministically from each op's seed, so both sides replay the identical
write history.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from repro.core.queries import EXPRESSION_TRIPLE
from repro.fuzz.serialize import plan_from_json, plan_to_json
from repro.plan import (
    Aggregate,
    Expression,
    Filter,
    Join,
    Pivot,
    PlanNode,
    Project,
    Sample,
    Scan,
    approx_mean,
    col,
)

#: Meta table → its id (join/compare key) column.
META_KEYS = {"patients": "patient_id", "genes": "gene_id"}

#: Shapes that never carry a mutation prelude: the row set they draw is a
#: function of physical row positions, which compaction renumbers.
UNMUTATED_SHAPES = ("sample", "approx")

#: Aggregate functions in the portable grammar.
AGGREGATE_FUNCTIONS = ("count", "sum", "mean", "min", "max")

#: Comparison symbols the grammar draws from.
_SYMBOLS = ("=", "<>", "<", "<=", ">", ">=")

#: How many distinct observed values to keep per column as literal pool.
_VALUE_POOL = 24


class Chooser:
    """The decision interface the grammar is written against."""

    def choice(self, options):  # pragma: no cover - interface
        raise NotImplementedError

    def randint(self, low: int, high: int) -> int:  # pragma: no cover
        raise NotImplementedError

    def chance(self, probability: float) -> bool:  # pragma: no cover
        raise NotImplementedError


class RandomChooser(Chooser):
    """Seed-reproducible decisions from ``random.Random``."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def choice(self, options):
        return self.rng.choice(list(options))

    def randint(self, low: int, high: int) -> int:
        return self.rng.randint(low, high)

    def chance(self, probability: float) -> bool:
        return self.rng.random() < probability


@dataclass
class ColumnPool:
    """Observed values of one column, the grammar's literal source."""

    name: str
    values: list  # up to _VALUE_POOL distinct observed values, sorted
    is_float: bool


@dataclass
class FuzzSchema:
    """Per-table literal pools derived from the actual dataset.

    Drawing literals from *observed* values keeps single predicates
    satisfiable (selectivity neither pinned at 0 nor 1), which is what
    makes the calibration records informative.
    """

    tables: dict[str, dict[str, np.ndarray]]
    pools: dict[str, list[ColumnPool]]

    @classmethod
    def from_tables(cls, tables: dict[str, dict[str, np.ndarray]]) -> "FuzzSchema":
        pools: dict[str, list[ColumnPool]] = {}
        for table, key in META_KEYS.items():
            pools[table] = []
            for name, values in tables[table].items():
                if name == key:
                    continue
                distinct = np.unique(values)
                step = max(1, len(distinct) // _VALUE_POOL)
                sample = [v.item() for v in distinct[::step][:_VALUE_POOL]]
                pools[table].append(ColumnPool(
                    name, sample, is_float=distinct.dtype.kind == "f"
                ))
        value = np.unique(tables["microarray"]["expression_value"])
        step = max(1, len(value) // _VALUE_POOL)
        pools["microarray"] = [ColumnPool(
            "expression_value", [v.item() for v in value[::step][:_VALUE_POOL]],
            is_float=True,
        )]
        return cls(tables, pools)


@dataclass
class MutationOp:
    """One write applied through the delta tier before the plan runs.

    The op is symbolic: ``seed`` fully determines the concrete appended
    rows / deleted ids once :func:`lower_mutations` resolves it against
    the dataset, so an op serialises as four scalars and replays bit for
    bit on both the column store and the reference interpreter.
    """

    kind: str    # append | delete | compact
    table: str   # the meta table mutated (the case's filter table)
    seed: int    # drives the lowered rows/ids
    count: int   # rows appended / ids deleted (ignored by compact)

    def to_json(self) -> dict:
        return {"kind": self.kind, "table": self.table,
                "seed": self.seed, "count": self.count}

    @classmethod
    def from_json(cls, data: dict) -> "MutationOp":
        return cls(kind=data["kind"], table=data["table"],
                   seed=data["seed"], count=data["count"])


@dataclass
class FuzzCase:
    """One generated differential test case."""

    shape: str                 # meta | aggregate | pivot | sample | approx
    plan: PlanNode
    table: str                 # the meta table the case filters
    key: str                   # the id column compared for meta/sample shapes
    has_value_predicate: bool  # excludes the array DBMS when True
    seed: int | None = None    # set by the seed-driven CLI path
    mutations: tuple[MutationOp, ...] = field(default=())  # write prelude

    def to_json(self) -> dict:
        return {
            "shape": self.shape,
            "plan": plan_to_json(self.plan),
            "table": self.table,
            "key": self.key,
            "has_value_predicate": self.has_value_predicate,
            "seed": self.seed,
            "mutations": [op.to_json() for op in self.mutations],
        }

    @classmethod
    def from_json(cls, data: dict) -> "FuzzCase":
        return cls(
            shape=data["shape"],
            plan=plan_from_json(data["plan"]),
            table=data["table"],
            key=data["key"],
            has_value_predicate=data["has_value_predicate"],
            seed=data.get("seed"),
            # Absent in artifacts predating the mutation prelude.
            mutations=tuple(MutationOp.from_json(op)
                            for op in data.get("mutations", [])),
        )


def _leaf(chooser: Chooser, pool: ColumnPool) -> Expression:
    """One column-vs-literal predicate drawn from the observed values."""
    column = col(pool.name)
    if not pool.is_float and chooser.chance(0.3):
        count = chooser.randint(1, min(4, len(pool.values)))
        values = sorted({chooser.choice(pool.values) for _ in range(count)})
        return column.isin(values)
    symbol = chooser.choice(_SYMBOLS if not pool.is_float else ("<", "<=", ">", ">="))
    value = chooser.choice(pool.values)
    if symbol == "=":
        return column == value
    if symbol == "<>":
        return column != value
    if symbol == "<":
        return column < value
    if symbol == "<=":
        return column <= value
    if symbol == ">":
        return column > value
    return column >= value


def _predicate(chooser: Chooser, pools: list[ColumnPool]) -> Expression:
    """A depth-≤2 predicate: leaf, negation, or a binary and/or."""
    first = _leaf(chooser, chooser.choice(pools))
    form = chooser.choice(("leaf", "leaf", "not", "and", "or"))
    if form == "leaf":
        return first
    if form == "not":
        return ~first
    second = _leaf(chooser, chooser.choice(pools))
    return (first & second) if form == "and" else (first | second)


def _meta_filters(chooser: Chooser, schema: FuzzSchema, table: str,
                  node: PlanNode, max_filters: int) -> PlanNode:
    for _ in range(chooser.randint(0, max_filters)):
        node = Filter(node, _predicate(chooser, schema.pools[table]))
    return node


def generate_case(chooser: Chooser, schema: FuzzSchema) -> FuzzCase:
    """Draw one case from the grammar (plan first, then a write prelude).

    Mutation decisions are drawn strictly *after* the plan, so seeds that
    predate the mutation prelude still generate the exact same plan — the
    prelude only appends to the decision stream.
    """
    case = _generate_plan(chooser, schema)
    if case.shape not in UNMUTATED_SHAPES and chooser.chance(0.35):
        case.mutations = tuple(
            MutationOp(
                kind=chooser.choice(("append", "append", "delete", "compact")),
                table=case.table,
                seed=chooser.randint(0, 2**20),
                count=chooser.randint(1, 6),
            )
            for _ in range(chooser.randint(1, 3))
        )
    return case


def _generate_plan(chooser: Chooser, schema: FuzzSchema) -> FuzzCase:
    """Draw one plan-only case from the grammar."""
    shape = chooser.choice(
        ("meta", "meta", "aggregate", "aggregate", "pivot", "sample", "approx")
    )
    table = chooser.choice(sorted(META_KEYS))
    key = META_KEYS[table]
    if shape == "approx":
        node = _meta_filters(chooser, schema, table, Scan(table), max_filters=2)
        value = chooser.choice((key, chooser.choice(schema.pools[table]).name))
        plan = approx_mean(node, value, fraction=chooser.randint(1, 18) / 20.0,
                           seed=chooser.randint(0, 7))
        return FuzzCase(shape, plan, table, key, has_value_predicate=False)
    if shape == "meta":
        node = _meta_filters(chooser, schema, table, Scan(table), max_filters=2)
        if chooser.chance(0.3):
            other = chooser.choice(schema.pools[table]).name
            node = Project(node, (key, other))
        return FuzzCase(shape, node, table, key, has_value_predicate=False)
    if shape == "sample":
        node = _meta_filters(chooser, schema, table, Scan(table), max_filters=1)
        fraction = chooser.randint(1, 18) / 20.0
        node = Sample(node, fraction, seed=chooser.randint(0, 7))
        return FuzzCase(shape, node, table, key, has_value_predicate=False)
    # aggregate / pivot: the GenBase join spine.
    joined: PlanNode = Join(Scan(table), Scan("microarray"), key, key)
    for _ in range(chooser.randint(0, 2)):
        joined = Filter(joined, _predicate(chooser, schema.pools[table]))
    has_value_predicate = chooser.chance(0.25)
    if has_value_predicate:
        joined = Filter(joined, _leaf(chooser, schema.pools["microarray"][0]))
    child = Project(joined, EXPRESSION_TRIPLE)
    if shape == "aggregate":
        group_by = chooser.choice(("patient_id", "gene_id"))
        function = chooser.choice(AGGREGATE_FUNCTIONS)
        plan: PlanNode = Aggregate(child, group_by, "expression_value", function)
    else:
        plan = Pivot(child, "patient_id", "gene_id", "expression_value")
    return FuzzCase(shape, plan, table, key, has_value_predicate)


def case_from_seed(seed: int, schema: FuzzSchema) -> FuzzCase:
    """The CLI path: one case, fully determined by one integer seed."""
    case = generate_case(RandomChooser(seed), schema)
    case.seed = seed
    return case


def lower_mutations(
    mutations: tuple[MutationOp, ...],
    tables: dict[str, dict[str, np.ndarray]],
    schema: FuzzSchema,
) -> list[tuple[str, str, np.ndarray | dict[str, np.ndarray] | None]]:
    """Resolve symbolic mutation ops to concrete delta-API steps.

    Returns ``(kind, table, payload)`` triples: an append's payload is the
    column → array mapping handed to ``ColumnStore.append``, a delete's is
    the int64 logical row ids, a compact's is ``None``.  Lowering tracks
    the evolving logical row space exactly as the delta tier does —
    appends extend it, deletes leave it (logical ids are stable until
    compaction), compaction renumbers survivors densely — so deletes only
    ever target currently-live ids and always leave at least one live row
    (an empty meta table would make approx shapes degenerate rather than
    interesting).

    Appended rows get fresh key values past the dataset's maximum (new
    entities, joining to no microarray cell) and attribute values drawn
    from the schema's observed-value pools, keeping the case's predicates
    satisfiable over the new rows.
    """
    steps: list[tuple[str, str, np.ndarray | dict[str, np.ndarray] | None]] = []
    live = {name: np.arange(len(next(iter(columns.values()))), dtype=np.int64)
            for name, columns in tables.items()}
    logical_total = {name: len(positions) for name, positions in live.items()}
    next_key = {name: int(np.max(tables[name][key])) + 1
                for name, key in META_KEYS.items()}
    for op in mutations:
        rng = np.random.default_rng(op.seed)
        if op.kind == "append":
            key = META_KEYS[op.table]
            start = next_key[op.table]
            rows: dict[str, np.ndarray] = {
                key: np.arange(start, start + op.count)
                .astype(tables[op.table][key].dtype)
            }
            for pool in schema.pools[op.table]:
                drawn = rng.choice(np.asarray(pool.values), size=op.count)
                rows[pool.name] = drawn.astype(tables[op.table][pool.name].dtype)
            next_key[op.table] = start + op.count
            first = logical_total[op.table]
            live[op.table] = np.concatenate([
                live[op.table],
                np.arange(first, first + op.count, dtype=np.int64),
            ])
            logical_total[op.table] = first + op.count
            steps.append(("append", op.table, rows))
        elif op.kind == "delete":
            alive = live[op.table]
            count = min(op.count, len(alive) - 1)
            if count <= 0:
                continue
            ids = np.sort(rng.choice(alive, size=count, replace=False))
            live[op.table] = np.setdiff1d(alive, ids)
            steps.append(("delete", op.table, ids))
        elif op.kind == "compact":
            live[op.table] = np.arange(len(live[op.table]), dtype=np.int64)
            logical_total[op.table] = len(live[op.table])
            steps.append(("compact", op.table, None))
        else:
            raise ValueError(f"unknown mutation kind {op.kind!r}")
    return steps
