"""The shared expression AST: one declarative predicate language for every engine.

Expressions are small immutable trees — column references, literals,
comparisons, boolean connectives, arithmetic, and membership tests — built
through the tiny DSL used throughout the engine adapters::

    from repro.plan import col, lit, and_

    predicate = and_(col("function") < lit(250), col("length") >= lit(100))

One tree serves every execution style the benchmark compares:

* the **row store** compiles an expression to a per-row-tuple callable with
  :meth:`Expression.bind` (the Volcano operators' contract; ``schema`` is
  duck-typed — anything with ``index_of(name)`` works),
* the **column store** evaluates the same tree vectorised over numpy column
  batches with :meth:`Expression.evaluate`, and — because the tree is
  inspectable, unlike a Python callable — the planner can split
  conjunctions (:func:`split_conjuncts`), push predicates below joins
  (:mod:`repro.plan.optimizer`) and map single-column predicates onto the
  compression encodings' fast paths.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np


class StaticTypeError(TypeError):
    """Static dtype inference proved an expression or plan invalid.

    ``rule`` names the rejection class (``unknown-column``,
    ``comparison-type-mismatch``, …) so tests and the verifier's
    diagnostics can identify *which* invariant failed without parsing the
    message.  :mod:`repro.plan.verify` wraps these with the plan-node path
    of the offending subtree.
    """

    def __init__(self, message: str, rule: str = "general"):
        super().__init__(message)
        self.rule = rule


#: numpy dtype kinds that take part in arithmetic and ordered comparison.
_NUMERIC_KINDS = frozenset("biuf")

#: numpy dtype kinds holding text.
_STRING_KINDS = frozenset("US")


def _kind_family(dtype: np.dtype) -> str:
    """Coarse dtype family: values of different families never compare."""
    if dtype.kind in _NUMERIC_KINDS:
        return "numeric"
    if dtype.kind in _STRING_KINDS:
        return "string"
    return f"kind {dtype.kind!r}"


def literal_dtype(value) -> np.dtype:
    """The numpy dtype a literal evaluates to (bools before ints).

    >>> literal_dtype(250)
    dtype('int64')
    >>> literal_dtype(0.5).kind
    'f'
    >>> literal_dtype("BRCA1").kind
    'U'
    """
    if isinstance(value, np.ndarray):
        return value.dtype
    return np.asarray(value).dtype


def _require_comparable(left: np.dtype | None, right: np.dtype | None,
                        symbol: str, context: "Expression") -> None:
    """Reject cross-family comparisons (``str < int`` can never be meant).

    ``context`` is rendered only on failure: an ``isin`` over hundreds of
    keys is verified on every query and must not pay for its own repr.
    """
    if left is None or right is None:
        return
    if _kind_family(left) != _kind_family(right):
        raise StaticTypeError(
            f"cannot compare {left} with {right} in {context!r} "
            f"(operator {symbol!r} needs both sides in one type family)",
            rule="comparison-type-mismatch",
        )


class Expression:
    """Base class for all expressions."""

    def bind(self, schema) -> "BoundExpression":
        """Compile to a row-tuple callable, resolving names via ``schema.index_of``."""
        raise NotImplementedError

    def evaluate(self, batch: Mapping[str, np.ndarray]):
        """Evaluate vectorised over a mapping of column name → numpy array."""
        raise NotImplementedError

    def columns_referenced(self) -> set[str]:
        """Return the set of column names this expression reads."""
        raise NotImplementedError

    def infer_dtype(self, column_dtypes: Mapping[str, np.dtype | None]) -> np.dtype | None:
        """Statically infer the dtype this expression evaluates to.

        ``column_dtypes`` maps every in-scope column name to its dtype
        (``None`` marks a column whose dtype the engine cannot report —
        checks involving it are skipped, never failed).  Returns the
        result dtype, or ``None`` when it depends on an unknown input.

        Raises:
            StaticTypeError: when no assignment of values could make the
                expression evaluate cleanly — an unknown column, a
                cross-family comparison (``str < int``), arithmetic on
                text, or a boolean connective over a non-boolean operand.
        """
        raise NotImplementedError

    # Operator overloads build comparison / arithmetic / boolean trees.

    def __eq__(self, other):  # type: ignore[override]
        return Comparison(self, _to_expression(other), operator.eq, "=")

    def __ne__(self, other):  # type: ignore[override]
        return Comparison(self, _to_expression(other), operator.ne, "<>")

    def __lt__(self, other):
        return Comparison(self, _to_expression(other), operator.lt, "<")

    def __le__(self, other):
        return Comparison(self, _to_expression(other), operator.le, "<=")

    def __gt__(self, other):
        return Comparison(self, _to_expression(other), operator.gt, ">")

    def __ge__(self, other):
        return Comparison(self, _to_expression(other), operator.ge, ">=")

    def __add__(self, other):
        return Arithmetic(self, _to_expression(other), operator.add, "+")

    def __truediv__(self, other):
        return Arithmetic(self, _to_expression(other), operator.truediv, "/")

    def __and__(self, other):
        return BooleanOp((self, _to_expression(other)), conjunction=True)

    def __or__(self, other):
        return BooleanOp((self, _to_expression(other)), conjunction=False)

    def __invert__(self):
        return Not(self)

    def __hash__(self):
        return id(self)

    def isin(self, values: Sequence) -> "InList":
        """Build an ``IN (...)`` membership predicate.

        ``values`` may be any iterable; a numpy array is kept as an array
        (no Python-list round trip) so large key sets stay cheap for the
        column store's membership pushdown.
        """
        return InList(self, values)


@dataclass(frozen=True, eq=False)
class BoundExpression:
    """A compiled expression: a plain callable over a row tuple."""

    function: Callable[[tuple], object]
    description: str

    def __call__(self, row: tuple):
        return self.function(row)


class ColumnRef(Expression):
    """Reference to a named column."""

    def __init__(self, name: str):
        self.name = name

    def bind(self, schema) -> BoundExpression:
        index = schema.index_of(self.name)
        return BoundExpression(lambda row, _i=index: row[_i], self.name)

    def evaluate(self, batch: Mapping[str, np.ndarray]):
        return batch[self.name]

    def columns_referenced(self) -> set[str]:
        return {self.name}

    def infer_dtype(self, column_dtypes: Mapping[str, np.dtype | None]) -> np.dtype | None:
        if self.name not in column_dtypes:
            raise StaticTypeError(
                f"unknown column {self.name!r} "
                f"(in scope: {sorted(column_dtypes)})",
                rule="unknown-column",
            )
        return column_dtypes[self.name]

    def __repr__(self) -> str:
        return f"col({self.name!r})"


class Literal(Expression):
    """A constant value."""

    def __init__(self, value):
        self.value = value

    def bind(self, schema) -> BoundExpression:
        value = self.value
        return BoundExpression(lambda row, _v=value: _v, repr(value))

    def evaluate(self, batch: Mapping[str, np.ndarray]):
        return self.value

    def columns_referenced(self) -> set[str]:
        return set()

    def infer_dtype(self, column_dtypes: Mapping[str, np.dtype | None]) -> np.dtype | None:
        return literal_dtype(self.value)

    def __repr__(self) -> str:
        return f"lit({self.value!r})"


class Comparison(Expression):
    """Binary comparison between two sub-expressions."""

    def __init__(self, left: Expression, right: Expression, op, symbol: str):
        self.left = left
        self.right = right
        self.op = op
        self.symbol = symbol

    def bind(self, schema) -> BoundExpression:
        left = self.left.bind(schema)
        right = self.right.bind(schema)
        op = self.op
        return BoundExpression(
            lambda row: op(left(row), right(row)),
            f"({left.description} {self.symbol} {right.description})",
        )

    def evaluate(self, batch: Mapping[str, np.ndarray]):
        return self.op(self.left.evaluate(batch), self.right.evaluate(batch))

    def columns_referenced(self) -> set[str]:
        return self.left.columns_referenced() | self.right.columns_referenced()

    def infer_dtype(self, column_dtypes: Mapping[str, np.dtype | None]) -> np.dtype | None:
        left = self.left.infer_dtype(column_dtypes)
        right = self.right.infer_dtype(column_dtypes)
        _require_comparable(left, right, self.symbol, self)
        return np.dtype(bool)

    def __repr__(self) -> str:
        return f"({self.left!r} {self.symbol} {self.right!r})"


class Arithmetic(Comparison):
    """Binary arithmetic; shares the comparison plumbing."""

    def infer_dtype(self, column_dtypes: Mapping[str, np.dtype | None]) -> np.dtype | None:
        left = self.left.infer_dtype(column_dtypes)
        right = self.right.infer_dtype(column_dtypes)
        for side in (left, right):
            if side is not None and side.kind not in _NUMERIC_KINDS:
                raise StaticTypeError(
                    f"arithmetic {self.symbol!r} on non-numeric dtype {side} "
                    f"in {self!r} (operands: {left}, {right})",
                    rule="non-numeric-arithmetic",
                )
        if left is None or right is None:
            return None
        result = np.result_type(left, right)
        if self.symbol == "/" and result.kind in "biu":
            # numpy true division of integers yields float64.
            return np.dtype(np.float64)
        return result


class BooleanOp(Expression):
    """N-ary AND / OR."""

    def __init__(self, operands: Sequence[Expression], conjunction: bool):
        if not operands:
            raise ValueError("boolean operator needs at least one operand")
        self.operands = tuple(operands)
        self.conjunction = conjunction

    def bind(self, schema) -> BoundExpression:
        bound = [operand.bind(schema) for operand in self.operands]
        if self.conjunction:
            return BoundExpression(
                lambda row: all(b(row) for b in bound),
                " AND ".join(b.description for b in bound),
            )
        return BoundExpression(
            lambda row: any(b(row) for b in bound),
            " OR ".join(b.description for b in bound),
        )

    def evaluate(self, batch: Mapping[str, np.ndarray]):
        combine = np.logical_and if self.conjunction else np.logical_or
        result = np.asarray(self.operands[0].evaluate(batch), dtype=bool)
        for operand in self.operands[1:]:
            result = combine(result, np.asarray(operand.evaluate(batch), dtype=bool))
        return result

    def columns_referenced(self) -> set[str]:
        result: set[str] = set()
        for operand in self.operands:
            result |= operand.columns_referenced()
        return result

    def infer_dtype(self, column_dtypes: Mapping[str, np.dtype | None]) -> np.dtype | None:
        for operand in self.operands:
            dtype = operand.infer_dtype(column_dtypes)
            if dtype is not None and dtype.kind != "b":
                joiner = "AND" if self.conjunction else "OR"
                raise StaticTypeError(
                    f"non-boolean operand to {joiner}: {operand!r} has dtype "
                    f"{dtype} (expected bool)",
                    rule="non-boolean-connective",
                )
        return np.dtype(bool)

    def __repr__(self) -> str:
        joiner = " AND " if self.conjunction else " OR "
        return "(" + joiner.join(repr(op) for op in self.operands) + ")"


class Not(Expression):
    """Logical negation."""

    def __init__(self, operand: Expression):
        self.operand = operand

    def bind(self, schema) -> BoundExpression:
        bound = self.operand.bind(schema)
        return BoundExpression(lambda row: not bound(row), f"NOT {bound.description}")

    def evaluate(self, batch: Mapping[str, np.ndarray]):
        return np.logical_not(np.asarray(self.operand.evaluate(batch), dtype=bool))

    def columns_referenced(self) -> set[str]:
        return self.operand.columns_referenced()

    def infer_dtype(self, column_dtypes: Mapping[str, np.dtype | None]) -> np.dtype | None:
        dtype = self.operand.infer_dtype(column_dtypes)
        if dtype is not None and dtype.kind != "b":
            raise StaticTypeError(
                f"non-boolean operand to NOT: {self.operand!r} has dtype "
                f"{dtype} (expected bool)",
                rule="non-boolean-connective",
            )
        return np.dtype(bool)

    def __repr__(self) -> str:
        return f"not_({self.operand!r})"


class InList(Expression):
    """Membership test against a literal set of values.

    Plain iterables are frozen into a set (the row store probes it per
    tuple); numpy arrays are kept as arrays so the column store's
    ``isin`` pushdown never round-trips large key sets through Python.
    """

    def __init__(self, operand: Expression, values):
        self.operand = operand
        if isinstance(values, np.ndarray):
            self.values = values.copy()
        else:
            self.values = frozenset(values)
        self._keys: np.ndarray | None = None

    def key_array(self) -> np.ndarray:
        """The membership keys as a sorted, deduplicated numpy array (cached)."""
        if self._keys is None:
            if isinstance(self.values, np.ndarray):
                self._keys = np.unique(self.values)
            else:
                self._keys = np.unique(np.asarray(sorted(self.values)))
        return self._keys

    def _sorted_values(self) -> list:
        if isinstance(self.values, np.ndarray):
            return np.unique(self.values).tolist()
        return sorted(self.values)

    def bind(self, schema) -> BoundExpression:
        bound = self.operand.bind(schema)
        if isinstance(self.values, np.ndarray):
            values = frozenset(self.values.tolist())
        else:
            values = self.values
        return BoundExpression(
            lambda row: bound(row) in values,
            f"{bound.description} IN {self._sorted_values()!r}",
        )

    def evaluate(self, batch: Mapping[str, np.ndarray]):
        """``np.isin`` of the operand, answered by binary search in :meth:`key_array`.

        >>> col("a").isin([2, 5]).evaluate({"a": np.array([5, 1, 2, 7])})
        array([ True, False,  True, False])
        """
        values = np.asarray(self.operand.evaluate(batch))
        keys = self.key_array()
        if not len(keys):
            return np.zeros(values.shape, dtype=bool)
        # A value past the last key probes the last key, which it cannot equal.
        positions = np.minimum(np.searchsorted(keys, values), len(keys) - 1)
        return keys[positions] == values

    def columns_referenced(self) -> set[str]:
        return self.operand.columns_referenced()

    def infer_dtype(self, column_dtypes: Mapping[str, np.dtype | None]) -> np.dtype | None:
        operand = self.operand.infer_dtype(column_dtypes)
        keys = self.key_array()
        # An empty key set carries no dtype information (np.unique([]) is
        # float64 by construction) — nothing to check against.
        if len(keys) and operand is not None:
            _require_comparable(operand, keys.dtype, "IN", self)
        return np.dtype(bool)

    def __repr__(self) -> str:
        return f"{self.operand!r}.isin({self._sorted_values()!r})"


def _to_expression(value) -> Expression:
    """Wrap plain Python values as literals."""
    if isinstance(value, Expression):
        return value
    return Literal(value)


def is_total(expression: Expression) -> bool:
    """True when the predicate is defined for *every* input row.

    Division can raise (row store) or emit inf/nan (column store) on rows a
    join or an earlier filter would have eliminated — such predicates must
    not be evaluated on rows they were not written to see, so the
    optimizers refuse to move them below a join.  Everything else in the
    AST (comparisons, boolean connectives, +, membership) is a total
    element-wise operation.

    >>> is_total(col("a") > 1)
    True
    >>> is_total(col("a") / col("b") > 1)
    False
    """
    if isinstance(expression, Arithmetic) and expression.symbol == "/":
        return False
    if isinstance(expression, Comparison):  # includes non-division Arithmetic
        return is_total(expression.left) and is_total(expression.right)
    if isinstance(expression, BooleanOp):
        return all(is_total(operand) for operand in expression.operands)
    if isinstance(expression, Not):
        return is_total(expression.operand)
    if isinstance(expression, InList):
        return is_total(expression.operand)
    return True  # ColumnRef, Literal


def split_conjuncts(expression: Expression) -> list[Expression]:
    """Flatten nested conjunctions into a list of conjunct predicates.

    ``(a & b) & c`` → ``[a, b, c]``.  Anything that is not a top-level AND
    (disjunctions included) comes back as a single-element list.

    >>> a, b, c = col("a") < 1, col("b") < 2, col("c") < 3
    >>> split_conjuncts((a & b) & c) == [a, b, c]
    True
    >>> len(split_conjuncts(a | b))  # disjunctions stay whole
    1
    """
    if isinstance(expression, BooleanOp) and expression.conjunction:
        result: list[Expression] = []
        for operand in expression.operands:
            result.extend(split_conjuncts(operand))
        return result
    return [expression]


# --------------------------------------------------------------------------- #
# DSL entry points
# --------------------------------------------------------------------------- #

def col(name: str) -> ColumnRef:
    """Reference a column by name.

    >>> repr(col("age") < 40)
    "(col('age') < lit(40))"
    """
    return ColumnRef(name)


def lit(value) -> Literal:
    """Wrap a constant value.

    >>> repr(lit(250))
    'lit(250)'
    """
    return Literal(value)


def and_(*operands: Expression) -> Expression:
    """Conjunction of one or more predicates."""
    if len(operands) == 1:
        return operands[0]
    return BooleanOp(operands, conjunction=True)

