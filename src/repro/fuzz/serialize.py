"""JSON round-trip for fuzzed expressions and plans.

Covers exactly the fuzz grammar (column-vs-literal comparisons, membership
lists, and/or/not, and the seven plan nodes) — not arbitrary expressions:
arithmetic is outside both the grammar and this format.  Used for the
shrunken failing-plan artifacts CI uploads and the
``python -m repro.fuzz.repro`` replays.
"""

from __future__ import annotations

from repro.plan import logical
from repro.plan.expressions import (
    BooleanOp,
    Comparison,
    Expression,
    InList,
    Literal,
    Not,
    col,
    lit,
)

#: Comparison symbols → the operator expressed through the ``col()`` DSL.
_COMPARISONS = {
    "=": lambda left, value: left == value,
    "<>": lambda left, value: left != value,
    "<": lambda left, value: left < value,
    "<=": lambda left, value: left <= value,
    ">": lambda left, value: left > value,
    ">=": lambda left, value: left >= value,
}


def expression_to_json(expression: Expression) -> dict:
    """Serialise a fuzz-grammar expression to a plain dict."""
    if isinstance(expression, InList):
        return {
            "t": "in",
            "col": expression.operand.name,
            "values": [_plain(v) for v in sorted(expression.values)],
        }
    if isinstance(expression, Comparison):
        if not isinstance(expression.right, Literal):
            raise TypeError("fuzz grammar compares columns against literals")
        return {
            "t": "cmp",
            "col": expression.left.name,
            "sym": expression.symbol,
            "value": _plain(expression.right.value),
        }
    if isinstance(expression, BooleanOp):
        return {
            "t": "and" if expression.conjunction else "or",
            "operands": [expression_to_json(op) for op in expression.operands],
        }
    if isinstance(expression, Not):
        return {"t": "not", "operand": expression_to_json(expression.operand)}
    raise TypeError(f"cannot serialise expression {type(expression).__name__}")


def expression_from_json(data: dict) -> Expression:
    """Rebuild a fuzz-grammar expression from its dict form."""
    kind = data["t"]
    if kind == "in":
        return col(data["col"]).isin(data["values"])
    if kind == "cmp":
        return _COMPARISONS[data["sym"]](col(data["col"]), lit(data["value"]))
    if kind in ("and", "or"):
        operands = [expression_from_json(op) for op in data["operands"]]
        combined = operands[0]
        for operand in operands[1:]:
            combined = combined & operand if kind == "and" else combined | operand
        return combined
    if kind == "not":
        return ~expression_from_json(data["operand"])
    raise ValueError(f"unknown expression tag {kind!r}")


def plan_to_json(plan: logical.PlanNode) -> dict:
    """Serialise a fuzz-grammar plan tree to a plain dict."""
    if isinstance(plan, logical.Scan):
        return {"t": "scan", "table": plan.table}
    if isinstance(plan, logical.Filter):
        return {
            "t": "filter",
            "child": plan_to_json(plan.child),
            "predicate": expression_to_json(plan.predicate),
        }
    if isinstance(plan, logical.Project):
        return {
            "t": "project",
            "child": plan_to_json(plan.child),
            "columns": list(plan.columns),
        }
    if isinstance(plan, logical.Sample):
        return {
            "t": "sample",
            "child": plan_to_json(plan.child),
            "fraction": plan.fraction,
            "seed": plan.seed,
        }
    if isinstance(plan, logical.Join):
        return {
            "t": "join",
            "left": plan_to_json(plan.left),
            "right": plan_to_json(plan.right),
            "left_key": plan.left_key,
            "right_key": plan.right_key,
        }
    if isinstance(plan, logical.Aggregate):
        return {
            "t": "aggregate",
            "child": plan_to_json(plan.child),
            "group_by": plan.group_by,
            "value": plan.value,
            "function": plan.function,
        }
    if isinstance(plan, logical.Pivot):
        return {
            "t": "pivot",
            "child": plan_to_json(plan.child),
            "row_key": plan.row_key,
            "column_key": plan.column_key,
            "value": plan.value,
        }
    if isinstance(plan, logical.ApproxAggregate):
        return {
            "t": "approx",
            "child": plan_to_json(plan.child),
            "value": plan.value,
            "kind": plan.kind,
            "quantile": plan.quantile,
            "confidence": plan.confidence,
            "fraction": plan.fraction,
            "seed": plan.seed,
        }
    raise TypeError(f"cannot serialise plan node {type(plan).__name__}")


def plan_from_json(data: dict) -> logical.PlanNode:
    """Rebuild a fuzz-grammar plan tree from its dict form."""
    kind = data["t"]
    if kind == "scan":
        return logical.Scan(data["table"])
    if kind == "filter":
        return logical.Filter(
            plan_from_json(data["child"]), expression_from_json(data["predicate"])
        )
    if kind == "project":
        return logical.Project(plan_from_json(data["child"]), tuple(data["columns"]))
    if kind == "sample":
        return logical.Sample(
            plan_from_json(data["child"]), data["fraction"], data["seed"]
        )
    if kind == "join":
        return logical.Join(
            plan_from_json(data["left"]), plan_from_json(data["right"]),
            data["left_key"], data["right_key"],
        )
    if kind == "aggregate":
        return logical.Aggregate(
            plan_from_json(data["child"]), data["group_by"],
            data["value"], data["function"],
        )
    if kind == "pivot":
        return logical.Pivot(
            plan_from_json(data["child"]), data["row_key"],
            data["column_key"], data["value"],
        )
    if kind == "approx":
        return logical.ApproxAggregate(
            plan_from_json(data["child"]), data["value"], data["kind"],
            data["quantile"], data["confidence"], data["fraction"], data["seed"],
        )
    raise ValueError(f"unknown plan tag {kind!r}")


def _plain(value):
    """Coerce numpy scalars to JSON-serialisable Python numbers."""
    if hasattr(value, "item"):
        return value.item()
    return value
