#!/usr/bin/env python
"""Repo-specific invariant linter: rules generic linters cannot express.

Every rule encodes a correctness invariant the codebase has adopted and
documented (``docs/STATIC_ANALYSIS.md``); each fires with a file:line and
the rule's name so CI summaries can count hits per rule.

========================  =====================================================
rule                      invariant
========================  =====================================================
raw-lambda-predicate      Predicates are declarative expressions
                          (``repro.plan.col``), never raw lambdas handed to
                          ``where``/``subset``/``select`` — lambdas are opaque
                          to the optimizer and to every engine's fast path.
decode-in-fast-path       The column store's encoding fast paths must not
                          silently fall back to full decompression: any
                          ``.decode()`` / ``.to_dense()`` call in a fast-path
                          module needs an explicit ``# decode-ok: <reason>``
                          pragma on the same line.
unseeded-rng              All randomness is reproducible: no legacy global
                          ``np.random.*`` calls, and ``default_rng()`` — or a
                          bit generator such as ``PCG64()``, which
                          ``Generator(PCG64(seed).advance(n))`` jumps to draw
                          ``n`` of a seeded stream — must be given a seed.
fragment-state-mutation   Per-node worker closures (``on_fragment``
                          consumers, ``work`` closures run by
                          ``run_on_nodes``) are pure: no ``nonlocal`` /
                          ``global`` rebinding, no ``self.attr`` mutation — a
                          fragment sees only its own node's partition and
                          hands its result back to the driver.
bare-except               No bare ``except:`` — it swallows KeyboardInterrupt
                          and SystemExit.
plan-dataclass-eq         ``Expression.__eq__`` is overloaded to *build* a
                          comparison AST node, so a dataclass with an
                          ``Expression``-typed field must declare ``eq=False``
                          or its generated ``__eq__`` silently returns a
                          truthy AST node for any operand.
single-lanczos-site       Lanczos SVD is written once: ``lanczos_eigsh`` is
                          called from ``truncated_svd`` in
                          ``repro/linalg/lanczos.py`` and nowhere else under
                          ``src/`` (the way ``.decode()`` has one call site).
no-caller                 A public module-level function, class or method
                          under ``src/repro`` is referenced somewhere in
                          ``src``, ``examples``, ``benchmarks``, ``tools`` or
                          ``genbase_bench`` outside its own definition (tests
                          and re-exports in ``__all__`` / ``_LAZY_EXPORTS``
                          do not count; a binding in
                          ``genbase_bench/spans.py`` does).
========================  =====================================================

The last two read the whole tree, not one file, and run when no path is
given.

Usage::

    python tools/lint_invariants.py [paths ...]      # default: src benchmarks tools
    python tools/lint_invariants.py --self-test      # prove every rule fires
    python tools/lint_invariants.py --summary out.md # append a rule-hit table

Exit status 0 when clean, 1 on violations (or a failed self-test).
"""

from __future__ import annotations

import argparse
import ast
import sys
from dataclasses import dataclass
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Default lint targets, relative to the repo root.
DEFAULT_PATHS = ("src", "benchmarks", "tools")

#: Directories whose contents are deliberate rule triggers, never linted
#: by default (the self-test runs the rules on them directly).
FIXTURE_DIR = REPO_ROOT / "tests" / "data" / "lint_fixtures"

#: The miniature repository under :data:`FIXTURE_DIR` the whole-tree rules
#: are self-tested on.
REPO_FIXTURE = "repo_tree"

#: Methods that accept predicates: a raw lambda handed to any of these is
#: invisible to the optimizer (rule ``raw-lambda-predicate``).
PREDICATE_METHODS = frozenset({"where", "subset", "select"})

#: Module suffixes forming the column store's encoding fast path — the
#: modules where a stray ``decode()`` defeats the architecture's point.
FAST_PATH_SUFFIXES = (
    "colstore/compression.py",
    "colstore/column.py",
    "colstore/delta.py",
    "colstore/query.py",
    "colstore/planner.py",
)

#: The pragma blessing a deliberate decompression fallback.
DECODE_PRAGMA = "# decode-ok:"

#: Parameter/keyword names marking a callable as per-node worker code.
WORKER_KEYWORDS = frozenset({"on_fragment"})

#: Nested function names conventionally dispatched to cluster nodes.
WORKER_NAMES = frozenset({"work"})

#: Where the one call to ``lanczos_eigsh`` lives (rule ``single-lanczos-site``).
LANCZOS_SITE = ("repro/linalg/lanczos.py", "truncated_svd")

#: Directories whose code counts as a caller (rule ``no-caller``).
CALLER_DIRS = ("src", "examples", "benchmarks", "tools", "genbase_bench")

#: Re-export lists: string names in an assignment to one of these are not
#: callers (rule ``no-caller``).
EXPORT_LISTS = frozenset({"__all__", "_LAZY_EXPORTS"})

#: ``np.random`` constructors that are reproducible exactly when handed a seed
#: (rule ``unseeded-rng``): the generator factory and ``default_rng``'s own bit
#: generator, which ``Generator(PCG64(seed).advance(n))`` jumps ahead.
SEEDED_CONSTRUCTORS = frozenset({"default_rng", "PCG64"})

#: Rules that read the whole tree (:func:`lint_repo`), not one file.
REPO_RULES = ("single-lanczos-site", "no-caller")

ALL_RULES = (
    "raw-lambda-predicate",
    "decode-in-fast-path",
    "unseeded-rng",
    "fragment-state-mutation",
    "bare-except",
    "plan-dataclass-eq",
    *REPO_RULES,
)


@dataclass(frozen=True)
class Violation:
    """One rule hit: where, which rule, and a human-readable reason."""

    path: Path
    line: int
    rule: str
    message: str

    def render(self) -> str:
        try:
            shown = self.path.relative_to(REPO_ROOT)
        except ValueError:
            shown = self.path
        return f"{shown}:{self.line}: [{self.rule}] {self.message}"


# --------------------------------------------------------------------------- #
# Rule helpers
# --------------------------------------------------------------------------- #

def _annotation_names(annotation: ast.AST | None) -> set[str]:
    """Every bare identifier mentioned in an annotation expression."""
    if annotation is None:
        return set()
    names: set[str] = set()
    for inner in ast.walk(annotation):
        if isinstance(inner, ast.Name):
            names.add(inner.id)
        elif isinstance(inner, ast.Constant) and isinstance(inner.value, str):
            # String annotations ("Expression") — parse and recurse.
            try:
                parsed = ast.parse(inner.value, mode="eval")
            except SyntaxError:
                continue
            names |= _annotation_names(parsed.body)
    return names


def _dataclass_decorator(node: ast.ClassDef) -> ast.expr | None:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return decorator
        if isinstance(target, ast.Attribute) and target.attr == "dataclass":
            return decorator
    return None


def _declares_eq_false(decorator: ast.expr) -> bool:
    if not isinstance(decorator, ast.Call):
        return False
    for keyword in decorator.keywords:
        if keyword.arg == "eq" and isinstance(keyword.value, ast.Constant):
            return keyword.value.value is False
    return False


def _is_np_random_attribute(func: ast.AST) -> str | None:
    """``np.random.X`` / ``numpy.random.X`` → ``X``; else None."""
    if not isinstance(func, ast.Attribute):
        return None
    value = func.value
    if (isinstance(value, ast.Attribute) and value.attr == "random"
            and isinstance(value.value, ast.Name)
            and value.value.id in {"np", "numpy"}):
        return func.attr
    return None


# --------------------------------------------------------------------------- #
# The checker
# --------------------------------------------------------------------------- #

class _Checker(ast.NodeVisitor):
    def __init__(self, path: Path, source_lines: list[str]):
        self.path = path
        self.lines = source_lines
        self.violations: list[Violation] = []
        self.is_fast_path = str(path).replace("\\", "/").endswith(FAST_PATH_SUFFIXES)
        self._worker_depth = 0     # > 0 inside a per-node worker closure
        self._worker_names: set[str] = set()

    def _hit(self, node: ast.AST, rule: str, message: str) -> None:
        self.violations.append(
            Violation(self.path, getattr(node, "lineno", 0), rule, message)
        )

    def check(self, tree: ast.Module) -> list[Violation]:
        # Pass 1: names bound to on_fragment= anywhere in the module are
        # workers wherever they are defined.
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                for keyword in node.keywords:
                    if (keyword.arg in WORKER_KEYWORDS
                            and isinstance(keyword.value, ast.Name)):
                        self._worker_names.add(keyword.value.id)
        self.visit(tree)
        return self.violations

    # -- function scopes -----------------------------------------------------

    def _visit_function(self, node) -> None:
        is_worker = (node.name in WORKER_NAMES
                     or node.name in self._worker_names)
        self._worker_depth += is_worker
        self.generic_visit(node)
        self._worker_depth -= is_worker

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    # -- rules ---------------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        # raw-lambda-predicate
        if isinstance(func, ast.Attribute) and func.attr in PREDICATE_METHODS:
            for argument in [*node.args, *(k.value for k in node.keywords)]:
                if isinstance(argument, ast.Lambda):
                    self._hit(
                        node, "raw-lambda-predicate",
                        f"raw lambda passed to .{func.attr}(); build a "
                        "declarative expression with repro.plan.col instead",
                    )
        # decode-in-fast-path
        if (self.is_fast_path and isinstance(func, ast.Attribute)
                and func.attr in {"decode", "to_dense"} and not node.args):
            line = self.lines[node.lineno - 1] if node.lineno <= len(self.lines) else ""
            if DECODE_PRAGMA not in line:
                self._hit(
                    node, "decode-in-fast-path",
                    f".{func.attr}() decompresses the whole column in an "
                    f"encoding fast-path module; bless deliberate fallbacks "
                    f"with '{DECODE_PRAGMA} <reason>'",
                )
        # unseeded-rng
        legacy = _is_np_random_attribute(func)
        if legacy is not None and legacy not in SEEDED_CONSTRUCTORS | {"Generator"}:
            self._hit(
                node, "unseeded-rng",
                f"legacy global np.random.{legacy}() is unseeded state; use "
                "np.random.default_rng(seed)",
            )
        constructor = legacy or (func.id if isinstance(func, ast.Name) else None)
        if (constructor in SEEDED_CONSTRUCTORS
                and not node.args and not node.keywords):
            self._hit(
                node, "unseeded-rng",
                f"{constructor}() without a seed is irreproducible; pass an "
                "explicit seed",
            )
        self.generic_visit(node)

    def visit_Nonlocal(self, node: ast.Nonlocal) -> None:
        if self._worker_depth:
            self._hit(
                node, "fragment-state-mutation",
                f"nonlocal {', '.join(node.names)} inside a per-node worker "
                "— a fragment sees only its node's partition and must not "
                "rebind driver state; return the value instead",
            )

    def visit_Global(self, node: ast.Global) -> None:
        if self._worker_depth:
            self._hit(
                node, "fragment-state-mutation",
                f"global {', '.join(node.names)} inside a per-node worker — "
                "a fragment must not mutate module state",
            )

    def _check_worker_target(self, target: ast.AST, node: ast.AST) -> None:
        if (isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"):
            self._hit(
                node, "fragment-state-mutation",
                f"assignment to self.{target.attr} inside a per-node worker "
                "— a fragment must not mutate shared driver state",
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        if self._worker_depth:
            for target in node.targets:
                self._check_worker_target(target, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if self._worker_depth:
            self._check_worker_target(node.target, node)
        self.generic_visit(node)

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._hit(
                node, "bare-except",
                "bare 'except:' swallows KeyboardInterrupt/SystemExit; catch "
                "Exception (or narrower)",
            )
        self.generic_visit(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        decorator = _dataclass_decorator(node)
        if decorator is not None and not _declares_eq_false(decorator):
            for statement in node.body:
                if (isinstance(statement, ast.AnnAssign)
                        and "Expression" in _annotation_names(statement.annotation)):
                    field = (statement.target.id
                             if isinstance(statement.target, ast.Name) else "?")
                    self._hit(
                        node, "plan-dataclass-eq",
                        f"dataclass {node.name} has Expression-typed field "
                        f"{field!r} but no eq=False — the generated __eq__ "
                        "would delegate to Expression.__eq__, which builds a "
                        "(truthy) AST node instead of comparing",
                    )
                    break
        self.generic_visit(node)


# --------------------------------------------------------------------------- #
# Driver
# --------------------------------------------------------------------------- #

def lint_file(path: Path) -> list[Violation]:
    """Run every rule over one Python source file."""
    source = path.read_text()
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as error:
        return [Violation(path, error.lineno or 0, "syntax-error", str(error.msg))]
    return _Checker(path, source.splitlines()).check(tree)


def iter_python_files(paths: list[Path]) -> list[Path]:
    files: list[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(
                p for p in sorted(path.rglob("*.py"))
                if FIXTURE_DIR not in p.parents
            )
        elif path.suffix == ".py":
            files.append(path)
    return files


def lint_paths(paths: list[Path]) -> tuple[list[Violation], int]:
    violations: list[Violation] = []
    files = iter_python_files(paths)
    for file in files:
        violations.extend(lint_file(file))
    return violations, len(files)


# --------------------------------------------------------------------------- #
# Whole-tree rules
# --------------------------------------------------------------------------- #

def _parsed(root: Path, top: str) -> list[tuple[Path, ast.Module]]:
    return [(path, ast.parse(path.read_text(), filename=str(path)))
            for path in sorted((root / top).rglob("*.py"))]


def _lanczos_sites(sources: list[tuple[Path, ast.Module]]) -> list[Violation]:
    """Every ``lanczos_eigsh(...)`` call in ``sources`` outside :data:`LANCZOS_SITE`."""
    suffix, site = LANCZOS_SITE
    violations = []

    def walk(path: Path, node: ast.AST, function: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(path, child, function or child.name)
                continue
            called = child.func if isinstance(child, ast.Call) else None
            name = getattr(called, "id", None) or getattr(called, "attr", None)
            in_site = function == site and path.as_posix().endswith(suffix)
            if name == "lanczos_eigsh" and not in_site:
                violations.append(Violation(
                    path, child.lineno, "single-lanczos-site",
                    f"lanczos_eigsh() called from {function or 'module level'}; Lanczos "
                    f"SVD is written once, in {site}() of {suffix} — hand it an operand",
                ))
            walk(path, child, function)

    for path, tree in sources:
        walk(path, tree, None)
    return violations


def _public_definitions(tree: ast.Module):
    """``(qualified name, node)`` of public functions, classes and methods."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs) and not node.name.startswith("_"):
            yield node.name, node
            for member in node.body if isinstance(node, ast.ClassDef) else []:
                if isinstance(member, defs[:2]) and not member.name.startswith("_"):
                    yield f"{node.name}.{member.name}", member


def _export_lists(tree: ast.Module) -> set[int]:
    """``id()`` of every node inside an assignment to an :data:`EXPORT_LISTS` name."""
    inside: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)) and node.value is not None:
            targets = [node.target]
        else:
            continue
        if any(isinstance(t, ast.Name) and t.id in EXPORT_LISTS for t in targets):
            inside.update(id(n) for n in ast.walk(node.value))
    return inside


def _callerless(root: Path, trees: dict[str, list[tuple[Path, ast.Module]]]) -> list[Violation]:
    """Public names under ``src/repro`` nothing outside the tests refers to.

    A reference is an identifier, an attribute access or a whole string
    constant (``spans.py`` bindings, ``getattr`` dispatch) equal to the name,
    anywhere in :data:`CALLER_DIRS` outside the definition's own lines.  A
    re-export is not a caller: strings in ``__all__`` or ``_LAZY_EXPORTS``
    do not count.
    """
    references: dict[str, list[tuple[Path, int]]] = {}
    for parsed in trees.values():
        for path, tree in parsed:
            if path.name.startswith("test_"):
                continue
            exported = _export_lists(tree)
            for node in ast.walk(tree):
                if id(node) in exported:
                    continue
                name = (node.id if isinstance(node, ast.Name)
                        else node.attr if isinstance(node, ast.Attribute)
                        else node.value if isinstance(node, ast.Constant) else None)
                if isinstance(name, str):
                    references.setdefault(name, []).append((path, node.lineno))

    package = root / "src" / "repro"
    violations = []
    for path, tree in trees["src"]:
        if package not in path.parents:
            continue
        for qualified, node in _public_definitions(tree):
            inside = range(node.lineno, node.end_lineno + 1)
            if not any(where != path or line not in inside
                       for where, line in references.get(node.name, ())):
                violations.append(Violation(
                    path, node.lineno, "no-caller",
                    f"{qualified} has no caller outside tests in "
                    f"{', '.join(CALLER_DIRS)}; delete it (and the tests of it alone)",
                ))
    return violations


def lint_repo(root: Path = REPO_ROOT) -> list[Violation]:
    """Run the whole-tree rules (:data:`REPO_RULES`) over the tree at ``root``."""
    trees = {top: _parsed(root, top) for top in CALLER_DIRS}
    return _lanczos_sites(trees["src"]) + _callerless(root, trees)


def decode_pragma_count() -> int:
    """Blessed full-decode sites under ``src/`` (one: ``Encoding.values``)."""
    return sum(
        file.read_text().count(DECODE_PRAGMA)
        for file in iter_python_files([REPO_ROOT / "src"])
    )


def rule_counts(violations: list[Violation]) -> dict[str, int]:
    counts = {rule: 0 for rule in ALL_RULES}
    for violation in violations:
        counts[violation.rule] = counts.get(violation.rule, 0) + 1
    return counts


def write_summary(path: Path, violations: list[Violation], n_files: int) -> None:
    """Append a markdown rule-hit table (the CI job summary)."""
    lines = [
        "## Invariant linter",
        "",
        f"{n_files} files checked, {len(violations)} violation(s); "
        f"{decode_pragma_count()} `{DECODE_PRAGMA}` pragma(s) under `src/`.",
        "",
        "| rule | hits |",
        "| --- | ---: |",
    ]
    for rule, count in rule_counts(violations).items():
        lines.append(f"| `{rule}` | {count} |")
    lines.append("")
    with path.open("a") as handle:
        handle.write("\n".join(lines) + "\n")


# --------------------------------------------------------------------------- #
# Self-test: prove every rule fires on its fixture and spares the blessed form
# --------------------------------------------------------------------------- #

def run_self_test() -> int:
    """Each fixture file declares its expected hits in a header comment."""
    failures: list[str] = []
    repo_fixture = FIXTURE_DIR / REPO_FIXTURE
    fixtures = sorted(FIXTURE_DIR.rglob("*.py"))
    if not fixtures:
        print(f"self-test: no fixtures under {FIXTURE_DIR}", file=sys.stderr)
        return 1
    covered: set[str] = set()
    # Files of the miniature tree state what the whole-tree rules must
    # report at their own lines; every other fixture is linted alone.
    in_tree = [f for f in fixtures if repo_fixture in f.parents]
    checks = [(f.name, _expected_rules(f), lint_file(f))
              for f in fixtures if f not in in_tree]
    if in_tree:
        tree_hits = lint_repo(repo_fixture)
        checks += [(f"{REPO_FIXTURE}/{f.relative_to(repo_fixture)}", _expected_rules(f),
                    [v for v in tree_hits if v.path == f]) for f in in_tree]
    for name, expected, hits in checks:
        got = [v.rule for v in hits]
        covered.update(got)
        if sorted(got) != sorted(expected):
            failures.append(
                f"{name}: expected rules {sorted(expected)}, "
                f"linter fired {sorted(got)}"
            )
    missing = set(ALL_RULES) - covered
    if missing:
        failures.append(f"no fixture exercises rule(s): {sorted(missing)}")
    for failure in failures:
        print(f"self-test FAILED: {failure}", file=sys.stderr)
    if not failures:
        print(f"self-test OK: {len(fixtures)} fixtures, "
              f"all {len(ALL_RULES)} rules fire and blessed forms pass")
    return 1 if failures else 0


def _expected_rules(fixture: Path) -> list[str]:
    """Parse ``# expect: rule, rule`` headers (one per expected hit)."""
    expected: list[str] = []
    for line in fixture.read_text().splitlines():
        if line.startswith("# expect:"):
            expected.extend(
                name.strip() for name in line[len("# expect:"):].split(",")
                if name.strip()
            )
    return expected


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*",
                        help=f"files or directories to lint (default: {' '.join(DEFAULT_PATHS)}"
                             ", plus the whole-tree rules)")
    parser.add_argument("--self-test", action="store_true",
                        help="run every rule against its fixtures and exit")
    parser.add_argument("--summary", type=Path, default=None,
                        help="append a markdown rule-hit table to this file")
    options = parser.parse_args(argv)

    if options.self_test:
        return run_self_test()

    paths = [REPO_ROOT / p if not Path(p).is_absolute() else Path(p)
             for p in options.paths or DEFAULT_PATHS]
    violations, n_files = lint_paths(paths)
    if not options.paths:
        violations += lint_repo()
    for violation in violations:
        print(violation.render())
    if options.summary is not None:
        write_summary(options.summary, violations, n_files)
    if violations:
        print(f"\n{len(violations)} violation(s) in {n_files} files",
              file=sys.stderr)
        return 1
    print(f"{n_files} files clean ({len(ALL_RULES)} rules); "
          f"{decode_pragma_count()} '{DECODE_PRAGMA}' pragma(s) under src/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
