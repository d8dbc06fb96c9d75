#!/usr/bin/env python
"""Traffic census: which ``src/repro`` functions no workload, example or check enters.

Runs every command in :data:`COMMANDS` in a fresh interpreter under
``sys.setprofile`` (and ``threading.setprofile``), records each function of
the package it enters, then walks the package's source and prints, per
module, the functions no run reached with their line counts (``def`` line,
decorators included, to the last line).  A function nested in an unreached
function is not listed on its own: its lines are part of its parent's.

The ``no-caller`` rule of ``tools/lint_invariants.py`` asks whether a name
is *written* anywhere; this asks whether the function *runs*, so it also
sees a method whose name another class's called method shares.

    python tools/traffic.py

The census is a gate: :data:`EXPECTED` lists every function that is
unreached on purpose, one ``module qualname reason`` line each.  No
options; stdlib only.  Prints a markdown table to stdout, then any
difference from the list, and progress to stderr.  Exit status 1 if a
command failed (the census is then incomplete), if an unreached function
is not on the list, or if a listed one is no longer unreached; 0
otherwise.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
PACKAGE = REPO_ROOT / "src" / "repro"

EXPECTED = REPO_ROOT / "tools" / "traffic_expected.txt"

WORKLOADS = [w["name"] for w in json.loads((REPO_ROOT / "BENCHMARK.json").read_text())["workloads"]]

#: The modules with doctests, one interpreter each: the census runs them and
#: the CI ``docs`` job reads this list for its doctest step.
DOCTEST_MODULES = [
    "src/repro/plan/expressions.py",
    "src/repro/plan/logical.py",
    "src/repro/plan/optimizer.py",
    "src/repro/plan/verify.py",
    "src/repro/plan/execute.py",
    "src/repro/core/engines/base.py",
    "src/repro/colstore/sketches.py",
    "src/repro/colstore/column.py",
    "src/repro/arraydb/array.py",
    "src/repro/arraydb/operators.py",
    "src/repro/arraydb/bridge.py",
    "src/repro/mapreduce/bridge.py",
    "src/repro/mapreduce/engine.py",
    "src/repro/relational/bridge.py",
    "src/repro/cluster/bridge.py",
    "src/repro/cluster/network.py",
]

#: The census: ``(label, argv after the interpreter)``; ``{tmp}`` is a scratch
#: directory shared by the commands of one census.  ``-m`` runs a module.
COMMANDS = [
    *[(f"bench {name} trace={trace}",
       ["genbase_bench/run.py", "--workload", name, "--smoke", "--trace", str(trace)])
      for name in WORKLOADS for trace in (0, 1)],
    *[(f"example {path.name}", [f"examples/{path.name}"])
      for path in sorted((REPO_ROOT / "examples").glob("*.py"))],
    ("fuzz --plans 150", ["-m", "repro.fuzz", "--plans", "150", "--report", "{tmp}/fuzz.json",
                          "--artifact-dir", "{tmp}/fuzz_artifacts"]),
    ("plan.verify", ["-m", "repro.plan.verify"]),
    ("bench_colstore_ops --size tiny", ["benchmarks/bench_colstore_ops.py", "--size", "tiny",
                                        "--rounds", "1", "--output", "{tmp}/bench.json"]),
    *[(f"doctest {path}", ["-m", "doctest", path]) for path in DOCTEST_MODULES],
]

#: Run inside each command's interpreter: ``argv[1]`` is the record file,
#: ``argv[2]`` the package directory, the rest the command.
BOOTSTRAP = """
import atexit, json, os, runpy, sys, threading
record, package, *command = sys.argv[1:]
entered = set()

def profile(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)

def dump():
    sys.setprofile(None)
    rows = sorted({(c.co_filename, c.co_firstlineno, c.co_name)
                   for c in entered if c.co_filename.startswith(package)})
    with open(record, "w") as handle:
        json.dump(rows, handle)

atexit.register(dump)
module = command[0] == "-m"
if module:
    command = command[1:]
sys.argv = command
threading.setprofile(profile)
sys.setprofile(profile)
if module:
    runpy.run_module(command[0], run_name="__main__", alter_sys=True)
else:
    sys.path.insert(0, os.path.dirname(os.path.abspath(command[0])))
    runpy.run_path(command[0], run_name="__main__")
"""


def trace_command(argv: list[str], package: Path, cwd: Path, env: dict) -> tuple[int, set]:
    """Run one command under the profiler; its exit status and ``(file, line, name)`` entered."""
    with tempfile.TemporaryDirectory() as scratch:
        record = Path(scratch) / "record.json"
        completed = subprocess.run(
            [sys.executable, "-c", BOOTSTRAP, str(record), str(package) + "/", *argv],
            cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        if completed.returncode != 0:
            sys.stderr.write(completed.stderr[-2000:])
        rows = json.loads(record.read_text()) if record.exists() else []
    return completed.returncode, {tuple(row) for row in rows}


def functions(path: Path):
    """``(qualname, first line, last line, key, parent's key)`` per function in one module.

    A key is ``(file, first line, name)``, what a code object reports; the
    parent is the enclosing function's key (None at module or class level).
    """
    found = []

    def visit(node, prefix, parent):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                key = (str(path), first, child.name)
                found.append((prefix + child.name, first, child.end_lineno, key, parent))
                visit(child, prefix + child.name + ".", key)
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".", parent)
            else:
                visit(child, prefix, parent)

    visit(ast.parse(path.read_text(), str(path)), "", None)
    return found


def unreached(package: Path, entered: set) -> dict[str, list[tuple[str, int, int]]]:
    """Per module (relative to the package's parent): ``(qualname, line, lines)`` never entered.

    A function counts as entered when a code object with its file, first line
    and name ran; one nested in an unreached function is folded into it.
    """
    report = {}
    for path in sorted(package.rglob("*.py")):
        missing = []
        for qualname, first, last, key, parent in functions(path):
            if key not in entered and (parent is None or parent in entered):
                missing.append((qualname, first, last - first + 1))
        if missing:
            report[str(path.relative_to(package.parent))] = missing
    return report


def census(commands, package: Path, cwd: Path, env: dict) -> tuple[set, list[str]]:
    """Run every command; the union of what they entered, and the labels of those that failed."""
    entered, failed = set(), []
    with tempfile.TemporaryDirectory() as tmp:
        for label, argv in commands:
            started = time.perf_counter()
            status, reached = trace_command([arg.replace("{tmp}", tmp) for arg in argv],
                                            package, cwd, env)
            entered |= reached
            if status != 0:
                failed.append(label)
            print(f"census: {label}: exit {status}, {len(reached)} functions, "
                  f"{time.perf_counter() - started:.1f} s", file=sys.stderr)
    return entered, failed


def render(report: dict) -> str:
    lines = ["| module | function | line | lines |", "| --- | --- | ---: | ---: |"]
    for module, missing in report.items():
        lines += [f"| {module} | `{name}` | {line} | {count} |" for name, line, count in missing]
    total = sum(count for missing in report.values() for _, _, count in missing)
    outside_fuzz = sum(count for module, missing in report.items()
                       if not module.startswith("repro/fuzz/") for _, _, count in missing)
    functions_total = sum(len(missing) for missing in report.values())
    lines.append("")
    lines.append(f"{functions_total} functions unreached, {total} lines "
                 f"({outside_fuzz} outside repro/fuzz/) in {len(report)} modules")
    return "\n".join(lines)


def read_expected(path: Path) -> dict[tuple[str, str], str]:
    """``(module, qualname)`` → reason, from a list of ``module qualname reason`` lines.

    Blank lines and lines starting with ``#`` are skipped; an entry
    without a reason is an error.
    """
    expected = {}
    for number, line in enumerate(path.read_text().splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split(maxsplit=2)
        if len(fields) < 3:
            raise ValueError(f"{path}:{number}: want 'module qualname reason', got {line!r}")
        module, qualname, reason = fields
        expected[(module, qualname)] = reason
    return expected


def gate(commands, package: Path, cwd: Path, env: dict, expected_path: Path) -> int:
    """Run the census, print it and its differences from the list; the exit status."""
    expected = read_expected(expected_path)
    entered, failed = census(commands, package, cwd, env)
    report = unreached(package, entered)
    print(render(report))
    found = {(module, name) for module, missing in report.items() for name, _, _ in missing}
    unlisted = sorted(found - expected.keys())
    stale = sorted(expected.keys() - found)
    for title, entries in (("unreached, not listed", unlisted),
                           ("listed, but reached or gone", stale)):
        if entries:
            print(f"\n{title} in {expected_path.name}:")
            print("\n".join(f"- {module} {name}" for module, name in entries))
    if failed:
        print(f"\ncensus incomplete, failed: {', '.join(failed)}")
    return 1 if failed or unlisted or stale else 0


def main() -> int:
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    return gate(COMMANDS, PACKAGE, REPO_ROOT, env, EXPECTED)


if __name__ == "__main__":
    sys.exit(main())
