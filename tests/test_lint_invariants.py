"""Repo invariant linter: every rule fires on its fixture, the tree is clean,
and the CLI trips on an injected violation (the CI job's contract)."""

from __future__ import annotations

import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
LINTER = REPO / "tools" / "lint_invariants.py"
FIXTURES = REPO / "tests" / "data" / "lint_fixtures"

sys.path.insert(0, str(REPO / "tools"))
from lint_invariants import (  # noqa: E402
    ALL_RULES,
    REPO_FIXTURE,
    REPO_RULES,
    lint_file,
    lint_paths,
    lint_repo,
    rule_counts,
    run_self_test,
)


def _run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(LINTER), *args],
                          capture_output=True, text=True, cwd=REPO)


class TestRulesFireOnFixtures:
    @pytest.mark.parametrize("rule,fixture", [
        ("raw-lambda-predicate", "raw_lambda_predicate.py"),
        ("decode-in-fast-path", "colstore/compression.py"),
        ("unseeded-rng", "unseeded_rng.py"),
        ("unseeded-rng", "unseeded_synopsis.py"),
        ("fragment-state-mutation", "fragment_state_mutation.py"),
        ("bare-except", "bare_except.py"),
        ("plan-dataclass-eq", "plan_dataclass_eq.py"),
    ])
    def test_rule_fires_exactly_where_expected(self, rule, fixture):
        violations = lint_file(FIXTURES / fixture)
        fired = [v.rule for v in violations]
        assert rule in fired
        # Fixtures are single-rule: nothing else may fire on them.
        assert set(fired) == {rule}

    def test_clean_fixture_is_clean(self):
        assert lint_file(FIXTURES / "clean.py") == []

    def test_self_test_passes(self):
        assert run_self_test() == 0

    def test_every_rule_has_a_fixture(self):
        fired = {v.rule for v in lint_repo(FIXTURES / REPO_FIXTURE)}
        assert fired == set(REPO_RULES)
        for fixture in FIXTURES.rglob("*.py"):
            fired.update(v.rule for v in lint_file(fixture))
        assert fired == set(ALL_RULES)

    def test_whole_tree_rules_fire_on_the_miniature_repository(self):
        hits = {(v.path.name, v.line, v.rule) for v in lint_repo(FIXTURES / REPO_FIXTURE)}
        assert hits == {
            ("linalg.py", 13, "single-lanczos-site"),   # a second function calls it
            ("linalg.py", 16, "single-lanczos-site"),   # so does module level
            ("linalg.py", 23, "no-caller"),             # recursion is not a caller
            ("linalg.py", 32, "no-caller"),             # a method nobody calls
            ("linalg.py", 36, "no-caller"),             # a class nobody names
            ("lanczos.py", 20, "no-caller"),            # only a package __all__ names it
            ("lanczos.py", 24, "no-caller"),            # only _LAZY_EXPORTS names it
        }  # spans.py strings and examples/ count as callers


class TestWhatCountsAsACaller:
    """Rule ``no-caller`` on a throwaway tree: ``target`` is defined in
    ``src/repro/pkg/mod.py`` and named once more, in one file, one way."""

    @pytest.mark.parametrize("where,source,flagged", [
        ("src/repro/pkg/__init__.py",
         'from repro.pkg.mod import target\n__all__ = ["target"]\n', True),
        ("src/repro/pkg/__init__.py", '__all__ = []\n__all__ += ["target"]\n', True),
        ("src/repro/pkg/__init__.py", '__all__: list[str] = ["target"]\n', True),
        ("src/repro/__init__.py",
         '_LAZY_EXPORTS = {"target": ("repro.pkg.mod", "target")}\n', True),
        ("tests/test_mod.py", "from repro.pkg.mod import target\ntarget()\n", True),
        ("src/repro/pkg/use.py", "from repro.pkg import mod\nmod.target()\n", False),
        ("src/repro/pkg/use.py",
         'from repro.pkg import mod\nfn = getattr(mod, "target")\n', False),
        ("examples/demo.py", "from repro.pkg.mod import target\ntarget()\n", False),
    ], ids=["package-all", "augmented-all", "annotated-all", "lazy-exports",
            "a-test", "an-attribute-call", "a-getattr-string", "an-example"])
    def test_reference_kind(self, tmp_path, where, source, flagged):
        module = tmp_path / "src" / "repro" / "pkg" / "mod.py"
        module.parent.mkdir(parents=True)
        module.write_text("def target():\n    return 1\n")
        other = tmp_path / where
        other.parent.mkdir(parents=True, exist_ok=True)
        other.write_text(source)
        hits = [(v.path, v.line, v.rule) for v in lint_repo(tmp_path)]
        assert hits == ([(module, 1, "no-caller")] if flagged else [])


class TestTreeIsClean:
    def test_src_benchmarks_tools_pass(self):
        violations, n_files = lint_paths(
            [REPO / "src", REPO / "benchmarks", REPO / "tools"]
        )
        assert n_files > 80
        assert violations == [], "\n".join(v.render() for v in violations)

    def test_whole_tree_rules_pass(self):
        assert lint_repo() == []

    def test_cli_exit_zero_on_clean_tree(self):
        for paths in (("src", "tools"), ()):  # no path: whole-tree rules too
            result = _run_cli(*paths)
            assert result.returncode == 0, result.stdout + result.stderr
            assert "clean" in result.stdout


class TestInjectedViolationTrips:
    """The CI job's trip-wire: the linter must fail a poisoned tree."""

    INJECTED = textwrap.dedent("""
        import numpy as np

        def poisoned(query):
            rng = np.random.default_rng()
            return query.where(lambda row: rng.random() > 0.5)
    """)

    def test_cli_exits_nonzero_and_names_the_rules(self, tmp_path):
        bad = tmp_path / "injected.py"
        bad.write_text(self.INJECTED)
        result = _run_cli(str(bad))
        assert result.returncode == 1
        assert "raw-lambda-predicate" in result.stdout
        assert "unseeded-rng" in result.stdout

    def test_summary_table_counts_rule_hits(self, tmp_path):
        bad = tmp_path / "injected.py"
        bad.write_text(self.INJECTED)
        summary = tmp_path / "summary.md"
        result = _run_cli(str(bad), "--summary", str(summary))
        assert result.returncode == 1
        table = summary.read_text()
        assert "| `raw-lambda-predicate` | 1 |" in table
        assert "| `unseeded-rng` | 1 |" in table
        assert "| `bare-except` | 0 |" in table

    def test_rule_counts_cover_all_rules(self, tmp_path):
        bad = tmp_path / "injected.py"
        bad.write_text(self.INJECTED)
        counts = rule_counts(lint_file(bad))
        assert set(counts) == set(ALL_RULES)
        assert counts["raw-lambda-predicate"] == 1
        assert counts["unseeded-rng"] == 1


class TestSelfTestCatchesRegressions:
    def test_self_test_cli_green(self):
        result = _run_cli("--self-test")
        assert result.returncode == 0, result.stdout + result.stderr
        assert "self-test OK" in result.stdout

    def test_self_test_fails_on_unexpected_hit(self, tmp_path, monkeypatch):
        """A fixture whose expectations don't match reality must fail."""
        import lint_invariants
        fixture_dir = tmp_path / "fixtures"
        fixture_dir.mkdir()
        (fixture_dir / "wrong.py").write_text(
            "# expect: bare-except\n"
            "x = 1\n"   # no violation at all -> expectation mismatch
        )
        monkeypatch.setattr(lint_invariants, "FIXTURE_DIR", fixture_dir)
        assert lint_invariants.run_self_test() == 1
