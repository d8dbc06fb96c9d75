"""``tools/traffic.py``: the census lists exactly the functions no command entered,
and gates on the committed list of those kept on purpose."""

from __future__ import annotations

import os
import sys
import textwrap
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

sys.path.insert(0, str(REPO / "tools"))
from traffic import (  # noqa: E402
    EXPECTED,
    census,
    gate,
    read_expected,
    render,
    unreached,
)


def _fixture(tmp_path):
    """A package with one called and one uncalled function, and a main script."""
    package = tmp_path / "src" / "fixture"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(textwrap.dedent("""\
        def called():
            return 1


        def uncalled():
            return 2
    """))
    (tmp_path / "main.py").write_text("from fixture.mod import called\ncalled()\n")
    env = {**os.environ, "PYTHONPATH": str(package.parent)}
    return package, env


def test_only_the_uncalled_function_is_listed(tmp_path):
    package, env = _fixture(tmp_path)

    entered, failed = census([("main", ["main.py"])], package, tmp_path, env)
    report = unreached(package, entered)

    assert failed == []
    assert report == {"fixture/mod.py": [("uncalled", 5, 2)]}
    assert "`uncalled`" in render(report) and "`called`" not in render(report)


def test_an_unlisted_uncalled_function_trips_the_gate(tmp_path, capsys):
    package, env = _fixture(tmp_path)
    expected = tmp_path / "expected.txt"
    expected.write_text("# nothing is unreached on purpose\n")

    assert gate([("main", ["main.py"])], package, tmp_path, env, expected) == 1
    assert "unreached, not listed" in capsys.readouterr().out


def test_a_listed_uncalled_function_passes_and_a_stale_entry_trips(tmp_path, capsys):
    package, env = _fixture(tmp_path)
    expected = tmp_path / "expected.txt"
    expected.write_text("fixture/mod.py uncalled kept for the test\n")
    commands = [("main", ["main.py"])]

    assert gate(commands, package, tmp_path, env, expected) == 0
    capsys.readouterr()
    expected.write_text("fixture/mod.py uncalled kept for the test\n"
                        "fixture/mod.py called no longer unreached\n")
    assert gate(commands, package, tmp_path, env, expected) == 1
    assert "- fixture/mod.py called" in capsys.readouterr().out


def test_an_entry_without_a_reason_is_refused(tmp_path):
    expected = tmp_path / "expected.txt"
    expected.write_text("fixture/mod.py uncalled\n")
    with pytest.raises(ValueError, match="expected.txt:1"):
        read_expected(expected)


def test_the_committed_list_gives_every_entry_a_reason():
    assert len(read_expected(EXPECTED)) > 0
