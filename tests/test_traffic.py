"""``tools/traffic.py``: the census lists exactly the functions no command entered."""

from __future__ import annotations

import os
import sys
import textwrap
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

sys.path.insert(0, str(REPO / "tools"))
from traffic import census, render, unreached  # noqa: E402


def test_only_the_uncalled_function_is_listed(tmp_path):
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

    entered, failed = census([("main", ["main.py"])], package, tmp_path, env)
    report = unreached(package, entered)

    assert failed == []
    assert report == {"fixture/mod.py": [("uncalled", 5, 2)]}
    assert "`uncalled`" in render(report) and "`called`" not in render(report)
