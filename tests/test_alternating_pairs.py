"""``tools/alternating_pairs.py``: the verdict rule, and one smoke pair end to end."""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

sys.path.insert(0, str(REPO / "tools"))
from alternating_pairs import verdict  # noqa: E402


def test_a_checkout_paired_with_itself_never_improves():
    completed = subprocess.run(
        [sys.executable, str(REPO / "tools" / "alternating_pairs.py"), "--parent", str(REPO),
         "--change", str(REPO), "--workload", "colstore_small", "--seeds", "42",
         "--pairs", "1", "--smoke"],
        capture_output=True, text=True, cwd=REPO, timeout=300)
    assert completed.returncode == 0, completed.stdout[-3000:] + completed.stderr[-3000:]
    verdicts = dict(re.findall(r"^  (\w+) +parent .* change won \d/1  (.+)$",
                               completed.stdout, flags=re.MULTILINE))
    assert set(verdicts) == {"setup_s", "sweep_ms", "queries_per_s", "dm_ms",
                             "analytics_ms", "peak_rss_mb"}
    assert set(verdicts.values()) <= {"within bound", "unresolved"}, verdicts
    assert "fail_ratio     parent 0  change 0" in completed.stdout


def test_verdicts_follow_the_pairs_rule():
    steady = [100.0, 101.0, 99.0, 100.5, 100.0, 99.5, 100.0, 101.0, 99.0, 100.0]
    faster = [value * 0.5 for value in steady]
    assert verdict(steady, faster, "lower", 0.25) == ("improved", 10)
    assert verdict(faster, steady, "higher", 0.25) == ("improved", 10)  # e.g. queries_per_s
    assert verdict(steady[:9], faster[:9], "lower", 0.25)[0] == "within bound"  # under ten pairs
    assert verdict(steady, steady, "lower", 0.25) == ("within bound", 0)  # ties win nothing
    # Nine wins of ten, but by less than the parent's own quartile distance: no claim.
    nudged = [value - 0.1 for value in steady[:9]] + [steady[9] + 0.1]
    assert verdict(steady, nudged, "lower", 0.25) == ("within bound", 9)
    assert verdict(faster, steady, "lower", 0.25) == ("regressed", 0)
    assert verdict(faster[:4], steady[:4], "lower", 0.25) == ("unresolved", 0)  # too few pairs
    noisy = [100.0, 160.0] * 5
    assert verdict(noisy, steady, "lower", 0.25)[0] == "unresolved"
    assert verdict(noisy, faster, "lower", 0.25)[0] == "improved"  # every run below every parent run
