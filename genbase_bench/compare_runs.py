"""Compare two result files of ``run.py``: ``compare_runs.py BASE.json CANDIDATE.json``.

Per workload and end-to-end metric: base, candidate, their ratio (candidate
over base) and a verdict under the bound ``BENCHMARK.json`` fixes for the
metric:

* ``ok`` — the candidate is not worse than the base by more than the bound;
* ``regressed`` — it is, and both files' own run-to-run spread is within the bound;
* ``unresolved`` — the spread recorded in either file (``--repeats`` runs of
  the same commit) exceeds the bound, so the files cannot tell; it is ``ok``
  all the same when every candidate run reads better than every base run.

Every per-layer metric whose unit is ``count`` must be equal in both files;
differences are listed.  Exit status 1 on any regression or a higher
``fail_ratio``, else 0.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(metric: dict) -> float:
    """Run-to-run spread recorded in a result file: (max - min) / median."""
    runs = metric.get("runs", [])
    return (max(runs) - min(runs)) / metric["value"] if len(runs) > 1 and metric["value"] else 0.0


def verdict(base: dict, candidate: dict, better: str, bound: float) -> tuple[str, float]:
    """The verdict for one metric and by which share of the base it got worse."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (candidate["value"] - base["value"]) / base["value"]
    if max(spread(base), spread(candidate)) > bound:
        base_runs = [sign * value for value in base.get("runs", [base["value"]])]
        candidate_runs = [sign * value for value in candidate.get("runs", [candidate["value"]])]
        return ("ok" if max(candidate_runs) < min(base_runs) else "unresolved"), worse_by
    return ("regressed" if worse_by > bound else "ok"), worse_by


def compare(base: dict, candidate: dict, contract: dict, out=sys.stdout) -> int:
    """Print the comparison; returns the exit status."""
    declared = {metric["name"]: metric for metric in contract["end_to_end"]}
    counts = [metric["name"] for metric in contract["per_layer"] if metric["unit"] == "count"]
    regressions = changed_counts = 0
    for workload in (entry["name"] for entry in contract["workloads"]):
        old, new = base["workloads"].get(workload), candidate["workloads"].get(workload)
        if old is None or new is None:
            print(f"{workload}: missing from {'base' if old is None else 'candidate'}", file=out)
            regressions += 1
            continue
        for name, metric in declared.items():
            before, after = old["end_to_end"][name], new["end_to_end"][name]
            status, worse_by = verdict(before, after, metric["better"], metric["bound"])
            regressions += status == "regressed"
            print(f"{workload:16s} {name:14s} base {before['value']:12.6g} candidate "
                  f"{after['value']:12.6g} {metric['unit']:4s} ratio "
                  f"{after['value'] / before['value']:6.3f} of base  worse by "
                  f"{100 * worse_by:+6.2f}% (bound {100 * metric['bound']:.0f}%)  {status}",
                  file=out)
        if new["fail_ratio"] > old["fail_ratio"]:
            regressions += 1
            print(f"{workload:16s} fail_ratio     base {old['fail_ratio']:.6g} candidate "
                  f"{new['fail_ratio']:.6g}  regressed: {new['failures'][:3]}", file=out)
        for name in counts:
            before, after = old["per_layer"][name]["value"], new["per_layer"][name]["value"]
            if before != after:
                changed_counts += 1
                print(f"{workload:16s} {name}: count changed {before:g} -> {after:g}", file=out)
    print(f"{regressions} regressed, {changed_counts} count metrics changed", file=out)
    return 1 if regressions else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    base, candidate = (json.loads(Path(path).read_text()) for path in argv)
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    return compare(base, candidate, contract)


if __name__ == "__main__":
    sys.exit(main())
