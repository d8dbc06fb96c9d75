#!/usr/bin/env python
"""Alternating parent/change pairs of one ``genbase_bench`` workload.

A performance claim on the shared sandbox rests on pairs, not on two result
files (``genbase_bench/README.md``): run the parent commit and the change
back to back, swap which side goes first every pair, and compare per pair.

    python tools/alternating_pairs.py --parent /root/scratch/parent --change . \\
        --workload colstore_xl [--seeds 42,1337] [--pairs 10]

Each run is ``python3 genbase_bench/run.py --workload W --seed S`` in a fresh
interpreter *of that checkout* (its own ``src/``); the tool reads the last
line the run prints and writes nothing into either directory.  Per seed and
end-to-end metric it prints each side's median and quartiles, the pairs the
change won, and a verdict under the bound ``BENCHMARK.json`` fixes:

* ``improved`` — the change won at least nine tenths of the pairs (ties count
  for neither side) *and* the medians differ by more than the distance
  between the parent's own quartiles; claimed only from ten pairs up;
* ``unresolved`` — a side's run-to-run spread ((max - min) / median) exceeds
  the bound, so these runs cannot tell — unless every run of the change reads
  better than every run of the parent;
* ``within bound`` — the change's median is no worse than the parent's by
  more than the bound;
* ``regressed`` — it is worse by more than the bound, over at least five
  pairs (fewer have no spread to speak of and read ``unresolved`` instead).

Exit status 1 when any metric regressed or the change failed a larger share
of its operations, else 0.  ``--smoke`` passes ``--smoke`` through (tiny
dataset, one sweep): it checks this tool, it measures nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Below this many pairs a run of wins is luck, not a gain (choosing-metrics §8) ...
MIN_PAIRS_FOR_A_CLAIM = 10
#: ... and below this many, a difference past the bound is not yet a regression.
MIN_PAIRS_TO_RESOLVE = 5


def run_once(checkout: Path, workload: str, seed: int, smoke: bool) -> dict:
    """One untraced run in ``checkout``; the result object its last line carries."""
    command = [sys.executable, str(checkout / "genbase_bench" / "run.py"),
               "--workload", workload, "--seed", str(seed)] + (["--smoke"] if smoke else [])
    environment = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    completed = subprocess.run(command, cwd=checkout, env=environment,
                               capture_output=True, text=True)
    if completed.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited {completed.returncode}:\n"
                         f"{completed.stdout[-2000:]}{completed.stderr[-2000:]}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, median, high = statistics.quantiles(values, n=4, method="inclusive")
    return low, median, high


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> tuple[str, int]:
    """``(verdict, pairs the change won)`` for one metric; run ``i`` of each side is pair ``i``."""
    sign = 1.0 if better == "lower" else -1.0
    parent = [sign * value for value in parent]
    change = [sign * value for value in change]
    won = sum(after < before for before, after in zip(parent, change, strict=True))
    low, parent_median, high = quartiles(parent)
    change_median = quartiles(change)[1]
    if (len(parent) >= MIN_PAIRS_FOR_A_CLAIM and won >= 0.9 * len(parent)
            and parent_median - change_median > high - low):
        return "improved", won
    spread = max((max(runs) - min(runs)) / abs(statistics.median(runs))
                 for runs in (parent, change) if statistics.median(runs))
    if spread > bound and not max(change) < min(parent):
        return "unresolved", won
    worse_by = (change_median - parent_median) / abs(parent_median) if parent_median else 0.0
    if worse_by <= bound:
        return "within bound", won
    return ("regressed" if len(parent) >= MIN_PAIRS_TO_RESOLVE else "unresolved"), won


def compare(results: dict[str, list[dict]], contract: dict, out=sys.stdout) -> int:
    """Print one seed's table from ``{"parent": [...], "change": [...]}``; the exit status."""
    status = 0
    for metric in contract["end_to_end"]:
        name = metric["name"]
        runs = {side: [run["metrics"][name]["value"] for run in results[side]]
                for side in ("parent", "change")}
        outcome, won = verdict(runs["parent"], runs["change"], metric["better"], metric["bound"])
        status |= outcome == "regressed"
        cells = "  ".join(
            f"{side} {median:10.5g} [{low:.5g}, {high:.5g}]"
            for side, (low, median, high) in ((side, quartiles(runs[side])) for side in runs))
        print(f"  {name:14s} {cells} {metric['unit']:4s} change won {won}/{len(runs['parent'])}"
              f"  {outcome}", file=out)
    failed = {side: sum(run["failed"] for run in results[side]) /
              sum(run["attempted"] for run in results[side]) for side in results}
    print(f"  fail_ratio     parent {failed['parent']:.6g}  change {failed['change']:.6g}", file=out)
    return status | (failed["change"] > failed["parent"])


def main(argv=None) -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True,
                        choices=[workload["name"] for workload in contract["workloads"]])
    parser.add_argument("--seeds", default="42,1337",
                        help="comma-separated; 42 while developing, 1337 is held out")
    parser.add_argument("--pairs", type=int, default=10, help="pairs per seed")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny dataset, one sweep: checks the tool, measures nothing")
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    status = 0
    for seed in (int(seed) for seed in args.seeds.split(",")):
        results: dict[str, list[dict]] = {"parent": [], "change": []}
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                results[side].append(run_once(checkouts[side], args.workload, seed, args.smoke))
                print(f"{args.workload} seed {seed} pair {pair + 1}/{args.pairs} {side:6s} "
                      + " ".join(f"{name}={metric['value']:.5g}" for name, metric
                                 in results[side][-1]["metrics"].items()), flush=True)
        print(f"{args.workload} seed {seed}: {args.pairs} alternating pairs")
        status |= compare(results, contract)
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
