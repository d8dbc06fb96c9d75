"""Perf-regression gate: fail CI when the bench smoke run loses a fast path.

Compares a candidate run of ``bench_colstore_ops.py`` (the CI smoke run)
against the committed ``BENCH_colstore.json`` trajectory.  For every
``(op, encoding)`` entry whose *recorded* speedup is at least
``--min-reference`` — or that the bench marked ``"gated": true`` (ops whose
existence is the point, like the fused join → pivot plan beating
materialise-then-plan) — the candidate must retain at least ``--fraction``
of that recorded speedup (and never drop below 1.0x).  Other entries below
the reference threshold are reported but not gated — near-1.0 ratios on
microsecond timings are timer jitter, not fast paths, and would make the
gate flaky.

Several gated fast paths run in single-digit microseconds (a dictionary
range filter is one code comparison), where shared-runner noise can halve
the measured ratio without any real regression.  A gated entry therefore
fails only when it misses its ratio floor *and* its absolute compressed
timing degrades beyond a slack: noise adds tens of microseconds, while a
genuine lost fast path (an accidental full decode) costs on the order of
the recorded *baseline* and trips both prongs.  The slack is
``min(--slack-us, half the recorded baseline)`` per entry, so it can never
grow large enough to swallow a regression to decode-first behaviour.

An entry that records ``sealed_only_s`` (the delta scan: the same query
over a store with a 5% written tail and over a pristine one) must also
hold the tail-overhead bound within the candidate itself: its compressed
timing at most ``TAIL_OVERHEAD`` times the sealed-only timing plus
``TAIL_FLOOR_S``, the merge's constant per-query cost.

The candidate must be run at the same ``--size`` as the committed record:
speedups are strongly size-dependent (dictionary filter pushdown is ~4x at
tiny but ~25x at small), so cross-size floors would be meaningless.  A size
mismatch is therefore an error.

    PYTHONPATH=src python benchmarks/bench_colstore_ops.py --size small --output /tmp/smoke.json
    python benchmarks/check_bench_regression.py --candidate /tmp/smoke.json

Exit status 0 when every gated entry holds its floor, 1 on any regression
(or on a gated entry missing from the candidate).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

DEFAULT_REFERENCE = Path(__file__).resolve().parents[1] / "BENCH_colstore.json"

#: A scan over a written tail costs at most this times the sealed-only scan ...
TAIL_OVERHEAD = 1.2
#: ... plus this many seconds of constant merge cost (tail unique, partial merge).
TAIL_FLOOR_S = 200e-6


def _entries(record: dict) -> dict[tuple[str, str], dict]:
    return {
        (entry["op"], entry["encoding"]): entry
        for entry in record["results"]
        if entry.get("speedup") is not None
    }


def check(reference: dict, candidate: dict, fraction: float,
          min_reference: float, slack_us: float) -> list[str]:
    """Return a list of regression messages (empty = gate passes)."""
    if reference.get("size") != candidate.get("size"):
        return [
            f"size mismatch: reference recorded at {reference.get('size')!r}, "
            f"candidate ran at {candidate.get('size')!r} — speedup floors only "
            "hold within one size"
        ]
    reference_entries = _entries(reference)
    candidate_entries = _entries(candidate)
    failures: list[str] = []
    for key in sorted(reference_entries):
        op, encoding = key
        recorded = reference_entries[key]["speedup"]
        recorded_compressed = reference_entries[key]["compressed_s"]
        # An entry is gated when its recorded speedup clears the reference
        # threshold, or when the bench marked it always-gated ("gated": true
        # — ops whose existence is the point, e.g. the fused join → pivot
        # plan staying ahead of materialise-then-plan).
        gated = recorded >= min_reference or bool(reference_entries[key].get("gated"))
        floor = max(1.0, fraction * recorded)
        label = f"{op:10s} {encoding:12s}"
        entry = candidate_entries.get(key)
        if entry is None:
            if gated:
                failures.append(f"{label} missing from candidate (recorded {recorded:.2f}x)")
            continue
        actual = entry["speedup"]
        # Second prong: absolute compressed-path degradation beyond jitter.
        # Capped at half the recorded baseline so losing a microsecond-scale
        # fast path (compressed_s rising to ~baseline_s) always trips it.
        slack_s = min(slack_us * 1e-6, 0.5 * reference_entries[key]["baseline_s"])
        degraded_s = entry["compressed_s"] - recorded_compressed
        status = "ok"
        if gated and actual < floor and degraded_s > slack_s:
            status = "REGRESSION"
            failures.append(
                f"{label} speedup {actual:.2f}x below floor {floor:.2f}x "
                f"({fraction:.0%} of recorded {recorded:.2f}x) and compressed "
                f"path {degraded_s*1e6:.0f}us slower than recorded "
                f"(slack {slack_s*1e6:.0f}us)"
            )
        print(
            f"  {label} recorded {recorded:7.2f}x  candidate {actual:7.2f}x  "
            f"floor {floor if gated else 0:7.2f}x  "
            f"{status if gated else 'not gated'}"
        )
    for (op, encoding), entry in sorted(candidate_entries.items()):
        if "sealed_only_s" not in entry:
            continue
        bound = TAIL_OVERHEAD * entry["sealed_only_s"] + TAIL_FLOOR_S
        if entry["compressed_s"] > bound:
            failures.append(
                f"{op:10s} {encoding:12s} merged scan with a written tail took "
                f"{entry['compressed_s']*1e6:.0f}us vs {entry['sealed_only_s']*1e6:.0f}us "
                f"sealed-only, over the {TAIL_OVERHEAD}x tail-overhead bound "
                f"({bound*1e6:.0f}us)"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reference", type=Path, default=DEFAULT_REFERENCE,
                        help="committed trajectory JSON (default: repo BENCH_colstore.json)")
    parser.add_argument("--candidate", type=Path, required=True,
                        help="freshly produced bench JSON to gate")
    parser.add_argument("--fraction", type=float, default=0.5,
                        help="minimum retained share of each recorded speedup")
    parser.add_argument("--min-reference", type=float, default=3.0,
                        help="gate only entries whose recorded speedup reaches this")
    parser.add_argument("--slack-us", type=float, default=50.0,
                        help="absolute compressed-path degradation (microseconds) "
                             "tolerated before a missed ratio floor counts")
    args = parser.parse_args(argv)
    if not 0 < args.fraction <= 1:
        parser.error("--fraction must be in (0, 1]")

    reference = json.loads(args.reference.read_text())
    candidate = json.loads(args.candidate.read_text())
    print(
        f"perf gate: {args.candidate} vs {args.reference} "
        f"(fraction {args.fraction}, min reference {args.min_reference}x, "
        f"slack {args.slack_us:.0f}us)"
    )
    failures = check(reference, candidate, args.fraction, args.min_reference,
                     args.slack_us)
    if failures:
        print(f"\nFAIL: {len(failures)} perf regression(s):", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("\nOK: all gated speedups hold their floors")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
