"""The fuzz loop CLI: ``python -m repro.fuzz``.

Runs seed-driven cases through the full differential harness, writes the
fuzz report (the run's ``meta`` and one record per case: seed, shape,
observed rows, plain EXPLAIN), and on the first failure dumps a replayable
failure artifact (the serialised plan plus the failing seed) and exits
non-zero with the one-line repro command CI surfaces in the job log.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
import traceback

from repro.fuzz.generate import case_from_seed
from repro.fuzz.harness import FuzzHarness


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description="Differential fuzzing of the shared plan layer.",
    )
    parser.add_argument("--plans", type=int, default=100,
                        help="number of fuzzed plans to run (default 100)")
    parser.add_argument("--start-seed", type=int, default=0,
                        help="first case seed (seeds are sequential)")
    parser.add_argument("--size", default="tiny",
                        help="GenBase dataset size preset (default tiny)")
    parser.add_argument("--dataset-seed", type=int, default=7,
                        help="dataset generation seed (default 7)")
    parser.add_argument("--report", default="fuzz_report.json",
                        help="fuzz report output path")
    parser.add_argument("--artifact-dir", default="fuzz_artifacts",
                        help="where failing plans are dumped")
    args = parser.parse_args(argv)

    started = time.monotonic()
    harness = FuzzHarness(size=args.size, dataset_seed=args.dataset_seed)
    records = []
    checked = 0
    skipped_empty = 0
    mutated = 0
    for seed in range(args.start_seed, args.start_seed + args.plans):
        case = case_from_seed(seed, harness.schema)
        mutated += int(bool(case.mutations))
        try:
            outcome = harness.check_case(case)
        except Exception:
            artifact_dir = pathlib.Path(args.artifact_dir)
            artifact_dir.mkdir(parents=True, exist_ok=True)
            artifact = artifact_dir / f"failing_plan_seed_{seed}.json"
            artifact.write_text(json.dumps({
                "seed": seed,
                "size": args.size,
                "dataset_seed": args.dataset_seed,
                "case": case.to_json(),
                "error": traceback.format_exc(),
            }, indent=2) + "\n")
            print(traceback.format_exc(), file=sys.stderr)
            print(f"FAILED at seed {seed}; artifact: {artifact}", file=sys.stderr)
            print(f"reproduce with: python -m repro.fuzz.repro {seed}",
                  file=sys.stderr)
            return 1
        records.append(outcome.record)
        checked += len(outcome.engines_checked)
        skipped_empty += int(outcome.skipped_empty)
    meta = {
        "plans": args.plans,
        "start_seed": args.start_seed,
        "size": args.size,
        "dataset_seed": args.dataset_seed,
        "engine_checks": checked,
        "skipped_empty": skipped_empty,
        "mutated_cases": mutated,
        "elapsed_seconds": round(time.monotonic() - started, 2),
    }
    report = pathlib.Path(args.report)
    report.parent.mkdir(parents=True, exist_ok=True)
    report.write_text(json.dumps({"meta": meta, "records": records}, indent=2) + "\n")
    print(f"{args.plans} plans fuzzed, {checked} engine checks, "
          f"{mutated} with write preludes, "
          f"{skipped_empty} empty aggregate/pivot cases skipped, "
          f"report: {args.report}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
