"""Replay one fuzz case with full diagnostics: ``python -m repro.fuzz.repro``.

Accepts either a case seed (the integer printed by the fuzz loop on
failure) or a failure-artifact JSON path (the file CI uploads), rebuilds
the exact plan, prints its EXPLAIN, and re-runs the differential check.

``--verify-only`` stops after the static plan verifier: the plan is
typechecked against the dataset's schemas (:mod:`repro.plan.verify`) and
its inferred output schema printed, but no engine executes anything —
the cheap first question for any failing case ("is the plan even
well-typed?") without paying for five engine loads.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from repro.core.queries import dataset_tables
from repro.datagen.dataset import GenBaseDataset
from repro.fuzz.generate import FuzzCase, FuzzSchema, case_from_seed
from repro.plan.logical import explain
from repro.plan.verify import PlanVerificationError, verified_schema


def _load_case(argument: str, size: str, dataset_seed: int):
    """Resolve a seed or artifact path to (case, size, dataset_seed, tables)."""
    if argument.lstrip("-").isdigit():
        dataset = GenBaseDataset.generate(size, seed=dataset_seed)
        tables = dataset_tables(dataset)
        case = case_from_seed(int(argument), FuzzSchema.from_tables(tables))
        return case, size, dataset_seed, tables
    artifact = json.loads(pathlib.Path(argument).read_text())
    size = artifact.get("size", size)
    dataset_seed = artifact.get("dataset_seed", dataset_seed)
    dataset = GenBaseDataset.generate(size, seed=dataset_seed)
    tables = dataset_tables(dataset)
    case = FuzzCase.from_json(artifact["case"])
    return case, size, dataset_seed, tables


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz.repro",
        description="Replay one fuzz case (by seed or failure artifact).",
    )
    parser.add_argument("case", help="case seed (integer) or artifact JSON path")
    parser.add_argument("--size", default="tiny",
                        help="GenBase dataset size preset (default tiny)")
    parser.add_argument("--dataset-seed", type=int, default=7,
                        help="dataset generation seed (default 7)")
    parser.add_argument("--verify-only", action="store_true",
                        help="statically typecheck the plan and print its "
                             "inferred schema; execute nothing")
    args = parser.parse_args(argv)

    case, size, dataset_seed, tables = _load_case(
        args.case, args.size, args.dataset_seed
    )
    print(f"seed={case.seed} shape={case.shape} table={case.table} "
          f"value_predicate={case.has_value_predicate} "
          f"mutations={len(case.mutations)}")
    for op in case.mutations:
        print(f"  prelude: {op.kind} table={op.table} seed={op.seed} "
              f"count={op.count}")
    print("\nplan:")
    print(explain(case.plan))

    if args.verify_only:
        schemas = {
            name: {column: values.dtype for column, values in columns.items()}
            for name, columns in tables.items()
        }
        try:
            schema = verified_schema(case.plan, schemas)
        except PlanVerificationError as error:
            print(f"\nVERIFY FAILED [{error.rule}]: {error}")
            return 1
        print("\nverified output schema:")
        for column, dtype in schema.items():
            print(f"  {column}: {dtype}")
        return 0

    from repro.fuzz.harness import FuzzHarness  # deferred: loads all engines

    harness = FuzzHarness(size=size, dataset_seed=dataset_seed)
    outcome = harness.check_case(case)
    print(f"\nPASS — engines checked: {', '.join(outcome.engines_checked) or 'none'}"
          f"{' (empty aggregate/pivot input: comparisons skipped)' if outcome.skipped_empty else ''}")
    print(f"observed_rows={outcome.record['observed_rows']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
