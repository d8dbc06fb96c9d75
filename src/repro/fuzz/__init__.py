"""Differential fuzzing of the shared plan layer across every engine.

The packages under here generate random-but-valid expression ASTs and
logical plans over the GenBase schemas, execute each plan on all five
engine families *and* an unoptimized numpy reference, and assert the
results agree — byte-identical where the engine matrix guarantees it,
last-ulp-tolerant where :mod:`repro.fuzz.tolerances` documents a float
reassociation.  Every run writes a report of the cases it ran: seed,
shape, observed output rows and the plain EXPLAIN of each plan.

Entry points:

- ``python -m repro.fuzz`` — seed-driven fuzz loop (the CI job).
- ``python -m repro.fuzz.repro <seed>`` — replay one case, or a shrunken
  failure artifact, with full diagnostics.
- ``tests/fuzz_strategies.py`` — hypothesis strategies for the property
  tests in ``tests/test_fuzz.py``.
"""

from repro.fuzz.generate import FuzzCase, MutationOp, generate_case, lower_mutations
from repro.fuzz.harness import FuzzHarness
from repro.fuzz.tolerances import (
    EXACT,
    ULP,
    Tolerance,
    aggregate_tolerance,
    assert_values_match,
)

__all__ = [
    "EXACT",
    "ULP",
    "FuzzCase",
    "FuzzHarness",
    "MutationOp",
    "Tolerance",
    "aggregate_tolerance",
    "assert_values_match",
    "generate_case",
    "lower_mutations",
]
