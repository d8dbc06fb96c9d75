"""The one tolerance table every cross-engine comparison consults.

Two consumers share this module — ``tests/test_cross_engine.py`` (every
field of the five GenBase queries' answers, on all fourteen engines) and
the differential fuzzer (arbitrary aggregate plans) — so a documented
last-ulp divergence is pinned in exactly one place instead of being
re-derived per test file.

The policy, from the engine matrix (``docs/ENGINES.md``):

- **Structure is always exact.** Row sets, group keys, labels and pivot
  matrices must match bit for bit on every engine: they are produced by
  selection and scatter, never by float arithmetic.  In the answers that
  means every count, Q2's kept pair set and ``joined_rows``, Q3's
  bicluster row and column sets and all of Q5 (GO ids, p-values and
  verdicts).
- **Order-insensitive float reductions are ulp-tolerant.** ``sum`` and
  ``mean`` over float columns reassociate addition differently per engine
  (a written column-store table's sealed+tail partial merge, chunk-wise
  loops on the array DBMS), so they may differ from the reference in the last ulps —
  :data:`ULP`, ``rel=1e-9``.  ``count``/``min``/``max`` pick or count
  elements and stay exact.
- **Kernel floats are tolerant where the kernel tier differs.** An answer
  field named in :data:`ANSWER_TOLERANCES` may differ from
  ``ReferenceImplementation``'s on the engines its entry names: Mahout's
  MapReduce kernels and the distributed ScaLAPACK tier sum in their own
  order and solve Q1 by normal equations, and Q4 has one bound for the
  power-iteration tiers and a tighter one for the Lanczos engines.  Every
  other answer field is exact on every engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.engines import ENGINE_FACTORIES

#: Aggregate functions whose result is a reassociated float reduction.
_REASSOCIATING = frozenset({"sum", "mean", "avg"})


@dataclass(frozen=True)
class Tolerance:
    """How closely two engines' values must agree."""

    rel: float = 0.0
    label: str = "exact"


#: Bit-for-bit equality — the default for everything structural.
EXACT = Tolerance()

#: Last-ulp agreement for reassociated float accumulation.
ULP = Tolerance(rel=1e-9, label="ulp")

#: Mahout's MapReduce kernels (naive summation order, Q1 by normal equations).
MAHOUT_ENGINES = frozenset({"hadoop", "hadoop-cluster"})

#: The distributed ScaLAPACK tier (all-reduced partial products, Q1 by
#: normal equations).
SCALAPACK_ENGINES = frozenset({"pbdr", "columnstore-pbdr", "scidb-cluster", "scidb-phi-cluster"})

#: The engines whose Q4 is power iteration (Mahout and Madlib); the other
#: eleven run Lanczos.
POWER_ITERATION_ENGINES = frozenset({"hadoop", "hadoop-cluster", "postgres-madlib"})

#: ``(query, answer field) → ((engines, tolerance), ...)``, one row per
#: kernel family.  Each bound but the power iteration's sits one to two
#: orders above the worst element-wise relative error measured on the test
#: fixtures and their neighbours (``tiny`` seeds 7 and 11 on 1, 2 and 4
#: nodes; ``small`` seed 7 on 1, 2 and 4 nodes; ``small`` seed 11 on 2),
#: quoted per entry.  Engines outside an entry measured 0.
_FAMILY_TOLERANCES = {
    ("regression", "coefficients"): (
        (MAHOUT_ENGINES, Tolerance(rel=1e-10, label="mahout")),           # ≤ 1.5e-12
        (SCALAPACK_ENGINES, Tolerance(rel=1e-9, label="scalapack")),       # ≤ 2.8e-11
    ),
    ("regression", "intercept"): (
        (MAHOUT_ENGINES | SCALAPACK_ENGINES, Tolerance(rel=1e-10, label="normal equations")),
    ),                                                                     # ≤ 1.3e-12
    ("regression", "r_squared"): (
        (MAHOUT_ENGINES | SCALAPACK_ENGINES, Tolerance(rel=1e-14, label="normal equations")),
    ),                                                                     # ≤ 1.4e-16
    ("covariance", "values"): (
        (MAHOUT_ENGINES | SCALAPACK_ENGINES, Tolerance(rel=1e-14, label="reassociated")),
    ),                                                                     # ≤ 6.8e-16
    # The power-iteration tiers measure 7.7e-12 at ``tiny`` seed 7 but
    # 4.5e-9 at seed 11, 1.1e-5 at ``small`` seed 7 and 2.0e-2 at seed 11:
    # ROADMAP item 2, not widened for, so their bound holds only at ``tiny``
    # seed 7.
    ("svd", "singular_values"): (
        (POWER_ITERATION_ENGINES, Tolerance(rel=1e-10, label="power iteration")),
        (frozenset(ENGINE_FACTORIES) - POWER_ITERATION_ENGINES,
         Tolerance(rel=1e-12, label="lanczos")),                           # ≤ 2.1e-14
    ),
}

#: ``(query, answer field, engine) → tolerance`` against
#: ``ReferenceImplementation``; a key not listed is :data:`EXACT`.
ANSWER_TOLERANCES = {
    (query, field, engine): tolerance
    for (query, field), families in _FAMILY_TOLERANCES.items()
    for engines, tolerance in families
    for engine in engines
}

def aggregate_tolerance(function: str) -> Tolerance:
    """Tolerance for one aggregate function's values, the same on every engine.

    ``sum``/``mean`` reassociate float addition on *every* engine (each
    folds partials in its own order), so they are :data:`ULP`;
    ``count``/``min``/``max`` are :data:`EXACT` everywhere.
    """
    if function in _REASSOCIATING:
        return ULP
    return EXACT


def assert_values_match(actual, expected, tolerance: Tolerance, context: str = ""):
    """Assert two scalars or arrays agree under ``tolerance``.

    Arrays must match in shape; :data:`EXACT` compares element-wise
    equality, a relative tolerance compares every element with
    ``math.isclose`` semantics (no absolute term, so zeros must be exact).
    """
    prefix = f"{context}: " if context else ""
    a = np.asarray(actual)
    b = np.asarray(expected)
    assert a.shape == b.shape, f"{prefix}shape {a.shape} vs {b.shape}"
    if tolerance.rel == 0.0:
        assert np.array_equal(a, b), (
            f"{prefix}values differ (exact): {a!r} vs {b!r}"
        )
        return
    both_zero = (a == 0) & (b == 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        denominator = np.maximum(np.abs(a), np.abs(b))
        error = np.abs(a - b) / np.where(denominator == 0, 1.0, denominator)
    ok = both_zero | (error <= tolerance.rel)
    assert bool(np.all(ok)), (
        f"{prefix}values differ beyond rel={tolerance.rel}: "
        f"max rel error {float(np.max(error)):.3e}"
    )
