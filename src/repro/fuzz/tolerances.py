"""The one tolerance table every cross-engine comparison consults.

Two consumers share this module — ``tests/test_cross_engine.py`` (the five
GenBase queries' summary fields) and the differential fuzzer (arbitrary
aggregate plans) — so a documented last-ulp divergence is pinned in exactly
one place instead of being re-derived per test file.

The policy, from the engine matrix (``docs/ENGINES.md``):

- **Structure is always exact.** Row sets, group keys, labels and pivot
  matrices must match bit for bit on every engine: they are produced by
  selection and scatter, never by float arithmetic.
- **Order-insensitive float reductions are ulp-tolerant.** ``sum`` and
  ``mean`` over float columns reassociate addition differently per engine
  (a written column-store table's sealed+tail partial merge, chunk-wise
  loops on the array DBMS), so they may differ from the reference in the last ulps —
  :data:`ULP`, ``rel=1e-9``.  ``count``/``min``/``max`` pick or count
  elements and stay exact.
- **Mahout's analytics kernels are ulp-tolerant on hadoop only.** The
  naive MapReduce summation in the Mahout-tier kernels diverges from the
  LAPACK/BLAS tier in :data:`MAHOUT_FLOAT_FIELDS`; every other summary
  field is exact on every engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Summary fields produced by Mahout's naive MapReduce analytics kernels —
#: the only query-summary fields allowed to differ (by ulps) from the
#: LAPACK/BLAS tier, and only on the hadoop family.
MAHOUT_FLOAT_FIELDS = frozenset({"max_covariance", "top_singular_value", "r_squared"})

#: Aggregate functions whose result is a reassociated float reduction.
_REASSOCIATING = frozenset({"sum", "mean", "avg"})


@dataclass(frozen=True)
class Tolerance:
    """How closely two engines' values must agree."""

    rel: float = 0.0
    label: str = "exact"

    def matches(self, actual: float, expected: float) -> bool:
        """True when ``actual`` agrees with ``expected`` under this tolerance."""
        if self.rel == 0.0:
            return bool(actual == expected)
        return math.isclose(actual, expected, rel_tol=self.rel, abs_tol=0.0)


#: Bit-for-bit equality — the default for everything structural.
EXACT = Tolerance()

#: Last-ulp agreement for reassociated float accumulation.
ULP = Tolerance(rel=1e-9, label="ulp")

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
