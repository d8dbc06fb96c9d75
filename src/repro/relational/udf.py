"""User-defined analytics functions for the row store (the Madlib analog).

Postgres on its own cannot run the GenBase analytics; the paper's
"Postgres + Madlib" configuration adds them as in-database UDFs — some
implemented in C++ (fast), others as SQL/plpython combinations (slow,
effectively interpreted).  This module reproduces that split:

* a :class:`UdfRegistry` that the engine adapters call *inside* the database
  process (so there is no export/reformat cost), and
* :func:`default_madlib_registry` which registers the GenBase analytics with
  the same fast/slow split Madlib has — linear regression and covariance run
  on the compiled tier (numpy/LAPACK here standing in for C++), while SVD
  and enrichment run on the interpreted tier
  (:mod:`repro.linalg.naive`), mirroring Madlib functions that "in effect
  simulate matrix computations in SQL and plpython".  Madlib has no
  biclustering, so neither does the registry.

The registry stores plain callables keyed by name; UDFs receive numpy
arrays that the adapter has already restructured from query output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.linalg import naive
from repro.linalg.covariance import covariance_matrix
from repro.linalg.qr import linear_regression
from repro.linalg.wilcoxon import enrichment_analysis


@dataclass(frozen=True)
class Udf:
    """A registered user-defined function.

    Attributes:
        name: registry key.
        function: the callable.
        tier: "compiled" (C++-like, fast) or "interpreted" (plpython-like).
        description: one-line description shown in listings.
    """

    name: str
    function: Callable
    tier: str
    description: str = ""

    def __call__(self, *args, **kwargs):
        return self.function(*args, **kwargs)


class UdfRegistry:
    """A named collection of UDFs attached to a database."""

    def __init__(self):
        self._functions: dict[str, Udf] = {}

    def register(self, name: str, function: Callable, tier: str = "compiled",
                 description: str = "") -> Udf:
        """Register a function under ``name``.

        Raises:
            ValueError: on duplicate names or unknown tiers.
        """
        if name in self._functions:
            raise ValueError(f"UDF {name!r} is already registered")
        if tier not in ("compiled", "interpreted"):
            raise ValueError(f"unknown UDF tier {tier!r}")
        udf = Udf(name=name, function=function, tier=tier, description=description)
        self._functions[name] = udf
        return udf

    def get(self, name: str) -> Udf:
        try:
            return self._functions[name]
        except KeyError:
            known = ", ".join(sorted(self._functions)) or "<none>"
            raise KeyError(f"no UDF named {name!r}; registered: {known}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._functions

    def names(self) -> list[str]:
        return sorted(self._functions)

    def call(self, name: str, *args, **kwargs):
        """Look up and invoke a UDF."""
        return self.get(name)(*args, **kwargs)


def _madlib_svd_interpreted(matrix: np.ndarray, k: int) -> np.ndarray:
    """SVD "simulated in SQL/plpython": naive power iteration, values only."""
    return naive.power_iteration_svd(matrix, k=k)


def _madlib_enrichment_interpreted(scores: np.ndarray, membership: np.ndarray):
    """Enrichment in plpython: a per-term loop over the naive rank-sum test."""
    scores = np.asarray(scores, dtype=np.float64).ravel()
    membership = np.asarray(membership)
    p_values = []
    for term_index in range(membership.shape[1]):
        members = membership[:, term_index] != 0
        if not members.any() or members.all():
            p_values.append(1.0)
            continue
        p_values.append(
            naive.wilcoxon_rank_sum(scores[members], scores[~members])
        )
    return np.asarray(p_values)


def default_madlib_registry() -> UdfRegistry:
    """Build the UDF registry for the Postgres + Madlib configuration.

    The tier assignments follow the paper's description (Section 4.3):
    linear regression is one of the C++ functions ("tend to be faster than
    the corresponding functions in R"), SVD is one of the functions that
    "simulate matrix computations in SQL and plpython", and biclustering is
    missing from the library, so it has no entry here.
    """
    registry = UdfRegistry()
    registry.register(
        "linear_regression",
        lambda features, target: linear_regression(features, target, method="lapack"),
        tier="compiled",
        description="OLS via LAPACK QR (Madlib C++ tier)",
    )
    registry.register(
        "covariance",
        lambda matrix: covariance_matrix(matrix),
        tier="compiled",
        description="column covariance via GEMM (Madlib C++ tier)",
    )
    registry.register(
        "svd",
        _madlib_svd_interpreted,
        tier="interpreted",
        description="truncated SVD simulated in SQL/plpython (power iteration)",
    )
    registry.register(
        "enrichment",
        _madlib_enrichment_interpreted,
        tier="interpreted",
        description="Wilcoxon enrichment looped in plpython (p-values only)",
    )
    return registry


def default_rlang_udf_registry() -> UdfRegistry:
    """Build the UDF registry for the column store + in-DB R configuration.

    The column store's UDF interface calls into the R environment, so every
    analytic runs on R's (BLAS-backed) tier — but through the per-call UDF
    interface, which the engine adapter charges a small invocation overhead
    for, reproducing the "tighter coupling ... in the UDF interface" benefit
    and its occasional glitches the paper mentions.
    """
    registry = UdfRegistry()
    registry.register(
        "linear_regression",
        lambda features, target: linear_regression(features, target, method="lapack"),
        tier="compiled",
        description="R lm() via in-DB UDF",
    )
    registry.register(
        "covariance",
        lambda matrix: covariance_matrix(matrix),
        tier="compiled",
        description="R cov() via in-DB UDF",
    )
    registry.register(
        "enrichment",
        lambda scores, membership: enrichment_analysis(scores, membership),
        tier="compiled",
        description="R wilcox.test() via in-DB UDF",
    )
    return registry
