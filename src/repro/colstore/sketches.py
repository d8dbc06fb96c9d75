"""The confidence interval behind the approximate tier's one estimator.

The approximate tier (docs/APPROXIMATE.md) answers ``approx_mean`` from a
uniform sample, and every answer carries a confidence interval:
:func:`sampled_mean` turns the sampled values into a CLT interval with
the finite-population correction for sampling without replacement.

Everything here is deterministic: the helper only *describes* a sample
drawn elsewhere with an explicit seed, so repeated runs give identical
estimates and bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["ApproxResult", "normal_quantile", "sampled_mean"]


# --------------------------------------------------------------------------- #
# Result type
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class ApproxResult:
    """An approximate answer: ``(estimate, ci_low, ci_high, confidence)``.

    ``ci_low``/``ci_high`` bound the true value at the stated confidence
    level under the CLT.  Iterating yields the four fields in order, so
    results unpack like the tuple the plan layer documents.
    """

    estimate: float
    ci_low: float
    ci_high: float
    confidence: float

    def __iter__(self):
        return iter((self.estimate, self.ci_low, self.ci_high, self.confidence))

    def covers(self, value: float) -> bool:
        """Whether the interval contains ``value`` (inclusive)."""
        return self.ci_low <= value <= self.ci_high


def _interval(estimate: float, margin: float, confidence: float) -> ApproxResult:
    margin = abs(float(margin))
    return ApproxResult(float(estimate), float(estimate) - margin,
                        float(estimate) + margin, float(confidence))


# --------------------------------------------------------------------------- #
# Normal quantile (no scipy in the image: Acklam's rational approximation)
# --------------------------------------------------------------------------- #

_ACKLAM_A = (-3.969683028665376e+01, 2.209460984245205e+02,
             -2.759285104469687e+02, 1.383577518672690e+02,
             -3.066479806614716e+01, 2.506628277459239e+00)
_ACKLAM_B = (-5.447609879822406e+01, 1.615858368580409e+02,
             -1.556989798598866e+02, 6.680131188771972e+01,
             -1.328068155288572e+01)
_ACKLAM_C = (-7.784894002430293e-03, -3.223964580411365e-01,
             -2.400758277161838e+00, -2.549732539343734e+00,
             4.374664141464968e+00, 2.938163982698783e+00)
_ACKLAM_D = (7.784695709041462e-03, 3.224671290700398e-01,
             2.445134137142996e+00, 3.754408661907416e+00)


def normal_quantile(p: float) -> float:
    """Inverse standard-normal CDF (Acklam, relative error < 1.2e-9).

    >>> round(normal_quantile(0.975), 4)
    1.96
    >>> round(normal_quantile(0.5), 10)
    0.0
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"normal quantile needs 0 < p < 1, got {p!r}")
    a, b, c, d = _ACKLAM_A, _ACKLAM_B, _ACKLAM_C, _ACKLAM_D
    low, high = 0.02425, 1 - 0.02425
    if p < low:
        q = math.sqrt(-2.0 * math.log(p))
        return ((((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5])
                / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1))
    if p > high:
        q = math.sqrt(-2.0 * math.log(1 - p))
        return -((((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5])
                 / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1))
    q = p - 0.5
    r = q * q
    return ((((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q
            / (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1))


def _two_sided_z(confidence: float) -> float:
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence!r}")
    return normal_quantile(0.5 + confidence / 2.0)


# --------------------------------------------------------------------------- #
# CLT bounds for sampled aggregates
# --------------------------------------------------------------------------- #

def _sample_std(values: np.ndarray) -> float:
    if len(values) < 2:
        return 0.0
    return float(np.std(values, ddof=1))


def sampled_mean(values: np.ndarray, fraction: float,
                 confidence: float = 0.95) -> ApproxResult:
    """CLT interval for a mean over a uniform sample.

    ``fraction`` is the sampling rate, used as the finite-population
    correction ``sqrt(1 - f)`` — fixed-size sampling without replacement
    shrinks the variance relative to an i.i.d. sample.
    """
    z = _two_sided_z(confidence)
    values = np.asarray(values, dtype=np.float64)
    n = len(values)
    if n == 0:
        return ApproxResult(math.nan, math.nan, math.nan, float(confidence))
    fpc = math.sqrt(max(0.0, 1.0 - fraction))
    margin = z * _sample_std(values) / math.sqrt(n) * fpc
    return _interval(float(np.mean(values)), margin, confidence)
