"""Mergeable sketches and confidence intervals for the approximate tier.

The approximate tier (docs/APPROXIMATE.md) answers aggregates without
touching every row, and every answer carries a confidence interval:

- :class:`HyperLogLog` estimates distinct counts from a fixed array of
  ``2**p`` registers.  Adding a value is idempotent and the merge is an
  elementwise register maximum, so per-partition sketches combine into
  exactly the sketch a single pass would have built — order- and
  partition-invariant by construction.
- :class:`TDigest` estimates quantiles from weighted centroids.  Below
  ``buffer_limit`` distinct values the digest is an *exact* weighted
  multiset (duplicates coalesce by value), so merges are lossless and the
  quantile matches numpy's ``inverted_cdf`` bit for bit; past the limit it
  compresses deterministically into equal-weight centroids with a
  documented rank-error bound of ``1/compression``.
- The ``sampled_*`` helpers turn a uniform sample into CLT confidence
  intervals for count/sum/mean, with the finite-population correction
  when the sample was drawn last (population size known) and
  inclusion-probability (Horvitz-Thompson) scaling when filters run
  above the sample and the matching population is itself estimated.

Everything here is deterministic: hashing is splitmix64 (no RNG at all)
and the sampling helpers only *describe* samples drawn elsewhere with an
explicit seed, so repeated runs give identical estimates and bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ApproxResult",
    "HyperLogLog",
    "TDigest",
    "hash64",
    "normal_quantile",
    "sampled_count",
    "sampled_mean",
    "sampled_sum",
]


# --------------------------------------------------------------------------- #
# Result type
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class ApproxResult:
    """An approximate answer: ``(estimate, ci_low, ci_high, confidence)``.

    ``ci_low``/``ci_high`` bound the true value at the stated confidence
    level under the sketch's error model (CLT for sampled aggregates, the
    1.04/sqrt(m) normal model for HyperLogLog, the deterministic rank
    bound for the t-digest).  Iterating yields the four fields in order,
    so results unpack like the tuple the plan layer documents.
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
# Hashing (splitmix64 — deterministic, no RNG state)
# --------------------------------------------------------------------------- #

def hash64(values: np.ndarray) -> np.ndarray:
    """Deterministic 64-bit hashes of a numeric array (splitmix64 finalizer).

    Integers hash by value (int64 and int32 views of the same number
    collide on purpose); floats hash their IEEE float64 bits with ``-0.0``
    canonicalised to ``0.0``.  Non-numeric dtypes are rejected — the plan
    verifier only admits numeric columns into approximate aggregates.
    """
    values = np.asarray(values)
    if values.dtype.kind in "biu":
        bits = values.astype(np.int64, copy=False).view(np.uint64)
    elif values.dtype.kind == "f":
        canonical = values.astype(np.float64, copy=True)
        canonical[canonical == 0.0] = 0.0  # merge -0.0 and +0.0
        bits = canonical.view(np.uint64)
    else:
        raise TypeError(f"cannot hash dtype {values.dtype} for a sketch")
    z = bits + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


# --------------------------------------------------------------------------- #
# HyperLogLog
# --------------------------------------------------------------------------- #

class HyperLogLog:
    """Distinct-count sketch over ``m = 2**p`` one-byte registers.

    ``p`` is restricted to [12, 18] so the ``64 - p`` hash-tail bits fit a
    float64 mantissa exactly (the vectorised leading-zero count goes
    through ``np.frexp``).  Standard error is ``1.04 / sqrt(m)``; the
    small-range regime falls back to linear counting.
    """

    __slots__ = ("p", "m", "registers")

    def __init__(self, p: int = 12, registers: np.ndarray | None = None):
        if not 12 <= p <= 18:
            raise ValueError(f"HyperLogLog precision p must be in [12, 18], got {p}")
        self.p = p
        self.m = 1 << p
        if registers is None:
            registers = np.zeros(self.m, dtype=np.uint8)
        else:
            registers = np.asarray(registers, dtype=np.uint8)
            if registers.shape != (self.m,):
                raise ValueError(
                    f"register array has shape {registers.shape}, expected ({self.m},)"
                )
            registers = registers.copy()
        self.registers = registers

    def add_array(self, values: np.ndarray) -> "HyperLogLog":
        """Observe every value in ``values`` (duplicates are free)."""
        if len(values) == 0:
            return self
        hashes = hash64(values)
        tail_bits = np.uint64(64 - self.p)
        index = (hashes >> tail_bits).astype(np.int64)
        tail = hashes & np.uint64((1 << (64 - self.p)) - 1)
        # rho = leading-zero count of the tail within its 64-p bits, + 1.
        # For tail > 0: floor(log2(tail)) == frexp exponent - 1, exact
        # because 64-p <= 52 mantissa bits.
        _, exponent = np.frexp(tail.astype(np.float64))
        rho = np.where(tail > 0,
                       np.uint8(64 - self.p + 1) - exponent.astype(np.int64),
                       64 - self.p + 1).astype(np.uint8)
        np.maximum.at(self.registers, index, rho)
        return self

    def merge(self, other: "HyperLogLog") -> "HyperLogLog":
        """Union of the two sketches: elementwise register maximum."""
        if other.p != self.p:
            raise ValueError(f"cannot merge HLL(p={other.p}) into HLL(p={self.p})")
        return HyperLogLog(self.p, np.maximum(self.registers, other.registers))

    def estimate(self) -> float:
        """Bias-corrected cardinality estimate (linear counting when small)."""
        m = float(self.m)
        alpha = 0.7213 / (1.0 + 1.079 / m)
        harmonic = float(np.sum(np.ldexp(1.0, -self.registers.astype(np.int64))))
        raw = alpha * m * m / harmonic
        zeros = int(np.count_nonzero(self.registers == 0))
        if raw <= 2.5 * m and zeros:
            return m * math.log(m / zeros)
        return raw

    def relative_error(self) -> float:
        """One standard error, relative: the classic ``1.04 / sqrt(m)``."""
        return 1.04 / math.sqrt(self.m)

    def result(self, confidence: float = 0.95) -> ApproxResult:
        estimate = self.estimate()
        margin = _two_sided_z(confidence) * self.relative_error() * estimate
        return _interval(estimate, margin, confidence)


# --------------------------------------------------------------------------- #
# t-digest (canonical buffered form)
# --------------------------------------------------------------------------- #

class TDigest:
    """Quantile sketch over weighted centroids, exact below ``buffer_limit``.

    The state is a sorted ``(mean, weight)`` array with exact duplicates
    coalesced.  While the number of distinct values stays at or below
    ``buffer_limit`` nothing is ever approximated: adds and merges just
    re-coalesce the weighted multiset, which makes merging per-partition
    digests *identical* to one single-pass digest regardless of order or
    partitioning.  Past the limit the buffer compresses deterministically
    into ``compression`` equal-weight centroids and ``rank_error()``
    reports the ``1/compression`` bound that the quantile bracket uses.
    """

    __slots__ = ("compression", "buffer_limit", "means", "weights", "compressed")

    def __init__(self, compression: int = 256, buffer_limit: int = 4096,
                 means: np.ndarray | None = None,
                 weights: np.ndarray | None = None,
                 compressed: bool = False):
        if compression < 8:
            raise ValueError(f"compression must be >= 8, got {compression}")
        if buffer_limit < compression:
            raise ValueError("buffer_limit must be >= compression")
        self.compression = compression
        self.buffer_limit = buffer_limit
        self.means = (np.empty(0, dtype=np.float64) if means is None
                      else np.asarray(means, dtype=np.float64).copy())
        self.weights = (np.empty(0, dtype=np.float64) if weights is None
                        else np.asarray(weights, dtype=np.float64).copy())
        self.compressed = compressed

    def add_array(self, values: np.ndarray,
                  weights: np.ndarray | None = None) -> "TDigest":
        """Fold in ``values`` (optionally pre-weighted, e.g. RLE run lengths)."""
        values = np.asarray(values, dtype=np.float64)
        if len(values) == 0:
            return self
        if weights is None:
            weights = np.ones(len(values), dtype=np.float64)
        else:
            weights = np.asarray(weights, dtype=np.float64)
        means = np.concatenate([self.means, values])
        pooled = np.concatenate([self.weights, weights])
        unique, inverse = np.unique(means, return_inverse=True)
        self.means = unique
        self.weights = np.bincount(inverse, weights=pooled, minlength=len(unique))
        if len(self.means) > self.buffer_limit:
            self._compress()
        return self

    def merge(self, other: "TDigest") -> "TDigest":
        """Combine two digests; lossless while both are uncompressed buffers."""
        merged = TDigest(self.compression, self.buffer_limit,
                         self.means, self.weights,
                         self.compressed or other.compressed)
        merged.add_array(other.means, other.weights)
        return merged

    def _compress(self) -> None:
        """Deterministic equal-weight re-bucketing into ``compression`` centroids.

        Buckets are fixed cumulative-weight strata of the *current* sorted
        multiset, so the result depends only on the state being compressed
        — never on python-level iteration order.
        """
        total = float(np.sum(self.weights))
        cumulative = np.cumsum(self.weights)
        bucket = np.minimum(
            (cumulative * self.compression / total).astype(np.int64),
            self.compression - 1,
        )
        # np.unique keeps buckets in ascending order, preserving sortedness.
        labels, inverse = np.unique(bucket, return_inverse=True)
        weight_sums = np.bincount(inverse, weights=self.weights,
                                  minlength=len(labels))
        mean_sums = np.bincount(inverse, weights=self.weights * self.means,
                                minlength=len(labels))
        self.means = mean_sums / weight_sums
        self.weights = weight_sums
        self.compressed = True

    def quantile(self, q: float) -> float:
        """Weighted inverted-CDF quantile: smallest centroid with F >= q.

        On an uncompressed digest with unit weights this matches
        ``np.quantile(values, q, method="inverted_cdf")`` exactly.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile fraction must be in [0, 1], got {q!r}")
        if len(self.means) == 0:
            return math.nan
        cumulative = np.cumsum(self.weights)
        target = q * cumulative[-1]
        index = int(np.searchsorted(cumulative, target, side="left"))
        return float(self.means[min(index, len(self.means) - 1)])

    def rank_error(self) -> float:
        """Deterministic rank-error bound: 0 while exact, 1/compression after."""
        return 0.0 if not self.compressed else 1.0 / self.compression

    def result(self, q: float, confidence: float = 0.95) -> ApproxResult:
        """Estimate plus the value bracket ``[quantile(q-eps), quantile(q+eps)]``.

        The bracket converts the rank-error bound into value space; on an
        exact (uncompressed) digest it collapses to a point interval.
        ``confidence`` is recorded as stated — the rank bound is
        deterministic, so the interval holds at any confidence level.
        """
        _two_sided_z(confidence)  # validate the confidence parameter
        estimate = self.quantile(q)
        eps = self.rank_error()
        low = self.quantile(max(0.0, q - eps))
        high = self.quantile(min(1.0, q + eps))
        return ApproxResult(estimate, low, high, float(confidence))


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


def sampled_sum(values: np.ndarray, fraction: float,
                confidence: float = 0.95,
                population: int | None = None) -> ApproxResult:
    """CLT interval for a sum estimated from a uniform sample.

    With ``population`` known (the sample ran *last*, over a selection of
    known size N) the estimate is ``N * mean`` and the variance is the
    fixed-size without-replacement form ``N^2 (1-f) s^2 / n``.  Without it
    (filters ran above the sample, so the matching population is itself
    estimated) the Horvitz-Thompson estimate ``sum / f`` carries the extra
    population-uncertainty term ``xbar^2 n (1-f) / f^2``.
    """
    z = _two_sided_z(confidence)
    values = np.asarray(values, dtype=np.float64)
    n = len(values)
    if n == 0:
        return ApproxResult(0.0, 0.0, 0.0, float(confidence))
    s = _sample_std(values)
    mean = float(np.mean(values))
    if population is not None:
        f = n / population if population else 1.0
        estimate = population * mean
        variance = (population ** 2) * max(0.0, 1.0 - f) * s * s / n
    else:
        f = fraction
        estimate = float(np.sum(values)) / f
        scaled = n / f  # estimated matching-population size
        variance = ((scaled ** 2) * max(0.0, 1.0 - f) * s * s / n
                    + mean * mean * n * max(0.0, 1.0 - f) / (f * f))
    return _interval(estimate, z * math.sqrt(variance), confidence)


def sampled_count(n: int, fraction: float, confidence: float = 0.95,
                  population: int | None = None) -> ApproxResult:
    """Interval for a count estimated from a uniform sample.

    With ``population`` known the count *is* the population (the sample
    ran last — zero-width interval); otherwise the binomial model gives
    ``n / f`` with standard error ``sqrt(n (1-f)) / f``.
    """
    z = _two_sided_z(confidence)
    if population is not None:
        return ApproxResult(float(population), float(population),
                            float(population), float(confidence))
    f = fraction
    margin = z * math.sqrt(n * max(0.0, 1.0 - f)) / f
    return _interval(n / f if f else float(n), margin, confidence)
