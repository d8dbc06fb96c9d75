"""Wilcoxon rank-sum test and GO-term enrichment (GenBase Query 5).

Query 5 replicates gene-set enrichment: rank all genes by expression for a
patient subset, then for each GO term test whether the genes belonging to
that term sit unusually high or low in the ranking.  The paper specifies the
Wilcoxon rank-sum (Mann–Whitney U) statistical test (Section 3.2.5).

The implementation uses the normal approximation with tie correction and a
continuity correction — the same default as R's ``wilcox.test`` for sample
sizes beyond the exact-distribution range, which all benchmark sizes are.

Every term of :func:`enrichment_analysis` tests *inside vs outside* over the
same pooled scores, so the midranks and their tie correction are computed
once (one ``argsort``, run boundaries by comparison — no interpreted loop over
genes or tie groups), every term's rank sum is one product ``ranks @
membership``, and only the scalar U → z → p formula runs per term.  Midranks
are half-integers, so those sums are exact and the result is bit-for-bit
what ranking each term's members against the rest separately returns.

Supported domain: finite float64 scores, any number of ties; a non-finite
score raises ``ValueError``.  A term holding every gene or none, and samples
whose scores are all equal, are answered p = 1, z = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import erfc, sqrt

import numpy as np


@dataclass
class WilcoxonResult:
    """Result of one two-sample Wilcoxon rank-sum test.

    Attributes:
        statistic: the Mann–Whitney U statistic for the *first* sample.
        z_score: the (tie- and continuity-corrected) normal approximation.
        p_value: two-sided p-value.
        n_first: size of the first sample.
        n_second: size of the second sample.
    """

    statistic: float
    z_score: float
    p_value: float
    n_first: int
    n_second: int


@dataclass
class EnrichmentResult:
    """Per-GO-term enrichment results for one query run.

    Attributes:
        go_ids: GO term identifiers tested.
        p_values: two-sided p-values, aligned with ``go_ids``.
        z_scores: signed z-scores (positive: members rank high).
        significant: boolean mask of terms below the significance level.
        alpha: the significance level used.
    """

    go_ids: np.ndarray
    p_values: np.ndarray
    z_scores: np.ndarray
    significant: np.ndarray
    alpha: float


def _rank_with_ties(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return midranks of ``values`` and the sizes of each tie group."""
    order = np.argsort(values, kind="mergesort")
    sorted_values = values[order]
    # A tie group starts wherever a sorted value differs from the one before it.
    changes = np.flatnonzero(sorted_values[1:] != sorted_values[:-1]) + 1
    starts = np.concatenate(([0], changes))
    tie_sizes = np.diff(np.append(starts, len(values)))
    # A group on 0-based positions i..j has midrank (i + j) / 2 + 1.
    ranks = np.empty(len(values), dtype=np.float64)
    ranks[order] = np.repeat(starts + (tie_sizes - 1) / 2.0 + 1.0, tie_sizes)
    return ranks, tie_sizes.astype(np.float64)


def _finite(kernel: str, argument: str, values: np.ndarray) -> np.ndarray:
    if not np.isfinite(values).all():
        raise ValueError(f"{kernel}: {argument} must be finite (found NaN or infinity)")
    return values


def _normal_approximation(
    rank_sum_first: float, n1: int, n2: int, tie_term: float
) -> WilcoxonResult:
    """U, z and two-sided p from the first sample's pooled rank sum; ``tie_term`` is Σ(t³ − t)."""
    u_statistic = rank_sum_first - n1 * (n1 + 1) / 2.0
    mean_u = n1 * n2 / 2.0

    n = n1 + n2
    variance = n1 * n2 / 12.0 * ((n + 1) - tie_term / (n * (n - 1))) if n > 1 else 0.0

    if variance <= 0:
        # All values identical: no evidence of a shift.
        return WilcoxonResult(
            statistic=u_statistic, z_score=0.0, p_value=1.0, n_first=n1, n_second=n2
        )

    # Continuity correction toward the mean.
    delta = u_statistic - mean_u
    correction = 0.5 if delta > 0 else (-0.5 if delta < 0 else 0.0)
    z = (delta - correction) / sqrt(variance)
    p_value = erfc(abs(z) / sqrt(2.0))  # two-sided normal tail
    return WilcoxonResult(
        statistic=u_statistic,
        z_score=z,
        p_value=min(1.0, p_value),
        n_first=n1,
        n_second=n2,
    )


def enrichment_analysis(
    gene_scores: np.ndarray,
    membership: np.ndarray,
    go_ids: np.ndarray | None = None,
    alpha: float = 0.05,
) -> EnrichmentResult:
    """Run the Query-5 enrichment test for every GO term.

    Args:
        gene_scores: length-``n_genes`` array of per-gene scores (the paper
            ranks genes by their expression over the sampled patients; the
            mean expression per gene is the score used here).
        membership: ``(n_genes, n_terms)`` 0/1 membership matrix.
        go_ids: optional explicit GO ids (defaults to ``0..n_terms-1``).
        alpha: significance level for the ``significant`` mask.

    Returns:
        An :class:`EnrichmentResult` over all terms.  Terms where every gene
        (or no gene) is a member are reported with p-value 1.0 and z-score 0.
        Mismatched shapes or a non-finite score raise ``ValueError``.
    """
    gene_scores = _finite(
        "enrichment_analysis", "gene_scores", np.asarray(gene_scores, dtype=np.float64).ravel())
    membership = np.asarray(membership)
    if membership.ndim != 2:
        raise ValueError("membership must be a 2-D gene x GO-term matrix")
    if membership.shape[0] != len(gene_scores):
        raise ValueError(
            f"membership has {membership.shape[0]} genes but scores has {len(gene_scores)}"
        )
    n_terms = membership.shape[1]
    if go_ids is None:
        go_ids = np.arange(n_terms)
    go_ids = np.asarray(go_ids)
    if len(go_ids) != n_terms:
        raise ValueError("go_ids length must match the number of membership columns")

    # One pooled ranking serves every term: only the members' rank sum differs.
    n_genes = len(gene_scores)
    ranks, tie_sizes = _rank_with_ties(gene_scores)
    tie_term = float(np.sum(tie_sizes ** 3 - tie_sizes))
    members = (membership != 0).astype(np.float64)
    member_counts = members.sum(axis=0).astype(np.intp).tolist()
    member_rank_sums = (ranks @ members).tolist()

    p_values = np.ones(n_terms, dtype=np.float64)
    z_scores = np.zeros(n_terms, dtype=np.float64)
    for term_index, (n_members, rank_sum) in enumerate(
            zip(member_counts, member_rank_sums, strict=True)):
        if n_members == 0 or n_members == n_genes:
            continue
        result = _normal_approximation(rank_sum, n_members, n_genes - n_members, tie_term)
        p_values[term_index] = result.p_value
        z_scores[term_index] = result.z_score

    significant = p_values < alpha
    return EnrichmentResult(
        go_ids=go_ids,
        p_values=p_values,
        z_scores=z_scores,
        significant=significant,
        alpha=alpha,
    )
