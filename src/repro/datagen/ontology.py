"""Gene ontology (GO) membership generator.

The GO dataset (paper Section 3.1.4) is a sparse 0/1 matrix relating genes to
GO categories:

* relational form: ``gene_ontology(gene_id, go_id, belongs)``
* array form: ``belongs[gene_id, go_id]``

A gene may belong to several categories (GO is a DAG of biological
processes).  To give the enrichment query (Q5) real signal, a few *enriched*
GO terms are built mostly from the differentially expressed genes planted by
the microarray generator; the remaining terms draw members uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.datagen.microarray import MicroarrayData
from repro.datagen.sizes import SizeSpec, resolve_size

#: Column order of the relational form of the GO membership table.
ONTOLOGY_COLUMNS = ("gene_id", "go_id", "belongs")


@dataclass
class GeneOntologyData:
    """Generated GO membership data.

    Attributes:
        membership: dense ``(n_genes, n_go_terms)`` int8 0/1 matrix
            (the array form).
        enriched_terms: go_ids whose member genes were drawn preferentially
            from the differentially expressed gene set (ground truth for Q5).
    """

    membership: np.ndarray
    enriched_terms: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.intp))

    @property
    def n_genes(self) -> int:
        return self.membership.shape[0]

    @property
    def n_go_terms(self) -> int:
        return self.membership.shape[1]

    def members(self, go_id: int) -> np.ndarray:
        """Return the gene ids belonging to ``go_id``."""
        return np.flatnonzero(self.membership[:, go_id])

    def to_relational(self, include_zeros: bool = True) -> np.ndarray:
        """Return the relational form as an ``(n_rows, 3)`` float array.

        Args:
            include_zeros: if True (the paper's schema) every (gene, GO) pair
                is emitted with an explicit 0/1 flag; if False only the
                memberships are emitted (a sparse encoding).
        """
        n_genes, n_terms = self.membership.shape
        if include_zeros:
            gene_ids, go_ids = np.meshgrid(
                np.arange(n_genes), np.arange(n_terms), indexing="ij"
            )
            return np.column_stack(
                [gene_ids.ravel(), go_ids.ravel(), self.membership.ravel()]
            ).astype(np.float64)
        gene_idx, go_idx = np.nonzero(self.membership)
        return np.column_stack(
            [gene_idx, go_idx, np.ones(len(gene_idx))]
        ).astype(np.float64)


def generate_ontology(
    spec: SizeSpec | str,
    microarray: MicroarrayData | None = None,
    seed: int = 0,
    membership_prob: float = 0.08,
    n_enriched_terms: int = 3,
) -> GeneOntologyData:
    """Generate a GO membership matrix for ``spec.n_genes`` × ``spec.n_go_terms``.

    Args:
        spec: size preset or spec.
        microarray: if given, its planted differentially expressed genes are
            used to build enriched GO terms; if None all terms are random.
        seed: RNG seed.
        membership_prob: background probability that a gene belongs to a term.
        n_enriched_terms: number of terms enriched in differential genes.
    """
    spec = resolve_size(spec)
    rng = np.random.default_rng(seed + 3)
    n_genes, n_terms = spec.n_genes, spec.n_go_terms

    membership = (rng.random((n_genes, n_terms)) < membership_prob).astype(np.int8)

    # Guarantee every term has at least two members so the rank-sum test is
    # defined for every go_id.
    for go_id in range(n_terms):
        if membership[:, go_id].sum() < 2:
            fill = rng.choice(n_genes, size=min(2, n_genes), replace=False)
            membership[fill, go_id] = 1

    enriched_terms = np.empty(0, dtype=np.intp)
    if microarray is not None and len(microarray.structure.differential_genes):
        diff_genes = microarray.structure.differential_genes
        n_enriched = min(n_enriched_terms, n_terms)
        enriched_terms = rng.choice(n_terms, size=n_enriched, replace=False)
        for go_id in enriched_terms:
            membership[:, go_id] = 0
            # ~80% of the enriched term's members come from the differential set.
            n_members = max(3, len(diff_genes) // 2)
            chosen = rng.choice(diff_genes, size=min(n_members, len(diff_genes)), replace=False)
            membership[chosen, go_id] = 1
            n_background = max(1, n_members // 5)
            background = rng.choice(n_genes, size=min(n_background, n_genes), replace=False)
            membership[background, go_id] = 1

    return GeneOntologyData(
        membership=membership,
        enriched_terms=np.sort(enriched_terms.astype(np.intp)),
    )
