"""Gene metadata generator.

The gene metadata table (paper Section 3.1.3) records, for every gene in the
microarray matrix:

* ``gene_id`` — matches the column index of the microarray matrix,
* ``target`` — the id of another gene targeted by this gene's protein,
* ``position`` — base pairs from the start of the chromosome to the gene,
* ``length`` — gene length in base pairs,
* ``function`` — the gene's biological function coded as an integer.

The benchmark's "select genes with ``function < threshold``" predicates (Q1
and Q4) rely on the function codes being roughly uniform over
``[0, n_functions)`` so a threshold selects a predictable fraction of genes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datagen.sizes import SizeSpec, resolve_size


@dataclass
class GeneMetadata:
    """Generated gene metadata, column-oriented (length ``n_genes`` arrays)."""

    gene_id: np.ndarray
    target: np.ndarray
    position: np.ndarray
    length: np.ndarray
    function: np.ndarray

    @property
    def n_genes(self) -> int:
        return len(self.gene_id)


def generate_genes(spec: SizeSpec | str, seed: int = 0) -> GeneMetadata:
    """Generate gene metadata for a dataset of ``spec.n_genes`` genes.

    The target pointers form a random functional graph over the gene ids
    (self-targets are avoided when there is more than one gene); positions
    are drawn so genes are laid out along a synthetic chromosome without
    overlapping on average; lengths follow a log-normal distribution similar
    to real human gene lengths; function codes are uniform over
    ``[0, spec.n_functions)``.
    """
    spec = resolve_size(spec)
    rng = np.random.default_rng(seed + 2)
    n = spec.n_genes

    gene_id = np.arange(n, dtype=np.int64)

    target = rng.integers(0, n, size=n)
    if n > 1:
        self_targets = target == gene_id
        # re-point self-targets at the next gene (mod n) to keep the graph simple
        target[self_targets] = (gene_id[self_targets] + 1) % n

    length = np.maximum(50, rng.lognormal(mean=7.0, sigma=1.0, size=n)).astype(np.int64)
    gaps = rng.integers(100, 10_000, size=n)
    position = np.cumsum(gaps + length) - length
    function = rng.integers(0, spec.n_functions, size=n)

    return GeneMetadata(
        gene_id=gene_id,
        target=target.astype(np.int64),
        position=position.astype(np.int64),
        length=length,
        function=function.astype(np.int64),
    )
