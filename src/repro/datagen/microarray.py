"""Microarray (expression matrix) generator.

The microarray dataset is the central GenBase table: a dense matrix of
expression values with one row per patient and one column per gene
(Section 3.1.1 of the paper).  It exists in two logical representations:

* relational form: ``microarray(gene_id, patient_id, expression_value)``
* array form: ``expression_value[patient_id, gene_id]``

The generator plants structure that the benchmark queries are designed to
recover:

* a low-rank component (rank ``spec.latent_rank``) so SVD has a clear signal,
* co-regulated gene *modules* that create high pairwise covariance,
* ``spec.n_biclusters`` biclusters — contiguous patient/gene blocks whose
  expression is shifted down (under-expressed), the pattern Q3 looks for,
* a set of differentially expressed genes tied to enriched GO terms (Q5).

Expression values are kept positive (as raw intensities are) by applying a
softplus-style shift at the end.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.datagen.sizes import SizeSpec, resolve_size


@dataclass
class PlantedStructure:
    """Ground-truth structure planted in a generated microarray matrix.

    This is not part of the benchmark data itself; tests and examples use it
    to verify that the analytics recover what was planted.
    """

    latent_rank: int
    gene_modules: list[np.ndarray] = field(default_factory=list)
    bicluster_rows: list[np.ndarray] = field(default_factory=list)
    bicluster_cols: list[np.ndarray] = field(default_factory=list)
    causal_genes: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.intp))
    causal_weights: np.ndarray = field(default_factory=lambda: np.empty(0))
    differential_genes: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.intp))


@dataclass
class MicroarrayData:
    """The generated microarray dataset.

    Attributes:
        matrix: dense ``(n_patients, n_genes)`` float64 array of expression
            values, the *array form* of the data.
        structure: the planted ground truth (for validation only).
    """

    matrix: np.ndarray
    structure: PlantedStructure

    @property
    def n_patients(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_genes(self) -> int:
        return self.matrix.shape[1]

    def to_relational(self) -> np.ndarray:
        """Return the relational form as an ``(n_cells, 3)`` array.

        Columns are ``(gene_id, patient_id, expression_value)`` in the order
        used by the paper's relational schema.  Gene and patient ids are
        0-based integers stored as floats (the relational engines re-type
        them on load).
        """
        n_patients, n_genes = self.matrix.shape
        gene_ids, patient_ids = np.meshgrid(
            np.arange(n_genes), np.arange(n_patients), indexing="xy"
        )
        return np.column_stack(
            [gene_ids.ravel(), patient_ids.ravel(), self.matrix.ravel()]
        ).astype(np.float64)


def _planted_modules(rng: np.random.Generator, spec: SizeSpec) -> list[np.ndarray]:
    """Pick disjoint groups of genes that will be co-regulated."""
    n_modules = max(2, spec.latent_rank // 2)
    module_size = max(2, spec.n_genes // (4 * n_modules))
    gene_order = rng.permutation(spec.n_genes)
    modules = []
    cursor = 0
    for _ in range(n_modules):
        members = gene_order[cursor:cursor + module_size]
        if len(members) < 2:
            break
        modules.append(np.sort(members))
        cursor += module_size
    return modules


def generate_microarray(
    spec: SizeSpec | str,
    seed: int = 0,
    noise_scale: float = 0.25,
) -> MicroarrayData:
    """Generate a synthetic microarray matrix with planted structure.

    Args:
        spec: a size preset name or explicit :class:`SizeSpec`.
        seed: RNG seed; the output is deterministic for a given (spec, seed).
        noise_scale: standard deviation of the additive Gaussian noise,
            relative to the planted signal scale of 1.0.

    Returns:
        A :class:`MicroarrayData` with a positive dense expression matrix.
    """
    spec = resolve_size(spec)
    rng = np.random.default_rng(seed)
    n_patients, n_genes = spec.n_patients, spec.n_genes
    rank = min(spec.latent_rank, n_genes, n_patients)

    # Low-rank latent structure: patients load on `rank` biological factors,
    # genes respond to them.  Factor magnitudes decay so the singular value
    # spectrum has a visible elbow at `rank`.
    patient_factors = rng.standard_normal((n_patients, rank))
    gene_loadings = rng.standard_normal((rank, n_genes))
    factor_scales = np.linspace(2.0, 0.8, rank)
    matrix = (patient_factors * factor_scales) @ gene_loadings

    # Co-regulated gene modules: add a shared per-patient signal to each
    # module so those gene pairs have high covariance (Q2's target).
    structure = PlantedStructure(latent_rank=rank)
    structure.gene_modules = _planted_modules(rng, spec)
    for module in structure.gene_modules:
        shared = rng.standard_normal(n_patients) * 1.5
        response = 0.5 + rng.random(len(module))
        matrix[:, module] += np.outer(shared, response)

    # Planted biclusters: blocks of patients x genes that are uniformly
    # under-expressed (values pulled toward a low constant), the pattern the
    # biclustering query looks for.
    n_biclusters = min(spec.n_biclusters, max(1, n_genes // 10), max(1, n_patients // 10))
    for _ in range(n_biclusters):
        n_rows = max(2, n_patients // 10)
        n_cols = max(2, n_genes // 10)
        row_idx = np.sort(rng.choice(n_patients, size=n_rows, replace=False))
        col_idx = np.sort(rng.choice(n_genes, size=n_cols, replace=False))
        matrix[np.ix_(row_idx, col_idx)] = (
            -3.0 + 0.1 * rng.standard_normal((n_rows, n_cols))
        )
        structure.bicluster_rows.append(row_idx)
        structure.bicluster_cols.append(col_idx)

    # Differentially expressed genes: a subset of genes get a consistent
    # positive shift, giving the enrichment query (Q5) something to find.
    n_diff = max(2, n_genes // 10)
    structure.differential_genes = np.sort(
        rng.choice(n_genes, size=n_diff, replace=False)
    )
    matrix[:, structure.differential_genes] += 2.0

    # Causal genes for the regression query are chosen here so that the
    # patient generator can build drug response from the same matrix.
    n_causal = min(spec.n_causal_genes, n_genes)
    structure.causal_genes = np.sort(rng.choice(n_genes, size=n_causal, replace=False))
    structure.causal_weights = rng.uniform(0.5, 1.5, size=n_causal) * rng.choice(
        [-1.0, 1.0], size=n_causal
    )

    # Additive measurement noise, then shift to positive intensities.
    matrix += noise_scale * rng.standard_normal((n_patients, n_genes))
    matrix = np.log1p(np.exp(matrix))  # softplus keeps intensities positive

    return MicroarrayData(matrix=np.ascontiguousarray(matrix), structure=structure)
