"""Synthetic genomics data generators for the GenBase benchmark.

The paper uses four related datasets (Section 3.1):

* **Microarray data** — a dense patients × genes matrix of expression values.
* **Patient metadata** — (patient id, age, gender, zipcode, disease id,
  drug response).
* **Gene metadata** — (gene id, target gene, position, length, function).
* **Gene ontology (GO) data** — a sparse 0/1 membership matrix between genes
  and GO categories.

The generators here are deterministic given a seed and produce data with
*planted structure* so that every benchmark query has a meaningful answer:

* the expression matrix is low-rank-plus-noise, so the Lanczos SVD (Q4)
  recovers a clear spectral gap;
* a handful of "causal" genes drive the drug-response column, so the QR
  regression (Q1) recovers non-trivial coefficients;
* co-regulated gene modules create blocks of high covariance (Q2) and
  planted biclusters (Q3);
* a few GO categories are enriched in differentially expressed genes, so the
  Wilcoxon enrichment query (Q5) finds significant terms.
"""

from repro.datagen.sizes import SizeSpec, SIZE_PRESETS, resolve_size
from repro.datagen.microarray import MicroarrayData, generate_microarray
from repro.datagen.patients import PatientMetadata, generate_patients
from repro.datagen.genes import GeneMetadata, generate_genes
from repro.datagen.ontology import GeneOntologyData, generate_ontology
from repro.datagen.dataset import GenBaseDataset
from repro.datagen.writer import (
    read_table_csv,
    write_table_csv,
)

__all__ = [
    "SizeSpec",
    "SIZE_PRESETS",
    "resolve_size",
    "MicroarrayData",
    "generate_microarray",
    "PatientMetadata",
    "generate_patients",
    "GeneMetadata",
    "generate_genes",
    "GeneOntologyData",
    "generate_ontology",
    "GenBaseDataset",
    "read_table_csv",
    "write_table_csv",
]
