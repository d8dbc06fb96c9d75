"""The bundled GenBase dataset: microarray + patients + genes + GO.

:class:`GenBaseDataset` is the object every engine adapter loads from.  It
holds the four generated tables plus the size spec and seed used to produce
them, and provides the relational/array conversions the engines need.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datagen.genes import GeneMetadata, generate_genes
from repro.datagen.microarray import MicroarrayData, generate_microarray
from repro.datagen.ontology import GeneOntologyData, generate_ontology
from repro.datagen.patients import PatientMetadata, generate_patients
from repro.datagen.sizes import SizeSpec, resolve_size


@dataclass
class GenBaseDataset:
    """All four GenBase tables generated from one (size, seed) pair."""

    spec: SizeSpec
    seed: int
    microarray: MicroarrayData
    patients: PatientMetadata
    genes: GeneMetadata
    ontology: GeneOntologyData

    @classmethod
    def generate(cls, size: SizeSpec | str, seed: int = 0) -> "GenBaseDataset":
        """Generate a full, mutually consistent GenBase dataset.

        Args:
            size: preset name (``"tiny"`` … ``"large"``, or ``"paper-*"``)
                or an explicit :class:`SizeSpec`.
            seed: master seed; each table derives its own stream from it.
        """
        spec = resolve_size(size)
        microarray = generate_microarray(spec, seed=seed)
        patients = generate_patients(spec, microarray, seed=seed)
        genes = generate_genes(spec, seed=seed)
        ontology = generate_ontology(spec, microarray, seed=seed)
        return cls(
            spec=spec,
            seed=seed,
            microarray=microarray,
            patients=patients,
            genes=genes,
            ontology=ontology,
        )

    # ------------------------------------------------------------------ #
    # Convenience accessors used by the engine adapters.
    # ------------------------------------------------------------------ #

    @property
    def n_genes(self) -> int:
        return self.spec.n_genes

    @property
    def n_patients(self) -> int:
        return self.spec.n_patients

    @property
    def expression_matrix(self) -> np.ndarray:
        """The dense ``(n_patients, n_genes)`` expression matrix."""
        return self.microarray.matrix

    def microarray_relational(self) -> np.ndarray:
        """Relational microarray table ``(gene_id, patient_id, value)``."""
        return self.microarray.to_relational()

    def ontology_relational(self, include_zeros: bool = False) -> np.ndarray:
        """Relational GO membership table.

        The default here is the sparse (memberships only) encoding, which is
        what every engine actually joins against; pass ``include_zeros=True``
        for the paper's fully materialised 0/1 schema.
        """
        return self.ontology.to_relational(include_zeros=include_zeros)

    def describe(self) -> dict:
        """Return a small summary dict (used by examples and reports)."""
        return {
            "size": self.spec.name,
            "seed": self.seed,
            "n_genes": self.n_genes,
            "n_patients": self.n_patients,
            "n_go_terms": self.ontology.n_go_terms,
            "microarray_cells": self.spec.n_cells,
            "microarray_mbytes": round(self.spec.microarray_bytes / 1e6, 3),
        }

