"""Patient metadata generator.

The patient metadata table (paper Section 3.1.2) records, for every patient
in the microarray matrix:

* ``patient_id`` — matches the row index of the microarray matrix,
* ``age`` — years,
* ``gender`` — 0 (female) or 1 (male); the paper prints F/M,
* ``zipcode`` — a 5-digit US-style zip code,
* ``disease_id`` — an integer code in ``[1, n_diseases]``,
* ``drug_response`` — a continuous response score.

Drug response is generated as a linear function of the expression of the
*causal genes* planted by :mod:`repro.datagen.microarray` plus noise, so the
regression query (Q1) has a recoverable signal, and its R² degrades
gracefully with the generator's noise level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datagen.microarray import MicroarrayData
from repro.datagen.sizes import SizeSpec, resolve_size


@dataclass
class PatientMetadata:
    """Generated patient metadata, column-oriented.

    All arrays have length ``n_patients`` and share the patient-id order of
    the microarray matrix rows.
    """

    patient_id: np.ndarray
    age: np.ndarray
    gender: np.ndarray
    zipcode: np.ndarray
    disease_id: np.ndarray
    drug_response: np.ndarray

    @property
    def n_patients(self) -> int:
        return len(self.patient_id)


def generate_patients(
    spec: SizeSpec | str,
    microarray: MicroarrayData,
    seed: int = 0,
    response_noise: float = 0.5,
) -> PatientMetadata:
    """Generate patient metadata consistent with a microarray matrix.

    Args:
        spec: size preset or spec; ``spec.n_patients`` must match the matrix.
        microarray: the expression data whose planted causal genes drive the
            drug-response column.
        seed: RNG seed (independent of the microarray seed).
        response_noise: standard deviation of the noise added to the linear
            drug-response model.

    Raises:
        ValueError: if the spec and the microarray disagree on patient count.
    """
    spec = resolve_size(spec)
    if spec.n_patients != microarray.n_patients:
        raise ValueError(
            f"spec says {spec.n_patients} patients but microarray has "
            f"{microarray.n_patients}"
        )

    rng = np.random.default_rng(seed + 1)
    n = spec.n_patients

    age = rng.integers(18, 95, size=n)
    gender = rng.integers(0, 2, size=n)
    zipcode = rng.integers(1000, 99999, size=n)
    disease_id = rng.integers(1, spec.n_diseases + 1, size=n)

    structure = microarray.structure
    causal = structure.causal_genes
    weights = structure.causal_weights
    if len(causal):
        causal_expression = microarray.matrix[:, causal]
        signal = causal_expression @ weights
    else:
        signal = np.zeros(n)
    drug_response = signal + response_noise * rng.standard_normal(n)

    return PatientMetadata(
        patient_id=np.arange(n, dtype=np.int64),
        age=age.astype(np.int64),
        gender=gender.astype(np.int64),
        zipcode=zipcode.astype(np.int64),
        disease_id=disease_id.astype(np.int64),
        drug_response=drug_response.astype(np.float64),
    )
