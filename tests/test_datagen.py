"""Tests for the synthetic data generators."""

from __future__ import annotations

import io

import numpy as np
import pytest

from repro.datagen import (
    GenBaseDataset,
    SIZE_PRESETS,
    SizeSpec,
    generate_genes,
    generate_microarray,
    generate_ontology,
    generate_patients,
    read_table_csv,
    write_table_csv,
)
from repro.datagen.sizes import PAPER_REPORTED_SIZES, resolve_size


class TestSizeSpec:
    def test_presets_include_paper_sizes(self):
        assert SIZE_PRESETS["paper-small"].n_genes == 5_000
        assert SIZE_PRESETS["paper-small"].n_patients == 5_000
        assert SIZE_PRESETS["paper-medium"].n_genes == 15_000
        assert SIZE_PRESETS["paper-large"].n_patients == 40_000
        assert SIZE_PRESETS["paper-xlarge"].n_genes == 60_000

    def test_reported_sizes_grow_monotonically(self):
        cells = [SIZE_PRESETS[name].n_cells for name in PAPER_REPORTED_SIZES]
        assert cells == sorted(cells)
        assert cells[0] < cells[-1]

    def test_resolve_by_name_and_passthrough(self):
        spec = resolve_size("tiny")
        assert isinstance(spec, SizeSpec)
        assert resolve_size(spec) is spec

    def test_resolve_unknown_raises(self):
        with pytest.raises(KeyError, match="unknown size preset"):
            resolve_size("gigantic")

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            SizeSpec(name="bad", n_genes=0, n_patients=10)
        with pytest.raises(ValueError):
            SizeSpec(name="bad", n_genes=10, n_patients=10, latent_rank=0)
        with pytest.raises(ValueError):
            SizeSpec(name="bad", n_genes=10, n_patients=10, n_causal_genes=11)

    def test_scaled_preserves_positive_dimensions(self):
        spec = SIZE_PRESETS["small"].scaled(0.5)
        assert spec.n_genes == 50
        assert spec.n_patients == 50
        with pytest.raises(ValueError):
            SIZE_PRESETS["small"].scaled(0)

    def test_cells_and_bytes(self):
        spec = SIZE_PRESETS["tiny"]
        assert spec.n_cells == spec.n_genes * spec.n_patients
        assert spec.microarray_bytes == spec.n_cells * 8


class TestMicroarray:
    def test_shape_and_positivity(self):
        data = generate_microarray("tiny", seed=3)
        spec = SIZE_PRESETS["tiny"]
        assert data.matrix.shape == (spec.n_patients, spec.n_genes)
        assert np.all(data.matrix >= 0)
        assert np.all(np.isfinite(data.matrix))

    def test_deterministic_for_seed(self):
        a = generate_microarray("tiny", seed=5).matrix
        b = generate_microarray("tiny", seed=5).matrix
        c = generate_microarray("tiny", seed=6).matrix
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_planted_rank_visible_in_spectrum(self):
        data = generate_microarray("small", seed=0)
        singular_values = np.linalg.svd(
            data.matrix - data.matrix.mean(axis=0), compute_uv=False
        )
        rank = data.structure.latent_rank
        # The spectrum should fall off after the planted rank.
        assert singular_values[0] > 2 * singular_values[rank + 3]

    def test_relational_form_roundtrip(self):
        data = generate_microarray("tiny", seed=1)
        relational = data.to_relational()
        assert relational.shape == (data.matrix.size, 3)
        gene = int(relational[17, 0])
        patient = int(relational[17, 1])
        assert relational[17, 2] == pytest.approx(data.matrix[patient, gene])

    def test_rows_iterator_matches_matrix(self):
        data = generate_microarray("tiny", seed=1)
        first = next(iter(data.rows()))
        assert first[0] == 0 and first[1] == 0
        assert first[2] == pytest.approx(float(data.matrix[0, 0]))

    def test_biclusters_are_planted(self):
        data = generate_microarray("tiny", seed=2)
        assert len(data.structure.bicluster_rows) >= 1
        rows = data.structure.bicluster_rows[0]
        cols = data.structure.bicluster_cols[0]
        block = data.matrix[np.ix_(rows, cols)]
        # Planted biclusters are under-expressed relative to the matrix mean.
        assert block.mean() < data.matrix.mean()


class TestPatients:
    def test_columns_and_ranges(self):
        micro = generate_microarray("tiny", seed=0)
        patients = generate_patients("tiny", micro, seed=0)
        assert patients.n_patients == micro.n_patients
        assert patients.age.min() >= 18 and patients.age.max() < 95
        assert set(np.unique(patients.gender)) <= {0, 1}
        assert patients.disease_id.min() >= 1
        assert patients.disease_id.max() <= SIZE_PRESETS["tiny"].n_diseases

    def test_drug_response_correlates_with_causal_genes(self):
        micro = generate_microarray("small", seed=0)
        patients = generate_patients("small", micro, seed=0)
        causal = micro.structure.causal_genes
        signal = micro.matrix[:, causal] @ micro.structure.causal_weights
        correlation = np.corrcoef(signal, patients.drug_response)[0, 1]
        assert correlation > 0.9

    def test_spec_mismatch_raises(self):
        micro = generate_microarray("tiny", seed=0)
        with pytest.raises(ValueError, match="patients"):
            generate_patients("small", micro, seed=0)

    def test_relational_and_column_access(self):
        micro = generate_microarray("tiny", seed=0)
        patients = generate_patients("tiny", micro, seed=0)
        table = patients.to_relational()
        assert table.shape == (patients.n_patients, 6)
        np.testing.assert_array_equal(
            patients.column("age"), patients.age
        )
        with pytest.raises(KeyError):
            patients.column("nope")


class TestGenes:
    def test_fields_and_no_self_targets(self):
        genes = generate_genes("small", seed=0)
        assert genes.n_genes == SIZE_PRESETS["small"].n_genes
        assert not np.any(genes.target == genes.gene_id)
        assert np.all(genes.length >= 50)
        assert np.all(np.diff(genes.position) > 0)
        assert genes.function.max() < SIZE_PRESETS["small"].n_functions

    def test_relational_shape(self):
        genes = generate_genes("tiny", seed=0)
        assert genes.to_relational().shape == (genes.n_genes, 5)

    def test_column_lookup(self):
        genes = generate_genes("tiny", seed=0)
        np.testing.assert_array_equal(genes.column("function"), genes.function)
        with pytest.raises(KeyError):
            genes.column("unknown")


class TestOntology:
    def test_membership_shape_and_minimum_members(self):
        micro = generate_microarray("tiny", seed=0)
        ontology = generate_ontology("tiny", micro, seed=0)
        spec = SIZE_PRESETS["tiny"]
        assert ontology.membership.shape == (spec.n_genes, spec.n_go_terms)
        assert np.all(ontology.membership.sum(axis=0) >= 2)

    def test_enriched_terms_use_differential_genes(self):
        micro = generate_microarray("small", seed=0)
        ontology = generate_ontology("small", micro, seed=0)
        assert len(ontology.enriched_terms) >= 1
        differential = set(micro.structure.differential_genes.tolist())
        for term in ontology.enriched_terms:
            members = set(ontology.members(int(term)).tolist())
            overlap = len(members & differential) / len(members)
            assert overlap > 0.5

    def test_relational_forms(self):
        micro = generate_microarray("tiny", seed=0)
        ontology = generate_ontology("tiny", micro, seed=0)
        dense = ontology.to_relational(include_zeros=True)
        sparse = ontology.to_relational(include_zeros=False)
        assert dense.shape[0] == ontology.n_genes * ontology.n_go_terms
        assert sparse.shape[0] == int(ontology.membership.sum())
        assert np.all(sparse[:, 2] == 1)


class TestDataset:
    def test_describe(self, tiny_dataset):
        description = tiny_dataset.describe()
        assert description["n_genes"] == tiny_dataset.spec.n_genes
        assert description["size"] == "tiny"

    def test_consistency_across_tables(self, tiny_dataset):
        assert tiny_dataset.microarray.n_patients == tiny_dataset.patients.n_patients
        assert tiny_dataset.microarray.n_genes == tiny_dataset.genes.n_genes
        assert tiny_dataset.ontology.n_genes == tiny_dataset.genes.n_genes

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_generated_intensities_are_finite_and_non_negative(self, seed):
        dataset = GenBaseDataset.generate("tiny", seed=seed)
        matrix = dataset.expression_matrix
        assert matrix.shape == (dataset.n_patients, dataset.n_genes)
        assert np.all(np.isfinite(matrix))
        assert np.all(matrix >= 0)

    def test_relational_accessors(self, tiny_dataset):
        assert tiny_dataset.microarray_relational().shape[1] == 3
        assert tiny_dataset.patients_relational().shape[1] == 6
        assert tiny_dataset.genes_relational().shape[1] == 5
        assert tiny_dataset.ontology_relational().shape[1] == 3


class TestWriters:
    def test_table_csv_roundtrip(self):
        rows = [(1, 2.5, "a"), (2, 3.5, "b")]
        buffer = io.StringIO()
        write_table_csv(rows, ("x", "y", "label"), buffer)
        buffer.seek(0)
        columns, restored = read_table_csv(buffer)
        assert columns == ["x", "y", "label"]
        assert restored[0][0] == 1.0
        assert restored[1][2] == "b"

    def test_table_csv_file_roundtrip_is_exact(self, rng, tmp_path):
        # The "+ R" adapters copy intermediates through these files, so a
        # float must come back bit for bit (written with full repr precision).
        matrix = rng.standard_normal((7, 4)) * 10.0 ** rng.integers(-300, 300, (7, 4))
        path = tmp_path / "matrix.csv"
        assert write_table_csv(map(tuple, matrix), ("a", "b", "c", "d"), path) == 7
        columns, rows = read_table_csv(path)
        assert columns == ["a", "b", "c", "d"]
        np.testing.assert_array_equal(np.asarray(rows), matrix)

    def test_empty_table_csv(self):
        columns, rows = read_table_csv(io.StringIO(""))
        assert columns == [] and rows == []
