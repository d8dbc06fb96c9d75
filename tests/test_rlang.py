"""Tests for the R-like environment (data frame, IO, stats)."""

from __future__ import annotations

import io

import numpy as np
import pytest

from repro.plan import col, lit
from repro.rlang import (
    DataFrame,
    REnvironment,
    RMemoryError,
    biclust,
    cov,
    dataframe_from_csv_string,
    dataframe_to_csv_string,
    enrichment,
    lm,
    read_csv,
    svd,
    write_csv,
)


@pytest.fixture()
def frame(rng) -> DataFrame:
    return DataFrame(
        {
            "gene_id": np.arange(30),
            "function": rng.integers(0, 50, 30),
            "length": rng.integers(100, 1000, 30),
        }
    )


class TestDataFrame:
    def test_construction_checks(self, rng):
        with pytest.raises(ValueError):
            DataFrame({})
        with pytest.raises(ValueError):
            DataFrame({"a": np.arange(3), "b": np.arange(4)})
        with pytest.raises(ValueError):
            DataFrame({"a": rng.random((3, 2))})

    def test_basic_accessors(self, frame):
        assert len(frame) == 30
        assert frame.names == ["gene_id", "function", "length"]
        assert "gene_id" in frame
        with pytest.raises(KeyError):
            frame["missing"]

    def test_subset_and_select(self, frame):
        subset = frame.subset(col("function") < 25)
        assert np.all(subset["function"] < 25)
        selected = subset.select(["gene_id"])
        assert selected.names == ["gene_id"]
        with pytest.raises(KeyError):
            frame.subset(col("missing") < 1)
        with pytest.raises(ValueError):
            frame.subset(lit(1) < lit(2))  # one boolean, not one per row

    def test_merge_inner_join(self, rng):
        left = DataFrame({"key": np.array([1, 2, 2, 3]), "x": np.arange(4.0)})
        right = DataFrame({"key": np.array([2, 3, 4]), "y": np.array([10.0, 20.0, 30.0])})
        merged = left.merge(right, by="key")
        assert len(merged) == 3  # keys 2 (twice) and 3
        assert set(merged.names) == {"key", "x", "y"}

    def test_merge_suffixes_colliding_columns(self):
        left = DataFrame({"key": np.array([1, 2]), "value": np.array([1.0, 2.0])})
        right = DataFrame({"key": np.array([1, 2]), "value": np.array([3.0, 4.0])})
        merged = left.merge(right, by="key")
        assert "value_y" in merged.names

    def test_merge_different_key_names(self):
        left = DataFrame({"a": np.array([1, 2])})
        right = DataFrame({"b": np.array([2, 3]), "v": np.array([1.0, 2.0])})
        merged = left.merge(right, by="a", by_other="b")
        assert len(merged) == 1

    def test_as_matrix_and_pivot(self, rng):
        frame = DataFrame(
            {
                "patient_id": np.repeat(np.arange(4), 3),
                "gene_id": np.tile(np.arange(3), 4),
                "value": rng.random(12),
            }
        )
        matrix, rows, cols = frame.pivot_matrix("patient_id", "gene_id", "value")
        assert matrix.shape == (4, 3)
        as_matrix = frame.as_matrix(["value"])
        assert as_matrix.shape == (12, 1)

    def test_memory_limit_on_construction(self):
        environment = REnvironment(max_cells=10)
        with pytest.raises(RMemoryError):
            DataFrame({"x": np.arange(100)}, environment=environment)

    def test_memory_limit_on_pivot(self, rng):
        environment = REnvironment(max_cells=10_000)
        frame = DataFrame(
            {
                "patient_id": np.repeat(np.arange(200), 10),
                "gene_id": np.tile(np.arange(10), 200),
                "value": rng.random(2000),
            },
            environment=environment,
        )
        # The long frame fits, but a 200x10 pivot plus live frames exceeds nothing;
        # shrink the limit to force the pivot itself to fail.
        environment.max_cells = 500
        with pytest.raises(RMemoryError):
            frame.pivot_matrix("patient_id", "gene_id", "value")

    def test_total_bytes_limit(self):
        environment = REnvironment(max_total_bytes=100)
        with pytest.raises(RMemoryError):
            DataFrame({"x": np.arange(1000, dtype=np.float64)}, environment=environment)


class TestIO:
    def test_csv_roundtrip(self, frame):
        payload = dataframe_to_csv_string(frame)
        restored = dataframe_from_csv_string(payload)
        assert restored.names == frame.names
        np.testing.assert_allclose(restored["length"], frame["length"].astype(float))

    def test_write_and_read_file(self, frame, tmp_path):
        path = tmp_path / "frame.csv"
        n_rows = write_csv(frame, path)
        assert n_rows == len(frame)
        restored = read_csv(path)
        assert len(restored) == len(frame)

    def test_read_csv_mixed_types(self):
        payload = "id,name\n1,alice\n2,bob\n"
        frame = read_csv(io.StringIO(payload))
        assert frame["name"].dtype.kind in ("U", "O")
        np.testing.assert_array_equal(frame["id"], [1.0, 2.0])

    def test_read_csv_empty_body(self):
        frame = read_csv(io.StringIO("a,b\n"))
        assert len(frame) == 0
        with pytest.raises(ValueError):
            read_csv(io.StringIO(""))


class TestStats:
    def test_lm_array_and_frame_forms(self, rng):
        features = rng.random((60, 3))
        target = features @ np.array([1.0, 2.0, 3.0]) + 0.5
        fit = lm(features, target)
        np.testing.assert_allclose(fit.coefficients, [1.0, 2.0, 3.0], atol=1e-8)
        frame = DataFrame(
            {"a": features[:, 0], "b": features[:, 1], "c": features[:, 2], "y": target}
        )
        fit2 = lm(frame, feature_names=["a", "b", "c"], target_name="y")
        np.testing.assert_allclose(fit2.coefficients, fit.coefficients, atol=1e-10)
        with pytest.raises(ValueError):
            lm(frame)
        with pytest.raises(ValueError):
            lm(features)

    def test_cov_and_svd(self, rng):
        matrix = rng.random((30, 8))
        np.testing.assert_allclose(cov(matrix), np.cov(matrix, rowvar=False), atol=1e-12)
        result = svd(matrix, k=4)
        np.testing.assert_allclose(
            result.singular_values, np.linalg.svd(matrix, compute_uv=False)[:4], atol=1e-6
        )

    def test_biclust(self, rng):
        matrix = rng.random((20, 15))
        result = biclust(matrix, n_biclusters=2)
        assert len(result) == 2

    def test_enrichment_wrapper(self, rng):
        scores = rng.random(50)
        membership = (rng.random((50, 5)) < 0.2).astype(np.int8)
        result = enrichment(scores, membership, alpha=0.1)
        assert result.alpha == 0.1
        assert len(result.p_values) == 5
