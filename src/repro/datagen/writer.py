"""CSV import/export for GenBase datasets.

Two distinct uses:

1. Persisting a generated dataset to disk so it can be shared / reloaded
   (``write_dataset_csv``), mirroring the downloadable data files on the
   original GenBase website.
2. Modelling the *copy and reformat* cost the paper highlights for
   configurations that bolt an external analytics package (R) onto a DBMS:
   the "+ R" engine adapters serialise intermediate results through these
   writers and re-parse them, so the overhead is real, not simulated.

The format is plain CSV with a header row; floats are written with full
``repr`` precision so round-trips are exact to float64.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np


def write_matrix_csv(matrix: np.ndarray, destination) -> int:
    """Write a dense 2-D matrix as CSV (no header).

    Args:
        matrix: 2-D numpy array.
        destination: a path or an open text file object.

    Returns:
        The number of data rows written.
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise ValueError("write_matrix_csv expects a 2-D array")
    if isinstance(destination, (str, Path)):
        with open(destination, "w", newline="") as handle:
            return write_matrix_csv(matrix, handle)
    writer = csv.writer(destination)
    for row in matrix:
        writer.writerow([repr(float(value)) for value in row])
    return matrix.shape[0]


def read_matrix_csv(source) -> np.ndarray:
    """Read a dense matrix previously written by :func:`write_matrix_csv`."""
    if isinstance(source, (str, Path)):
        with open(source, newline="") as handle:
            return read_matrix_csv(handle)
    rows = [list(map(float, row)) for row in csv.reader(source) if row]
    if not rows:
        return np.empty((0, 0))
    return np.asarray(rows, dtype=np.float64)


def write_table_csv(
    rows: Iterable[Sequence],
    columns: Sequence[str],
    destination,
) -> int:
    """Write an iterable of tuples as a CSV table with a header row.

    Returns:
        The number of data rows written.
    """
    if isinstance(destination, (str, Path)):
        with open(destination, "w", newline="") as handle:
            return write_table_csv(rows, columns, handle)
    writer = csv.writer(destination)
    writer.writerow(columns)
    count = 0
    for row in rows:
        writer.writerow(row)
        count += 1
    return count


def read_table_csv(source) -> tuple[list[str], list[tuple]]:
    """Read a CSV table with a header; values are parsed as float when possible.

    Returns:
        ``(columns, rows)`` where rows are tuples of float/str values.
    """
    if isinstance(source, (str, Path)):
        with open(source, newline="") as handle:
            return read_table_csv(handle)
    reader = csv.reader(source)
    try:
        columns = next(reader)
    except StopIteration:
        return [], []
    rows = []
    for raw in reader:
        if not raw:
            continue
        parsed = []
        for value in raw:
            try:
                parsed.append(float(value))
            except ValueError:
                parsed.append(value)
        rows.append(tuple(parsed))
    return list(columns), rows


def write_dataset_csv(dataset, directory) -> dict[str, Path]:
    """Write all four GenBase tables of ``dataset`` into ``directory``.

    Args:
        dataset: a :class:`repro.datagen.GenBaseDataset`.
        directory: destination directory (created if missing).

    Returns:
        Mapping of logical table name to the file written.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = {
        "microarray": directory / "microarray.csv",
        "patients": directory / "patients.csv",
        "genes": directory / "genes.csv",
        "ontology": directory / "ontology.csv",
    }
    write_table_csv(
        dataset.microarray.rows(),
        ("gene_id", "patient_id", "expression_value"),
        paths["microarray"],
    )
    write_table_csv(
        dataset.patients.rows(),
        ("patient_id", "age", "gender", "zipcode", "disease_id", "drug_response"),
        paths["patients"],
    )
    write_table_csv(
        dataset.genes.rows(),
        ("gene_id", "target", "position", "length", "function"),
        paths["genes"],
    )
    write_table_csv(
        dataset.ontology.rows(include_zeros=False),
        ("gene_id", "go_id", "belongs"),
        paths["ontology"],
    )
    return paths
