"""CSV import/export for the R-like environment.

``read_csv`` / ``write_csv`` mirror R's ``read.csv`` / ``write.csv``.  They
are also the channel the "DBMS + external R" benchmark configurations move
data through: the DBMS serialises its query result to CSV text, the R side
parses it back into a data frame (or matrix), and both halves of that copy
are real work measured by the benchmark runner.
"""

from __future__ import annotations

import io

import numpy as np

from repro.datagen.writer import read_table_csv, write_table_csv
from repro.rlang.dataframe import DataFrame, REnvironment


def write_csv(frame: DataFrame, destination) -> int:
    """Write a data frame as CSV with a header row; returns rows written."""
    names = frame.names
    rows = zip(*[frame[name].tolist() for name in names], strict=True)
    return write_table_csv(rows, names, destination)


def read_csv(source, environment: REnvironment | None = None) -> DataFrame:
    """Read a CSV file (with header) into a data frame.

    Numeric-looking columns become float arrays; anything else stays as a
    string array (R's ``stringsAsFactors=FALSE`` behaviour).
    """
    columns, rows = read_table_csv(source)
    if not columns:
        raise ValueError("CSV input has no header row")
    if not rows:
        arrays = {name: np.empty(0, dtype=np.float64) for name in columns}
        return DataFrame(arrays, environment=environment)
    transposed = list(zip(*rows, strict=True))
    arrays = {}
    for name, values in zip(columns, transposed, strict=True):
        if all(isinstance(value, float) for value in values):
            arrays[name] = np.asarray(values, dtype=np.float64)
        else:
            arrays[name] = np.asarray([str(value) for value in values])
    return DataFrame(arrays, environment=environment)


def dataframe_to_csv_string(frame: DataFrame) -> str:
    """Serialise a data frame to an in-memory CSV string (the export half)."""
    buffer = io.StringIO()
    write_csv(frame, buffer)
    return buffer.getvalue()


def dataframe_from_csv_string(payload: str,
                              environment: REnvironment | None = None) -> DataFrame:
    """Parse a data frame from an in-memory CSV string (the import half)."""
    return read_csv(io.StringIO(payload), environment=environment)
