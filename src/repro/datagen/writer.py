"""CSV import/export of tables.

These model the *copy and reformat* cost the paper highlights for
configurations that bolt an external analytics package (R) onto a DBMS: the
"+ R" engine adapters serialise intermediate results through these writers
and re-parse them, so the overhead is real, not simulated.

The format is plain CSV with a header row; floats are written with full
``repr`` precision so round-trips are exact to float64.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable, Sequence


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


