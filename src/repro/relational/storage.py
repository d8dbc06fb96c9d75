"""Slotted-page heap storage for the row store.

Rows are serialised into fixed-size pages using ``struct`` packing — the
same layout idea as a textbook heap file.  Pages are byte buffers held in
memory (the benchmark datasets fit in RAM, as in the paper's single-node
configuration), but every insert and scan really does pay the
pack/unpack cost, which is what gives the row store its characteristic
per-tuple overhead relative to the column store's vectorised reads.

Layout of a page::

    [ n_rows:uint32 ][ offset_0:uint32 ... offset_{n-1}:uint32 ][ ... row payloads ... ]

Row payload: for each column, INT/FLOAT/BOOL use fixed-width struct codes;
STRING is a uint32 length prefix followed by UTF-8 bytes.  NULLs are encoded
with a per-row presence bitmap.
"""

from __future__ import annotations

import struct
from typing import Iterator, Sequence

from repro.relational.schema import ColumnType, Schema

#: Default page size in bytes.  8 KiB matches Postgres' default block size.
DEFAULT_PAGE_SIZE = 8192

_HEADER = struct.Struct("<I")
_OFFSET = struct.Struct("<I")
_LENGTH = struct.Struct("<I")
_FIXED = {
    ColumnType.INT: struct.Struct("<q"),
    ColumnType.FLOAT: struct.Struct("<d"),
    ColumnType.BOOL: struct.Struct("<?"),
}


def _pack_row(row: Sequence, schema: Schema) -> bytes:
    """Serialise one (already coerced) row to bytes."""
    parts = []
    null_bitmap = 0
    for index, (_column, value) in enumerate(zip(schema.columns, row, strict=True)):
        if value is None:
            null_bitmap |= 1 << index
    parts.append(_LENGTH.pack(null_bitmap))
    for column, value in zip(schema.columns, row, strict=True):
        if value is None:
            continue
        if column.type is ColumnType.STRING:
            encoded = str(value).encode("utf-8")
            parts.append(_LENGTH.pack(len(encoded)))
            parts.append(encoded)
        else:
            parts.append(_FIXED[column.type].pack(value))
    return b"".join(parts)


def _unpack_row(buffer: bytes, offset: int, schema: Schema) -> tuple[tuple, int]:
    """Deserialise one row starting at ``offset``; returns (row, next_offset)."""
    (null_bitmap,) = _LENGTH.unpack_from(buffer, offset)
    offset += _LENGTH.size
    values = []
    for index, column in enumerate(schema.columns):
        if null_bitmap & (1 << index):
            values.append(None)
            continue
        if column.type is ColumnType.STRING:
            (length,) = _LENGTH.unpack_from(buffer, offset)
            offset += _LENGTH.size
            values.append(buffer[offset:offset + length].decode("utf-8"))
            offset += length
        else:
            codec = _FIXED[column.type]
            (value,) = codec.unpack_from(buffer, offset)
            offset += codec.size
            values.append(value)
    return tuple(values), offset


class Page:
    """One slotted page holding a variable number of serialised rows."""

    def __init__(self, schema: Schema, page_size: int = DEFAULT_PAGE_SIZE):
        self._schema = schema
        self._page_size = page_size
        self._payloads: list[bytes] = []
        self._used = _HEADER.size

    def __len__(self) -> int:
        return len(self._payloads)

    @property
    def used_bytes(self) -> int:
        return self._used

    def try_insert(self, row: Sequence) -> bool:
        """Insert a coerced row; returns False when the page is full."""
        payload = _pack_row(row, self._schema)
        needed = len(payload) + _OFFSET.size
        if self._used + needed > self._page_size and self._payloads:
            return False
        self._payloads.append(payload)
        self._used += needed
        return True

    def rows(self) -> Iterator[tuple]:
        """Iterate the rows stored in this page, deserialising each one."""
        buffer = self.to_bytes()
        (count,) = _HEADER.unpack_from(buffer, 0)
        cursor = _HEADER.size + count * _OFFSET.size
        for _ in range(count):
            row, cursor = _unpack_row(buffer, cursor, self._schema)
            yield row

    def to_bytes(self) -> bytes:
        """Serialise the whole page (header + offset array + payloads)."""
        parts = [_HEADER.pack(len(self._payloads))]
        cursor = _HEADER.size + len(self._payloads) * _OFFSET.size
        for payload in self._payloads:
            parts.append(_OFFSET.pack(cursor))
            cursor += len(payload)
        parts.extend(self._payloads)
        return b"".join(parts)


class HeapFile:
    """An append-only collection of pages for one table."""

    def __init__(self, schema: Schema, page_size: int = DEFAULT_PAGE_SIZE):
        self._schema = schema
        self._page_size = page_size
        self._pages: list[Page] = []
        self._row_count = 0

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def page_count(self) -> int:
        return len(self._pages)

    @property
    def row_count(self) -> int:
        return self._row_count

    @property
    def size_bytes(self) -> int:
        """Approximate on-"disk" size of the heap."""
        return sum(page.used_bytes for page in self._pages)

    def insert(self, row: Sequence) -> None:
        """Append one coerced row, starting a new page when the current is full."""
        if not self._pages or not self._pages[-1].try_insert(row):
            page = Page(self._schema, page_size=self._page_size)
            if not page.try_insert(row):
                raise ValueError("row is larger than a single page")
            self._pages.append(page)
        self._row_count += 1

    def scan(self) -> Iterator[tuple]:
        """Full sequential scan in insertion order."""
        for page in self._pages:
            yield from page.rows()
