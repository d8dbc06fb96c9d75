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

import functools
import struct
from typing import Iterator, Sequence

from repro.relational.schema import Column, ColumnType, Schema

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


class _RowCodec:
    """Packs and unpacks the rows of one schema; built once per schema.

    Each column's codec is resolved here, not per value.  A schema with no
    STRING column also gets one whole-row struct: every row whose null
    bitmap is 0 packs and unpacks in a single call, and any other row takes
    the per-column path.  Both produce the layout described above, and every
    row is still packed on insert and unpacked on scan.
    """

    def __init__(self, columns: tuple[Column, ...]):
        #: Per column: its fixed-width struct, or None for a STRING column.
        self._codecs = tuple(_FIXED.get(column.type) for column in columns)
        self._whole: struct.Struct | None = None
        self._fields: struct.Struct | None = None
        if None not in self._codecs:
            formats = "".join(codec.format[1:] for codec in self._codecs)
            self._whole = struct.Struct("<I" + formats)  # a 0 null bitmap, then every column
            self._fields = struct.Struct(f"<{_LENGTH.size}x" + formats)  # the columns alone

    def pack(self, row: Sequence) -> bytes:
        """Serialise one (already coerced) row to bytes."""
        if self._whole is not None and None not in row:
            return self._whole.pack(0, *row)
        parts = [_LENGTH.pack(sum(1 << index for index, value in enumerate(row)
                                  if value is None))]
        for codec, value in zip(self._codecs, row, strict=True):
            if value is None:
                continue
            if codec is None:
                encoded = str(value).encode("utf-8")
                parts.append(_LENGTH.pack(len(encoded)))
                parts.append(encoded)
            else:
                parts.append(codec.pack(value))
        return b"".join(parts)

    def unpack(self, buffer: bytes, offset: int, count: int) -> Iterator[tuple]:
        """Deserialise ``count`` consecutive rows starting at ``offset``."""
        fields = self._fields
        for _ in range(count):
            (null_bitmap,) = _LENGTH.unpack_from(buffer, offset)
            if fields is not None and not null_bitmap:
                yield fields.unpack_from(buffer, offset)
                offset += fields.size
                continue
            offset += _LENGTH.size
            values = []
            for index, codec in enumerate(self._codecs):
                if null_bitmap & (1 << index):
                    values.append(None)
                elif codec is None:
                    (length,) = _LENGTH.unpack_from(buffer, offset)
                    offset += _LENGTH.size
                    values.append(buffer[offset:offset + length].decode("utf-8"))
                    offset += length
                else:
                    (value,) = codec.unpack_from(buffer, offset)
                    offset += codec.size
                    values.append(value)
            yield tuple(values)


@functools.lru_cache(maxsize=64)
def _row_codec(columns: tuple[Column, ...]) -> _RowCodec:
    """The one codec of a schema (keyed by its columns, as ``Schema`` is unhashable)."""
    return _RowCodec(columns)


class Page:
    """One slotted page holding a variable number of serialised rows.

    The page's byte image is built on first use and kept until the next
    insert, so repeated scans unpack the same bytes without re-joining them.
    """

    def __init__(self, schema: Schema, page_size: int = DEFAULT_PAGE_SIZE):
        self._codec = _row_codec(schema.columns)
        self._page_size = page_size
        self._payloads: list[bytes] = []
        self._used = _HEADER.size
        self._image: bytes | None = None

    def __len__(self) -> int:
        return len(self._payloads)

    def try_insert(self, row: Sequence) -> bool:
        """Insert a coerced row; returns False when the page is full."""
        payload = self._codec.pack(row)
        needed = len(payload) + _OFFSET.size
        if self._used + needed > self._page_size and self._payloads:
            return False
        self._payloads.append(payload)
        self._used += needed
        self._image = None
        return True

    def rows(self) -> Iterator[tuple]:
        """Iterate the rows stored in this page, deserialising each one."""
        buffer = self.to_bytes()
        (count,) = _HEADER.unpack_from(buffer, 0)
        return self._codec.unpack(buffer, _HEADER.size + count * _OFFSET.size, count)

    def to_bytes(self) -> bytes:
        """The whole page (header + offset array + payloads) as bytes."""
        if self._image is None:
            parts = [_HEADER.pack(len(self._payloads))]
            cursor = _HEADER.size + len(self._payloads) * _OFFSET.size
            for payload in self._payloads:
                parts.append(_OFFSET.pack(cursor))
                cursor += len(payload)
            parts.extend(self._payloads)
            self._image = b"".join(parts)
        return self._image


class HeapFile:
    """An append-only collection of pages for one table."""

    def __init__(self, schema: Schema, page_size: int = DEFAULT_PAGE_SIZE):
        self._schema = schema
        self._page_size = page_size
        self._pages: list[Page] = []
        self._row_count = 0

    @property
    def page_count(self) -> int:
        return len(self._pages)

    @property
    def row_count(self) -> int:
        return self._row_count

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
