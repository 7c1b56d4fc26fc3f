"""CSV payload format.

Honours the ``separator`` option from the data-object configuration
(paper Fig. 4) plus ``header`` (default true) and ``encoding``.
When the payload has a header row, columns are matched by name (the
declared schema may select a subset, in any order); without a header,
columns are matched positionally against the schema.

Decoding is columnar: cells land straight in per-column lists (no
intermediate record dicts) and coercion runs column-at-a-time through a
shared value memo.  The decoder accepts either whole ``bytes`` or an
iterator of byte chunks — rows stream out of ``csv.reader`` one at a
time, so the raw row list is never materialized.
"""

from __future__ import annotations

import csv
import io
from typing import Any, Mapping

from repro.data import Schema, Table
from repro.errors import FormatError
from repro.formats.base import (
    Format,
    Payload,
    coerce_cells,
    iter_decoded_lines,
    line_resume,
)


class CsvFormat(Format):
    name = "csv"
    supports_chunks = True

    def delta_resumable(self, options=None):
        return True

    def delta_resume(self, data, options=None):
        return line_resume(data)

    def delta_preamble(
        self,
        payload: bytes,
        options: Mapping[str, Any] | None = None,
    ) -> int:
        """Byte length of the header line (terminator included).

        With ``header: false`` there is no preamble; appended bytes are
        complete rows on their own.
        """
        options = options or {}
        if not _as_bool(options.get("header", True)):
            return 0
        newline = payload.find(b"\n")
        if newline < 0:
            return len(payload)
        return newline + 1

    def decode(
        self,
        payload: Payload,
        schema: Schema,
        options: Mapping[str, Any] | None = None,
    ) -> Table:
        options = options or {}
        separator = str(options.get("separator", ","))
        has_header = _as_bool(options.get("header", True))
        encoding = str(options.get("encoding", "utf-8"))
        lines = iter_decoded_lines(payload, encoding, "CSV")
        reader = csv.reader(lines, delimiter=separator)
        names = schema.names
        raw_columns: list[list[Any]] = [[] for _ in names]
        appenders: list[tuple[Any, int | None]] | None = None
        if not has_header:
            appenders = [
                (values.append, position)
                for values, position in zip(
                    raw_columns, range(len(schema))
                )
            ]
        count = 0
        saw_rows = False
        for row in reader:
            if not row:
                continue
            saw_rows = True
            if appenders is None:
                header = [h.strip() for h in row]
                appenders = [
                    (values.append, position)
                    for values, position in zip(
                        raw_columns, _header_positions(header, schema)
                    )
                ]
                continue
            count += 1
            width = len(row)
            for append, position in appenders:
                if position is None or position >= width:
                    append(None)
                else:
                    append(row[position])
        if not saw_rows:
            return Table.empty(schema)
        memo: dict[str, Any] = {}
        columns = {
            name: coerce_cells(values, memo)
            for name, values in zip(names, raw_columns)
        }
        return Table.from_columns(schema, columns, count if names else 0)

    def encode(
        self,
        table: Table,
        options: Mapping[str, Any] | None = None,
    ) -> bytes:
        options = options or {}
        separator = str(options.get("separator", ","))
        encoding = str(options.get("encoding", "utf-8"))
        buffer = io.StringIO()
        writer = csv.writer(buffer, delimiter=separator, lineterminator="\n")
        writer.writerow(table.schema.names)
        for row in table.row_tuples():
            writer.writerow(["" if v is None else v for v in row])
        return buffer.getvalue().encode(encoding)


def _header_positions(
    header: list[str], schema: Schema
) -> list[int | None]:
    """Column position for each schema name, or None when absent.

    A schema column whose ``source_path`` is set maps by that path name
    instead (so ``question => title`` finds the ``title`` CSV column).
    """
    index = {name: i for i, name in enumerate(header)}
    positions: list[int | None] = []
    for column in schema:
        key = column.source_path or column.name
        positions.append(index.get(key))
    if all(p is None for p in positions):
        raise FormatError(
            f"no schema column found in CSV header {header!r}; "
            f"expected some of {schema.names}"
        )
    return positions


def _as_bool(value: Any) -> bool:
    if isinstance(value, str):
        return value.strip().lower() in ("true", "yes", "1")
    return bool(value)
