"""JSON payload format.

Handles three payload shapes seen in feed APIs (paper Figs. 6, 18):

* a JSON array of documents,
* newline-delimited JSON (one document per line),
* a single object with a list-valued field (``items``/``results``/``data``
  or the ``root`` option) wrapping the documents.

Each document is flattened into a row using the schema's ``=>`` payload
paths; a column without a path maps to the identically-named top-level
field.

Decoding is columnar: each schema path compiles once
(:func:`~repro.formats.jsonpath.compile_path`) and its getter runs over
the documents in a tight per-column pass — no record dicts, no per-cell
path parsing.  The ``jsonl`` format additionally accepts an iterator of
byte chunks and decodes line by line without holding the payload.
"""

from __future__ import annotations

import json
import re
from typing import Any, Iterable, Iterator, Mapping

from repro.data import Schema, Table
from repro.errors import FormatError
from repro.formats.base import (
    Format,
    Payload,
    decode_payload_text,
    iter_decoded_lines,
    line_resume,
)
from repro.formats.jsonpath import compile_path, extract_path


_WRAPPER_FIELDS = ("items", "results", "data", "rows")

_JSON_WS = b" \t\n\r"
#: ``str.splitlines`` boundaries in UTF-8, where the JSON-lines fallback
#: of :func:`_documents` splits
_LINE_BREAKS = (b"\n", b"\r", b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e",
                b"\xc2\x85", b"\xe2\x80\xa8", b"\xe2\x80\xa9")
_TAIL = re.compile(rb"[ \t\n\r]*,(.*)\][ \t\n\r]*", re.DOTALL)


class JsonFormat(Format):
    """Registered as ``json``.  A top-level UTF-8 array without ``root``
    takes appends the way writers keep it valid — its closing ``]``
    overwritten by ``, <new elements>]`` — so that ``]`` is where
    appends resume, and the tail decodes as ``[`` + elements + ``]``."""

    name = "json"

    def delta_resumable(self, options=None):
        """A top-level array: UTF-8, without ``root``."""
        options = options or {}
        encoding = str(options.get("encoding", "utf-8")).lower()
        return not options.get("root") and (
            encoding.replace("_", "-") in ("utf-8", "utf8")
        )

    def delta_resume(self, data, options=None):
        """The closing ``]`` of a whole array, or of a tail continuing
        one (:meth:`delta_payload` checks the tail's elements)."""
        body = data.strip(_JSON_WS)
        if not self.delta_resumable(options) or not body.endswith(b"]"):
            return None
        if body[:1] == b"," or (body[:1] == b"[" and _one_array(body)):
            return len(data.rstrip(_JSON_WS)) - 1
        return None

    def delta_payload(self, preamble, tail, options=None):
        match = _TAIL.fullmatch(tail)  # <ws>,<elements>]<ws>
        if match is None:
            return None
        payload = b"[" + match.group(1) + b"]"
        try:  # the elements must parse as a non-empty list
            return payload if json.loads(payload.decode("utf-8")) else None
        except ValueError:
            return None

    def decode(
        self,
        payload: Payload,
        schema: Schema,
        options: Mapping[str, Any] | None = None,
    ) -> Table:
        options = options or {}
        encoding = str(options.get("encoding", "utf-8"))
        text = decode_payload_text(payload, encoding, "JSON")
        documents = list(_documents(text, options.get("root")))
        return _columnar_table(documents, schema)

    def encode(
        self,
        table: Table,
        options: Mapping[str, Any] | None = None,
    ) -> bytes:
        options = options or {}
        lines = _as_bool(options.get("lines", False))
        if lines:
            text = "\n".join(table.json_rows(default=str))
        else:
            text = table.to_json_records(default=str, indent=2)
        return text.encode("utf-8")


class JsonLinesFormat(JsonFormat):
    """Registered as ``jsonl``; adds true line-streaming decode.

    Byte payloads share the auto-detecting ``json`` decode.  A chunk
    iterator decodes line by line; payloads that turn out not to be
    line-delimited (a pretty-printed array, a single wrapper object)
    fall back to the whole-payload path with identical results.
    """

    name = "jsonl"
    supports_chunks = True
    # Line-delimited: any byte suffix starting on a line boundary
    # decodes to exactly the trailing rows, with no header preamble.
    delta_payload = Format.delta_payload

    def delta_resumable(self, options=None):
        return True

    def delta_resume(self, data, options=None):
        return line_resume(data)

    def decode(
        self,
        payload: Payload,
        schema: Schema,
        options: Mapping[str, Any] | None = None,
    ) -> Table:
        options = options or {}
        if isinstance(payload, (bytes, bytearray)):
            return super().decode(payload, schema, options)
        encoding = str(options.get("encoding", "utf-8"))
        lines = iter_decoded_lines(payload, encoding, "JSON")
        return _decode_streaming_lines(
            lines, schema, options.get("root")
        )

    def encode(
        self,
        table: Table,
        options: Mapping[str, Any] | None = None,
    ) -> bytes:
        options = dict(options or {})
        options["lines"] = True
        return super().encode(table, options)


def _columnar_table(documents: Any, schema: Schema) -> Table:
    """Flatten documents into per-column lists via compiled getters."""
    names = schema.names
    if not names:
        return Table.from_columns(schema, {}, 0)
    columns: dict[str, list[Any]] = {}
    if isinstance(documents, list):
        for column in schema:
            getter = compile_path(column.source_path or column.name)
            columns[column.name] = list(map(getter, documents))
        return Table.from_columns(schema, columns, len(documents))
    # Streaming documents: one pass, appending per column.
    getters = []
    for column in schema:
        values: list[Any] = []
        columns[column.name] = values
        getters.append(
            (values.append,
             compile_path(column.source_path or column.name))
        )
    count = 0
    for doc in documents:
        count += 1
        for append, getter in getters:
            append(getter(doc))
    return Table.from_columns(schema, columns, count)


def _decode_streaming_lines(
    lines: Iterator[str], schema: Schema, root: str | None
) -> Table:
    """Line-by-line JSONL decode of a text-line stream.

    Mirrors :func:`_documents` byte for byte: the first non-blank line
    that is not standalone JSON sends the whole remaining payload
    through the auto-detect path, and a stream holding exactly one
    document applies the same array/wrapper/root handling the
    whole-payload parse would.
    """
    names = schema.names
    columns: dict[str, list[Any]] = {}
    getters = []
    for column in schema:
        values: list[Any] = []
        columns[column.name] = values
        getters.append(
            (values.append,
             compile_path(column.source_path or column.name))
        )
    count = 0
    first_document: Any = None
    line_no = 0
    for raw in lines:
        stripped = raw.strip()
        if line_no == 0:
            if not stripped:
                continue  # leading blanks are outside _documents' view
            try:
                document = json.loads(stripped)
            except json.JSONDecodeError:
                # Not line-delimited; re-assemble and auto-detect.
                text = raw + "".join(lines)
                return _columnar_table(
                    list(_documents(text, root)), schema
                )
            line_no = 1
        else:
            line_no += 1
            if not stripped:
                continue
            try:
                document = json.loads(stripped)
            except json.JSONDecodeError as exc:
                raise FormatError(
                    f"invalid JSON on line {line_no}: {exc}"
                ) from exc
        count += 1
        if count == 1:
            first_document = document
            continue  # held back: a lone document needs wrapper handling
        if count == 2:
            for append, getter in getters:
                append(getter(first_document))
            first_document = None
        for append, getter in getters:
            append(getter(document))
    if count == 0:
        return Table.from_columns(schema, columns, 0)
    if count == 1:
        return _columnar_table(
            list(_single_document(first_document, root)), schema
        )
    return Table.from_columns(
        schema, columns, count if names else 0
    )


def _documents(text: str, root: str | None) -> Iterable[Any]:
    stripped = text.strip()
    if not stripped:
        return []
    try:
        parsed = json.loads(stripped)
    except json.JSONDecodeError:
        return _jsonl_documents(stripped)
    return _single_document(parsed, root)


def _one_array(body: bytes) -> bool:
    """Whether ``body`` — a whole payload that decoded, stripped, from
    ``[`` to ``]`` — is one non-empty array, not ``[]`` or JSON lines:
    those decode only after the whole parse failed, and then their
    first line parses alone (no second parse of the whole payload)."""
    if not body[1:-1].strip(_JSON_WS):
        return False
    ends = [i for i in map(body.find, _LINE_BREAKS) if i >= 0]
    if not ends:
        return True
    try:
        json.loads(body[: min(ends)].decode("utf-8").strip())
    except ValueError:
        return True
    return False


def _single_document(parsed: Any, root: str | None) -> Iterable[Any]:
    """Document list for one successfully parsed top-level value."""
    if isinstance(parsed, list):
        return parsed
    if isinstance(parsed, dict):
        if root:
            inner = extract_path(parsed, root)
            if not isinstance(inner, list):
                raise FormatError(
                    f"root path {root!r} did not resolve to a list"
                )
            return inner
        for field in _WRAPPER_FIELDS:
            if isinstance(parsed.get(field), list):
                return parsed[field]
        return [parsed]
    raise FormatError("JSON payload must be an object or array")


def _jsonl_documents(text: str) -> list[Any]:
    documents = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            documents.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise FormatError(
                f"invalid JSON on line {line_no}: {exc}"
            ) from exc
    return documents


def _as_bool(value: Any) -> bool:
    if isinstance(value, str):
        return value.strip().lower() in ("true", "yes", "1")
    return bool(value)
