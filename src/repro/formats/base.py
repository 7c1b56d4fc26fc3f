"""Format extension API (paper §4.2, "Data formats").

A format decodes a raw payload into a table using the data object's declared
schema, and encodes a table back into a payload for sinks.  User formats
implement the same two methods and register via
:class:`~repro.formats.registry.FormatRegistry`; they are then
indistinguishable from the built-ins in a flow file.

Payloads are ``bytes`` by default; formats that set ``supports_chunks``
also accept an *iterator of byte chunks* (the file connector's
``fetch_chunks``) so large feeds decode without ever holding the whole
payload.  The helpers at the bottom of this module (:func:`payload_bytes`,
:func:`iter_decoded_lines`, :func:`coerce_cells`) keep the two input
shapes byte-identical in behaviour.
"""

from __future__ import annotations

import abc
import codecs
import io
from typing import Any, Iterable, Iterator, Mapping, Union

from repro.data import Schema, Table
from repro.errors import FormatError

#: What ``Format.decode`` accepts: a whole payload, or chunk iterator for
#: formats with ``supports_chunks = True``.
Payload = Union[bytes, bytearray, Iterable[bytes]]


class Format(abc.ABC):
    """Base class for payload formats."""

    #: Name used in the flow file (``format: csv``).
    name: str = ""

    #: Whether :meth:`decode` accepts an iterator of byte chunks in
    #: addition to ``bytes`` (the streaming ingestion fast path).
    supports_chunks: bool = False

    # -- delta ingestion: where appends resume, the preamble they need,
    # and how appended bytes become a payload ``decode`` turns into
    # exactly the appended rows.  The loader knows no format.

    def delta_resumable(
        self, options: Mapping[str, Any] | None = None
    ) -> bool:
        """Whether appends can resume anywhere in this format under
        ``options``; ``False`` (the default, for XML, Avro): every
        growth is a full reload (``no_delta_format``)."""
        return False

    def delta_resume(
        self, data: bytes, options: Mapping[str, Any] | None = None
    ) -> int | None:
        """Offset in ``data`` — a whole payload, or the bytes a source
        grew by from the last resume offset — where later bytes resume;
        ``None`` (the default, for XML, Avro): nowhere."""
        return None

    def delta_preamble(
        self, payload: bytes, options: Mapping[str, Any] | None = None
    ) -> int:
        """Length of the prefix of a whole ``payload`` that appended
        bytes need in front of them to decode (a CSV header); 0 here."""
        return 0

    def delta_payload(
        self,
        preamble: bytes,
        tail: bytes,
        options: Mapping[str, Any] | None = None,
    ) -> bytes | None:
        """What to decode for ``tail``, the bytes from the last resume
        offset to the end; ``None``: no clean append, reload in full."""
        return preamble + tail

    @abc.abstractmethod
    def decode(
        self,
        payload: Payload,
        schema: Schema,
        options: Mapping[str, Any] | None = None,
    ) -> Table:
        """Decode ``payload`` into a table shaped by ``schema``.

        ``options`` carries the remaining data-object configuration keys
        (e.g. ``separator`` for CSV).
        """

    @abc.abstractmethod
    def encode(
        self,
        table: Table,
        options: Mapping[str, Any] | None = None,
    ) -> bytes:
        """Encode ``table`` into this format's byte representation."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


def coerce_cell(value: str | None) -> Any:
    """Best-effort typed parse of a textual cell (CSV and XML share this).

    Empty strings become ``None``; integers and floats are recognised;
    ``true``/``false`` map to booleans; everything else stays a string.
    """
    if value is None:
        return None
    text = value.strip()
    if text == "":
        return None
    lowered = text.lower()
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return value


_COERCE_MISS = object()


def coerce_cells(values: list, memo: dict | None = None) -> list:
    """Column-at-a-time :func:`coerce_cell` with a value memo.

    Cell-by-cell coercion pays the try/except parse per cell; real feeds
    repeat values heavily (categories, dates, flags), so coercing a whole
    column through a memo turns repeats into one dict lookup.  ``None``
    cells pass straight through.  Passing a shared ``memo`` lets a
    decoder reuse hits across columns.
    """
    if memo is None:
        memo = {}
    miss = _COERCE_MISS
    get = memo.get
    out = []
    append = out.append
    for value in values:
        if value is None:
            append(None)
            continue
        coerced = get(value, miss)
        if coerced is miss:
            coerced = coerce_cell(value)
            memo[value] = coerced
        append(coerced)
    return out


def line_resume(data: bytes) -> int | None:
    """:meth:`Format.delta_resume` of line formats: the end of ``data``,
    unless it stops mid-line (an append would then join that row)."""
    return len(data) if not data or data.endswith(b"\n") else None


def payload_bytes(payload: Payload) -> bytes:
    """Materialize a payload (bytes or chunk iterator) as one ``bytes``."""
    if isinstance(payload, (bytes, bytearray)):
        return bytes(payload)
    return b"".join(payload)


def decode_payload_text(
    payload: Payload, encoding: str, label: str
) -> str:
    """Decode a whole payload to text, with the formats' error shape."""
    try:
        return payload_bytes(payload).decode(encoding)
    except UnicodeDecodeError as exc:
        raise FormatError(
            f"{label} payload is not valid {encoding}"
        ) from exc


def iter_decoded_lines(
    payload: Payload, encoding: str, label: str
) -> Iterator[str]:
    """Yield text lines from a payload without materializing it.

    Lines keep their terminators and split on ``"\\n"`` only — exactly
    the boundaries ``io.StringIO(text)`` iteration produces — so
    ``csv.reader`` and the JSONL decoder see identical input whether
    they are handed whole bytes or an iterator of chunks.  Chunked input
    is decoded incrementally, so multi-byte encodings may split anywhere.
    """
    if isinstance(payload, (bytes, bytearray)):
        try:
            text = bytes(payload).decode(encoding)
        except UnicodeDecodeError as exc:
            raise FormatError(
                f"{label} payload is not valid {encoding}"
            ) from exc
        yield from io.StringIO(text)
        return
    decoder = codecs.getincrementaldecoder(encoding)()
    buffer = ""
    try:
        for chunk in payload:
            buffer += decoder.decode(chunk)
            if "\n" in buffer:
                parts = buffer.split("\n")
                buffer = parts.pop()
                for part in parts:
                    yield part + "\n"
        buffer += decoder.decode(b"", final=True)
    except UnicodeDecodeError as exc:
        raise FormatError(
            f"{label} payload is not valid {encoding}"
        ) from exc
    if buffer:
        yield buffer
