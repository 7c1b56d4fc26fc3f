"""Local file connector.

``source:`` is a path, resolved relative to the dashboard's data directory
(paper §4.3.2: "users can upload dashboard data to a 'data' folder. All data
files in this folder can be referred in the data object configuration using
relative paths").  The ``base_dir`` config key carries that directory.

Besides whole-payload :meth:`~FileConnector.fetch`, the connector offers
:meth:`~FileConnector.fetch_chunks` — an iterator of byte chunks the
loader hands straight to chunk-capable formats so large files decode
without being held in memory.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping

from repro.connectors.base import Connector, DeltaFetch, FetchResult
from repro.errors import ConnectorError

#: bytes before a resume offset whose digest must match before an append
_BLOCK = 4096


def _digest(data: bytes, end: int) -> str:
    block = data[max(0, end - _BLOCK):end]
    return hashlib.blake2b(block, digest_size=16).hexdigest()


class FileConnector(Connector):
    name = "file"
    supports_delta = True

    def fetch(self, config: Mapping[str, Any]) -> FetchResult:
        path = self._resolve(config)
        if not path.exists():
            raise ConnectorError(f"data file not found: {path}")
        try:
            payload = path.read_bytes()
        except OSError as exc:
            raise ConnectorError(f"cannot read {path}: {exc}") from exc
        return FetchResult(
            payload=payload,
            metadata={"path": str(path), "size": len(payload)},
        )

    def fetch_chunks(
        self, config: Mapping[str, Any]
    ) -> Iterator[bytes]:
        """Stream the file as byte chunks (``chunk_bytes`` config key).

        The missing-file check runs eagerly so callers get the same
        :class:`~repro.errors.ConnectorError` as :meth:`fetch` before
        any chunk is consumed; read errors surface from the iterator.
        """
        path = self._resolve(config)
        if not path.exists():
            raise ConnectorError(f"data file not found: {path}")
        try:
            chunk_bytes = int(config.get("chunk_bytes", 1 << 16))
        except (TypeError, ValueError) as exc:
            raise ConnectorError(
                f"invalid chunk_bytes: {config.get('chunk_bytes')!r}"
            ) from exc
        if chunk_bytes <= 0:
            raise ConnectorError(
                f"invalid chunk_bytes: {chunk_bytes!r}"
            )

        def chunks() -> Iterator[bytes]:
            try:
                with path.open("rb") as handle:
                    while True:
                        chunk = handle.read(chunk_bytes)
                        if not chunk:
                            return
                        yield chunk
            except OSError as exc:
                raise ConnectorError(
                    f"cannot read {path}: {exc}"
                ) from exc

        return chunks()

    def fetch_delta(
        self,
        config: Mapping[str, Any],
        cursor: Any = None,
        resume: Callable[[bytes], int | None] | None = len,
    ) -> DeltaFetch:
        """Bytes written since ``cursor``, behind a verified resume point.

        The cursor holds the ``size`` and ``mtime_ns`` seen last, the
        ``offset`` where appends resume (``resume(data)`` names it in
        the bytes read; ``None``: nowhere, as for every read when
        ``resume`` is ``None``) and a ``digest`` of the ≤ 4 KiB block
        ending there.  Size and mtime as seen is ``"none"``; growth
        whose block kept its digest is an ``"append"`` of the bytes from
        the resume offset on; anything else is ``"full"`` with a
        ``reason``: ``first_read``, ``shrunk``, ``rewritten`` (same
        size, new mtime), ``no_delta_format`` (``resume`` is ``None``:
        the format never resumes), ``torn_tail`` (the last read ended
        where no append can resume, such as mid-line) or
        ``prefix_changed`` (rewritten in place to a larger size).
        """
        path = self._resolve(config)
        if not path.exists():
            raise ConnectorError(f"data file not found: {path}")
        try:
            stat = path.stat()
        except OSError as exc:
            raise ConnectorError(f"cannot stat {path}: {exc}") from exc

        def _read(offset: int) -> bytes:
            try:
                with path.open("rb") as handle:
                    handle.seek(offset)
                    return handle.read()
            except OSError as exc:
                raise ConnectorError(
                    f"cannot read {path}: {exc}"
                ) from exc

        reason, start, at = "first_read", 0, 0
        try:
            size, offset = int(cursor["size"]), cursor["offset"]
            seen, digest = (size, int(cursor["mtime_ns"])), cursor["digest"]
        except (KeyError, TypeError, ValueError):
            pass
        else:
            if (stat.st_size, stat.st_mtime_ns) == seen:
                return DeltaFetch(
                    mode="none",
                    cursor=dict(cursor),
                    metadata={"path": str(path)},
                )
            if stat.st_size <= size:
                reason = "shrunk" if stat.st_size < size else "rewritten"
            elif offset is None:
                reason = "torn_tail" if resume else "no_delta_format"
            else:  # re-read from the block before the resume offset
                start = max(0, offset - _BLOCK)
                data, at = _read(start), offset - start
                same = _digest(data, at) == digest
                reason = None if same else "prefix_changed"
        if reason is not None:
            data, start, at = _read(0), 0, 0
        payload = data[at:]
        end = resume(payload) if resume else None
        end = None if end is None else at + end
        offset = None if end is None else start + end
        return DeltaFetch(
            mode="append" if reason is None else "full",
            cursor={
                "size": start + len(data),
                "mtime_ns": stat.st_mtime_ns,
                "offset": offset,
                "digest": None if end is None else _digest(data, end),
            },
            payload=payload,
            metadata={
                "path": str(path), "size": len(payload), "resume": offset,
            },
            reason=reason,
        )

    def estimate_bytes(self, config: Mapping[str, Any]) -> int | None:
        """File size by stat — never reads the payload."""
        try:
            return self._resolve(config).stat().st_size
        except (ConnectorError, OSError):
            return None

    def store(self, config: Mapping[str, Any], payload: bytes) -> None:
        path = self._resolve(config)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(payload)
        except OSError as exc:
            raise ConnectorError(f"cannot write {path}: {exc}") from exc

    @staticmethod
    def _resolve(config: Mapping[str, Any]) -> Path:
        source = config.get("source")
        if not source:
            raise ConnectorError("file connector needs a 'source' path")
        path = Path(str(source))
        base_dir = config.get("base_dir")
        if base_dir and not path.is_absolute():
            path = Path(str(base_dir)) / path
        return path
