"""Connector extension API (paper §4.2, "Connectors").

A connector fetches the raw payload for a data object given its flow-file
configuration (``source:``, ``protocol:`` and protocol parameters).  Some
connectors (JDBC) produce rows directly instead of bytes; the
:class:`FetchResult` union carries either.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.data import Table
from repro.errors import ConnectorError


@dataclass
class FetchResult:
    """What a connector returned.

    Exactly one of ``payload`` (raw bytes, to be decoded by a format) or
    ``table`` (already-structured rows, e.g. from JDBC) is set.
    ``metadata`` carries transport details (status code, content type...)
    surfaced in execution logs.
    """

    payload: bytes | None = None
    table: Table | None = None
    metadata: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if (self.payload is None) == (self.table is None):
            raise ValueError(
                "FetchResult needs exactly one of payload or table"
            )


@dataclass
class DeltaFetch:
    """What :meth:`Connector.fetch_delta` returned.

    ``mode`` is one of:

    * ``"none"`` — the source is unchanged since ``cursor``; ``payload``
      is ``None`` and the caller can skip decoding entirely.
    * ``"append"`` — ``payload`` holds only the bytes written *after*
      the cursor position (the new rows).
    * ``"full"`` — the source changed in a way the connector cannot
      express as an append (truncated, rewritten in place); ``payload``
      holds the whole current payload and downstream state must reset.

    ``cursor`` is the new opaque cursor to hand back on the next call.
    ``reason`` says why a ``"full"`` fetch is no append (the vocabulary
    is in ``docs/incremental.md``).
    """

    mode: str
    cursor: Any
    payload: bytes | None = None
    metadata: dict[str, Any] = field(default_factory=dict)
    reason: str | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("none", "append", "full"):
            raise ValueError(f"invalid delta mode {self.mode!r}")
        if (self.payload is None) != (self.mode == "none"):
            raise ValueError(
                "DeltaFetch payload must be set exactly when mode != 'none'"
            )


class Connector(abc.ABC):
    """Base class for protocol connectors."""

    #: Protocol name used in the flow file (``protocol: http``).
    name: str = ""

    #: Whether :meth:`fetch_delta` is implemented for real.  Connectors
    #: without a cheap change-detection story leave this False and the
    #: loader falls back to a full reload per refresh.
    supports_delta: bool = False

    @abc.abstractmethod
    def fetch(self, config: Mapping[str, Any]) -> FetchResult:
        """Fetch the payload described by the data-object ``config``."""

    def fetch_delta(
        self,
        config: Mapping[str, Any],
        cursor: Any = None,
        resume: Callable[[bytes], int | None] | None = len,
    ) -> DeltaFetch:
        """Fetch only what changed since ``cursor``; ``resume(data)``
        says where in the bytes read the next append resumes
        (``None``: the format never resumes).

        The default implementation is the honest fallback: every call is
        a full fetch with a ``None`` cursor, so callers that probe
        blindly still get correct (if not incremental) behavior.
        """
        result = self.fetch(config)
        if result.payload is None:
            raise ConnectorError(
                f"connector {self.name!r} returns tables, not payloads; "
                "delta fetch is undefined"
            )
        return DeltaFetch(
            mode="full",
            cursor=None,
            payload=result.payload,
            metadata=dict(result.metadata),
            reason="no_delta_format",
        )

    def store(self, config: Mapping[str, Any], payload: bytes) -> None:
        """Write a sink payload.  Optional; default raises."""
        raise NotImplementedError(
            f"connector {self.name!r} does not support writes"
        )

    def estimate_bytes(self, config: Mapping[str, Any]) -> int | None:
        """Cheap payload-size estimate, or None when unknowable.

        Used by :meth:`~repro.connectors.loader.DataObjectLoader.load_many`
        to skip pool overhead when every source is small; must never
        fetch — a stat call is the ceiling.  ``None`` (the default)
        means "unknown, assume large enough to parallelize".
        """
        return None

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
