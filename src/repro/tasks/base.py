"""Task base classes and execution context.

A task is configured once in the ``T:`` section and may be reused in many
flows "as long as the preceding data source has the column the task
consumes" (paper §3.3).  That contract is captured by two methods:

* :meth:`Task.output_schema` — static schema propagation, used by the
  flow-file validator to type-check whole pipelines before running them;
* :meth:`Task.apply` — the actual table transformation.

Tasks can add columns (join), reduce columns (group) or preserve columns
(filter); ``output_schema`` is the single source of truth for which.

:class:`TaskContext` carries everything a task may need at run time beyond
its inputs: widget selections (for §3.5.1 interaction flows), dictionary
files (for ``extract`` operators), and the dashboard's data directory.
"""

from __future__ import annotations

import abc
import json
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.data import Schema, Table
from repro.errors import TaskConfigError, TaskExecutionError


@dataclass
class WidgetSelection:
    """The current selection state of one widget, seen as data.

    The paper "treat[s] widgets as data objects and widget columns as data
    columns" (§3.5.1).  A selection is either a set of discrete values
    (List, BubbleChart click) or an inclusive range (Slider) per widget
    column.
    """

    values: dict[str, list[Any]] = field(default_factory=dict)
    ranges: dict[str, tuple[Any, Any]] = field(default_factory=dict)

    def for_column(self, column: str) -> "WidgetSelection":
        selection = WidgetSelection()
        if column in self.values:
            selection.values[column] = self.values[column]
        if column in self.ranges:
            selection.ranges[column] = self.ranges[column]
        return selection

    def is_empty(self) -> bool:
        return not self.values and not self.ranges


class TaskContext:
    """Runtime environment handed to every task application."""

    def __init__(
        self,
        data_dir: str | Path | None = None,
        dictionaries: Mapping[str, Mapping[str, str]] | None = None,
        widget_selections: Mapping[str, WidgetSelection] | None = None,
    ):
        self.data_dir = Path(data_dir) if data_dir else None
        self._dictionaries = {
            name: dict(mapping)
            for name, mapping in (dictionaries or {}).items()
        }
        self.widget_selections = dict(widget_selections or {})
        #: the running flow's declared input names, set by the engines
        #: per node; name-aware tasks (join) order their sides by it
        self.input_names: list[str] = []
        #: execution counters, populated by tasks (rows in/out etc.)
        self.counters: dict[str, int] = {}
        # Partition attempts may run on worker threads; counter updates
        # and cache creation must not lose increments under contention.
        self._lock = threading.Lock()
        self._value_caches: dict[str, dict[Any, Any]] = {}

    def __getstate__(self) -> dict[str, Any]:
        # Contexts cross into warm-pool workers by pickle — once per
        # unit per stage — so only configuration travels: the lock is
        # process-local and recreated on the other side, and the per-run
        # memos start empty there (a worker's additions never come back,
        # so shipping the coordinator's would be pure cost).  Worker-side
        # counter/cache mutations stay in the worker — the same
        # semantics fork-inherited contexts already have.
        state = self.__dict__.copy()
        del state["_lock"]
        state["_value_caches"] = {}
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def bump(self, counter: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[counter] = self.counters.get(counter, 0) + amount

    def value_cache(self, key: str) -> dict[Any, Any]:
        """A per-run memo dict scoped to ``key`` (usually derived from a
        task fingerprint).

        Deterministic per-value operators use it to skip recomputing the
        same transformation — across partitions and across flows that
        apply the same task to the same feed.  The context dies with the
        run, so there is nothing to invalidate; memos never travel to
        pool workers (see ``__getstate__``).
        """
        with self._lock:
            return self._value_caches.setdefault(key, {})

    def dictionary(self, name: str) -> dict[str, str]:
        """Resolve a dictionary by name, loading from data_dir if needed.

        Dictionary files map surface forms to canonical names, one
        ``surface,canonical`` (or ``surface\tcanonical``) pair per line;
        a line with a single token maps the token to itself.
        """
        if name in self._dictionaries:
            return self._dictionaries[name]
        if self.data_dir is not None:
            path = self.data_dir / name
            if path.exists():
                mapping = _parse_dictionary(path.read_text(encoding="utf-8"))
                self._dictionaries[name] = mapping
                return mapping
        raise TaskConfigError(
            f"dictionary {name!r} not provided and not found in data dir"
        )

    def add_dictionary(self, name: str, mapping: Mapping[str, str]) -> None:
        self._dictionaries[name] = dict(mapping)

    def widget_selection(self, widget: str) -> WidgetSelection:
        return self.widget_selections.get(widget, WidgetSelection())


def _parse_dictionary(text: str) -> dict[str, str]:
    mapping: dict[str, str] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        sep = "," if "," in line else "\t" if "\t" in line else None
        if sep is None:
            mapping[line.lower()] = line
        else:
            surface, _, canonical = line.partition(sep)
            mapping[surface.strip().lower()] = canonical.strip()
    return mapping


def first_unhashable(
    table: Table, columns: Sequence[str]
) -> tuple[str, Any] | None:
    """The first ``(column, cell)`` among ``columns`` whose cell refuses
    to hash — what lets a hash-keyed kernel turn its bare ``TypeError``
    into an error that names the column."""
    for column in columns:
        for value in table.column(column):
            try:
                hash(value)
            except TypeError:
                return column, value
    return None


class Task(abc.ABC):
    """Base class for all tasks.

    ``name`` is the key under the ``T:`` section; ``config`` is the raw
    configuration mapping (everything but ``type``).
    """

    #: value of the ``type:`` key this class implements
    type_name: str = ""
    #: how many input tables the task accepts: (min, max); max None = any
    arity: tuple[int, int | None] = (1, 1)

    def __init__(self, name: str, config: Mapping[str, Any]):
        self.name = name
        self.config = dict(config)
        self._validate_config()

    def _validate_config(self) -> None:
        """Subclasses raise :class:`TaskConfigError` on bad configuration."""

    # -- static interface ------------------------------------------------
    @abc.abstractmethod
    def output_schema(self, input_schemas: Sequence[Schema]) -> Schema:
        """Schema of the output given input schemas.

        Must raise :class:`~repro.errors.SchemaError` (or
        :class:`TaskConfigError`) when inputs lack required columns — this
        is what lets the validator reject bad pipelines before execution.
        """

    def required_columns(self) -> set[str]:
        """Columns the task reads from its primary input (for pushdown)."""
        return set()

    def preserves_rows(self) -> bool:
        """True when output rows are a subset of input rows (filters)."""
        return False

    def partition_local(self) -> bool:
        """True when the task can run independently per data partition.

        Partition-local tasks run map-side on the distributed engine (no
        shuffle); anything keyed or global must return False (the
        default) and be handled by an engine strategy.
        """
        return False

    # -- runtime interface -------------------------------------------------
    @abc.abstractmethod
    def apply(self, inputs: Sequence[Table], context: TaskContext) -> Table:
        """Transform input tables into the output table."""

    def fingerprint(self) -> str:
        """A stable identity string for caching.

        Covers the task *type and full configuration*, not just the
        name: two tasks that share a name but differ in config (a
        re-configured dashboard, distinct flows reusing a task key)
        must never collide on a cache key.  Non-JSON config values fall
        back to ``str`` — stable for the value types flow files can
        express.
        """
        return json.dumps(
            {
                "type": self.type_name,
                "name": self.name,
                "config": self.config,
            },
            sort_keys=True,
            default=str,
        )

    # -- helpers -----------------------------------------------------------
    def _single(self, inputs: Sequence[Table]) -> Table:
        lo, hi = self.arity
        if len(inputs) < lo or (hi is not None and len(inputs) > hi):
            raise TaskExecutionError(
                f"task {self.name!r} ({self.type_name}) takes "
                f"{lo}..{hi or 'n'} inputs, got {len(inputs)}"
            )
        return inputs[0]

    def config_list(self, key: str, required: bool = False) -> list[Any]:
        value = self.config.get(key)
        if value is None:
            if required:
                raise TaskConfigError(
                    f"task {self.name!r} needs a {key!r} list"
                )
            return []
        if isinstance(value, (list, tuple)):
            return list(value)
        return [value]

    def config_str(self, key: str, default: str | None = None) -> str:
        value = self.config.get(key, default)
        if value is None:
            raise TaskConfigError(f"task {self.name!r} needs {key!r}")
        return str(value)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
