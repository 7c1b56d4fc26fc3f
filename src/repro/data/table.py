"""Columnar in-memory table.

The engine's unit of data.  Storage is column-major (``dict`` of lists) which
makes the relational operators (project, group-by, join) natural and keeps
per-row overhead low, while :meth:`Table.rows` provides row-dict iteration
for map-style tasks and renderers.

Tables are treated as immutable by the engine: every operator returns a new
table.  The few mutating helpers (``append_row``) exist for builders such as
format decoders and are not used on tables already handed to the engine.

Alongside the boxed lists a table may carry *typed encodings*
(:mod:`repro.data.encodings`): per-column ``array``-backed or
dictionary-encoded shadows built at the ingest boundary
(:meth:`Table.from_columns`) and propagated structurally through
``take``/``concat_all``/projections.  They never replace ``_data`` —
every consumer of the boxed lists is untouched — but the kernels, the
shuffle and the binary page codec (:mod:`repro.data.pages`) dispatch on
them for compact, code-wise fast paths.  Pickling a table ships the
codec page (``__reduce__``), which is what makes spilled shuffle
buckets and process-executor result frames compact.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

import repro.data.encodings as _encodings
from repro.data.schema import Column, ColumnType, Schema
from repro.errors import SchemaError


class Table:
    """A schema-carrying columnar table."""

    def __init__(
        self,
        schema: Schema | Sequence[str],
        columns: Mapping[str, Sequence[Any]] | None = None,
    ):
        if not isinstance(schema, Schema):
            schema = Schema(schema)
        self._schema = schema
        if columns is None:
            columns = {name: [] for name in schema.names}
        data: dict[str, list[Any]] = {}
        length: int | None = None
        for name in schema.names:
            if name not in columns:
                raise SchemaError(f"missing data for column {name!r}")
            values = list(columns[name])
            if length is None:
                length = len(values)
            elif len(values) != length:
                raise SchemaError(
                    f"ragged columns: {name!r} has {len(values)} values, "
                    f"expected {length}"
                )
            data[name] = values
        extra = set(columns) - set(schema.names)
        if extra:
            raise SchemaError(f"data for undeclared columns: {sorted(extra)}")
        self._data = data
        self._length = length or 0
        #: typed encodings by column name (see repro.data.encodings);
        #: a shadow representation — never the primary storage.
        self._enc: dict[str, Any] = {}
        #: cached estimated_bytes() (engine tables are immutable)
        self._est_bytes: int | None = None
        #: columns that refused a typed encoding when one was attempted
        self.encode_fallbacks = 0

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def _wrap(
        cls, schema: Schema, data: dict[str, list[Any]], length: int
    ) -> "Table":
        """Adopt freshly-built column lists without re-copying them.

        Internal fast path for operators that have just materialized new
        lists (``take``, ``concat_all``, ``from_rows``): the public
        constructor defensively copies every column, which doubles the
        cost of exactly the hot paths this module exists to keep cheap.
        Callers must hand over exclusive ownership of ``data``'s lists.
        """
        table = cls.__new__(cls)
        table._schema = schema
        table._data = data
        table._length = length
        table._enc = {}
        table._est_bytes = None
        table.encode_fallbacks = 0
        return table

    @classmethod
    def from_rows(
        cls,
        schema: Schema | Sequence[str],
        rows: Iterable[Mapping[str, Any] | Sequence[Any]],
    ) -> "Table":
        """Build a table from row dicts or row tuples.

        Row dicts may omit columns (filled with ``None``); row sequences
        must match the schema arity.
        """
        if not isinstance(schema, Schema):
            schema = Schema(schema)
        names = schema.names
        data: dict[str, list[Any]] = {n: [] for n in names}
        count = 0
        for row in rows:
            count += 1
            if isinstance(row, Mapping):
                for name in names:
                    data[name].append(row.get(name))
            else:
                if len(row) != len(names):
                    raise SchemaError(
                        f"row arity {len(row)} != schema arity {len(names)}"
                    )
                for name, value in zip(names, row):
                    data[name].append(value)
        return cls._wrap(schema, data, count if names else 0)

    @classmethod
    def from_columns(
        cls,
        schema: Schema | Sequence[str],
        columns: Mapping[str, list],
        length: int | None = None,
    ) -> "Table":
        """Adopt freshly-built per-column lists without copying them.

        The public face of :meth:`_wrap` for builders that assemble
        column lists directly — the columnar format decoders and
        ``loader._align``.  Lengths are validated (one ``len`` per
        column) but the lists themselves are adopted, so callers hand
        over exclusive ownership; entries in ``columns`` beyond the
        schema's names are ignored.
        """
        if not isinstance(schema, Schema):
            schema = Schema(schema)
        names = schema.names
        if length is None:
            length = len(columns[names[0]]) if names else 0
        data: dict[str, list[Any]] = {}
        for name in names:
            if name not in columns:
                raise SchemaError(f"missing data for column {name!r}")
            values = columns[name]
            if type(values) is not list:
                values = list(values)
            if len(values) != length:
                raise SchemaError(
                    f"ragged columns: {name!r} has {len(values)} values, "
                    f"expected {length}"
                )
            data[name] = values
        table = cls._wrap(schema, data, length if names else 0)
        # The ingest boundary: every format decoder and loader._align
        # lands here, so encoding once covers all source tables.
        if length and _encodings.enabled():
            table._encode_columns()
        return table

    def _encode_columns(self) -> None:
        """Attempt a typed encoding for every (non-empty) plain column."""
        enc = self._enc
        fallbacks = 0
        for name, values in self._data.items():
            if name in enc or not values:
                continue
            column = _encodings.encode_column(values)
            if column is None:
                fallbacks += 1
            else:
                enc[name] = column
        self.encode_fallbacks = fallbacks

    @classmethod
    def empty(cls, schema: Schema | Sequence[str]) -> "Table":
        return cls(schema)

    # ------------------------------------------------------------------
    # basic protocol
    # ------------------------------------------------------------------
    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def num_rows(self) -> int:
        return self._length

    @property
    def num_columns(self) -> int:
        return len(self._schema)

    def __len__(self) -> int:
        return self._length

    def __bool__(self) -> bool:
        # An empty table is still a real table; avoid truthiness surprises.
        return True

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        return (
            self._schema.names == other._schema.names
            and self._data == other._data
        )

    def __repr__(self) -> str:
        return f"Table({self._schema.names}, rows={self._length})"

    def column(self, name: str) -> list[Any]:
        """The values of one column (a copy is *not* made; do not mutate)."""
        if name not in self._data:
            raise SchemaError(
                f"unknown column {name!r}; schema has {self._schema.names}"
            )
        return self._data[name]

    def encoded_column(self, name: str) -> Any | None:
        """The typed encoding shadowing ``name``, or ``None``."""
        return self._enc.get(name)

    def _kernel_columns(self, names: Sequence[str]) -> list[Any]:
        """Per-key kernel inputs: the typed encoding when present,
        else the plain list — what argsort/group_indices dispatch on."""
        enc = self._enc
        data = self._data
        return [enc.get(name) or data[name] for name in names]

    def row(self, index: int) -> dict[str, Any]:
        """Row ``index`` as a dict."""
        if not 0 <= index < self._length:
            raise IndexError(f"row {index} out of range 0..{self._length - 1}")
        return {name: self._data[name][index] for name in self._schema.names}

    def rows(self) -> Iterator[dict[str, Any]]:
        """Iterate rows as dicts."""
        names = self._schema.names
        cols = [self._data[n] for n in names]
        for values in zip(*cols) if cols else iter(()):
            yield dict(zip(names, values))

    def row_tuples(self) -> Iterator[tuple[Any, ...]]:
        """Iterate rows as tuples in schema order."""
        cols = [self._data[n] for n in self._schema.names]
        return iter(zip(*cols)) if cols else iter(())

    # ------------------------------------------------------------------
    # relational helpers used by tasks and the engine
    # ------------------------------------------------------------------
    def _share_encodings(
        self, result: "Table", mapping: dict[str, str] | None = None
    ) -> "Table":
        """Carry encodings onto a projection/rename of this table.

        Encoding objects are immutable by the same contract as column
        lists, so sharing them across tables is safe even though the
        public constructor copied the underlying lists.
        """
        if self._enc:
            names = set(result._schema.names)
            for name, column in self._enc.items():
                out = mapping.get(name, name) if mapping else name
                if out in names:
                    result._enc[out] = column
        return result

    def select(self, names: Sequence[str]) -> "Table":
        """Projection: keep ``names`` in the given order."""
        schema = self._schema.select(names)
        return self._share_encodings(
            Table(schema, {n: self._data[n] for n in names})
        )

    def drop(self, names: Sequence[str]) -> "Table":
        schema = self._schema.drop(names)
        return self._share_encodings(
            Table(schema, {n: self._data[n] for n in schema.names})
        )

    def rename(self, mapping: dict[str, str]) -> "Table":
        schema = self._schema.rename(mapping)
        data = {
            mapping.get(name, name): values
            for name, values in self._data.items()
        }
        return self._share_encodings(Table(schema, data), mapping)

    def with_column(self, name: str, values: Sequence[Any]) -> "Table":
        """Add (or replace) a column.

        The length check also covers 0-row tables — adding a non-empty
        column to an empty table must fail here with a clear message,
        not later in the constructor as a puzzling "ragged columns"
        error.  A table with no columns yet accepts any length (the new
        column defines it).
        """
        values = list(values)
        if self._schema.names and len(values) != self._length:
            raise SchemaError(
                f"column {name!r} has {len(values)} values, "
                f"table has {self._length} rows"
            )
        schema = self._schema.with_column(Column(name))
        data = dict(self._data)
        data[name] = values
        result = Table(schema, {n: data[n] for n in schema.names})
        if self._enc:
            result._enc = {
                k: v for k, v in self._enc.items() if k != name
            }
        return result

    def filter_rows(self, predicate: Callable[[dict[str, Any]], bool]) -> "Table":
        """Rows for which ``predicate(row_dict)`` is truthy.

        A :class:`~repro.data.kernels.ColumnarPredicate` takes the
        vectorized path: the predicate evaluates column-at-a-time and no
        row dicts are materialized.  Any other callable gets the generic
        row-at-a-time evaluation.
        """
        from repro.data.kernels import ColumnarPredicate

        if isinstance(predicate, ColumnarPredicate):
            return self.take(predicate.indices(self))
        keep = [i for i, row in enumerate(self.rows()) if predicate(row)]
        return self.take(keep)

    def take(self, indices: Sequence[int]) -> "Table":
        """Rows at ``indices`` (in the given order).

        Encodings come along: gathering an ``array`` of codes/scalars
        keeps the result page-codec- and kernel-ready (dictionary
        columns share their unique-value table with the source, so a
        later ``concat_all`` of sibling takes splices raw buffers).
        """
        indices = (
            indices if isinstance(indices, (list, range)) else list(indices)
        )
        return Table.from_gathers(
            self._schema,
            [(self, name, indices, False) for name in self._schema.names],
        )

    @classmethod
    def from_gathers(
        cls, schema: Schema, columns: Sequence[Any]
    ) -> "Table":
        """Assemble a table column by column, in ``schema`` order.

        Each entry of ``columns`` is a freshly built list (adopted) or a
        gather ``(table, column, indices, nullable)``: that column of
        ``table`` at ``indices``.  An encoded column drives its own
        gather (a dictionary column gathers codes once and derives the
        strings from its tiny unique table, instead of a second
        random-access pass) and its encoding comes along.  ``nullable``
        gathers read index ``-1`` as ``None`` — the missing side of an
        outer-join row — and yield a plain list.
        """
        data: dict[str, list[Any]] = {}
        enc: dict[str, Any] = {}
        for name, column in zip(schema.names, columns):
            if type(column) is list:
                data[name] = column
                continue
            table, source, indices, nullable = column
            values = table._data[source]
            encoded = table._enc.get(source) if indices else None
            if nullable:
                values = values + [None]  # -1 indexes the sentinel
                data[name] = [values[i] for i in indices]
            elif encoded is None:
                data[name] = [values[i] for i in indices]
            else:
                taken = enc[name] = encoded.gather(indices, values)
                data[name] = taken.boxed
        length = len(next(iter(data.values()))) if data else 0
        if len(data) != len(schema.names) or any(
            len(values) != length for values in data.values()
        ):
            raise SchemaError(
                f"from_gathers: {len(columns)} columns of lengths "
                f"{[len(v) for v in data.values()]} for {schema.names}"
            )
        result = cls._wrap(schema, data, length)
        result._enc = enc
        return result

    def head(self, n: int) -> "Table":
        return self.take(range(min(n, self._length)))

    def concat(self, other: "Table") -> "Table":
        """Vertical union; schemas must have identical column names."""
        return Table.concat_all([self, other])

    @classmethod
    def concat_all(
        cls,
        tables: Sequence["Table"],
        schema: Schema | None = None,
    ) -> "Table":
        """Vertical union of many tables in one pass.

        Each output column is built with a single copy of its input
        values, so gathering ``P`` partitions costs O(rows) — the
        pairwise ``a.concat(b).concat(c)...`` fold re-copies the growing
        prefix and degenerates to O(P * rows).  ``schema`` supplies the
        result schema when ``tables`` may be empty.
        """
        tables = list(tables)
        if not tables:
            if schema is None:
                raise SchemaError("concat_all of no tables needs a schema")
            return cls.empty(schema)
        first = tables[0]
        names = first.schema.names
        for other in tables[1:]:
            if other.schema.names != names:
                raise SchemaError(
                    f"cannot concat: schemas differ "
                    f"{names} vs {other.schema.names}"
                )
        if len(tables) == 1:
            # Still copy: callers expect a table independent of inputs.
            return first.take(range(first.num_rows))
        data: dict[str, list[Any]] = {}
        for name in names:
            column: list[Any] = []
            for table in tables:
                column.extend(table._data[name])
            data[name] = column
        result = cls._wrap(
            first.schema, data, sum(t.num_rows for t in tables)
        )
        # Encodings concat buffer-wise when every input column carries
        # the same encoding class (the shuffle assembly path: pages are
        # takes of encoded sources, dictionaries shared by reference).
        for name in names:
            encoded = [t._enc.get(name) for t in tables]
            kind = type(encoded[0])
            if encoded[0] is not None and all(
                type(e) is kind for e in encoded
            ):
                result._enc[name] = kind.concat(encoded, data[name])
        return result

    def sorted_by(
        self, keys: Sequence[str], descending: Sequence[bool] | None = None
    ) -> "Table":
        """Stable multi-key sort.

        ``None`` values sort first ascending / last descending, mirroring the
        behaviour of the SQL engines the platform compiles to.
        """
        from repro.data.kernels import argsort

        self._schema.require(keys, context="sort")
        descending = list(descending or [False] * len(keys))
        if len(descending) != len(keys):
            raise SchemaError("sort keys and directions differ in length")
        indices = argsort(
            self._length, self._kernel_columns(keys), descending
        )
        return self.take(indices)

    def distinct(self, keys: Sequence[str] | None = None) -> "Table":
        """First occurrence of each distinct key combination.

        Runs on the ``distinct_indices`` kernel (dictionary columns
        dedupe by code); unhashable cells (lists/dicts) drop to the
        historical per-row ``_hashable`` tuple walk.
        """
        from repro.data.kernels import distinct_indices

        keys = list(keys) if keys else self._schema.names
        self._schema.require(keys, context="distinct")
        try:
            return self.take(
                distinct_indices(self._kernel_columns(keys))
            )
        except TypeError:
            pass
        seen: set = set()
        indices = []
        key_cols = [self._data[k] for k in keys]
        for i in range(self._length):
            key = tuple(_hashable(col[i]) for col in key_cols)
            if key not in seen:
                seen.add(key)
                indices.append(i)
        return self.take(indices)

    def append_row(self, row: Mapping[str, Any]) -> None:
        """Builder helper: append one row dict in place."""
        for name in self._schema.names:
            self._data[name].append(row.get(name))
        self._length += 1
        # Mutation invalidates the immutable-table shadows.
        if self._enc:
            self._enc = {}
        self._est_bytes = None

    def infer_types(self) -> "Table":
        """Return a table whose schema carries inferred column types."""
        columns = []
        for col in self._schema:
            inferred = ColumnType.ANY
            for value in self._data[col.name]:
                if value is None:
                    continue
                inferred = inferred.unify(ColumnType.infer(value))
            columns.append(
                Column(col.name, type=inferred, source_path=col.source_path)
            )
        return self._share_encodings(Table(Schema(columns), self._data))

    def to_records(self) -> list[dict[str, Any]]:
        """All rows as a list of dicts (used by the REST layer)."""
        return list(self.rows())

    def json_rows(
        self,
        default: Callable[[Any], Any] = str,
        indent: int | None = None,
    ) -> list[str]:
        """Each row as a JSON object string, encoded column-at-a-time.

        Byte-identical to ``json.dumps(row_dict, default=default,
        indent=indent)`` per row, without building the row dicts: every
        column is encoded in one pass (string cells memoized, so
        repeated categories/dates escape once) and rows are assembled by
        string join.  Backs :meth:`to_json_records`, the REST layer and
        the JSON format encoder.
        """
        import json

        names = self._schema.names
        if not names or self._length == 0:
            return []
        pad = " " * indent if indent else ""
        encoded_columns = [
            _encode_json_column(self._data[name], default, indent, pad)
            for name in names
        ]
        prefixes = [json.dumps(name) + ": " for name in names]
        width = len(names)
        rows: list[str] = []
        if indent is None:
            for i in range(self._length):
                parts = [
                    prefixes[j] + encoded_columns[j][i]
                    for j in range(width)
                ]
                rows.append("{" + ", ".join(parts) + "}")
            return rows
        # Pretty mode mirrors json.dumps(..., indent=N) at depth 1: keys
        # sit two levels deep, the closing brace one level deep.
        key_pad = "\n" + pad * 2
        for i in range(self._length):
            parts = [
                prefixes[j] + encoded_columns[j][i] for j in range(width)
            ]
            rows.append(
                "{" + key_pad + ("," + key_pad).join(parts)
                + "\n" + pad + "}"
            )
        return rows

    def to_json_records(
        self,
        default: Callable[[Any], Any] = str,
        indent: int | None = None,
    ) -> str:
        """JSON-encode all rows as an array of objects, column-at-a-time.

        Byte-identical to ``json.dumps(self.to_records(),
        default=default, indent=indent)`` but skips the
        :meth:`to_records` dict detour entirely — the fast endpoint
        serialization path.
        """
        rows = self.json_rows(default=default, indent=indent)
        if indent is None:
            return "[" + ", ".join(rows) + "]"
        if not rows:
            return "[]"
        pad = " " * indent
        return "[\n" + pad + (",\n" + pad).join(rows) + "\n]"

    def estimated_bytes(self) -> int:
        """Rough payload size, used by the transfer-minimizing optimizer.

        Cached (the engine never mutates a table it accounts for —
        ``append_row`` invalidates) and computed from the typed
        encodings when present.  Both shortcuts reproduce the historical
        per-cell walk exactly — strings ``len+8``, everything else 16 —
        because ``shuffled_bytes`` telemetry is fingerprinted by the
        determinism suites.
        """
        total = self._est_bytes
        if total is not None:
            return total
        total = 0
        enc = self._enc
        for name, values in self._data.items():
            column = enc.get(name)
            if column is not None:
                total += column.estimated_bytes()
                continue
            for v in values:
                if isinstance(v, str):
                    total += len(v) + 8
                else:
                    total += 16
        self._est_bytes = total
        return total

    def __reduce__(self):
        """Pickle as one binary codec page (:mod:`repro.data.pages`).

        Every pickled table — spill pages, process-executor result
        frames, checkpoints, deep copies — ships width-minimized typed
        buffers instead of per-cell opcodes.
        """
        from repro.data import pages

        return (pages.decode_table, (pages.encode_table(self),))


def _encode_json_column(
    values: list,
    default: Callable[[Any], Any],
    indent: int | None,
    pad: str,
) -> list[str]:
    """JSON fragments for one column's cells.

    Exact ``int``/``float`` cells encode through ``repr`` — what the C
    encoder itself emits for them — and string cells are memoized
    (safe: equal strings encode equally, and a string's fragment never
    spans lines).  The dispatch is on exact type, never equality, so
    ``True``/``1``/``1.0`` cannot alias; subclasses (enums, bools) and
    non-finite floats take the generic ``json.dumps`` path.  In pretty
    mode a container cell's continuation lines are re-indented to the
    depth the cell occupies inside ``[ { ... } ]`` (two levels).
    """
    import json
    from math import isfinite

    dumps = json.dumps
    memo: dict[str, str] = {}
    out: list[str] = []
    append = out.append
    for value in values:
        kind = type(value)
        if value is None:
            append("null")
        elif value is True:
            append("true")
        elif value is False:
            append("false")
        elif kind is int:
            append(repr(value))
        elif kind is float and isfinite(value):
            append(repr(value))
        elif kind is str:
            fragment = memo.get(value)
            if fragment is None:
                fragment = dumps(value)
                memo[value] = fragment
            append(fragment)
        elif isinstance(value, str):
            append(dumps(value))
        elif indent is None:
            append(dumps(value, default=default))
        else:
            append(
                dumps(value, default=default, indent=indent).replace(
                    "\n", "\n" + pad * 2
                )
            )
    return out


def _hashable(value: Any) -> Any:
    """Map unhashable cell values (lists/dicts) to a hashable stand-in."""
    if isinstance(value, list):
        return tuple(_hashable(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _hashable(v)) for k, v in value.items()))
    return value
