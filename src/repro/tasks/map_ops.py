"""``map`` tasks: per-row operators.

A map task applies an *operator* to one column (``transform:``) and writes
the result to an output column (``output:``), preserving all other columns
— exactly the shape of the paper's Fig. 21 tasks::

    norm_ipldate:
      type: map
      operator: date
      transform: postedTime
      input_format: 'E MMM dd HH:mm:ss Z yyyy'
      output_format: yyyy-MM-dd
      output: date

Built-in operators: ``date`` (format conversion, Java SimpleDateFormat
patterns), ``extract`` (dictionary entity extraction), ``extract_location``
(city→state geo lookup), ``extract_words`` (tokenizer), ``expression``
(computed column via the expression language), ``copy``, ``lower``,
``upper``.  User operators register through
:func:`register_operator` — category 1 of the §4.2 task extension API.
"""

from __future__ import annotations

import datetime as _dt
import re
from typing import Any, Callable, Mapping, Sequence

from repro.data import Column, Schema, Table
from repro.data.encodings import DictColumn
from repro.data.expressions import compile_expression
from repro.errors import TaskConfigError, TaskExecutionError
from repro.tasks.base import Task, TaskContext

# ---------------------------------------------------------------------------
# Java SimpleDateFormat → strptime translation
# ---------------------------------------------------------------------------
# The paper's flow files use Java patterns ('E MMM dd HH:mm:ss Z yyyy',
# 'yyyy-MM-dd'); we translate the subset that appears in feed data.

_JAVA_TOKENS = [
    ("yyyy", "%Y"),
    ("yy", "%y"),
    ("MMMM", "%B"),
    ("MMM", "%b"),
    ("MM", "%m"),
    ("dd", "%d"),
    ("EEEE", "%A"),
    ("E", "%a"),
    ("HH", "%H"),
    ("hh", "%I"),
    ("mm", "%M"),
    ("ss", "%S"),
    ("SSS", "%f"),
    ("Z", "%z"),
    ("a", "%p"),
]


def java_to_strptime(pattern: str) -> str:
    """Translate a Java SimpleDateFormat pattern to a strptime pattern."""
    out = []
    i = 0
    while i < len(pattern):
        for token, replacement in _JAVA_TOKENS:
            if pattern.startswith(token, i):
                out.append(replacement)
                i += len(token)
                break
        else:
            out.append(pattern[i])
            i += 1
    return "".join(out)


class _Operator:
    """A compiled per-value operator: ``value, row -> value``."""

    def __init__(self, fn: Callable[[Any, Mapping[str, Any]], Any]):
        self._fn = fn

    def __call__(self, value: Any, row: Mapping[str, Any]) -> Any:
        return self._fn(value, row)


OperatorFactory = Callable[[Mapping[str, Any], "TaskContext | None"], _Operator]

_OPERATOR_FACTORIES: dict[str, Callable[..., Any]] = {}


def register_operator(name: str, factory: Callable[..., Any]) -> None:
    """Register an operator factory.

    ``factory(config)`` must return a callable ``(value, row) -> value``.
    User-registered operators are indistinguishable from built-ins in the
    flow file (§5.2 observation 2).
    """
    key = name.lower()
    _OPERATOR_FACTORIES[key] = factory


def operator_names() -> list[str]:
    return sorted(_OPERATOR_FACTORIES)


# -- built-in operator factories --------------------------------------------


#: the feed-timestamp shape of the paper's workloads
#: ('E MMM dd HH:mm:ss Z yyyy', e.g. ``Sat May 04 22:06:23 +0000 2013``).
#: A strict subset of what ``strptime`` accepts for that pattern — ASCII
#: only, seconds below 60, a UTC offset ``datetime`` can hold, a
#: four-digit year ``strftime`` zero-pads — so anything unusual falls
#: through to ``strptime`` itself and the two can never disagree.
_FAST_DATE_IN = "%a %b %d %H:%M:%S %z %Y"
_FAST_DATE_RE = re.compile(
    r"^(?:Mon|Tue|Wed|Thu|Fri|Sat|Sun) "
    r"(Jan|Feb|Mar|Apr|May|Jun|Jul|Aug|Sep|Oct|Nov|Dec) "
    r"(\d{1,2}) (?:[01]\d|2[0-3]):[0-5]\d:[0-5]\d "
    r"[+-](?:[01]\d|2[0-3])[0-5]\d ([1-9]\d{3})$",
    re.IGNORECASE | re.ASCII,
)
_MONTH_NUMBERS = {
    abbr: index + 1
    for index, abbr in enumerate(
        "jan feb mar apr may jun jul aug sep oct nov dec".split()
    )
}


def _date_factory(config: Mapping[str, Any]) -> Callable[[Any, Any], Any]:
    input_format = config.get("input_format")
    output_format = config.get("output_format", "yyyy-MM-dd")
    in_pattern = java_to_strptime(str(input_format)) if input_format else None
    out_pattern = java_to_strptime(str(output_format))
    # strptime dominates batch map time on feed data; the one pattern the
    # paper's flows use gets a regex kernel (validated against the real
    # calendar, so dirty rows still normalise exactly like strptime).
    fast = in_pattern == _FAST_DATE_IN and out_pattern == "%Y-%m-%d"
    #: (month, day, year) as matched -> normalised day: a feed holds far
    #: fewer days than timestamps, so validate and format once per day
    days: dict[tuple[str, ...], str | None] = {}

    def convert(value: Any, _row: Mapping[str, Any]) -> Any:
        if value is None:
            return None
        if isinstance(value, (_dt.date, _dt.datetime)):
            return value.strftime(out_pattern)
        text = str(value).strip()
        if fast:
            match = _FAST_DATE_RE.match(text)
            if match:
                parts = match.groups()
                if parts not in days:
                    month = _MONTH_NUMBERS[parts[0].lower()]
                    try:
                        day = _dt.date(int(parts[2]), month, int(parts[1]))
                    except ValueError:
                        days[parts] = None
                    else:
                        days[parts] = day.isoformat()
                return days[parts]
        parsed: _dt.datetime | None = None
        if in_pattern:
            try:
                parsed = _dt.datetime.strptime(text, in_pattern)
            except ValueError:
                parsed = None
        if parsed is None:
            parsed = _parse_fallback(text)
        if parsed is None:
            return None  # dirty feed rows normalise to missing, not crash
        return parsed.strftime(out_pattern)

    return convert


_ISO_RE = re.compile(r"(\d{4})-(\d{2})-(\d{2})")


def _parse_fallback(text: str) -> _dt.datetime | None:
    match = _ISO_RE.search(text)
    if match:
        try:
            return _dt.datetime(
                int(match.group(1)), int(match.group(2)), int(match.group(3))
            )
        except ValueError:
            return None
    for pattern in ("%a %b %d %H:%M:%S %z %Y", "%d/%m/%Y", "%m/%d/%Y"):
        try:
            return _dt.datetime.strptime(text, pattern)
        except ValueError:
            continue
    return None


_WORD_RE = re.compile(r"[A-Za-z][A-Za-z']+")


def _extract_factory(
    config: Mapping[str, Any], context: TaskContext | None = None
) -> Callable[[Any, Any], Any]:
    """Dictionary entity extraction (Fig. 21 ``extract_players``).

    Scans the text for surface forms listed in the dictionary and returns
    the canonical name of the first match (feeds that mention several
    entities produce one row per flow application; the paper's pipelines
    group afterwards).
    """
    dict_name = config.get("dict")
    if not dict_name:
        raise TaskConfigError("extract operator needs a 'dict' file")
    mapping: dict[str, str] | None = None
    phrases: list[tuple[str, str]] = []

    def extract(value: Any, _row: Mapping[str, Any], _ctx=context) -> Any:
        nonlocal mapping, phrases
        if mapping is None:
            if _ctx is None:
                raise TaskExecutionError(
                    "extract operator needs a TaskContext for dictionaries"
                )
            mapping = _ctx.dictionary(str(dict_name))
            phrases = [kv for kv in mapping.items() if " " in kv[0]]
        if value is None:
            return None
        text = str(value).lower()
        for word in _WORD_RE.findall(text):
            canonical = mapping.get(word)
            if canonical is not None:
                return canonical
        # Multi-word surface forms ("super kings"): substring pass.
        for surface, canonical in phrases:
            if surface in text:
                return canonical
        return None

    return extract


def _extract_location_factory(
    config: Mapping[str, Any], context: TaskContext | None = None
) -> Callable[[Any, Any], Any]:
    """City → region lookup (Fig. 21 ``extract_location``).

    ``match: city`` with ``country: IND`` resolves city mentions to their
    state using the built-in gazetteer (extendable via a ``dict`` option).
    """
    country = str(config.get("country", "IND")).upper()
    dict_name = config.get("dict")
    gazetteer: dict[str, str] | None = None

    def locate(value: Any, _row: Mapping[str, Any], _ctx=context) -> Any:
        nonlocal gazetteer
        if gazetteer is None:
            if dict_name and _ctx is not None:
                gazetteer = _ctx.dictionary(str(dict_name))
            else:
                from repro.tasks.gazetteer import cities_for_country

                gazetteer = cities_for_country(country)
        if value is None:
            return None
        text = str(value).lower()
        for city, state in gazetteer.items():
            if city in text:
                return state
        return None

    return locate


_STOPWORDS = frozenset(
    """a an and are as at be but by for from has have i in is it its of on
    or rt so that the this to was we were will with you your not amp http
    https t co www com me my our they them he she his her what when who
    just can out up all about more very via if than then there their
    been had do does did no yes get got like one two""".split()
)


def _extract_words_factory(
    config: Mapping[str, Any],
) -> Callable[[Any, Any], Any]:
    """Tokenizer used by the tag-cloud pipeline (Fig. A.1).

    Emits the list of non-stopword tokens; downstream ``groupby`` tasks
    flatten list-valued columns (one row per element).
    """
    min_length = int(config.get("min_length", 3))

    def words(value: Any, _row: Mapping[str, Any]) -> Any:
        if value is None:
            return []
        tokens = [
            t.lower() for t in _WORD_RE.findall(str(value))
        ]
        return [
            t for t in tokens if len(t) >= min_length and t not in _STOPWORDS
        ]

    return words


def _expression_factory(
    config: Mapping[str, Any],
) -> Callable[[Any, Any], Any]:
    source = config.get("expression")
    if not source:
        raise TaskConfigError("expression operator needs an 'expression'")
    expression = compile_expression(str(source))

    def compute(_value: Any, row: Mapping[str, Any]) -> Any:
        return expression(row)

    return compute


_COPY_FACTORY = lambda config: (lambda v, row: v)  # noqa: E731
_LOWER_FACTORY = lambda config: (  # noqa: E731
    lambda v, row: v.lower() if isinstance(v, str) else v
)
_UPPER_FACTORY = lambda config: (  # noqa: E731
    lambda v, row: v.upper() if isinstance(v, str) else v
)

register_operator("date", _date_factory)
register_operator("extract", _extract_factory)
register_operator("extract_location", _extract_location_factory)
register_operator("extract_words", _extract_words_factory)
register_operator("expression", _expression_factory)
register_operator("copy", _COPY_FACTORY)
register_operator("lower", _LOWER_FACTORY)
register_operator("upper", _UPPER_FACTORY)

#: built-in operators that are pure functions of the transform value —
#: eligible for the columnar fast path (no row dicts) and the per-run
#: value cache.  Keyed by factory identity so a user who re-registers
#: one of these names with a row-reading operator silently falls back
#: to the generic row-at-a-time path.
_VALUE_ONLY_FACTORIES: dict[str, Callable[..., Any]] = {
    "date": _date_factory,
    "extract": _extract_factory,
    "extract_location": _extract_location_factory,
    "extract_words": _extract_words_factory,
    "copy": _COPY_FACTORY,
    "lower": _LOWER_FACTORY,
    "upper": _UPPER_FACTORY,
}

#: stop inserting (but keep reading) past this many distinct values
_VALUE_CACHE_LIMIT = 200_000

_EMPTY_ROW: Mapping[str, Any] = {}


def _build_operator(
    name: str, config: Mapping[str, Any], context: TaskContext | None
) -> Callable[[Any, Mapping[str, Any]], Any]:
    factory = _OPERATOR_FACTORIES.get(name.lower())
    if factory is None:
        raise TaskConfigError(
            f"unknown map operator {name!r}; known: {operator_names()}"
        )
    try:
        return factory(config, context)
    except TypeError:
        return factory(config)


class MapTask(Task):
    """The ``type: map`` task."""

    type_name = "map"

    def _validate_config(self) -> None:
        if "operator" not in self.config:
            raise TaskConfigError(f"map task {self.name!r} needs 'operator'")
        operator = str(self.config["operator"]).lower()
        if operator not in _OPERATOR_FACTORIES:
            raise TaskConfigError(
                f"map task {self.name!r}: unknown operator {operator!r}; "
                f"known: {operator_names()}"
            )
        # `expression` operators read whole rows; others need `transform`.
        if operator != "expression" and "transform" not in self.config:
            raise TaskConfigError(
                f"map task {self.name!r} needs a 'transform' column"
            )
        if "output" not in self.config:
            raise TaskConfigError(
                f"map task {self.name!r} needs an 'output' column"
            )

    @property
    def transform_column(self) -> str | None:
        value = self.config.get("transform")
        return str(value) if value is not None else None

    @property
    def output_column(self) -> str:
        return str(self.config["output"])

    def partition_local(self) -> bool:
        return True

    def required_columns(self) -> set[str]:
        refs: set[str] = set()
        if self.transform_column:
            refs.add(self.transform_column)
        if str(self.config.get("operator", "")).lower() == "expression":
            refs |= compile_expression(
                str(self.config["expression"])
            ).references()
        return refs

    def output_schema(self, input_schemas: Sequence[Schema]) -> Schema:
        schema = input_schemas[0]
        if self.transform_column:
            schema.require([self.transform_column], context=self.name)
        return schema.with_column(Column(self.output_column))

    def _is_value_only(self) -> bool:
        """True when the operator is a pure function of the transform value.

        Guarded by factory *identity*: re-registering one of the builtin
        names with a custom operator (which may read other row columns)
        must drop the task back onto the generic row-at-a-time path.
        """
        name = str(self.config["operator"]).lower()
        builtin = _VALUE_ONLY_FACTORIES.get(name)
        return (
            builtin is not None
            and _OPERATOR_FACTORIES.get(name) is builtin
            and self.transform_column is not None
        )

    def apply(self, inputs: Sequence[Table], context: TaskContext) -> Table:
        table = self._single(inputs)
        operator = _build_operator(
            str(self.config["operator"]), self.config, context
        )
        transform = self.transform_column
        if transform:
            table.schema.require([transform], context=self.name)
        if transform and self._is_value_only():
            values = self._apply_columnar(table, transform, operator, context)
        else:
            values = [
                self._call(
                    operator, row.get(transform) if transform else None, row
                )
                for row in table.rows()
            ]
        context.bump(f"task.{self.name}.rows", table.num_rows)
        return table.with_column(self.output_column, values)

    def _call(
        self,
        operator: Callable[[Any, Mapping[str, Any]], Any],
        value: Any,
        row: Mapping[str, Any] = _EMPTY_ROW,
    ) -> Any:
        try:
            return operator(value, row)
        except Exception as exc:  # wrap user-operator failures
            raise TaskExecutionError(
                f"map task {self.name!r} failed on value {value!r}: {exc}"
            ) from exc

    def _apply_columnar(
        self,
        table: Table,
        transform: str,
        operator: Callable[[Any, Mapping[str, Any]], Any],
        context: TaskContext,
    ) -> list[Any]:
        """Value-only fast path: the operator runs once per distinct value.

        No row dicts are built.  A dictionary-encoded transform column is
        evaluated per dictionary entry in use and gathered by code; a
        boxed one per distinct ``(class, value)`` — the class keeps
        equal-but-distinct cells (``1``/``True``/``1.0``) from aliasing.
        Two context-scoped memos, both keyed by the task fingerprint,
        carry results across the run: per value (partitions of one feed)
        and per source column object (the same feed in several flows
        yields the same output column).  Distinct values are visited in
        first-seen row order, so the first failure raised (never cached,
        wrapped as on the row path) is the row path's; a column holding
        unhashable cells is computed row by row.
        """
        column = table.column(transform)
        fingerprint = self.fingerprint()
        # id -> (column, output): the entry pins the column, so its id
        # cannot come back as another object's while the run lasts
        shared = context.value_cache(fingerprint + "#column")
        hit = shared.get(id(column))
        if hit is not None:
            return hit[1]
        encoded = table.encoded_column(transform)
        entries = None
        if type(encoded) is DictColumn:
            # rows reach their dictionary entry's memo key by code
            row_keys: Sequence[Any] = encoded.codes
            entries = [(v.__class__, v) for v in encoded.values + [None]]
        else:
            row_keys = list(zip(map(type, column), column))
        try:
            results = dict.fromkeys(row_keys)  # distinct, first seen first
        except TypeError:  # unhashable cells: nothing to memoize on
            return [self._call(operator, value) for value in column]
        cache = context.value_cache(fingerprint)
        for row_key in results:
            key = row_key if entries is None else entries[row_key]
            if key in cache:
                results[row_key] = cache[key]
                continue
            results[row_key] = result = self._call(operator, key[1])
            if len(cache) < _VALUE_CACHE_LIMIT:
                cache[key] = result
        values = list(map(results.__getitem__, row_keys))
        shared[id(column)] = (column, values)
        return values
