"""Unit tests for the binary page codec (``repro.data.pages``).

The codec replaces ``pickle.dumps(table)`` as the wire/page format for
spill files and the process executors' result transport.  These tests
pin the frame layout guarantees: exact round-trips (nulls, fallback
columns, empty tables), width minimization, the zlib flag, and the
codec labels the byte metrics use.
"""

import pickle
import random

import pytest

from repro.data import Schema, Table
from repro.data.encodings import DictColumn, FloatColumn, IntColumn
from repro.data.pages import codec_name, decode_table, encode_table
from repro.workloads import ipl


def round_trip(table, **kwargs):
    blob = encode_table(table, **kwargs)
    out = decode_table(blob)
    assert out == table
    assert dict(out._data) == dict(table._data)
    assert out.schema.names == table.schema.names
    return blob, out


def test_round_trip_typed_columns():
    table = Table.from_columns(
        Schema.of("k", "n", "x"),
        {
            "k": ["a", "b", "a", None],
            "n": [1, None, -3, 4],
            "x": [0.5, None, 2.5, -1.0],
        },
    )
    blob, out = round_trip(table)
    assert type(out.encoded_column("k")) is DictColumn
    assert type(out.encoded_column("n")) is IntColumn
    assert type(out.encoded_column("x")) is FloatColumn
    assert out.estimated_bytes() == table.estimated_bytes()


def test_round_trip_fallback_column():
    table = Table.from_columns(
        Schema.of("m"),
        {"m": [1, "x", [2, 3], {"k": None}, float("nan")]},
    )
    out = decode_table(encode_table(table))
    # NaN != NaN (and a decoded NaN is a fresh object, defeating the
    # list-equality identity shortcut), so compare around it.
    assert out.column("m")[:4] == table.column("m")[:4]
    assert out.column("m")[4] != out.column("m")[4]
    assert out.encoded_column("m") is None


def test_round_trip_empty_table():
    table = Table(Schema.of("a", "b"))
    round_trip(table)


def test_round_trip_zero_columns():
    round_trip(Table(Schema([])))


def test_dictionary_null_codes_round_trip():
    table = Table.from_columns(
        Schema.of("k"), {"k": [None, "v", None, "v", None]}
    )
    _blob, out = round_trip(table)
    assert list(out.encoded_column("k").codes) == [-1, 0, -1, 0, -1]


def test_int_width_minimized():
    small = Table.from_columns(
        Schema.of("n"), {"n": list(range(100))}
    )
    wide = Table.from_columns(
        Schema.of("n"), {"n": [v * 2**40 for v in range(100)]}
    )
    small_blob = encode_table(small, compress=False)
    wide_blob = encode_table(wide, compress=False)
    # 1 byte/cell vs 8 bytes/cell, same framing overhead
    assert len(wide_blob) - len(small_blob) == 100 * 7
    assert decode_table(small_blob).encoded_column("n").values.typecode == "q"


def test_codec_names():
    tiny = Table.from_columns(Schema.of("n"), {"n": [1, 2, 3]})
    assert codec_name(encode_table(tiny)) == "typed"
    repetitive = Table.from_columns(
        Schema.of("k"), {"k": ["same-string"] * 2000}
    )
    assert codec_name(encode_table(repetitive)) == "typed-zlib"
    assert codec_name(encode_table(repetitive, compress=False)) == "typed"
    assert codec_name(pickle.dumps(tiny)) == "pickle"


def test_compressed_round_trip():
    table = Table.from_columns(
        Schema.of("k", "n"),
        {"k": ["ab", "cd"] * 1000, "n": list(range(2000))},
    )
    blob, _out = round_trip(table)
    assert codec_name(blob) == "typed-zlib"


def test_bad_magic_raises():
    with pytest.raises(ValueError):
        decode_table(b"NOPE" + b"\x00" * 16)


def test_pickle_of_table_is_a_page():
    """``Table.__reduce__`` routes every pickle through the codec."""
    table = Table.from_columns(
        Schema.of("k", "n"),
        {"k": ["a", "b"] * 500, "n": list(range(1000))},
    )
    via_pickle = pickle.loads(pickle.dumps(table))
    assert via_pickle == table
    assert type(via_pickle.encoded_column("k")) is DictColumn
    # and is much smaller than a naive object pickle would be
    naive = pickle.dumps(
        {n: table.column(n) for n in table.schema.names},
        pickle.HIGHEST_PROTOCOL,
    )
    assert len(encode_table(table)) < len(naive)


def test_plain_table_encodes_on_the_fly():
    # Tables built mid-plan via Table(schema, data) carry no encodings;
    # the codec still writes them compactly.
    table = Table(
        Schema.of("k"), {"k": ["x", "y", "x", "y"] * 250}
    )
    assert table.encoded_column("k") is None
    blob, out = round_trip(table)
    assert codec_name(blob) in ("typed", "typed-zlib")
    assert type(out.encoded_column("k")) is DictColumn


def test_ipl_fact_page_is_a_third_of_a_pickle():
    """A date-clustered IPL fact page (the tweet stream arrives in time
    order and the shuffle keeps it) in at most a third of the bytes of
    pickling the schema plus the boxed column lists."""
    rng = random.Random(2015)
    players = [name for name, _team, _forms in ipl.PLAYERS]
    teams = [key for key, _full, _color, _order in ipl.TEAMS]
    rows = [
        (
            f"2013-05-{rng.randrange(1, 29):02d}", rng.choice(players),
            rng.choice(teams), rng.randrange(0, 120), rng.randrange(0, 80),
        )
        for _ in range(2_000)
    ]
    rows.sort(key=lambda row: row[0])
    table = Table.from_rows(
        Schema.of("date", "player", "team", "runs", "balls"), rows
    )
    blob, _out = round_trip(table)
    pickled = pickle.dumps(
        (table.schema, {n: table.column(n) for n in table.schema.names}),
        pickle.HIGHEST_PROTOCOL,
    )
    assert len(pickled) >= 3 * len(blob), (len(pickled), len(blob))
