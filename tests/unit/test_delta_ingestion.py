"""Delta ingestion: connector cursors, format preambles, loader state.

The contract under test: a sequence of ``load_delta`` calls over a
changing source yields, when stitched together (base rows + appended
rows), exactly the table a fresh full ``load`` of the current bytes
would produce — regardless of appends, in-place rewrites, or writes
that end mid-line.
"""

import json
import os
import random
import time

import pytest

from repro.connectors.base import Connector, DeltaFetch
from repro.connectors.file import FileConnector
from repro.connectors.registry import default_connector_registry
from repro.data import Schema, Table
from repro.errors import ConnectorError
from repro.formats.csv_format import CsvFormat
from repro.formats.json_format import JsonFormat, JsonLinesFormat
from repro.formats.registry import default_format_registry
from repro.connectors.loader import DataObjectLoader


@pytest.fixture
def loader():
    return DataObjectLoader(
        default_connector_registry(), default_format_registry()
    )


def _touch_back(path):
    """Backdate mtime so successive writes within one mtime tick are
    still detected by the size check, and rewrites by the mtime check."""
    stat = os.stat(path)
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns - 2_000_000))


class TestDeltaFetchShape:
    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            DeltaFetch(mode="partial", cursor=None, payload=b"x")

    def test_payload_must_match_mode(self):
        with pytest.raises(ValueError):
            DeltaFetch(mode="none", cursor=None, payload=b"x")
        with pytest.raises(ValueError):
            DeltaFetch(mode="append", cursor=None, payload=None)

    def test_default_fetch_delta_is_full_fetch(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_bytes(b"a,b\n1,2\n")

        class Legacy(FileConnector):
            supports_delta = False
            fetch_delta = Connector.fetch_delta

        delta = Legacy().fetch_delta({"source": str(path)})
        assert delta.mode == "full"
        assert delta.payload == b"a,b\n1,2\n"
        assert delta.cursor is None


class TestFileConnectorCursor:
    def setup_method(self):
        self.connector = FileConnector()

    def test_first_read_is_full_with_cursor(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"a,b\n1,2\n")
        delta = self.connector.fetch_delta({"source": str(path)})
        assert delta.mode == "full"
        assert delta.payload == b"a,b\n1,2\n"
        assert delta.cursor["offset"] == 8

    def test_unchanged_file_reports_none(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"a,b\n1,2\n")
        first = self.connector.fetch_delta({"source": str(path)})
        second = self.connector.fetch_delta(
            {"source": str(path)}, first.cursor
        )
        assert second.mode == "none"
        assert second.payload is None
        assert second.cursor == first.cursor

    def test_appended_bytes_come_back_alone(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"a,b\n1,2\n")
        first = self.connector.fetch_delta({"source": str(path)})
        with path.open("ab") as handle:
            handle.write(b"3,4\n")
        second = self.connector.fetch_delta(
            {"source": str(path)}, first.cursor
        )
        assert second.mode == "append"
        assert second.payload == b"3,4\n"
        third = self.connector.fetch_delta(
            {"source": str(path)}, second.cursor
        )
        assert third.mode == "none"

    def test_shrunk_file_forces_full(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"a,b\n1,2\n3,4\n")
        first = self.connector.fetch_delta({"source": str(path)})
        path.write_bytes(b"a,b\n9,9\n")
        second = self.connector.fetch_delta(
            {"source": str(path)}, first.cursor
        )
        assert second.mode == "full"
        assert second.payload == b"a,b\n9,9\n"

    def test_same_size_rewrite_forces_full(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"a,b\n1,2\n")
        first = self.connector.fetch_delta({"source": str(path)})
        _touch_back(path)
        path.write_bytes(b"a,b\n8,9\n")  # same length, new content
        second = self.connector.fetch_delta(
            {"source": str(path)}, first.cursor
        )
        assert second.mode == "full"
        assert second.payload == b"a,b\n8,9\n"

    def test_garbage_cursor_degrades_to_full(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"a,b\n1,2\n")
        delta = self.connector.fetch_delta(
            {"source": str(path)}, cursor={"bogus": True}
        )
        assert delta.mode == "full"


class TestFormatPreambles:
    def test_csv_preamble_is_header_line(self):
        fmt = CsvFormat()
        payload = b"a,b\n1,2\n3,4\n"
        assert fmt.delta_resume(payload, {}) == len(payload)
        assert fmt.delta_preamble(payload, {}) == 4
        assert fmt.delta_payload(b"a,b\n", b"5,6\n", {}) == b"a,b\n5,6\n"

    def test_csv_headerless_has_no_preamble(self):
        fmt = CsvFormat()
        assert fmt.delta_preamble(b"1,2\n3,4\n", {"header": "false"}) == 0

    def test_jsonl_has_no_preamble(self):
        fmt = JsonLinesFormat()
        payload = b'{"a": 1}\n{"a": 2}\n'
        assert fmt.delta_resume(payload, {}) == len(payload)
        assert fmt.delta_preamble(payload, {}) == 0

    def test_line_formats_do_not_resume_mid_line(self):
        assert CsvFormat().delta_resume(b"a,b\n1,", {}) is None
        assert JsonLinesFormat().delta_resume(b'{"a": 1}', {}) is None

    def test_json_wrapper_is_not_delta_capable(self):
        fmt = JsonFormat()
        assert fmt.delta_resume(b'{"items": [{"a": 1}]}', {}) is None
        assert fmt.delta_resume(b'[{"a": 1}]', {"root": "items"}) is None
        assert fmt.delta_resume(b"[ ]\n", {}) is None  # nothing to extend
        # JSON lines whose documents happen to be arrays
        assert fmt.delta_resume(b"[1]\n[2]\n", {}) is None
        assert fmt.delta_resume(b'[1]', {"encoding": "utf-16"}) is None

    def test_json_array_resumes_at_its_closing_bracket(self):
        fmt = JsonFormat()
        assert fmt.delta_resume(b'[{"a": 1}]', {}) == 9
        assert fmt.delta_resume(b'[\n  {"a": 1}\n]\n\n', {}) == 13
        assert fmt.delta_resume(b', {"a": 2}] ', {}) == 10
        assert fmt.delta_payload(b"", b' , {"a": 2},3]\n', {}) == (
            b'[ {"a": 2},3]'
        )

    @pytest.mark.parametrize(
        "tail",
        [b'{"a": 2}]', b", ]", b', {"a": 2}', b', {"a": 2}]]', b",[1]"],
    )
    def test_json_tail_that_is_no_clean_append(self, tail):
        assert JsonFormat().delta_payload(b"", tail, {}) is None


class TestRandomJsonArrays:
    """Random arrays (nested ``=>`` paths, unicode, pretty-printed or
    not, whitespace after ``]``) through random appends, in-place
    rewrites and torn tails: after every step the ``load_delta`` results
    stitched together equal a full decode of the current bytes."""

    SCHEMA = Schema.from_mapping(
        {"id": None, "who": "user.name", "city": "user.home.city",
         "n": "stats.n"}
    )
    NAMES = ["plain", "", "Äöü", "名前", "line sep", 'q"uote\\']

    def _docs(self, rng, start, count):
        return [
            {
                "id": start + i,
                "user": {
                    "name": rng.choice(self.NAMES),
                    "home": {"city": rng.choice(["Pune", None, "Delhi"])},
                },
                "stats": {"n": rng.choice([1, 1.5, True, None, -3, "7"])},
            }
            for i in range(count)
        ]

    def _dump(self, rng, docs):
        return json.dumps(
            docs,
            ensure_ascii=rng.random() < 0.5,
            indent=2 if rng.random() < 0.5 else None,
        ).encode("utf-8")

    def _ws(self, rng):
        return rng.choice([b"", b"\n", b" \r\n", b"\t\n\n"])

    @pytest.mark.parametrize("seed", range(8))
    def test_loads_stitch_to_a_full_decode(self, loader, tmp_path, seed):
        from repro.errors import FormatError

        rng = random.Random(seed)
        path = tmp_path / "feed.json"
        config = {"source": str(path), "format": "json"}
        clock = [1_000_000_000]

        def write(data):
            path.write_bytes(data)
            clock[0] += 1_000_000  # every write is a new mtime
            os.utime(path, ns=(clock[0], clock[0]))

        next_id = 3
        write(self._dump(rng, self._docs(rng, 0, next_id)) + self._ws(rng))
        state, table = None, None
        pending = b""  # the rest of a torn append
        for _step in range(14):
            data = path.read_bytes()
            op = rng.choice(
                ["append"] * 4 + ["same", "larger", "smaller", "torn",
                                  "none"]
            )
            if pending:
                write(data + pending)
                pending = b""
            elif op in ("append", "torn"):
                count = rng.randint(1, 3)
                more = self._dump(rng, self._docs(rng, next_id, count))
                next_id += count
                body = data.rstrip(b" \t\r\n")[:-1]  # drop the "]"
                grown = (
                    body + rng.choice([b", ", b",\n  ", b","])
                    + more.strip()[1:] + self._ws(rng)
                )
                if op == "torn":
                    cut = rng.randint(len(body) + 1, len(grown) - 1)
                    grown, pending = grown[:cut], grown[cut:]
                write(grown)
            elif op == "same":
                at = data.index(b'"id": ') + 6
                while data[at + 1] in b"0123456789":
                    at += 1  # the last digit: no leading zeros
                digit = (data[at] - 48 + 1) % 10 + 48
                write(data[:at] + bytes([digit]) + data[at + 1:])
            elif op in ("larger", "smaller"):
                docs = json.loads(data)
                docs = (
                    self._docs(rng, 100, len(docs) + 2)
                    if op == "larger"
                    else docs[: max(1, len(docs) - 2)]
                )
                docs[0]["id"] = rng.randint(1000, 9999)
                write(self._dump(rng, docs) + self._ws(rng))
            try:
                expected = loader.load(self.SCHEMA, config)
            except FormatError:
                with pytest.raises(FormatError):
                    loader.load_delta(self.SCHEMA, config, state)
                continue  # the state stays where it was
            load = loader.load_delta(self.SCHEMA, config, state)
            state = load.state
            if load.mode == "full":
                table = load.table
            elif load.mode == "append":
                table = Table.concat_all([table, load.table])
            assert table.to_json_records() == expected.to_json_records()


class TestLoaderDeltaState:
    def _config(self, path, fmt="csv"):
        return {"source": str(path), "format": fmt}

    def test_full_then_none_then_append(self, loader, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"a,b\n1,2\n")
        schema = Schema.of("a", "b")
        config = self._config(path)

        first = loader.load_delta(schema, config)
        assert first.mode == "full"
        assert first.table.num_rows == 1
        assert first.state["cursor"]["offset"] == 8

        second = loader.load_delta(schema, config, first.state)
        assert second.mode == "none"
        assert second.table is None

        with path.open("ab") as handle:
            handle.write(b"3,4\n")
        third = loader.load_delta(schema, config, second.state)
        assert third.mode == "append"
        # The header preamble is re-prefixed, so the appended tail
        # decodes through the ordinary CSV path: exactly the new rows.
        assert third.table.num_rows == 1
        assert third.table.column("a") == [3]

    def test_stitched_deltas_equal_full_load(self, loader, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"a,b\n1,2\n")
        schema = Schema.of("a", "b")
        config = self._config(path)
        load = loader.load_delta(schema, config)
        table, state = load.table, load.state
        for i in range(3):
            with path.open("ab") as handle:
                handle.write(f"{10 + i},{20 + i}\n".encode())
            load = loader.load_delta(schema, config, state)
            assert load.mode == "append"
            table = Table.concat_all([table, load.table])
            state = load.state
        full = loader.load(schema, config)
        assert table.to_json_records() == full.to_json_records()

    def test_unaligned_append_forces_full_next_cycle(
        self, loader, tmp_path
    ):
        path = tmp_path / "d.csv"
        path.write_bytes(b"a,b\n1,2\n3,")  # torn mid-row write
        schema = Schema.of("a", "b")
        config = self._config(path)
        load = loader.load_delta(schema, config)
        assert load.state["cursor"]["offset"] is None
        # Whatever the torn tail decoded to, the next cycle must not
        # append to it: the dropped cursor forces a full re-read.
        with path.open("ab") as handle:
            handle.write(b"4\n5,6\n")
        second = loader.load_delta(schema, config, load.state)
        assert second.mode == "full"
        assert second.table.column("a") == [1, 3, 5]

    @pytest.mark.parametrize("fmt,torn,more", [
        ("csv", b"a\n1\n2", b"\n3\n"),
        ("jsonl", b'{"a": 1}\n{"a": 2}', b'\n{"a": 3}\n'),
    ], ids=["csv", "jsonl"])
    def test_torn_tail_reloads_as_torn_tail(
        self, loader, tmp_path, fmt, torn, more
    ):
        """A line format whose last read stopped mid-line has a resume
        point, just not there: its reload is ``torn_tail``."""
        path = tmp_path / f"d.{fmt}"
        path.write_bytes(torn)
        schema, config = Schema.of("a"), self._config(path, fmt)
        load = loader.load_delta(schema, config)
        with path.open("ab") as handle:
            handle.write(more)
        grown = loader.load_delta(schema, config, load.state)
        assert (grown.mode, grown.reason) == ("full", "torn_tail")
        assert grown.table.column("a") == [1, 2, 3]
        assert grown.state["cursor"]["offset"] == len(torn + more)
        series = loader.observability.metrics.as_dict()[
            "repro_ingest_delta_reloads_total"
        ]["series"]
        assert {s["labels"]["reason"]: s["value"] for s in series} == {
            "first_read": 1, "torn_tail": 1,
        }

    def test_jsonl_appends(self, loader, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_bytes(b'{"a": 1}\n')
        schema = Schema.of("a")
        config = self._config(path, fmt="jsonl")
        first = loader.load_delta(schema, config)
        with path.open("ab") as handle:
            handle.write(b'{"a": 2}\n')
        second = loader.load_delta(schema, config, first.state)
        assert second.mode == "append"
        assert second.table.column("a") == [2]

    def test_non_delta_format_falls_back_to_full(self, loader, tmp_path):
        path = tmp_path / "d.xml"
        path.write_bytes(b"<rows><r><a>1</a></r></rows>")
        schema, config = Schema.of("a"), self._config(path, fmt="xml")
        load = loader.load_delta(schema, config)
        assert (load.mode, load.reason) == ("full", "first_read")
        assert load.state["cursor"]["offset"] is None  # no resume point
        # unchanged: nothing to decode; grown: reloaded whole, with why
        assert loader.load_delta(schema, config, load.state).mode == "none"
        path.write_bytes(b"<rows><r><a>1</a></r><r><a>2</a></r></rows>")
        grown = loader.load_delta(schema, config, load.state)
        assert (grown.mode, grown.reason) == ("full", "no_delta_format")
        assert grown.table.column("a") == [1, 2]
        series = loader.observability.metrics.as_dict()[
            "repro_ingest_delta_reloads_total"
        ]["series"]
        assert {s["labels"]["reason"]: s["value"] for s in series} == {
            "first_read": 1, "no_delta_format": 1,
        }

    def test_json_array_appends_decode_only_the_new_elements(
        self, loader, tmp_path
    ):
        path = tmp_path / "d.json"
        path.write_bytes(b'[{"a": 1}, {"a": 2}]\n')
        schema, config = Schema.of("a"), self._config(path, fmt="json")
        first = loader.load_delta(schema, config)
        assert first.mode == "full"
        assert first.state["cursor"]["offset"] == 19  # the closing "]"
        with path.open("r+b") as handle:  # overwrite "]\n"
            handle.seek(-2, 2)
            handle.write(b', {"a": 3}]\n')
        second = loader.load_delta(schema, config, first.state)
        assert second.mode == "append"
        assert second.table.column("a") == [3]

    @pytest.mark.parametrize("fmt", ["csv", "jsonl", "json"])
    def test_larger_in_place_rewrite_is_a_full_reload(
        self, loader, tmp_path, fmt
    ):
        """Same prefix length, different bytes, then more: the file grew,
        but what it grew from is gone."""
        path = tmp_path / f"games.{fmt}"
        encode = {
            "csv": lambda rows: "team,runs\n" + "".join(
                f"{t},{r}\n" for t, r in rows
            ),
            "jsonl": lambda rows: "".join(
                f'{{"team": "{t}", "runs": {r}}}\n' for t, r in rows
            ),
            "json": lambda rows: "[" + ", ".join(
                f'{{"team": "{t}", "runs": {r}}}' for t, r in rows
            ) + "]",
        }[fmt]
        schema, config = Schema.of("team", "runs"), self._config(path, fmt)
        path.write_text(encode([("CSK", 120)]), encoding="utf-8")
        first = loader.load_delta(schema, config)
        path.write_text(
            encode([("MI", 5), ("RCB", 77), ("KKR", 1)]), encoding="utf-8"
        )
        second = loader.load_delta(schema, config, first.state)
        assert (second.mode, second.reason) == ("full", "prefix_changed")
        assert second.table.column("team") == ["MI", "RCB", "KKR"]
