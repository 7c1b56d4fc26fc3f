"""Self-tests of the benchmark (``pytest benchmarks/e2e -q``).

Outside tier-1's ``testpaths`` on purpose: they start servers and
worker processes and take about a minute.
"""

from __future__ import annotations

import json
import os
import re
import socket
import sys
import time
from pathlib import Path

import pytest

from benchmarks.e2e import run as run_module
from benchmarks.e2e.run import REPO, load_contract, one_run

for _path in (str(REPO / "src"), str(REPO)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from benchmarks.e2e import harness  # noqa: E402
from benchmarks.e2e.harness import Run, WORK_ROOT  # noqa: E402
from benchmarks.e2e.spans import check_tree  # noqa: E402
from benchmarks.e2e.stats import spread, verdict  # noqa: E402
from benchmarks.e2e.trace import TraceRun  # noqa: E402
from benchmarks.e2e.workloads import WORKLOADS, Read  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
CONTRACT = load_contract()


def _children() -> list[tuple[int, str]]:
    """``(pid, state)`` of every live or zombie child of this process."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            fields = Path(f"/proc/{entry}/stat").read_text().rsplit(")", 1)
        except OSError:
            continue
        state, ppid = fields[1].split()[:2]
        if int(ppid) == os.getpid():
            found.append((int(entry), state))
    return found


def _assert_clean(port: int) -> None:
    assert not WORK_ROOT.exists() or not any(WORK_ROOT.rglob("repro-*"))
    assert _children() == []
    with socket.socket() as probe:
        assert probe.connect_ex(("127.0.0.1", port)) != 0


def test_contract_names_are_well_formed():
    names = [w["name"] for w in CONTRACT["workloads"]]
    names += [m["name"] for m in CONTRACT["end_to_end"]]
    names += [m["name"] for m in CONTRACT["per_layer"]]
    assert all(NAME.match(n) for n in names)
    assert len(set(names)) == len(names)
    assert set(CONTRACT) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert CONTRACT["workloads"] == [
        {"name": w.name, "why": w.why} for w in WORKLOADS.values()
    ]
    assert all(len(w["why"]) <= 200 for w in CONTRACT["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in CONTRACT["end_to_end"])
    assert any(
        m == {"name": "setup_s", "unit": "s", "better": "lower",
              "bound": m["bound"]}
        for m in CONTRACT["end_to_end"]
    )
    assert len(CONTRACT["per_layer"]) <= 128
    assert harness.CLIENTS <= len(os.sched_getaffinity(0))


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_emits_every_end_to_end_metric(workload):
    started = time.perf_counter()
    result = one_run(workload, seed=5, seconds=2.0, trace=False, smoke=True)
    assert time.perf_counter() - started < 20
    assert set(result["metrics"]) == {
        m["name"] for m in CONTRACT["end_to_end"]
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert _children() == []


def test_traced_smoke_emits_every_layer_metric_and_a_span_tree():
    run = TraceRun(WORKLOADS["activity_join"], 5, 2.0, smoke=True)
    try:
        measured = run.measure()
        run.verify()
        port = run.port
        spans = json.loads(run.trace_path.read_text())["spans"]
    finally:
        run.close()
    assert set(measured) >= {m["name"] for m in CONTRACT["per_layer"]}
    assert {m["name"]: m["unit"] for m in CONTRACT["per_layer"]} == {
        name: unit for name, (_value, unit) in measured.items()
        if name in {m["name"] for m in CONTRACT["per_layer"]}
    }
    assert check_tree(spans) == []
    assert measured["trace.coverage"][0] >= 0.95
    assert run.tally.failed == 0
    _assert_clean(port)


def test_untraced_run_leaves_nothing_behind():
    run = Run(WORKLOADS["activity_join"], 5, 2.0, smoke=True)
    try:
        run.measure()
        port = run.port
    finally:
        run.close()
    _assert_clean(port)


def test_a_corrupted_answer_counts_as_a_failure():
    """The oracle can say no: a right body passes, the same body with
    one digit changed fails, and so does a refused connection."""
    run = Run(WORKLOADS["refresh_mixed"], 5, 2.0, smoke=True)
    try:
        run.work = run.root / "corrupt"
        run._write_inputs(run.work)
        run.marks.append(run._source().stat().st_size)
        oracle = run.workload.oracle(run.work)
        oracle.advance(run.marks[0])
        read = Read("top_batsmen")
        rows, _ordered = oracle.read("top_batsmen", [], 0, 1000)
        right = json.dumps({"rows": rows}).encode()
        rows[0]["runs"] += 1
        wrong = json.dumps({"rows": rows}).encode()
        run.ledger.read(read, 0, right)
        run.verify()
        assert (run.tally.attempted, run.tally.failed) == (1, 0)
        run.ledger.read(read, 0, wrong)
        run.verify()
        assert (run.tally.attempted, run.tally.failed) == (2, 1)
        assert run.tally.reasons == {"oracle-mismatch-read": 1}
        with socket.socket() as free:
            free.bind(("127.0.0.1", 0))
            closed_port = free.getsockname()[1]
        assert run._checked_get(closed_port, read) is None
        assert run.tally.failed == 2
    finally:
        run.close()


def test_compare_says_unresolved_when_the_spread_is_wider_than_the_bound():
    steady = spread([1.00, 1.01, 0.99, 1.00, 1.02])
    slower = spread([1.20, 1.21, 1.19, 1.20, 1.22])
    noisy = spread([0.8, 1.0, 1.4, 0.7, 1.3])
    assert verdict(steady, steady, "lower", 0.1)[0] == "unchanged"
    assert verdict(steady, slower, "lower", 0.1)[0] == "regressed"
    assert verdict(slower, steady, "lower", 0.1)[0] == "improved"
    assert verdict(steady, slower, "higher", 0.1)[0] == "improved"
    assert verdict(steady, noisy, "lower", 0.1)[0] == "unresolved"


def test_run_refuses_without_the_program(tmp_path, monkeypatch):
    monkeypatch.setattr(run_module, "REPO", tmp_path)
    with pytest.raises(SystemExit):
        one_run("ipl_batch", 1, 1.0, trace=False)
