"""One benchmark run: the command ``BENCHMARK.json`` names.

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed, measures for about
``--seconds`` seconds, checks every reply against the oracle, prints
each metric by name with its unit, and ends with one JSON object on the
last line of standard output.  ``--trace 0`` reports the end-to-end
metrics (program in child processes, no spans); ``--trace 1`` reports
the per-layer metrics (program in-process, spans installed) and writes
``trace_<workload>.json`` under ``benchmarks/e2e/.work/``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent


def load_contract() -> dict:
    return json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))


def one_run(
    workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False
) -> dict:
    """Run once; returns the result object (plus ``detail`` for humans)."""
    if not (REPO / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit("benchmarks/e2e: the program (src/repro) is missing")
    for path in (str(REPO / "src"), str(REPO)):
        if path not in sys.path:
            sys.path.insert(0, path)
    from benchmarks.e2e.harness import Run
    from benchmarks.e2e.trace import TraceRun
    from benchmarks.e2e.workloads import WORKLOADS

    contract = load_contract()
    run = (TraceRun if trace else Run)(
        WORKLOADS[workload], seed, seconds, smoke
    )
    try:
        measured = run.measure()
        run.verify()
    finally:
        run.close()
    tally = run.tally
    if trace:
        metrics = {
            m["name"]: dict(zip(("value", "unit"), measured[m["name"]]))
            for m in contract["per_layer"]
        }
    else:
        measured["ok_ratio"] = 1.0 - tally.failed / max(tally.attempted, 1)
        metrics = {
            m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
            for m in contract["end_to_end"]
        }
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
        "detail": {
            "reasons": dict(tally.reasons),
            "samples": run.samples.get("counts", {}),
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=20150531)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        seconds = 1.5 if args.smoke else load_contract()["run_seconds"]
    result = one_run(
        args.workload, args.seed, seconds, bool(args.trace), args.smoke
    )
    detail = result.pop("detail")
    for name, metric in result["metrics"].items():
        print(f"{name:42s} {metric['value']:14.4f} {metric['unit']}")
    print(
        f"attempted {result['attempted']}  failed {result['failed']}  "
        f"reasons {detail['reasons']}  samples {detail['samples']}"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
