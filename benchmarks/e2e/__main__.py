"""``PYTHONPATH=src python -m benchmarks.e2e run|compare`` — run sets.

``run`` repeats ``run.py`` (a fresh process per run, as the driver does)
over one or all workloads with consecutive seeds, prints every metric
with its median, quartiles and MAD, and writes the set — with an
environment stamp — to a results file.  ``compare`` applies the bounds
of ``BENCHMARK.json`` to two such files, one row per workload × metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

from benchmarks.e2e import gen
from benchmarks.e2e.run import HERE, REPO, load_contract
from benchmarks.e2e.stats import compare, spread


def git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def stamp(args: argparse.Namespace, seconds: float) -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "rows": gen.SIZES["smoke" if args.smoke else "full"],
        "generator_version": gen.GENERATOR_VERSION,
        "mode": "smoke" if args.smoke else "full",
        "trace": bool(args.trace),
        "first_seed": args.seed,
        "runs_per_workload": args.runs,
        "run_seconds": seconds,
        "taken_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def run_set(args: argparse.Namespace) -> int:
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    chosen = [args.workload] if args.workload else names
    seconds = args.seconds or (1.5 if args.smoke else contract["run_seconds"])
    result = {"stamp": stamp(args, seconds), "workloads": {}}
    failed_runs = 0
    for workload in chosen:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        attempted = failed = 0
        for index in range(args.runs):
            command = [
                sys.executable, str(HERE / "run.py"),
                "--workload", workload, "--seed", str(args.seed + index),
                "--seconds", str(seconds), "--trace", str(int(args.trace)),
            ] + (["--smoke"] if args.smoke else [])
            done = subprocess.run(command, capture_output=True, text=True)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                failed_runs += 1
                continue
            run = json.loads(done.stdout.strip().splitlines()[-1])
            attempted += run["attempted"]
            failed += run["failed"]
            for name, metric in run["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            print(f"  {workload} seed {args.seed + index}: "
                  f"{run['attempted']} ops, {run['failed']} failed",
                  file=sys.stderr)
        print(f"\n{workload}  ({args.runs} runs, {attempted} operations, "
              f"{failed} failed)")
        print(f"  {'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'mad':>10s} {'iqr/med':>8s}  unit")
        summary = {}
        for name, runs in values.items():
            summary[name] = dict(spread(runs), unit=units[name], values=runs)
            s = summary[name]
            print(f"  {name:40s} {s['median']:12.4f} {s['q1']:12.4f} "
                  f"{s['q3']:12.4f} {s['mad']:10.4f} {s['iqr_share']:8.3f}  "
                  f"{units[name]}")
        summary["_operations"] = {"attempted": attempted, "failed": failed}
        result["workloads"][workload] = summary
    if args.smoke:
        print("\nsmoke mode: numbers are not recorded")
    elif args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
        print(f"\nwrote {out}")
    return 1 if failed_runs else 0


def compare_sets(args: argparse.Namespace) -> int:
    base = json.loads(Path(args.base).read_text(encoding="utf-8"))
    new = json.loads(Path(args.new).read_text(encoding="utf-8"))
    rows = compare(base, new, load_contract()["end_to_end"])
    print(f"{'workload':14s} {'metric':16s} {'base':>11s} {'new':>11s} "
          f"{'worse by':>9s} {'bound':>6s} {'spread':>7s}  verdict")
    for row in rows:
        print(
            f"{row['workload']:14s} {row['metric']:16s} {row['base']:11.4f} "
            f"{row['new']:11.4f} {row['worse_by']:+9.3f} {row['bound']:6.3f} "
            f"{max(row['base_iqr_share'], row['new_iqr_share']):7.3f}  "
            f"{row['verdict']}"
        )
    return 1 if any(r["verdict"] == "regressed" for r in rows) else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run a set and summarise it")
    run.add_argument("--workload", default=None)
    run.add_argument("--seed", type=int, default=20150531)
    run.add_argument("--runs", type=int, default=1)
    run.add_argument("--seconds", type=float, default=None)
    run.add_argument("--trace", action="store_true")
    run.add_argument("--smoke", action="store_true")
    run.add_argument("--out", default=None, help="results file to write")
    run.set_defaults(call=run_set)
    cmp_ = commands.add_parser("compare", help="apply the bounds, row by row")
    cmp_.add_argument("base")
    cmp_.add_argument("new")
    cmp_.set_defaults(call=compare_sets)
    args = parser.parse_args(argv)
    return args.call(args)


if __name__ == "__main__":
    sys.exit(main())
