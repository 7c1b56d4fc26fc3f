"""Summaries and the regression rule, shared by ``run`` and ``compare``."""

from __future__ import annotations

import statistics
from typing import Any, Sequence


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an unsorted sample (``q`` in 0..1)."""
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def slice_rates(
    finish_times: Sequence[float], start: float, stop: float, count: int
) -> list[float]:
    """Completions per second in each of ``count`` equal time slices of
    ``start..stop``; the median slice is blind to a stall in another."""
    width = (stop - start) / count
    done = [0] * count
    for t in finish_times:
        done[min(count - 1, max(0, int((t - start) / width)))] += 1
    return [n / width for n in done]


def spread(values: Sequence[float]) -> dict[str, float]:
    """Median, quartiles, MAD and IQR ÷ median of one metric's runs."""
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {
        "n": len(values),
        "median": median,
        "q1": q1,
        "q3": q3,
        "mad": statistics.median(abs(v - median) for v in values),
        "iqr_share": (q3 - q1) / median if median else 0.0,
    }


def verdict(
    base: dict[str, float], new: dict[str, float], better: str, bound: float
) -> tuple[str, float]:
    """The regression rule for one workload × metric row.

    Returns ``(word, change)`` where ``change`` is the share of the
    base median by which the new median is *worse* (negative = better).
    ``unresolved`` — not ``unchanged`` — when either side's quartile
    spread is wider than the bound: the runs cannot tell.
    """
    change = (new["median"] - base["median"]) / base["median"]
    if better == "higher":
        change = -change
    if max(base["iqr_share"], new["iqr_share"]) > bound:
        return "unresolved", change
    if change > bound:
        return "regressed", change
    return ("improved" if change < -bound else "unchanged"), change


def compare(
    base: dict[str, Any], new: dict[str, Any], metrics: list[dict[str, Any]]
) -> list[dict[str, Any]]:
    """One row per workload × end-to-end metric of two result files."""
    rows = []
    for workload, base_metrics in base["workloads"].items():
        new_metrics = new["workloads"].get(workload, {})
        for metric in metrics:
            name = metric["name"]
            if name not in base_metrics or name not in new_metrics:
                continue
            word, change = verdict(
                base_metrics[name], new_metrics[name],
                metric["better"], metric["bound"],
            )
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": metric["unit"],
                    "base": base_metrics[name]["median"],
                    "new": new_metrics[name]["median"],
                    "worse_by": change,
                    "bound": metric["bound"],
                    "base_iqr_share": base_metrics[name]["iqr_share"],
                    "new_iqr_share": new_metrics[name]["iqr_share"],
                    "verdict": word,
                }
            )
    return rows
