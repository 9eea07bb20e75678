"""``python -m benchmarks.perf compare A.json B.json``.

Compares two ledgers written by ``run --out`` — A is the base, B the
candidate — per (workload, end-to-end metric), with the bounds fixed in
``BENCHMARK.json``. Verdicts follow the choosing-metrics rule:

- ``worse``: B's median is worse than A's by more than the bound;
- ``unresolved``: the run-to-run spread (quartile distance over the median,
  the larger of the two sides) exceeds the bound, so the medians decide
  nothing — unless every B run beats every A run, which is ``better``;
- ``better``: B's median is better than A's by more than the spread — never
  from a single run a side, whose spread is unknown (use ``--repeats``);
- ``within-bound``: everything else.

Every ratio is printed with its base (A). Exit status 1 on any ``worse``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics

__all__ = ["compare", "compare_main", "spread", "verdict"]


def spread(values: "list[float]") -> float:
    """Distance between the first and third quartile as a share of the
    median (0 for fewer than two values or a zero median)."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return abs(q3 - q1) / abs(median) if median else 0.0


def verdict(base: "list[float]", cand: "list[float]", better: str, bound: float) -> "dict":
    """Judge one metric on one workload. ``gain`` is the candidate's
    improvement as a share of the base median (negative = worse)."""
    sign = 1.0 if better == "higher" else -1.0
    b, c = statistics.median(base), statistics.median(cand)
    gain = sign * (c - b) / abs(b) if b else 0.0
    noise = max(spread(base), spread(cand))
    repeated = len(base) > 1 and len(cand) > 1
    dominates = all(sign * (y - x) > 0 for x in base for y in cand)
    if noise > bound:
        label = "better" if dominates else "unresolved"
    elif gain < -bound:
        label = "worse"
    elif repeated and gain > noise:
        label = "better"
    else:
        label = "within-bound"
    return {"verdict": label, "base": b, "candidate": c, "ratio": c / b if b else float("nan"),
            "gain": gain, "spread": noise, "bound": bound, "runs": (len(base), len(cand))}


def compare(base_ledger: dict, cand_ledger: dict, bench: dict) -> "list[dict]":
    """One row per (workload, end-to-end metric) present in both ledgers."""

    def by_workload(ledger: dict) -> "dict[str, list[dict]]":
        out: "dict[str, list[dict]]" = {}
        for record in ledger["records"]:
            out.setdefault(record["workload"], []).append(record["end_to_end"])
        return out

    base, cand = by_workload(base_ledger), by_workload(cand_ledger)
    rows = []
    for workload in bench["workloads"]:
        name = workload["name"]
        if name not in base or name not in cand:
            continue
        for metric in bench["end_to_end"]:
            key = metric["name"]
            row = verdict(
                [r[key] for r in base[name]], [r[key] for r in cand[name]],
                metric["better"], metric["bound"],
            )
            rows.append({"workload": name, "metric": key, "unit": metric["unit"], **row})
    return rows


def compare_main(argv: "list[str]") -> int:
    from benchmarks.perf.run import load_benchmark

    parser = argparse.ArgumentParser(prog="benchmarks.perf compare", description=__doc__)
    parser.add_argument("base", type=pathlib.Path, help="ledger A (the base of every ratio)")
    parser.add_argument("candidate", type=pathlib.Path, help="ledger B")
    args = parser.parse_args(argv)
    rows = compare(
        json.loads(args.base.read_text()), json.loads(args.candidate.read_text()),
        load_benchmark(),
    )
    print(f"{'workload':<20} {'metric':<17} {'A (base)':>13} {'B':>13} {'B/A':>7} "
          f"{'spread':>7} {'bound':>6} {'runs':>5}  verdict")
    for r in rows:
        print(f"{r['workload']:<20} {r['metric']:<17} {r['base']:>13.6g} {r['candidate']:>13.6g} "
              f"{r['ratio']:>7.3f} {r['spread']:>7.1%} {r['bound']:>6.1%} "
              f"{r['runs'][0]:>2}/{r['runs'][1]:<2}  {r['verdict']}")
    worse = [r for r in rows if r["verdict"] == "worse"]
    print(f"{len(rows)} pairs: "
          + ", ".join(f"{sum(r['verdict'] == v for r in rows)} {v}"
                      for v in ("better", "within-bound", "unresolved", "worse")))
    return 1 if worse else 0
