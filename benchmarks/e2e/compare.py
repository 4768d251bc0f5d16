"""Compare two sets of benchmark runs, metric by metric.

    python -m benchmarks.e2e.compare A B

``A`` and ``B`` are ``--out`` directories of untraced runs (``A`` the
parent, ``B`` the change).  For each workload and end-to-end metric the
table shows both medians and quartiles, each side's spread (quartile
distance over median) and B's change against A, labelled:

``within``      B's median is no worse than A's by more than the bound;
``worse``       B's median is worse by more than the bound;
``unresolved``  a side's spread exceeds the bound, so the runs cannot
                tell, unless every B run beats every A run.

Runs of the two sides with the same seed form a pair, and ``wins``
counts the pairs in which B reads better.  Run the sides alternately
(A, B, A, B, ... over the same seeds), so a shift in the machine's speed
lands on both; a gain needs nine wins in ten pairs.

Quartiles are ``statistics.quantiles(values, n=4)``.  Exits 1 when any
metric is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from benchmarks.e2e.metrics import END_TO_END

__all__ = ["load_runs", "compare", "main"]

Runs = dict[str, dict[str, dict[tuple[int, int], float]]]


def load_runs(directory: str) -> Runs:
    """``{workload: {metric: {(seed, nth run of seed): value}}}`` over
    untraced result files."""
    runs: Runs = defaultdict(lambda: defaultdict(dict))
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        if record.get("trace"):
            continue
        for metric, value in record["metrics"].items():
            values = runs[record["workload"]][metric]
            nth = sum(seed == record["seed"] for seed, _ in values)
            values[(record["seed"], nth)] = float(value)
    return runs


def _summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _spread(values: list[float]) -> float:
    q1, mid, q3 = _summary(values)
    return (q3 - q1) / mid if mid else 0.0


def compare(a: Runs, b: Runs) -> list[dict]:
    """One row per (workload, metric) present in both sets."""
    rows = []
    for workload in sorted(a.keys() & b.keys()):
        for metric, (unit, better, bound) in END_TO_END.items():
            ra, rb = a[workload].get(metric), b[workload].get(metric)
            if not ra or not rb:
                continue
            va, vb = list(ra.values()), list(rb.values())
            _, ma, _ = _summary(va)
            _, mb, _ = _summary(vb)
            sign = 1.0 if better == "lower" else -1.0
            worsening = sign * (mb - ma) / ma if ma else 0.0
            spread = max(_spread(va), _spread(vb))
            b_beats_all = (
                max(vb) < min(va) if better == "lower" else min(vb) > max(va)
            )
            if spread > bound and not b_beats_all:
                label = "unresolved"
            elif worsening > bound:
                label = "worse"
            else:
                label = "within"
            pairs = ra.keys() & rb.keys()
            rows.append({
                "workload": workload, "metric": metric, "unit": unit,
                "a": _summary(va), "b": _summary(vb), "runs": (len(va), len(vb)),
                "spread": spread, "change": worsening, "bound": bound, "label": label,
                "wins": sum(sign * (rb[k] - ra[k]) < 0 for k in pairs),
                "pairs": len(pairs),
            })
    return rows


def _format(row: dict) -> str:
    def side(q):
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"

    return (
        f"{row['workload']:<15} {row['metric']:<14} {row['unit']:<4} "
        f"A {side(row['a']):<30} B {side(row['b']):<30} "
        f"spread {row['spread']:6.1%}  worse by {row['change']:+6.1%}  "
        f"bound {row['bound']:4.0%}  wins {row['wins']}/{row['pairs']}  {row['label']}"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e.compare")
    parser.add_argument("a", help="--out directory of the parent's runs")
    parser.add_argument("b", help="--out directory of the change's runs")
    args = parser.parse_args(argv)
    rows = compare(load_runs(args.a), load_runs(args.b))
    if not rows:
        print("compare: no workload has runs on both sides", file=sys.stderr)
        return 2
    for row in rows:
        print(_format(row))
    return 1 if any(row["label"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
