"""Compare two sets of benchmark results with the benchmark's own bounds.

Usage (from the root of a checkout)::

    python3 prombench/compare.py BASE.jsonl            # spreads of one set
    python3 prombench/compare.py BASE.jsonl NEW.jsonl  # one row per workload and metric

Each file holds the JSON lines ``prombench/run.py --out FILE`` appends,
one per untraced run (traced runs are ignored).  For every workload and
end-to-end metric of ``BENCHMARK.json`` the script prints the median,
the spread (distance between the first and third quartile as a share
of the median, as ``statistics.quantiles(values, n=4)`` gives them) and
a verdict:

* ``unresolved`` — either set's spread exceeds the metric's bound, and
  not every new run beats every base run;
* ``regressed`` — the new median is worse than the base median by more
  than the bound;
* ``better`` / ``no worse`` — otherwise.

It also compares the share of failed operations per workload, which
must be identical.  Exit status 1 when a row regressed or the failure
shares differ.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(path: str) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            run = json.loads(line)
            if run.get("trace") == 0:
                runs.setdefault(run["workload"], []).append(run)
    return runs


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return float("inf")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def failed_share(runs: list[dict]) -> float:
    return sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    base = load_runs(argv[0])
    new = load_runs(argv[1]) if len(argv) == 2 else None
    status = 0
    header = f"{'workload':15} {'metric':10} {'n':>3} {'median':>12} {'spread':>8} {'bound':>6}"
    if new is not None:
        header += f" {'new median':>12} {'spread':>8} {'change':>8}  verdict"
    print(header)
    for workload in sorted(base):
        for entry in spec["end_to_end"]:
            name, bound = entry["name"], entry["bound"]
            lower = entry["better"] == "lower"
            values = [r["metrics"][name]["value"] for r in base[workload]]
            med, sp = statistics.median(values), spread(values)
            row = f"{workload:15} {name:10} {len(values):3d} {med:12.4f} {sp:8.3f} {bound:6.2f}"
            if new is None:
                flag = "" if sp <= bound / 3 else ("  wide" if sp <= bound else "  OVER BOUND")
                print(row + flag)
                continue
            if workload not in new:
                print(row + "  (no new runs)")
                continue
            new_values = [r["metrics"][name]["value"] for r in new[workload]]
            new_med, new_sp = statistics.median(new_values), spread(new_values)
            change = (new_med - med) / med
            worse = change if lower else -change
            all_better = (
                max(new_values) < min(values) if lower
                else min(new_values) > max(values)
            )
            if max(sp, new_sp) > bound and not all_better:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "regressed"
                status = 1
            elif worse < 0 and (all_better or -worse > sp):
                verdict = "better"
            else:
                verdict = "no worse"
            print(
                row + f" {new_med:12.4f} {new_sp:8.3f} {100 * change:7.1f}%  {verdict}"
            )
        if new is not None and workload in new:
            a, b = failed_share(base[workload]), failed_share(new[workload])
            same = "same" if a == b else "DIFFERENT"
            print(f"{workload:15} failed share {a:.6f} -> {b:.6f}  {same}")
            if a != b:
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
