"""Run one workload of the Prometheus benchmark and print its metrics.

Usage (from the root of a checkout)::

    python3 prombench/run.py --workload taxon-read --seed 1 --seconds 12 --trace 0

Workloads: ``taxon-read``, ``revision-write``, ``http-mixed`` (see
``prombench/README.md``).  ``--trace 0`` prints every end-to-end metric
of ``BENCHMARK.json``; ``--trace 1`` runs an untraced and a traced
phase and prints every per-layer metric.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> value and unit).  ``--out FILE`` also appends that
object, tagged with the workload, seed and trace flag, to a JSON-lines
file for ``prombench/compare.py``.

Exit codes: 0 with a result; 1 when the benchmark cannot run (no
program sources, bad arguments); 3 when a run is invalid (the open-loop
generator fell behind), in which case no number is printed.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
import traceback

import common

WORKLOADS = ("taxon-read", "revision-write", "http-mixed")


def load_spec() -> dict:
    path = common.ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise common.BenchError(f"{path} not found")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def workload_module(name: str):
    if name == "taxon-read":
        import taxon_read as module
    elif name == "revision-write":
        import revision_write as module
    else:
        import http_mixed as module
    return module


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    # A terminated run unwinds normally, so node processes are reaped
    # and scratch directories removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    # Nodes are stopped with SIGINT, as a user stops the CLI server with
    # Ctrl-C.  A shell starts background commands with SIGINT ignored,
    # and the node processes would inherit that and never stop on it.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        common.import_program()
        spec = load_spec()
        result = workload_module(args.workload).run(
            args.seed, args.seconds, bool(args.trace)
        )
    except common.InvalidRun as exc:
        print(f"invalid run, no result: {exc}", file=sys.stderr)
        return 3
    except common.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 1

    stats = result["stats"]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    absent = []
    for entry in wanted:
        name = entry["name"]
        value = result["metrics"].get(name)
        if value is None:
            if not args.trace:
                print(f"error: workload did not measure {name}", file=sys.stderr)
                return 1
            # A layer this workload never enters: its figure is zero.
            absent.append(name)
            value = 0
        metrics[name] = {"value": value, "unit": entry["unit"]}

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    # Figures the workload measured beyond the fixed metric list.
    info = dict(result.get("info", {}))
    info.update(
        (k, v) for k, v in result["metrics"].items() if k not in metrics
    )
    for key, value in sorted(info.items()):
        print(f"info {key} {value}")
    for cls, row in stats.summary().items():
        print(
            f"class {cls} attempted {row['attempted']} failed {row['failed']}"
            f" p50_ms {row['p50_ms']}"
        )
    for line in stats.errors:
        print(f"error-sample {line}")
    if absent:
        print("not exercised by this workload: " + " ".join(absent))
    rec = result.get("trace")
    if rec is not None:
        if rec.missing:
            print("missing entry points: " + "; ".join(rec.missing))
        traces = common.WORK / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        path = traces / f"{args.workload}-seed{args.seed}.spans.jsonl"
        rec.dump(str(path))
        print(f"spans written to {path.relative_to(common.ROOT)}")
    for name, m in metrics.items():
        print(f"metric {name} {m['value']} {m['unit']}")
    line = {
        "correct": stats.wrong == 0 and result.get("correct", True),
        "attempted": stats.total_attempted,
        "failed": stats.total_failed,
        "metrics": metrics,
    }
    if args.out:
        tagged = dict(
            line, workload=args.workload, seed=args.seed, trace=args.trace,
            at=time.time(),
        )
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(tagged) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
