"""Start a Prometheus node through the CLI with the benchmark's tracer.

Usage::

    python3 prombench/node.py SPANS_FILE -- --db flora.plog --taxonomy --serve 0

Installs the span wrappers of :mod:`tracing`, then calls
``repro.cli.main`` with the arguments after ``--`` — the same entry
point ``python -m repro`` runs.  Only requests that carry an
``X-Bench-Op`` header are recorded (the load generator sends it during
its traced phase), so the node serves its untraced phase and every
federation request with recording off.  On SIGINT or SIGTERM the CLI
stops its server; the spans are then written to ``SPANS_FILE`` and a
per-layer summary to ``SPANS_FILE.summary.json``.
"""

from __future__ import annotations

import json
import signal
import sys
from typing import Any

import common
import tracing

OP_HEADER = "x-bench-op"


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[2:]
    common.import_program()
    rec = tracing.Recorder()
    rec.install()
    rec.enabled = True  # start-up is recorded: storage.load_s
    _gate_on_header(rec)

    def stop(signum: int, frame: Any) -> None:
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, stop)
    from repro import cli

    try:
        return cli.main(cli_args)
    finally:
        rec.enabled = False
        rec.dump(spans_path)
        with open(spans_path + ".summary.json", "w", encoding="utf-8") as out:
            json.dump(summarize(rec), out)


def _gate_on_header(rec: tracing.Recorder) -> None:
    """Record a request only when the load generator tagged it.

    The load generator keeps at most one request in flight per node,
    so switching the recorder per request cannot mix requests up.
    """
    from repro.engine.handlers import HttpHandlers

    traced_handle = HttpHandlers.handle

    def handle(self: Any, request: Any) -> Any:
        op = request.header(OP_HEADER)
        rec.enabled = op is not None
        if op is None:
            return traced_handle(self, request)
        rec.set_op(op)
        try:
            return traced_handle(self, request)
        finally:
            rec.enabled = False

    HttpHandlers.handle = handle  # type: ignore[method-assign]


def summarize(rec: tracing.Recorder) -> dict[str, Any]:
    tagged = lambda op: op is not None  # noqa: E731
    selfs, calls, root_ns = rec.self_times(roots={"handlers"}, op_filter=tagged)
    handled = {
        op: ns for op, ns in rec.root_durations("handlers") if op is not None
    }
    load = [ns for _, ns in rec.root_durations("storage.load")]
    return {
        "self_ns": selfs,
        "calls": calls,
        "handle_ns": handled,
        "counts": rec.counts,
        "missing": rec.missing,
        "load_s": sum(load) / 1e9,
        "rss_mb": common.peak_rss_mb(),
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
