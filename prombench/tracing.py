"""In-memory span recorder wrapped around the program's public entry points.

The benchmark does not rely on the program's own telemetry for its layer
budget: it replaces selected module functions and class methods with
thin wrappers that record a span (name, start, end, parent, operation
id) per call.  Spans are kept per thread in memory and written out when
the run ends.  A layer's *self time* is its spans' durations minus the
time covered by their direct child spans, so the self times of every
span in an operation add up to the operation's wall time.

Each layer is a list of ``module:qualname`` entry points.  An entry
point that no longer exists (renamed, moved) is reported as missing and
the layer reads 0; the run does not fail.

Wrappers are installed before any database object is built, because
some entry points (the index layer's event handler) are bound when the
object subscribes.
"""

from __future__ import annotations

import importlib
import inspect
import json
import threading
import time
from typing import Any, Callable

# Layer name -> entry points.  Names follow the program's modules.
LAYERS: dict[str, tuple[str, ...]] = {
    "query.parse": ("repro.engine.database:parse",),
    "query.typecheck": ("repro.engine.database:typecheck",),
    "planner.plan": ("repro.query.planner:Planner.plan_select",),
    "exec": ("repro.query.evaluator:Evaluator.run",),
    "index.probe": (
        "repro.engine.indexes:IndexManager.probe",
        "repro.engine.indexes:IndexManager.range_probe",
        "repro.engine.indexes:IndexManager.ordered_scan",
    ),
    "index.maintain": (
        "repro.engine.indexes:IndexManager._on_event",
        "repro.engine.indexes:IndexManager.note_installed",
        "repro.engine.indexes:IndexManager.note_removed",
    ),
    "classification.traverse": (
        "repro.query.evaluator:Evaluator._traverse",
        "repro.classification.classification:Classification.descendants",
        "repro.classification.classification:Classification.ancestors",
    ),
    "classification.place": (
        "repro.classification.classification:Classification.place",
        "repro.classification.classification:Classification.add_edge",
        "repro.classification.classification:Classification.remove_edge",
        "repro.classification.graph:move_subtree",
    ),
    "taxonomy.derive": (
        "repro.taxonomy.derivation:NameDeriver.derive",
        "repro.taxonomy.derivation:NameDeriver.derive_taxon",
    ),
    "core": (
        "repro.core.schema:Schema.commit",
        "repro.core.schema:Schema.create",
        "repro.core.schema:Schema.relate",
        "repro.core.schema:Schema.unrelate",
    ),
    "txn.commit": (
        "repro.concurrency.manager:TransactionManager.commit",
        "repro.concurrency.manager:TransactionManager.commit_implicit",
    ),
    "mvcc.view": (
        "repro.mvcc:MvccStore.view",
        "repro.mvcc.view:SnapshotSchema.extent",
        "repro.mvcc.view:SnapshotSchema.get_object",
    ),
    "mvcc.apply": (
        "repro.mvcc:MvccStore.apply_commit",
        "repro.concurrency.manager:TransactionManager.ingest_implicit",
    ),
    "storage.commit": (
        "repro.storage.store:Transaction.commit",
        "repro.storage.store:Transaction.write",
        "repro.storage.store:Transaction.delete",
    ),
    "storage.load": ("repro.engine.database:PrometheusDB.load",),
    "telemetry.record": (
        "repro.telemetry:Telemetry.record_query",
        "repro.telemetry.metrics:MetricsRegistry.counter",
        "repro.telemetry.metrics:MetricsRegistry.histogram",
        "repro.telemetry.metrics:Histogram.observe",
        "repro.telemetry.tracing:Tracer.span",
    ),
    "handlers": ("repro.engine.handlers:HttpHandlers.handle",),
    "wire.codec": (
        "repro.engine.wire:encode_frame",
        "repro.engine.wire:decode_frame",
    ),
}

#: Entry points that are counted (outermost calls only), not timed.
COUNTED: dict[str, str] = {
    "query.calls": "repro.engine.database:PrometheusDB.query",
    "plan_tree.builds": "repro.query.plans:PlanOp.tree",
    "log.flushes": "repro.storage.log:RecordLog.flush",
}


class Recorder:
    """Collects spans and counts; one per process."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        #: one span list per thread: [name, start_ns, end_ns, parent, op]
        self.threads: list[list[list[Any]]] = []
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        self.enabled = False

    # -- per-thread state -----------------------------------------------

    def _state(self) -> Any:
        local = self._local
        if not hasattr(local, "spans"):
            local.spans = []
            local.stack = []
            local.op = None
            with self._lock:
                self.threads.append(local.spans)
        return local

    def switch(self, on: bool) -> None:
        """Start or stop recording (wrappers stay installed)."""
        self.enabled = on

    def set_op(self, op_id: Any) -> None:
        self._state().op = op_id

    # -- spans --------------------------------------------------------------

    def start(self, name: str) -> int:
        state = self._state()
        spans = state.spans
        parent = state.stack[-1] if state.stack else -1
        spans.append([name, time.perf_counter_ns(), 0, parent, state.op])
        pos = len(spans) - 1
        state.stack.append(pos)
        return pos

    def end(self, pos: int) -> None:
        state = self._local
        state.spans[pos][2] = time.perf_counter_ns()
        state.stack.pop()

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    # -- wrapping -------------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point of :data:`LAYERS` and :data:`COUNTED`.

        Recording starts switched off: :meth:`switch` turns it on, so
        one process can run untraced and traced rounds.
        """
        for layer, targets in LAYERS.items():
            for target in targets:
                self._wrap(layer, target, self._timed)
        for counter, target in COUNTED.items():
            self._wrap(counter, target, self._counted)

    def _wrap(self, name: str, target: str, make: Callable[..., Any]) -> None:
        module_name, _, qualname = target.partition(":")
        try:
            owner: Any = importlib.import_module(module_name)
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = inspect.getattr_static(owner, attr)
        except (ImportError, AttributeError):
            self.missing.append(f"{name} ({target})")
            return
        wrapper_of = original
        kind = None
        if isinstance(original, staticmethod):
            kind, wrapper_of = staticmethod, original.__func__
        elif isinstance(original, classmethod):
            kind, wrapper_of = classmethod, original.__func__
        wrapped = make(name, wrapper_of)
        setattr(owner, attr, kind(wrapped) if kind else wrapped)

    def _timed(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        rec = self
        start, end = self.start, self.end
        if inspect.isgeneratorfunction(fn):
            # Timed as one span: the generator is drained inside it.
            def gen_wrapper(*args: Any, **kwargs: Any) -> Any:
                if not rec.enabled:
                    return fn(*args, **kwargs)
                pos = start(name)
                try:
                    return iter(list(fn(*args, **kwargs)))
                finally:
                    end(pos)

            gen_wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
            return gen_wrapper

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not rec.enabled:
                return fn(*args, **kwargs)
            pos = start(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end(pos)

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def _counted(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        rec = self
        local = threading.local()

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not rec.enabled:
                return fn(*args, **kwargs)
            depth = getattr(local, "depth", 0)
            if depth == 0:
                rec.count(name)
            local.depth = depth + 1
            try:
                return fn(*args, **kwargs)
            finally:
                local.depth = depth

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    # -- analysis -------------------------------------------------------------

    def self_times(
        self, roots: set[str] | None = None, op_filter: Callable[[Any], bool] | None = None
    ) -> tuple[dict[str, int], dict[str, int], int]:
        """Self time per span name, in ns.

        Only span trees whose root is named in ``roots`` (all trees when
        None) and whose op id passes ``op_filter`` count.  Returns
        (self ns per name, call count per name, summed root ns).
        """
        selfs: dict[str, int] = {}
        calls: dict[str, int] = {}
        root_total = 0
        for spans in list(self.threads):
            keep = [False] * len(spans)
            child_ns = [0] * len(spans)
            for pos, (name, st, en, parent, op) in enumerate(spans):
                if en == 0:
                    continue
                if parent < 0:
                    keep[pos] = (roots is None or name in roots) and (
                        op_filter is None or op_filter(op)
                    )
                    if keep[pos]:
                        root_total += en - st
                else:
                    keep[pos] = keep[parent]
                    if keep[pos]:
                        child_ns[parent] += en - st
            for pos, (name, st, en, parent, op) in enumerate(spans):
                if keep[pos] and en:
                    selfs[name] = selfs.get(name, 0) + (en - st) - child_ns[pos]
                    calls[name] = calls.get(name, 0) + 1
        return selfs, calls, root_total

    def root_durations(self, name: str) -> list[tuple[Any, int]]:
        """(op id, duration ns) of every finished root span ``name``."""
        out = []
        for spans in list(self.threads):
            for sp in spans:
                if sp[3] < 0 and sp[0] == name and sp[2]:
                    out.append((sp[4], sp[2] - sp[1]))
        return out

    def dump(self, path: str) -> None:
        """Write every recorded span, one JSON array per thread line."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"missing": self.missing, "counts": self.counts}, handle
            )
            handle.write("\n")
            for spans in self.threads:
                json.dump(spans, handle, default=str)
                handle.write("\n")


#: Per-operation self time metrics (us) and the span each one sums.
SELF_US: dict[str, str] = {
    "query.parse_us": "query.parse",
    "query.typecheck_us": "query.typecheck",
    "planner.plan_us": "planner.plan",
    "exec.self_us": "exec",
    "index.probe_us": "index.probe",
    "index.maintain_us": "index.maintain",
    "classification.traverse_us": "classification.traverse",
    "classification.place_us": "classification.place",
    "taxonomy.derive_us": "taxonomy.derive",
    "core.self_us": "core",
    "txn.commit_us": "txn.commit",
    "mvcc.view_us": "mvcc.view",
    "mvcc.apply_us": "mvcc.apply",
    "storage.commit_us": "storage.commit",
    "telemetry.record_us": "telemetry.record",
    "handlers.self_us": "handlers",
    "wire.codec_us": "wire.codec",
}


def layer_metrics(
    rec: Recorder, plain: Any, traced: Any, root: str = "bench.op"
) -> dict[str, float]:
    """Per-layer budget of one process's traced phase.

    ``plain``/``traced`` are the untraced and traced phases' OpStats;
    the overhead compares their mean operation latency.  Self times are
    given per operation (root span), in microseconds.
    """
    selfs, calls, root_ns = rec.self_times(roots={root})
    ops = max(len(rec.root_durations(root)), 1)
    out = {
        metric: selfs.get(span, 0) / ops / 1e3 for metric, span in SELF_US.items()
    }
    queries = max(rec.counts.get("query.calls", 0), 1)
    out["query.parses_per_call"] = calls.get("query.parse", 0) / queries
    out["exec.plan_tree_builds_per_call"] = (
        rec.counts.get("plan_tree.builds", 0) / queries
    )
    out.update(overhead(plain, traced))
    out.update(reconcile(selfs, root, root_ns, traced))
    out["trace.missing_layers"] = len(rec.missing)
    return out


def overhead(plain: Any, traced: Any) -> dict[str, float]:
    def mean(stats: Any) -> float:
        values = stats.all_latencies()
        return sum(values) / len(values)

    return {"trace.overhead_pct": 100.0 * (mean(traced) / mean(plain) - 1.0)}


def reconcile(
    selfs: dict[str, int], root: str, root_ns: int, traced: Any
) -> dict[str, float]:
    """How well the layer self times account for measured wall time.

    ``trace.unattributed_pct``: share of the operations' span time that
    no layer span covers.  ``trace.reconcile_pct``: gap between the
    summed self times of all spans and the operation latencies the loop
    timed itself.
    """
    measured_ns = sum(traced.all_latencies()) * 1e9
    total_self = sum(selfs.values())
    return {
        "trace.unattributed_pct": 100.0 * selfs.get(root, 0) / max(root_ns, 1),
        "trace.reconcile_pct": 100.0 * abs(total_self - measured_ns)
        / max(measured_ns, 1.0),
    }


def planner_ratio(before: dict[str, Any], after: dict[str, Any]) -> dict[str, float]:
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    return {"planner.cache_hit_ratio": hits / max(hits + misses, 1)}
