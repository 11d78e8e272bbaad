"""http-mixed: the served system over the wire, open loop.

Two nodes are started the way users start them, ``python -m repro --db
FLORA --taxonomy --serve 0`` (default asyncio front end): a primary
herbarium and a peer herbarium with its own flora.  Readiness is the
CLI's ``serving on URL`` line.  One load process sends operations on a
fixed schedule (open loop) over one keep-alive ``http.client``
connection to the primary, and federated calls through the program's
own :class:`~repro.engine.federation.Federation` client over both
nodes.  Each operation is timed from the moment it was due.

Every response is checked against the load generator's own
bookkeeping: query rows against the generated flora, ``lsn`` never
decreasing, a committed session write visible to the next read, and
federated answers complete (no ``__partial__``/``__errors__``) and equal
to the per-node expectations.

With ``--trace 1`` the nodes start through ``prombench/node.py``; the
load generator runs an untraced phase, then a traced phase in which it
tags each request with ``X-Bench-Op`` so the nodes record spans for it.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import shutil
import signal
import subprocess
import sys
import threading
import time
from typing import Any, Callable
from urllib.parse import urlparse

import common
from common import OpStats

PRIMARY_FLORA = dict(
    families=8, genera_per_family=6, species_per_genus=8,
    specimens_per_species=4,
)  # 384 species, 1536 specimens, ~6.5k objects
PEER_FLORA = dict(
    families=3, genera_per_family=4, species_per_genus=6,
    specimens_per_species=3,
)  # 72 species, 216 specimens, ~1.1k objects
SETUP_REPEATS = 3
READY_TIMEOUT_S = 60.0

#: Operations per round, by class, besides one rarer, slow request
#: (:data:`RARE`).  Cache hits and liveness probes are 80% of a round,
#: so its median falls inside the cache-hit class.
ROUND: dict[str, int] = {
    "liveness": 1,
    "hot": 6,
    "hot_repb": 1,
    "tail": 1,
}
#: The rarer requests and their classes.  Each round carries one, in
#: this order, each for two rounds in a row, so that the untraced and
#: traced rounds of a traced run (which alternate) see all of them.
RARE: dict[str, str] = {
    "resolve": "resolve",
    "session": "session",
    "count_all": "federated",
    "find_name": "federated",
}
#: Seconds from an operation's due time to the next one's, by class.
#: Each is about three times the class's median service time on a slow
#: period of the machine, so the next operation is not due before this
#: one has answered and a cache hit never queues behind a slow request.
SLOT_S: dict[str, float] = {
    "liveness": 0.010,
    "hot": 0.010,
    "hot_repb": 0.010,
    "tail": 0.050,
    "resolve": 0.060,
    "session": 0.080,
    "federated": 0.040,
}
#: ``p50_ms`` is this percentile of the rounds' medians.  A ten-request
#: round's median moves with the wake-ups of three processes even on a
#: quiet machine (cache hits take 1.0-2.0 ms), so the lowest of a run's
#: 170 rounds is a lucky draw: over six runs of one commit its spread
#: was 0.18, the tenth percentile's 0.09.
P50_ROUND_PCT = 10
#: Operations per second of the fixed schedule (about 54).
RATE = len(RARE) * (sum(ROUND.values()) + 1) / (
    len(RARE) * sum(n * SLOT_S[c] for c, n in ROUND.items())
    + sum(SLOT_S[c] for c in RARE.values())
)
HOT_KEYS = 3   # distinct hot JSON bodies; REPB requests use the first
RESOLVE_BATCH = 6

TAIL_QUERY = "select s from s in Specimen where s.collection_number = $c"
POINT = "select n from n in NomenclaturalTaxon where n.epithet = $e"
CLOSURE = (
    "select s from t in CircumscriptionTaxon, "
    's in (Specimen) t->Includes["{c}"]* where t.oid = $oid'
)
RANK = 'select t from t in CircumscriptionTaxon where t.rank = "Genus"'


# -- nodes ---------------------------------------------------------------------------


class Node:
    """One CLI-started server process; always reaped by :meth:`stop`."""

    def __init__(self, name: str, db_path: str, workdir: str, trace: bool) -> None:
        self.name = name
        self.db_path = db_path
        self.spans = os.path.join(workdir, f"{name}.spans.jsonl")
        cli = ["--db", db_path, "--taxonomy", "--serve", "0"]
        if trace:
            argv = [
                sys.executable, str(common.BENCH_DIR / "node.py"),
                self.spans, "--", *cli,
            ]
        else:
            argv = [sys.executable, "-m", "repro", *cli]
        self.stderr = open(os.path.join(workdir, f"{name}.stderr"), "wb")
        self.proc = subprocess.Popen(
            argv,
            cwd=str(common.ROOT),
            env=common.env_with_src(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=self.stderr,
        )
        self.url = ""

    def wait_ready(self, deadline: float) -> None:
        """Block until the CLI prints ``serving on URL``."""
        out = self.proc.stdout
        buf = b""
        while b"\n" not in buf or not self.url:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or self.proc.poll() is not None:
                raise common.BenchError(f"node {self.name} did not start")
            ready, _, _ = select.select([out], [], [], remaining)
            if not ready:
                continue
            chunk = os.read(out.fileno(), 4096)
            if not chunk:
                raise common.BenchError(f"node {self.name} exited at start")
            buf += chunk
            for line in buf.decode("utf-8", "replace").splitlines():
                if line.startswith("serving on "):
                    self.url = line.split()[2]
        self.host, self.port = urlparse(self.url).hostname, urlparse(self.url).port

    def peak_rss_mb(self) -> float:
        return common.proc_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        proc = self.proc
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if proc.stdout is not None:
            proc.stdout.close()
        self.stderr.close()

    def summary(self) -> dict[str, Any]:
        with open(self.spans + ".summary.json", encoding="utf-8") as handle:
            return json.load(handle)


# -- the client side -------------------------------------------------------------------


class Client:
    """One keep-alive connection to a node; one request in flight."""

    def __init__(self, node: Node) -> None:
        self.conn = http.client.HTTPConnection(node.host, node.port, timeout=30)
        self.tag: str | None = None  # X-Bench-Op for the next request
        #: (tag, seconds) of every tagged request, for the transport figure
        self.timings: list[tuple[str, float]] = []

    def call(
        self, method: str, path: str, payload: Any = None, repb: bool = False
    ) -> tuple[int, Any]:
        from repro.engine import wire

        headers = {}
        body = None
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        if repb:
            headers["Accept"] = wire.CONTENT_TYPE
        tag = self.tag
        if tag is not None:
            headers["X-Bench-Op"] = tag
        started = time.perf_counter()
        self.conn.request(method, path, body=body, headers=headers)
        response = self.conn.getresponse()
        raw = response.read()
        elapsed = time.perf_counter() - started
        if tag is not None:
            self.timings.append((tag, elapsed))
        if wire.is_repb(response.getheader("Content-Type")):
            return response.status, wire.decode_frame(raw)
        return response.status, json.loads(raw.decode("utf-8"))

    def close(self) -> None:
        self.conn.close()


class FanoutProbe:
    """Times each federated fan-out against its slowest node call, and
    counts the threads and connections it opens (traced phase only)."""

    def __init__(self) -> None:
        self.enabled = False
        self.calls: list[dict[str, Any]] = []
        self._active: dict[str, Any] | None = None

    def install(self) -> None:
        from repro.engine import federation

        probe = self
        fed_cls, remote_cls = federation.Federation, federation.RemoteDatabase
        query_all, remote_query = fed_cls.query_all, remote_cls.query
        thread_start = threading.Thread.start
        connect = http.client.HTTPConnection.connect

        def wrapped_query_all(self: Any, *args: Any, **kwargs: Any) -> Any:
            if not probe.enabled:
                return query_all(self, *args, **kwargs)
            call = {"nodes": [], "threads": 0, "conns": 0}
            probe._active = call
            started = time.perf_counter()
            try:
                return query_all(self, *args, **kwargs)
            finally:
                call["wall"] = time.perf_counter() - started
                probe._active = None
                probe.calls.append(call)

        def wrapped_query(self: Any, *args: Any, **kwargs: Any) -> Any:
            call = probe._active
            started = time.perf_counter()
            try:
                return remote_query(self, *args, **kwargs)
            finally:
                if call is not None:
                    call["nodes"].append(time.perf_counter() - started)

        def wrapped_start(self: Any) -> None:
            if probe._active is not None:
                probe._active["threads"] += 1
            thread_start(self)

        def wrapped_connect(self: Any) -> None:
            call = probe._active
            if call is not None and threading.current_thread().name.startswith("federation"):
                call["conns"] += 1
            connect(self)

        fed_cls.query_all = wrapped_query_all
        remote_cls.query = wrapped_query
        threading.Thread.start = wrapped_start
        http.client.HTTPConnection.connect = wrapped_connect

    def metrics(self) -> dict[str, float]:
        calls = [c for c in self.calls if c["nodes"]]
        n = max(len(calls), 1)
        return {
            "federation.fanout_overhead_us": sum(
                c["wall"] - max(c["nodes"]) for c in calls
            ) / n * 1e6,
            "federation.threads_started_per_call": sum(c["threads"] for c in calls) / n,
            "federation.conns_per_call": sum(c["conns"] for c in calls) / n,
        }


# -- the workload -------------------------------------------------------------------------


class HttpMixed:
    def __init__(self, seed: int, trace: bool) -> None:
        self.seed = seed
        self.trace = trace
        self.rng = common.seeded(seed, "http-mixed")
        self.dir: str | None = None
        self.primary: Node | None = None
        self.peer: Node | None = None
        self.client: Client | None = None
        self.federation: Any = None
        self.shape: common.FloraShape | None = None
        self.peer_shape: common.FloraShape | None = None
        self.sessions = 0
        self.max_lsn = 0
        self.op_seq = 0
        self.rounds_planned = 0
        self.commit_times: list[float] = []
        #: send lateness of every paced operation, seconds
        self.lateness: list[float] = []
        #: seconds tagged operations waited for their send slot
        self.tagged_wait = 0.0
        self.startup_scope_fault = 0
        self.spans_path = ""
        self.primary_summary: dict[str, Any] = {}

    # -- set-up / tear-down --------------------------------------------------

    def setup(self) -> None:
        self.__init__(self.seed, self.trace)  # type: ignore[misc]
        from repro.engine.federation import Federation

        self.dir = common.scratch_dir("http-mixed-")
        primary_path = os.path.join(self.dir, "primary.plog")
        peer_path = os.path.join(self.dir, "peer.plog")
        self.shape = common.build_flora(primary_path, seed=self.seed, **PRIMARY_FLORA)
        self.peer_shape = common.build_flora(
            peer_path, seed=self.seed + 7919, classification="Peer flora",
            **PEER_FLORA,
        )
        self.primary = Node("primary", primary_path, self.dir, self.trace)
        self.peer = Node("peer", peer_path, self.dir, self.trace)
        deadline = time.monotonic() + READY_TIMEOUT_S
        self.primary.wait_ready(deadline)
        self.peer.wait_ready(deadline)
        self.client = Client(self.primary)
        self.federation = Federation(max_workers=2)
        self.federation.add_node("primary", self.primary.url)
        self.federation.add_node("peer", self.peer.url)
        self.startup_scope_fault = self.probe_startup_scope()
        stats = OpStats()
        for _ in range(2 * len(RARE)):
            self.run_ops(self.plan_round(), stats, pace=False)
        if stats.total_failed or stats.wrong:
            raise common.BenchError(f"warm-up failed: {stats.errors[:3]}")

    def close_nodes(self) -> None:
        """Stop both nodes; with tracing, keep the primary's summary."""
        if self.client is not None:
            self.client.close()
            self.client = None
        for node in (self.primary, self.peer):
            if node is not None:
                node.stop()
        if self.trace and self.primary is not None and not self.primary_summary:
            self.primary_summary = self.primary.summary()
            self.spans_path = self.primary.spans
        self.primary = self.peer = None

    def close(self) -> None:
        self.close_nodes()
        common.remove_dir(self.dir)
        self.dir = None

    def probe_startup_scope(self) -> int:
        """1 when a fresh node refuses a classification-scoped query.

        A CLI-started node builds its classification manager lazily, on
        the first route that asks for it (``/resolve`` with lineage,
        ``/classifications``); until then POOL queries with a
        ``->Includes["..."]`` scope are rejected.  The probe records the
        fault without letting it fall into the measured operations,
        then the warm-up round (which resolves lineage) builds the
        manager.
        """
        body = {
            "query": CLOSURE.format(c=self.shape.classification),
            "params": {"oid": self.shape.genus_oids[0]},
        }
        status, answer = self.client.call("POST", "/query", body)
        if status == 200:
            return 0
        if "no ClassificationManager" in str(answer.get("error")):
            # the warm-up's first operation must build the manager
            self.client.call("POST", "/resolve", {
                "names": [], "classification": self.shape.classification,
            })
            return 1
        raise common.BenchError(f"scope probe failed: {status} {answer}")

    # -- operations ---------------------------------------------------------------

    def hot_bodies(self) -> list[tuple[dict[str, Any], Callable[[Any], bool]]]:
        """The hot set: fixed per seed, far smaller than the 256-entry
        response cache."""
        shape = self.shape
        rng = common.seeded(self.seed, "hot")
        c = shape.classification
        e = rng.choice(sorted(shape.name_oid))
        g = rng.choice(shape.genus_oids)
        s = rng.choice(shape.species_oids)
        bodies = [
            ({"query": POINT, "params": {"e": e}}, _oids_eq([shape.name_oid[e]])),
            ({"query": CLOSURE.format(c=c), "params": {"oid": g}}, _oid_set(shape.specimens_under(g))),
            ({"query": CLOSURE.format(c=c), "params": {"oid": s}}, _oid_set(shape.specimens_under(s))),
            ({"query": RANK}, _oid_set(set(shape.genus_oids))),
        ]
        return bodies[:HOT_KEYS]

    def plan_round(self) -> list[tuple[str, Callable[[], None]]]:
        rng = self.rng
        shape = self.shape
        hot = self.hot_bodies()
        rare = list(RARE)[self.rounds_planned // 2 % len(RARE)]
        self.rounds_planned += 1
        ops: list[tuple[str, Callable[[], None]]] = []
        for cls, n in ROUND.items():
            for i in range(n):
                if cls == "liveness":
                    ops.append((cls, self.op_liveness))
                elif cls == "hot":
                    body, check = hot[i % len(hot)]
                    ops.append((cls, _bind(self.op_query, body, check, False)))
                elif cls == "hot_repb":
                    body, check = hot[0]
                    ops.append((cls, _bind(self.op_query, body, check, True)))
                elif cls == "tail":
                    sp = rng.choice(shape.specimen_oids)
                    body = {"query": TAIL_QUERY, "params": {"c": shape.collection_number[sp]}}
                    ops.append((cls, _bind(self.op_query, body, _oids_eq([sp]), False)))
        if rare == "resolve":
            op = _bind(self.op_resolve, rng.sample(shape.specimen_oids, RESOLVE_BATCH))
        elif rare == "session":
            op = self.op_session
        elif rare == "count_all":
            op = self.op_count_all
        else:
            op = _bind(self.op_find_name, rng.choice(sorted(self.peer_shape.name_oid)))
        ops.append((RARE[rare], op))
        rng.shuffle(ops)
        return ops

    def _tag(self, k: int) -> None:
        if self.client.tag is not None:
            self.client.tag = f"{self.op_seq}.{k}"

    def _lsn(self, body: dict[str, Any]) -> None:
        lsn = body.get("lsn")
        if not isinstance(lsn, int) or lsn < self.max_lsn:
            raise Mismatch(f"lsn went from {self.max_lsn} to {lsn}")
        self.max_lsn = lsn

    def op_liveness(self) -> None:
        status, body = self.client.call("GET", "/health/liveness")
        if status != 200:
            raise Failed(f"liveness {status}")

    def op_query(self, body: dict[str, Any], check: Callable[[Any], bool], repb: bool) -> None:
        status, answer = self.client.call("POST", "/query", body, repb=repb)
        if status != 200:
            raise Failed(f"/query {status}: {answer}")
        self._lsn(answer)
        if not check(answer["result"]):
            raise Mismatch(f"wrong rows for {body}")

    def op_resolve(self, specimens: list[int]) -> None:
        shape = self.shape
        names = [shape.collection_number[s] for s in specimens]
        status, answer = self.client.call("POST", "/resolve", {
            "names": names, "attr": "collection_number", "class": "Specimen",
            "classification": shape.classification,
        })
        if status != 200:
            raise Failed(f"/resolve {status}: {answer}")
        self._lsn(answer)
        for s, name in zip(specimens, names):
            (entry,) = answer["results"][name]
            (lineage,) = entry["lineage"]
            got = [a["oid"] for a in lineage["ancestors"]]
            if entry["oid"] != s or got != shape.lineage(s):
                raise Mismatch(f"/resolve {name}: {entry['oid']} {got}")

    def op_session(self) -> None:
        client = self.client
        number = f"sess-{self.seed}-{self.sessions}"
        self._tag(0)
        status, body = client.call("POST", "/session", {})
        if status != 201:
            raise Failed(f"/session {status}: {body}")
        sid = body["session"]
        self._tag(1)
        status, body = client.call("POST", f"/session/{sid}/apply", {"ops": [{
            "op": "create", "class": "Specimen",
            "attrs": {"collector": "Bench", "collection_number": number, "herbarium": "E"},
        }]})
        if status != 200:
            raise Failed(f"apply {status}: {body}")
        oid = body["results"][0]["oid"]
        self._tag(2)
        started = time.perf_counter()
        status, body = client.call("POST", f"/session/{sid}/commit", {})
        self.commit_times.append(time.perf_counter() - started)
        if status != 200 or not body.get("committed"):
            raise Failed(f"commit {status}: {body}")
        commit_lsn = body["commit_lsn"]
        self.sessions += 1
        self._tag(3)
        status, body = client.call("POST", f"/session/{sid}/release", {})
        if status != 200:
            raise Failed(f"release {status}: {body}")
        self._tag(4)
        status, body = client.call(
            "POST", "/query", {"query": TAIL_QUERY, "params": {"c": number}}
        )
        if status != 200:
            raise Failed(f"/query after commit {status}: {body}")
        self._lsn(body)
        if body["lsn"] < commit_lsn or [r["oid"] for r in body["result"]] != [oid]:
            raise Mismatch("committed write not visible to the next read")

    def op_count_all(self) -> None:
        counts = self.federation.count_all("Specimen")
        want = {
            "primary": len(self.shape.specimen_oids) + self.sessions,
            "peer": len(self.peer_shape.specimen_oids),
        }
        if counts.get("__partial__") or counts.get("__errors__"):
            raise Failed(f"partial federated count: {counts.get('__errors__')}")
        got = {k: counts[k] for k in want}
        if got != want or counts["__total__"] != sum(want.values()):
            raise Mismatch(f"federated count {counts} want {want}")

    def op_find_name(self, epithet: str) -> None:
        """A peer name looked up on every node; the two floras are
        generated independently, so the primary may publish it too."""
        results = self.federation.query_all(POINT, {"e": epithet})
        errors = [r.error for r in results if not r.ok]
        if errors:
            raise Failed(f"federated find_name: {errors}")
        rows = [(r.node, row["oid"]) for r in results for row in r.result]
        want = [
            (node, shape.name_oid[epithet])
            for node, shape in (("peer", self.peer_shape), ("primary", self.shape))
            if epithet in shape.name_oid
        ]
        if rows != want:
            raise Mismatch(f"find_name {epithet}: {rows}, want {want}")

    # -- the open loop --------------------------------------------------------------

    def run_ops(
        self, ops: list[tuple[str, Callable[[], None]]], stats: OpStats,
        pace: bool = True, start: float = 0.0, offset: float = 0.0,
    ) -> float:
        """Run ``ops``; paced, each operation is due at ``start + offset``,
        is timed from then, and moves ``offset`` on by its class's slot.
        Returns the offset after the last operation."""
        for cls, op in ops:
            if pace:
                due = start + offset
                now = time.perf_counter()
                if now < due:
                    time.sleep(due - now)
                    now = time.perf_counter()
                self.lateness.append(now - due)
                if self.client.tag is not None:
                    self.tagged_wait += now - due
            else:
                due = time.perf_counter()
            offset += SLOT_S[cls]
            self.op_seq += 1
            self._tag(0)
            try:
                op()
            except Mismatch as exc:
                stats.mismatch(cls, str(exc))
                continue
            except Exception as exc:  # refused, timed out, malformed
                stats.fail(cls, f"{type(exc).__name__}: {exc}")
                continue
            stats.ok(cls, time.perf_counter() - due)
        return offset

    def loop(self, seconds: float, probe: "FanoutProbe | None" = None) -> tuple[OpStats, OpStats, float]:
        """Open-loop rounds for ``seconds``; with ``probe``, every other
        round is tagged for the nodes' tracer and the fan-out probe."""
        self.commit_times = []
        self.lateness = []
        start = time.perf_counter()
        offset = 0.0

        def one_round(stats: OpStats, tagged: bool) -> None:
            nonlocal offset
            self.client.tag = "" if tagged else None
            if probe is not None:
                probe.enabled = tagged
            try:
                offset = self.run_ops(
                    self.plan_round(), stats, start=start, offset=offset
                )
            finally:
                self.client.tag = None
                if probe is not None:
                    probe.enabled = False

        # Tagging is switched inside the round, so the switch is a no-op.
        alternate = (lambda on: None) if probe is not None else None
        plain, traced, elapsed = common.run_rounds(one_round, seconds, alternate)
        check_pace(self.lateness)
        return plain, traced, elapsed

    def scrape(self) -> dict[str, float]:
        from repro.engine.federation import RemoteDatabase

        text = RemoteDatabase(self.primary.url).metrics_text()
        out: dict[str, float] = {}
        for line in text.splitlines():
            if line and not line.startswith("#"):
                name, _, value = line.rpartition(" ")
                try:
                    out[name] = float(value)
                except ValueError:
                    pass
        return out


def _bind(fn: Callable[..., None], *args: Any) -> Callable[[], None]:
    return lambda: fn(*args)


def _oids_eq(want: list[int]) -> Callable[[Any], bool]:
    return lambda rows: [r["oid"] for r in rows] == want


def _oid_set(want: set[int]) -> Callable[[Any], bool]:
    return lambda rows: len(rows) == len(want) and {r["oid"] for r in rows} == want


class Mismatch(Exception):
    """A response that contradicts the load generator's bookkeeping."""


class Failed(Exception):
    """A request that was refused or failed."""


def check_pace(lateness: list[float]) -> None:
    """A run counts only if the generator kept to its schedule.

    It ran late when its median send is late by more than a quarter of
    the shortest slot, and a backlog grew when the last tenth of the
    sends is later than the first tenth by more than 50 ms.  A single
    stall of the shared machine, which delays a few sends and then
    clears, is neither; it shows in ``loadgen.lateness_p99_ms``.
    """
    tenth = max(len(lateness) // 10, 1)
    late = common.median(lateness)
    growth = common.median(lateness[-tenth:]) - common.median(lateness[:tenth])
    if late > 0.25 * min(SLOT_S.values()) or growth > 0.05:
        raise common.InvalidRun(
            f"generator ran late: median lateness {late * 1e3:.1f} ms, "
            f"backlog growth {growth * 1e3:.1f} ms"
        )


def run(seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    work = HttpMixed(seed, trace)
    probe = FanoutProbe()
    if trace:
        probe.install()
    try:
        setup_s = common.timed_setups(work.setup, work.close, SETUP_REPEATS)
        out: dict[str, Any] = {
            "info": {
                "objects_primary": work.shape.objects,
                "objects_peer": work.peer_shape.objects,
                "rate_per_s": round(RATE, 2),
                "startup_scope_fault": work.startup_scope_fault,
            }
        }
        log_path = work.primary.db_path
        if not trace:
            stats, _, _ = work.loop(seconds)
            out["metrics"] = common.latency_metrics(stats, P50_ROUND_PCT) | {
                # open loop: the schedule sets the rate; below it, the
                # generator fell behind
                "ops_per_s": sum(n for n, _, _ in stats.rounds)
                / sum(wall for _, wall, _ in stats.rounds),
                "setup_s": setup_s,
                "rss_mb": work.primary.peak_rss_mb(),
                "commit_p50_ms": common.median(work.commit_times) * 1e3,
                "federated_p50_ms": stats.class_p50_ms("federated"),
                "lateness_p99_ms": common.percentile(sorted(work.lateness), 99) * 1e3,
            }
        else:
            before = work.scrape()
            size0, sessions0 = os.path.getsize(log_path), work.sessions
            plain, stats, _ = work.loop(seconds, probe)
            after = work.scrape()
            commits = work.sessions - sessions0
            size1 = os.path.getsize(log_path)
            timings = work.client.timings
            lateness = work.lateness
            work.close_nodes()
            primary = work.primary_summary
            traces = common.WORK / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(
                work.spans_path, traces / f"http-mixed-seed{seed}.primary.spans.jsonl"
            )
            fed_s = sum(call["wall"] for call in probe.calls)
            out["metrics"] = node_layers(
                primary, timings, fed_s + work.tagged_wait, plain, stats,
                before, after,
            )
            out["metrics"].update(probe.metrics())
            tagged_commits = max(stats.attempted.get("session", 0), 1)
            out["metrics"].update({
                "storage.log_bytes_per_commit": (size1 - size0) / commits,
                # flushes are counted on tagged requests only
                "storage.flushes_per_commit": primary["counts"].get("log.flushes", 0)
                / tagged_commits,
                "storage.load_s": primary["load_s"],
                "loadgen.lateness_p99_ms": common.percentile(sorted(lateness), 99) * 1e3,
                "class.commit_p50_ms": common.median(work.commit_times) * 1e3,
                "class.federated_p50_ms": plain.class_p50_ms("federated"),
                "trace.missing_layers": len(primary["missing"]),
            })
            stats = plain + stats
        out["stats"] = stats
        return out
    finally:
        work.close()


def node_layers(
    summary: dict[str, Any], timings: list[tuple[str, float]], other_s: float,
    plain: OpStats,
    traced: OpStats, before: dict[str, float], after: dict[str, float],
) -> dict[str, float]:
    """Per-request layer budget from the primary's spans and the client.

    ``other_s`` is the tagged operations' time accounted for outside
    requests to the primary: federated calls and waiting for the send
    slot.
    """
    import tracing

    handle_ns = summary["handle_ns"]
    matched = [(tag, s) for tag, s in timings if tag in handle_ns]
    requests = max(len(matched), 1)
    selfs = summary["self_ns"]
    out = {
        metric: selfs.get(span, 0) / requests / 1e3
        for metric, span in tracing.SELF_US.items()
    }
    client_s = sum(s for _, s in matched)
    handled_s = sum(handle_ns[tag] for tag, _ in matched) / 1e9
    out["transport.overhead_us"] = (client_s - handled_s) / requests * 1e6
    counts = summary["counts"]
    queries = max(counts.get("query.calls", 0), 1)
    out["query.parses_per_call"] = summary["calls"].get("query.parse", 0) / queries
    out["exec.plan_tree_builds_per_call"] = counts.get("plan_tree.builds", 0) / queries

    def delta(name: str) -> float:
        return after.get(name, 0.0) - before.get(name, 0.0)

    hits = delta("repro_server_response_cache_hits_total")
    misses = delta("repro_server_response_cache_misses_total")
    out["handlers.response_cache_hit_ratio"] = hits / max(hits + misses, 1)
    hits = delta("repro_planner_cache_hits_total")
    misses = delta("repro_planner_cache_misses_total")
    out["planner.cache_hit_ratio"] = hits / max(hits + misses, 1)
    out["storage.records_read"] = delta('repro_storage_ops_by_kind_total{op="reads"}')
    out["mvcc.versions_retained"] = after.get("repro_mvcc_versions_live", 0.0)
    out.update(tracing.overhead(plain, traced))
    # Time inside operations spent in no request, federated call or
    # send-slot wait: the generator's own encoding and checks.
    op_s = sum(traced.all_latencies())
    out["trace.unattributed_pct"] = 100.0 * (op_s - client_s - other_s) / op_s
    total_self_s = sum(selfs.values()) / 1e9
    out["trace.reconcile_pct"] = 100.0 * abs(
        total_self_s + (client_s - handled_s) - client_s
    ) / max(client_s, 1e-9)
    return out
