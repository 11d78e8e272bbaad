"""revision-write: a seeded taxonomic revision, committed step by step.

One writer replays a revision in a closed loop on a store-backed
:class:`PrometheusDB` (flush policy: the CLI's default, no fsync).  A
round is a fixed sequence of eight revision steps, each committed:

* ``publish``: publish a new species name, placed under a genus name;
* ``circumscribe``: create a species circumscription taxon with a
  working name and ascribe the new name to it;
* ``place``: place the new taxon under its genus in the flora's
  classification, collect two specimens into it and typify the name;
* ``move``: move an existing species to another genus;
* ``overlap``: grow a second classification that overlaps the first — a
  new genus there, under an existing family, taking a species that is
  also classified in the flora;
* ``edit`` (twice): one attribute edit through a managed transaction
  (``db.begin()``);
* ``derive``: run the name deriver over the genus that just received a
  species.

Each epoch restores the log and the bookkeeping from a checkpoint taken
after set-up and replays :data:`EPOCH_ROUNDS` rounds.

After the run the log is reopened from disk in a fresh database and
every placement, typification, move, edit and derived name the
benchmark made is checked there, together with each new specimen's
lineage and ``check_integrity()``.
"""

from __future__ import annotations

import copy
import os
import time
from typing import Any

import common
from common import OpStats

# Flora: 3 families x 5 genera x 6 species x 3 specimens
# = 90 species, 270 specimens, ~1.5k objects.
FLORA = dict(
    families=3, genera_per_family=5, species_per_genus=6,
    specimens_per_species=3,
)
SETUP_REPEATS = 3
EPOCH_ROUNDS = 4  # rounds replayed from the checkpoint per epoch
SECOND = "Revision"
#: What an epoch restores from the checkpoint along with the log.
BOOKKEEPING = (
    "shape", "step", "second_parent", "typified", "ascribed", "notes",
    "derived", "new_specimens",
)

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _epithet(n: int) -> str:
    """A fresh, valid species epithet for step ``n`` (letters only)."""
    stem = ""
    n += 26 * 26
    while n:
        n, r = divmod(n, 26)
        stem = _LETTERS[r] + stem
    return "rev" + stem + "ensis"


class Revision:
    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = common.seeded(seed, "revision-write")
        self.dir: str | None = None
        self.path = ""
        self.db: Any = None
        self.taxdb: Any = None
        self.shape: common.FloraShape | None = None
        self.step = 0
        # bookkeeping of everything the revision did
        self.second_parent: dict[int, int] = {}
        self.typified: dict[int, int] = {}   # NT oid -> holotype specimen
        self.ascribed: dict[int, int] = {}   # new CT oid -> NT oid
        self.notes: dict[int, str] = {}      # CT oid -> notes (managed txn)
        self.derived: dict[int, int] = {}    # CT oid -> calculated NT oid
        self.new_specimens: list[int] = []
        self.commits = 0
        self.load_s = 0.0
        self.checkpoint = b""
        self.saved: dict[str, Any] = {}
        # summed over epochs (each epoch reopens a fresh store)
        self.bytes_written = 0
        self.records_written = 0
        self.records_read = 0

    # -- set-up -----------------------------------------------------------

    def setup(self) -> None:
        self.__init__(self.seed)  # type: ignore[misc]
        from repro.taxonomy import TaxonomyDatabase

        self.dir = common.scratch_dir("revision-write-")
        self.path = os.path.join(self.dir, "flora.plog")
        self.shape = common.build_flora(self.path, seed=self.seed, **FLORA)
        self.db, self.load_s = common.open_flora(self.path)
        self.taxdb = TaxonomyDatabase.over_engine(self.db)
        self.taxdb.new_classification(SECOND, author="Bench", year=2026)
        self.db.commit()
        self.run_round(OpStats())  # warm up: first commits, lazy layers
        self.db.close()
        self.db = None
        with open(self.path, "rb") as handle:
            self.checkpoint = handle.read()
        self.saved = copy.deepcopy({k: getattr(self, k) for k in BOOKKEEPING})

    def epoch(self, stats: OpStats, rec: Any = None) -> float:
        """Replay :data:`EPOCH_ROUNDS` rounds of the revision from the
        checkpoint.

        Every epoch starts from the same log and bookkeeping, so epochs
        are alike and the revision does not drift with the run's
        length (the meta record each commit rewrites grows with every
        step).  Returns the seconds spent restoring and re-opening,
        which are not operations.
        """
        from repro.taxonomy import TaxonomyDatabase

        started = time.perf_counter()
        if self.db is not None:
            self.db.close()
        with open(self.path, "wb") as handle:
            handle.write(self.checkpoint)
        for key, value in copy.deepcopy(self.saved).items():
            setattr(self, key, value)
        self.db, self.load_s = common.open_flora(self.path)
        self.taxdb = TaxonomyDatabase.over_engine(self.db)
        store = self.db.store
        size0, snap0 = store.file_size, store.telemetry_snapshot()
        reopen_s = time.perf_counter() - started
        for _ in range(EPOCH_ROUNDS):
            mark, round_start = stats.round_mark(), time.perf_counter()
            self.run_round(stats, rec)
            stats.end_round(mark, time.perf_counter() - round_start)
        snap1 = store.telemetry_snapshot()
        self.bytes_written += store.file_size - size0
        self.records_written += snap1["writes"] - snap0["writes"]
        self.records_read += snap1["reads"] - snap0["reads"]
        return reopen_s

    def close(self) -> None:
        if self.db is not None:
            self.db.close()
            self.db = None
        common.remove_dir(self.dir)
        self.dir = None

    # -- steps ------------------------------------------------------------------

    def _obj(self, oid: int) -> Any:
        return self.db.schema.get_object(oid)

    def _genus_of(self, species: int) -> int:
        return self.shape.parent[species]

    def run_round(self, stats: OpStats, rec: Any = None) -> None:
        shape = self.shape
        rng = self.rng
        taxdb = self.taxdb
        tree = taxdb.classifications.get(shape.classification)
        second = taxdb.classifications.get(SECOND)
        n = self.step
        self.step += 1
        genus = rng.choice(shape.genus_oids)
        state: dict[str, Any] = {}

        def publish() -> None:
            state["nt"] = taxdb.publish_name(
                _epithet(n), "Species", author="Bench", year=2026,
                placement=self._obj(shape.ascribed[genus]),
            ).oid

        def circumscribe() -> None:
            ct = taxdb.new_taxon("Species", working_name=f"rev-{n}")
            taxdb.ascribe_name(ct, self._obj(state["nt"]))
            state["ct"] = ct.oid

        def place() -> None:
            ct = self._obj(state["ct"])
            taxdb.place(tree, self._obj(genus), ct, motivation=f"step {n}")
            specimens = []
            for k in range(2):
                sp = taxdb.new_specimen(
                    collector="Bench", collection_number=f"rev-{n}-{k}",
                    herbarium="E",
                )
                taxdb.place(tree, ct, sp)
                specimens.append(sp.oid)
            taxdb.typify(self._obj(state["nt"]), self._obj(specimens[0]), "holotype")
            state["specimens"] = specimens

        def move() -> None:
            species = rng.choice(shape.species_oids)
            target = rng.choice(
                [g for g in shape.genus_oids if g != self._genus_of(species)]
            )
            from repro.classification.graph import move_subtree

            move_subtree(
                tree, self._obj(species), self._obj(target), "Includes",
                motivation=f"step {n}",
            )
            state["moved"] = (species, target)

        def overlap() -> None:
            family = rng.choice(shape.family_oids)
            new_genus = taxdb.new_taxon("Genus", working_name=f"Revgenus {n}")
            taxdb.place(second, self._obj(family), new_genus)
            free = [s for s in shape.species_oids if s not in self.second_parent]
            species = rng.choice(free)
            taxdb.place(second, new_genus, self._obj(species))
            state["second"] = [(new_genus.oid, family), (species, new_genus.oid)]

        steps = [
            ("publish", publish), ("circumscribe", circumscribe),
            ("place", place), ("move", move), ("overlap", overlap),
        ]
        for cls, body in steps:
            if not self._commit_step(stats, rec, cls, body):
                return
        self._note(state)
        for _ in range(2):
            self._edit(stats, rec)
        self._derive(stats, rec, state["moved"][1])

    def _commit_step(self, stats: OpStats, rec: Any, cls: str, body: Any) -> bool:
        db = self.db
        before = db.lsn
        if rec is not None:
            pos = rec.start("bench.op")
        started = time.perf_counter()
        try:
            body()
            db.commit()
        except Exception as exc:  # counted, reported, run continues
            if rec is not None:
                rec.end(pos)
            db.abort()
            stats.fail(cls, f"{type(exc).__name__}: {exc}")
            return False
        elapsed = time.perf_counter() - started
        if rec is not None:
            rec.end(pos)
        self.commits += 1
        if db.lsn > before:
            stats.ok(cls, elapsed)
        else:
            stats.mismatch(cls, "commit did not advance the LSN")
        return True

    def _note(self, state: dict[str, Any]) -> None:
        shape = self.shape
        ct = state["ct"]
        self.ascribed[ct] = state["nt"]
        (parent_genus,) = [
            p.oid for p in self.taxdb.classifications.get(
                shape.classification).parents(ct)
        ]
        shape.parent[ct] = parent_genus
        shape.species_oids.append(ct)
        shape.specimens_of[ct] = list(state["specimens"])
        for sp in state["specimens"]:
            shape.parent[sp] = ct
            self.new_specimens.append(sp)
        self.typified[state["nt"]] = state["specimens"][0]
        species, target = state["moved"]
        shape.parent[species] = target
        for child, parent in state["second"]:
            self.second_parent[child] = parent

    def _edit(self, stats: OpStats, rec: Any) -> None:
        ct = self.rng.choice(self.shape.species_oids)
        value = f"revised by commit {self.commits}"

        def body() -> None:
            with self.db.begin() as txn:
                txn.set(ct, "notes", value)

        if rec is not None:
            pos = rec.start("bench.op")
        before = self.db.lsn
        started = time.perf_counter()
        try:
            body()
        except Exception as exc:
            if rec is not None:
                rec.end(pos)
            stats.fail("edit", f"{type(exc).__name__}: {exc}")
            return
        elapsed = time.perf_counter() - started
        if rec is not None:
            rec.end(pos)
        self.commits += 1
        self.notes[ct] = value
        if self.db.lsn > before:
            stats.ok("edit", elapsed)
        else:
            stats.mismatch("edit", "managed commit did not advance the LSN")

    def _derive(self, stats: OpStats, rec: Any, genus: int) -> None:
        from repro.taxonomy import NameDeriver

        shape = self.shape
        tree = self.taxdb.classifications.get(shape.classification)
        results = []

        def body() -> None:
            deriver = NameDeriver(self.taxdb, author="Bench", year=2026)
            top = deriver.derive_taxon(tree, self._obj(genus), None)
            results.append(top)
            name = self._obj(top.name_oid) if top.name_oid else None
            for child in tree.children(genus):
                if self.taxdb.is_ct(child):
                    results.append(deriver.derive_taxon(tree, child, name))

        if self._commit_step(stats, rec, "derive", body):
            for result in results:
                if result.name_oid:
                    self.derived[result.ct_oid] = result.name_oid

    # -- verification -----------------------------------------------------------

    def verify(self) -> list[str]:
        """Reopen the log from disk and check everything the run did."""
        from repro.taxonomy import TaxonomyDatabase

        self.db.close()
        self.db = None
        db, _ = common.open_flora(self.path, index=False)
        problems: list[str] = []
        try:
            taxdb = TaxonomyDatabase.over_engine(db)
            shape = self.shape
            tree = taxdb.classifications.get(shape.classification)
            second = taxdb.classifications.get(SECOND)
            for child, parent in shape.parent.items():
                got = [p.oid for p in tree.parents(child)]
                if got != [parent]:
                    problems.append(f"{child} placed under {got}, want {parent}")
            for child, parent in self.second_parent.items():
                got = [p.oid for p in second.parents(child)]
                if got != [parent]:
                    problems.append(f"{SECOND}: {child} under {got}, want {parent}")
            for nt, specimen in self.typified.items():
                types = [
                    (kind, target.oid)
                    for kind, target in taxdb.types_of(db.schema.get_object(nt))
                ]
                if ("holotype", specimen) not in types:
                    problems.append(f"name {nt} lost its holotype {specimen}")
            for ct, nt in self.ascribed.items():
                got = taxdb.ascribed_name(db.schema.get_object(ct))
                if got is None or got.oid != nt:
                    problems.append(f"taxon {ct} lost its ascribed name {nt}")
            for ct, value in self.notes.items():
                if db.schema.get_object(ct).get("notes") != value:
                    problems.append(f"managed edit of {ct} lost")
            for ct, nt in self.derived.items():
                got = taxdb.calculated_name(db.schema.get_object(ct))
                if got is None or got.oid != nt:
                    problems.append(f"derived name of {ct} lost")
            for specimen in self.new_specimens:
                got = [a.oid for a in tree.ancestors(specimen)]
                if got != shape.lineage(specimen) or len(got) != 3:
                    problems.append(
                        f"specimen {specimen} lineage {got}, "
                        f"want {shape.lineage(specimen)}"
                    )
            problems.extend(db.check_integrity())
        finally:
            db.close()
        return problems


def run(seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    import tracing

    rec = None
    if trace:
        rec = tracing.Recorder()
        rec.install()
    work = Revision(seed)
    try:
        setup_s = common.timed_setups(work.setup, work.close, SETUP_REPEATS)
        out: dict[str, Any] = {"info": {"objects": work.shape.objects}}
        if not trace:
            stats, _, _ = common.run_rounds(
                lambda st, on: work.epoch(st), seconds
            )
            out["metrics"] = common.latency_metrics(stats) | {
                "setup_s": setup_s,
                "rss_mb": common.peak_rss_mb(),
                "commit_p50_ms": stats.class_p50_ms(*stats.latencies),
                "log_bytes_per_commit": work.bytes_written / work.commits,
            }
        else:
            meta = MetaBytes()
            meta.install()

            plain, stats, _ = common.run_rounds(
                lambda st, on: work.epoch(st, rec if on else None),
                seconds, rec.switch,
            )
            layers = tracing.layer_metrics(rec, plain, stats)
            layers.update({
                "core.meta_record_bytes": meta.total / max(meta.calls, 1),
                "core.records_per_commit": work.records_written / work.commits,
                # flushes are counted in traced rounds only: one op, one commit
                "storage.flushes_per_commit": rec.counts.get("log.flushes", 0)
                / stats.total_attempted,
                "storage.log_bytes_per_commit": work.bytes_written / work.commits,
                "storage.records_read": work.records_read,
                "storage.load_s": work.load_s,
                "mvcc.versions_retained": work.db.mvcc.telemetry_snapshot()["versions_live"],
                "class.commit_p50_ms": plain.class_p50_ms(*plain.latencies),
            })
            out["metrics"] = layers
            out["trace"] = rec
            stats = plain + stats
        problems = work.verify()
        out["stats"] = stats
        out["correct"] = not problems
        for problem in problems[:20]:
            stats.errors.append(f"verify: {problem}")
        return out
    finally:
        work.close()


class MetaBytes:
    """Encoded size of the schema meta record each implicit commit
    rewrites (counted from installation on)."""

    def __init__(self) -> None:
        self.total = 0
        self.calls = 0

    def install(self) -> None:
        from repro.core.schema import Schema
        from repro.storage.serialization import encode_record

        original = getattr(Schema, "_write_meta", None)
        if original is None:  # renamed: the figure reads 0
            return
        probe = self

        def write_meta(schema: Any, txn: Any) -> Any:
            written = original(schema, txn)
            if written is not None:
                probe.total += len(encode_record(written[1]))
                probe.calls += 1
            return written

        Schema._write_meta = write_meta  # type: ignore[method-assign]
