"""taxon-read: the canonical taxonomic reads, in-process, closed loop.

One caller runs a fixed round of POOL reads back to back on a
store-backed :class:`PrometheusDB` reopened from a generated flora log,
with a hash index on ``NomenclaturalTaxon.epithet`` and telemetry at its
default (on).  Nothing is written during the measured loop, so after
load the record store is never read: the plan cache and the query
layers carry the whole cost.

Every answer is checked against the generator's own bookkeeping
(:class:`common.FloraShape`), never against the query layers.
"""

from __future__ import annotations

import time
from typing import Any, Callable

import common
from common import OpStats

# Flora: 6 families x 6 genera x 8 species x 4 specimens
# = 288 species, 1152 specimens, ~5.0k objects.
FLORA = dict(
    families=6, genera_per_family=6, species_per_genus=8,
    specimens_per_species=4,
)
SETUP_REPEATS = 3

POINT = "select n from n in NomenclaturalTaxon where n.epithet = $e"
POINT_INLINE = 'select n from n in NomenclaturalTaxon where n.epithet = "{e}"'
RANGE = (
    "select n from n in NomenclaturalTaxon "
    "where n.year >= $lo and n.year < $hi"
)
RANK = 'select t from t in CircumscriptionTaxon where t.rank = "Genus"'
BOUNDED = (
    "select x from t in CircumscriptionTaxon, "
    'x in t->Includes["{c}"]{{1,2}} where t.oid = $oid'
)
CLOSURE = (
    "select s from t in CircumscriptionTaxon, "
    's in (Specimen) t->Includes["{c}"]* where t.oid = $oid'
)
LINEAGE = (
    "select a from s in Specimen, "
    'a in s<-Includes["{c}"]+ where s.oid = $oid'
)
TYPES = (
    "select s from t in CircumscriptionTaxon, "
    's in (Specimen) t->Includes["{c}"]* '
    "where t.oid = $oid and count(s<-HasType) > 0"
)

#: Operations per round, by class.  Chosen from measured per-class
#: latencies so that the median and the 99th percentile each fall well
#: inside one class rather than on the boundary between two.
ROUND: dict[str, int] = {
    "point": 6,
    "point_inline": 2,
    "range": 2,
    "rank": 1,
    "bounded": 1,
    "closure_genus": 3,
    "closure_family": 1,
    "lineage": 4,
    "types": 1,
    "as_of": 1,
}


class TaxonRead:
    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = common.seeded(seed, "taxon-read")
        self.dir: str | None = None
        self.db: Any = None
        self.shape: common.FloraShape | None = None
        self.as_of_lsn = 0
        self.load_s = 0.0
        self.as_of_genus = 0
        self.as_of_expected: set[int] = set()
        self._under: dict[int, set[int]] = {}
        self._types: dict[int, set[int]] = {}

    # -- set-up -----------------------------------------------------------

    def setup(self) -> None:
        self.dir = common.scratch_dir("taxon-read-")
        path = f"{self.dir}/flora.plog"
        shape = common.build_flora(path, seed=self.seed, **FLORA)
        self.shape = shape
        self._under.clear()
        self._types.clear()
        self.db, self.load_s = common.open_flora(path)
        self._pin_history()
        self.run_round(OpStats())  # warm the plan cache and lazy layers

    def _pin_history(self) -> None:
        """Commit one specimen after load so an earlier LSN exists.

        The answer at the earlier LSN is the generator's own closure
        under the genus; the head answer includes the new specimen.
        """
        from repro.taxonomy import TaxonomyDatabase

        shape = self.shape
        db = self.db
        self.as_of_lsn = db.lsn
        genus = self.rng.choice(shape.genus_oids)
        self.as_of_genus = genus
        self.as_of_expected = shape.specimens_under(genus)
        species = next(s for s in shape.species_oids if shape.parent[s] == genus)
        taxdb = TaxonomyDatabase.over_engine(db)
        tree = taxdb.classifications.get(shape.classification)
        specimen = taxdb.new_specimen(
            collector="Bench", collection_number="as-of-0", herbarium="E"
        )
        taxdb.place(tree, db.schema.get_object(species), specimen)
        db.commit()
        shape.parent[specimen.oid] = species
        shape.specimens_of[species].append(specimen.oid)
        shape.specimen_oids.append(specimen.oid)
        shape.collection_number[specimen.oid] = "as-of-0"
        if db.lsn <= self.as_of_lsn:
            raise common.BenchError("set-up commit did not advance the LSN")

    def close(self) -> None:
        if self.db is not None:
            self.db.close()
            self.db = None
        common.remove_dir(self.dir)
        self.dir = None

    # -- the round -----------------------------------------------------------

    def under(self, ct: int) -> set[int]:
        if ct not in self._under:
            self._under[ct] = self.shape.specimens_under(ct)
        return self._under[ct]

    def holotypes(self, ct: int) -> set[int]:
        if ct not in self._types:
            self._types[ct] = self.shape.holotypes_under(ct)
        return self._types[ct]

    def plan_round(self) -> list[tuple[str, str, dict[str, Any], Callable[[Any], bool], int | None]]:
        """One round: (class, text, params, check, as_of) per operation."""
        rng = self.rng
        shape = self.shape
        c = shape.classification
        names = sorted(shape.name_oid)
        ops = []
        for cls, n in ROUND.items():
            for _ in range(n):
                if cls == "point":
                    e = rng.choice(names)
                    ops.append((cls, POINT, {"e": e}, _one(shape.name_oid[e]), None))
                elif cls == "point_inline":
                    e = rng.choice(names)
                    ops.append((cls, POINT_INLINE.format(e=e), {}, _one(shape.name_oid[e]), None))
                elif cls == "range":
                    lo = rng.randint(1753, 1980)
                    want = {
                        oid for oid, y in shape.name_year.items()
                        if lo <= y < lo + 10
                    }
                    ops.append((cls, RANGE, {"lo": lo, "hi": lo + 10}, _set(want), None))
                elif cls == "rank":
                    want = set(shape.genus_oids)
                    if len(want) != shape.families * shape.genera_per_family:
                        raise common.BenchError("generator shape changed")
                    ops.append((cls, RANK, {}, _set(want), None))
                elif cls == "bounded":
                    fam = rng.choice(shape.family_oids)
                    want = {
                        o for o in shape.genus_oids + shape.species_oids
                        if fam in shape.lineage(o)[:2]
                    }
                    ops.append((cls, BOUNDED.format(c=c), {"oid": fam}, _set(want), None))
                elif cls == "closure_genus":
                    g = rng.choice(shape.genus_oids)
                    ops.append((cls, CLOSURE.format(c=c), {"oid": g}, _set(self.under(g)), None))
                elif cls == "closure_family":
                    f = rng.choice(shape.family_oids)
                    ops.append((cls, CLOSURE.format(c=c), {"oid": f}, _set(self.under(f)), None))
                elif cls == "lineage":
                    s = rng.choice(shape.specimen_oids)
                    ops.append((cls, LINEAGE.format(c=c), {"oid": s}, _seq(shape.lineage(s)), None))
                elif cls == "types":
                    f = rng.choice(shape.family_oids)
                    ops.append((cls, TYPES.format(c=c), {"oid": f}, _set(self.holotypes(f)), None))
                elif cls == "as_of":
                    ops.append((
                        cls, CLOSURE.format(c=c), {"oid": self.as_of_genus},
                        _set(self.as_of_expected), self.as_of_lsn,
                    ))
        rng.shuffle(ops)
        return ops

    def run_round(self, stats: OpStats, rec: Any = None) -> None:
        db = self.db
        for op_id, (cls, text, params, check, as_of) in enumerate(self.plan_round()):
            if rec is not None:
                rec.set_op(op_id)
                pos = rec.start("bench.op")
            started = time.perf_counter()
            try:
                result = db.query(text, params, as_of=as_of)
            except Exception as exc:  # counted, reported, run continues
                if rec is not None:
                    rec.end(pos)
                stats.fail(cls, f"{type(exc).__name__}: {exc}")
                continue
            elapsed = time.perf_counter() - started
            if rec is not None:
                rec.end(pos)
            if check(result):
                stats.ok(cls, elapsed)
            else:
                stats.mismatch(cls, f"wrong answer for {text!r} {params}")


def _oids(result: Any) -> list[int]:
    return [obj.oid for obj in result]


def _one(oid: int) -> Callable[[Any], bool]:
    return lambda result: _oids(result) == [oid]


def _set(want: set[int]) -> Callable[[Any], bool]:
    return lambda result: len(result) == len(want) and set(_oids(result)) == want


def _seq(want: list[int]) -> Callable[[Any], bool]:
    return lambda result: _oids(result) == want


def run(seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    import tracing

    rec = None
    if trace:
        rec = tracing.Recorder()
        rec.install()
    work = TaxonRead(seed)
    try:
        setup_s = common.timed_setups(work.setup, work.close, SETUP_REPEATS)
        out: dict[str, Any] = {"info": {"objects": work.shape.objects}}
        if not trace:
            stats, _, _ = common.run_rounds(
                lambda st, on: work.run_round(st), seconds
            )
            out["metrics"] = common.latency_metrics(stats) | {
                "setup_s": setup_s,
                "rss_mb": common.peak_rss_mb(),
            }
        else:
            store_reads = work.db.store.stats.reads
            planner0 = work.db.planner.snapshot()

            plain, stats, _ = common.run_rounds(
                lambda st, on: work.run_round(st, rec if on else None),
                seconds, rec.switch,
            )
            planner1 = work.db.planner.snapshot()
            layers = tracing.layer_metrics(rec, plain, stats)
            layers.update(tracing.planner_ratio(planner0, planner1))
            layers.update({
                "storage.records_read": work.db.store.stats.reads - store_reads,
                "storage.load_s": work.load_s,
                "exec.rows_examined_per_row": rows_examined_per_row(work),
                "mvcc.versions_retained": work.db.mvcc.telemetry_snapshot()["versions_live"],
            })
            out["metrics"] = layers
            out["trace"] = rec
            stats = plain + stats
        out["stats"] = stats
        return out
    finally:
        work.close()


def rows_examined_per_row(work: TaxonRead) -> float:
    """EXPLAIN each distinct text of one round: rows examined per row out."""
    examined = returned = 0
    seen = set()
    for cls, text, params, _, as_of in work.plan_round():
        if (text, as_of) in seen:
            continue
        seen.add((text, as_of))
        report = work.db.query("EXPLAIN " + text, params, as_of=as_of)
        examined += report["plan"]["rows_examined"]
        returned += report["rows"]
    return examined / max(returned, 1)
