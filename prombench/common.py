"""Shared plumbing for the Prometheus benchmark workloads.

Everything here is workload-neutral: locating the program's sources in
the checkout, scratch directories inside the checkout, the flora
generator's bookkeeping (the independent answers every correctness
check compares against), per-class operation accounting, and the
percentile/median helpers all three workloads report with.
"""

from __future__ import annotations

import gc
import os
import random
import resource
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Any

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space for logs, node output and span files; inside the
#: checkout so the benchmark reads and writes nothing outside it.
WORK = ROOT / ".prombench"


class BenchError(Exception):
    """The benchmark itself cannot run (missing sources, bad arguments)."""


class InvalidRun(Exception):
    """The run cannot stand for the system (the open-loop generator fell
    behind its schedule): it reports no number."""


def import_program() -> None:
    """Put the checkout's ``src`` on the path and import the package.

    Raises :class:`BenchError` when the sources are not there, so a
    directory holding only the benchmark exits non-zero without a
    result.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"program sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro  # noqa: F401


def scratch_dir(prefix: str) -> str:
    WORK.mkdir(exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix, dir=WORK)


def remove_dir(path: str | None) -> None:
    if path:
        shutil.rmtree(path, ignore_errors=True)


def peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB (Linux: ru_maxrss KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of another live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted list (q in 0..100)."""
    if not sorted_values:
        raise BenchError("percentile of no samples")
    rank = max(1, int(-(-q * len(sorted_values) // 100)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


# -- flora bookkeeping ----------------------------------------------------------


@dataclass
class FloraShape:
    """What the generator built, recorded from its own handles.

    OIDs survive a close/reopen of the log, so these maps are the
    independent reference the workloads check query answers against:
    nothing here is read back through the query layers.
    """

    families: int
    genera_per_family: int
    species_per_genus: int
    specimens_per_species: int
    classification: str
    family_oids: list[int] = field(default_factory=list)
    genus_oids: list[int] = field(default_factory=list)
    species_oids: list[int] = field(default_factory=list)
    specimen_oids: list[int] = field(default_factory=list)
    #: child CT/specimen oid -> parent CT oid (one tree)
    parent: dict[int, int] = field(default_factory=dict)
    #: species CT oid -> its specimen oids; [0] is the species holotype
    specimens_of: dict[int, list[int]] = field(default_factory=dict)
    #: epithet -> NT oid (the generator never reuses an epithet)
    name_oid: dict[str, int] = field(default_factory=dict)
    #: NT oid -> publication year
    name_year: dict[int, int] = field(default_factory=dict)
    #: CT oid -> the NT oid ascribed to it by the generator
    ascribed: dict[int, int] = field(default_factory=dict)
    #: specimen oid -> collection number (unique per flora)
    collection_number: dict[int, str] = field(default_factory=dict)
    objects: int = 0

    def lineage(self, oid: int) -> list[int]:
        """Ancestors of ``oid`` in the generated tree, nearest first."""
        out = []
        while oid in self.parent:
            oid = self.parent[oid]
            out.append(oid)
        return out

    def specimens_under(self, ct: int) -> set[int]:
        return {s for s in self.specimen_oids if ct in self.lineage(s)}

    def holotypes_under(self, ct: int) -> set[int]:
        """Each species' first specimen is its holotype (generator rule)."""
        return {
            self.specimens_of[sp][0]
            for sp in self.species_oids
            if sp == ct or ct in self.lineage(sp)
        }


_SYLLABLES = (
    "ba", "ce", "di", "fo", "gu", "la", "me", "ni", "po", "ru", "sa",
    "te", "vi", "xo", "zu",
)
_HERBARIA = ("E", "K", "BM", "P", "B")


def _names(rng: random.Random) -> Any:
    """Distinct pseudo-Latin stems, in a seeded order (3375 of them)."""
    syllables = list(_SYLLABLES)
    rng.shuffle(syllables)
    n = len(syllables)
    for i in range(n ** 3):
        yield syllables[i // (n * n)] + syllables[i // n % n] + syllables[i % n]


def build_flora(
    path: str,
    families: int,
    genera_per_family: int,
    species_per_genus: int,
    specimens_per_species: int,
    seed: int,
    classification: str = "Flora",
) -> FloraShape:
    """Generate a seeded flora into a fresh store log at ``path``.

    Builds the same shape as ``repro.taxonomy.generate_flora`` (published
    names with placements, circumscription taxa with working and
    ascribed names, one classification tree, specimens, holotypes at
    every level) through the same public calls.  The epithets come from
    a collision-free scheme instead of the program's generator, whose
    family epithets fail validation on a stem collision for some seeds.
    Commits once and closes the store; the returned shape is the
    reference every check compares against.
    """
    from repro.engine import PrometheusDB
    from repro.taxonomy import HOLOTYPE, TaxonomyDatabase

    rng = random.Random(seed)
    stems = _names(rng)
    shape = FloraShape(
        families, genera_per_family, species_per_genus,
        specimens_per_species, classification,
    )
    db = PrometheusDB(path)
    try:
        taxdb = TaxonomyDatabase.over_engine(db)
        tree = taxdb.new_classification(
            classification, author="generator", year=2000,
            description=f"benchmark flora, seed {seed}",
        )

        def name(epithet: str, rank: str, lo: int, hi: int, **kw: Any) -> Any:
            year = rng.randint(lo, hi)
            nt = taxdb.publish_name(epithet, rank, author="Gen.", year=year, **kw)
            shape.name_oid[epithet] = nt.oid
            shape.name_year[nt.oid] = year
            return nt

        def taxon(rank: str, epithet: str, nt: Any, parent: Any) -> Any:
            ct = taxdb.new_taxon(rank, working_name=epithet)
            taxdb.ascribe_name(ct, nt)
            shape.ascribed[ct.oid] = nt.oid
            if parent is not None:
                taxdb.place(tree, parent, ct, motivation="generated")
                shape.parent[ct.oid] = parent.oid
            return ct

        for _ in range(families):
            family_ep = next(stems).capitalize() + "aceae"
            family_nt = name(family_ep, "Familia", 1753, 1850)
            family = taxon("Familia", family_ep, family_nt, None)
            shape.family_oids.append(family.oid)
            first_genus_nt = None
            for _ in range(genera_per_family):
                genus_ep = next(stems).capitalize() + "ia"
                genus_nt = name(genus_ep, "Genus", 1753, 1900)
                genus = taxon("Genus", genus_ep, genus_nt, family)
                shape.genus_oids.append(genus.oid)
                first_species_nt = None
                for _ in range(species_per_genus):
                    species_ep = next(stems) + "ensis"
                    species_nt = name(
                        species_ep, "Species", 1753, 1990, placement=genus_nt
                    )
                    species = taxon("Species", species_ep, species_nt, genus)
                    shape.species_oids.append(species.oid)
                    shape.specimens_of[species.oid] = []
                    for index in range(specimens_per_species):
                        number = f"{species_ep}-{index}"
                        specimen = taxdb.new_specimen(
                            collector=f"Collector {rng.randint(1, 40)}",
                            collection_number=number,
                            herbarium=rng.choice(_HERBARIA),
                            field_name=f"{genus_ep} {species_ep}",
                        )
                        taxdb.place(tree, species, specimen)
                        shape.parent[specimen.oid] = species.oid
                        shape.specimen_oids.append(specimen.oid)
                        shape.specimens_of[species.oid].append(specimen.oid)
                        shape.collection_number[specimen.oid] = number
                        if index == 0:
                            taxdb.typify(species_nt, specimen, HOLOTYPE)
                    first_species_nt = first_species_nt or species_nt
                taxdb.typify(genus_nt, first_species_nt, HOLOTYPE)
                first_genus_nt = first_genus_nt or genus_nt
            taxdb.typify(family_nt, first_genus_nt, HOLOTYPE)
        db.commit()
        shape.objects = sum(1 for _ in db.schema.all_objects())
    finally:
        db.close()
    return shape


def open_flora(path: str, index: bool = True) -> tuple[Any, float]:
    """Reopen a flora log the way the CLI does, plus the epithet index.

    Returns (database, seconds spent in ``load()``).
    """
    from repro.engine import PrometheusDB
    from repro.taxonomy import define_taxonomy_schema

    db = PrometheusDB(path)
    define_taxonomy_schema(db.schema)
    started = time.perf_counter()
    db.load()
    load_s = time.perf_counter() - started
    if index:
        db.indexes.create_index("NomenclaturalTaxon", "epithet", "hash")
    return db, load_s


# -- accounting -------------------------------------------------------------------


@dataclass
class OpStats:
    """Attempted/failed counts and latencies per operation class."""

    attempted: dict[str, int] = field(default_factory=dict)
    failed: dict[str, int] = field(default_factory=dict)
    latencies: dict[str, list[float]] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    #: answers that contradicted the independent reference
    wrong: int = 0
    #: latencies of the operations that succeeded, in order
    seq: list[float] = field(default_factory=list)
    #: rounds: (operations, seconds spent in them, median latency)
    rounds: list[tuple[int, float, float]] = field(default_factory=list)

    def ok(self, cls: str, seconds: float) -> None:
        self.attempted[cls] = self.attempted.get(cls, 0) + 1
        self.latencies.setdefault(cls, []).append(seconds)
        self.seq.append(seconds)

    def round_mark(self) -> tuple[int, int]:
        """Where a round begins, for :meth:`end_round`."""
        return self.total_attempted, len(self.seq)

    def end_round(self, mark: tuple[int, int], seconds: float) -> None:
        """Record the round begun at ``mark``: its operations, the
        seconds they took and the median latency of those that
        succeeded."""
        attempted, first = mark
        values = sorted(self.seq[first:])
        if values:
            self.rounds.append(
                (self.total_attempted - attempted, seconds, percentile(values, 50))
            )

    def mismatch(self, cls: str, message: str) -> None:
        """An operation that returned, but with a wrong answer."""
        self.attempted[cls] = self.attempted.get(cls, 0) + 1
        self.wrong += 1
        if len(self.errors) < 20:
            self.errors.append(f"{cls}: {message}")

    def fail(self, cls: str, message: str) -> None:
        """An operation that raised or was refused."""
        self.attempted[cls] = self.attempted.get(cls, 0) + 1
        self.failed[cls] = self.failed.get(cls, 0) + 1
        if len(self.errors) < 20:
            self.errors.append(f"{cls}: {message}")

    def __add__(self, other: "OpStats") -> "OpStats":
        merged = OpStats(
            errors=self.errors + other.errors, wrong=self.wrong + other.wrong
        )
        for mine in (self, other):
            for cls, n in mine.attempted.items():
                merged.attempted[cls] = merged.attempted.get(cls, 0) + n
            for cls, n in mine.failed.items():
                merged.failed[cls] = merged.failed.get(cls, 0) + n
            for cls, values in mine.latencies.items():
                merged.latencies.setdefault(cls, []).extend(values)
        return merged

    @property
    def total_attempted(self) -> int:
        return sum(self.attempted.values())

    @property
    def total_failed(self) -> int:
        return sum(self.failed.values())

    def all_latencies(self) -> list[float]:
        out: list[float] = []
        for values in self.latencies.values():
            out.extend(values)
        out.sort()
        return out

    def class_p50_ms(self, *classes: str) -> float:
        values = sorted(
            v for c in classes for v in self.latencies.get(c, [])
        )
        return percentile(values, 50) * 1e3 if values else 0.0

    def summary(self) -> dict[str, Any]:
        return {
            cls: {
                "attempted": self.attempted[cls],
                "failed": self.failed.get(cls, 0),
                "p50_ms": round(self.class_p50_ms(cls), 4),
            }
            for cls in sorted(self.attempted)
        }


def latency_metrics(stats: OpStats, round_pct: float = 0) -> dict[str, float]:
    """End-to-end latency and throughput of an untraced run.

    A round is a fixed mix of operations.  ``p50_ms`` is the lowest
    median latency of one round (with ``round_pct``, that percentile of
    the rounds' medians), and ``ops_per_s`` the highest throughput of
    one round (its operations over the seconds they took).  The
    machine this runs on is shared: its speed swings by a quarter from
    one second to the next, and how much time its neighbours take
    moves over minutes, so a statistic of the whole run mostly
    measures them.  A round lasts tens of milliseconds, and
    nearly every run has some rounds that nothing slowed; a change that
    slows an operation slows those rounds too.  The whole run's median
    and 99th percentile are returned as reference figures
    (``run_p50_ms``, ``run_p99_ms``).
    """
    values = stats.all_latencies()
    if not stats.rounds:
        raise BenchError("the run completed no round")
    return {
        "p50_ms": percentile(sorted(m for _, _, m in stats.rounds), round_pct)
        * 1e3,
        "ops_per_s": max(n / wall for n, wall, _ in stats.rounds),
        "run_p50_ms": percentile(values, 50) * 1e3,
        "run_p99_ms": percentile(values, 99) * 1e3,
        "rounds": len(stats.rounds),
    }


def run_rounds(
    run_round: Any, seconds: float, traced: Any = None
) -> tuple[OpStats, OpStats, float]:
    """Whole rounds until ``seconds`` have passed.

    ``run_round(stats, traced_round)`` runs one round and is recorded in
    ``stats.rounds``, unless it recorded its own finer rounds there; it
    may return seconds spent outside the operations (re-opening a
    store) that throughput must not count.
    With a ``traced(on)`` switch, rounds alternate untraced/traced and
    the run ends after a traced round, so both halves see the same
    conditions and their latency difference is the tracing overhead.
    Returns (untraced stats, traced stats, wall seconds).
    """
    plain, tstats = OpStats(), OpStats()
    started = time.perf_counter()
    k = 0
    while True:
        on = traced is not None and k % 2 == 1
        stats = tstats if on else plain
        mark, recorded = stats.round_mark(), len(stats.rounds)
        round_start = time.perf_counter()
        if on:
            traced(True)
        try:
            excluded = run_round(stats, on) or 0.0
        finally:
            if on:
                traced(False)
        k += 1
        now = time.perf_counter()
        if len(stats.rounds) == recorded:
            stats.end_round(mark, now - round_start - excluded)
        if now - started >= seconds and (traced is None or k % 2 == 0):
            return plain, tstats, now - started


def timed_setups(setup: Any, teardown: Any, repeats: int) -> float:
    """Run ``setup()`` ``repeats`` times; return the median seconds.

    ``teardown()`` releases what the previous set-up built and is not
    timed; the last set-up's state is what the run measures.
    """
    times = []
    for k in range(repeats):
        if k:
            teardown()
        started = time.perf_counter()
        setup()
        times.append(time.perf_counter() - started)
    gc.collect()  # earlier set-ups' garbage is not the measured run's
    return median(times)


def seeded(seed: int, salt: str) -> random.Random:
    return random.Random(f"{seed}/{salt}")


def env_with_src() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env
