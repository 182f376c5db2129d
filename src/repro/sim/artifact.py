"""Stage 1 of the simulator pipeline: shared per-program trace artifacts.

Every :meth:`Simulator.run` used to re-expand the dynamic trace and
re-analyze the dependency graph from scratch, even when the same program
was evaluated under several core configs (sensitivity / stress /
bottleneck sweeps, simpoint cloning) or by several platforms at once.
A :class:`TraceArtifact` computes the program-derived work once per
(program fingerprint, instruction budget) and memoizes every
core-dependent stage under a key of exactly the core parameters that
stage reads (see :mod:`repro.sim.events`), so a batch of core configs
shares all the work their parameters cannot distinguish:

* the expanded dynamic trace, per (iterations, line size);
* the dependency-graph critical path, per L1D hit latency;
* the stream wrap count, per L2 capacity;
* cache / branch / TLB / I-cache event simulations, per the geometry
  and predictor parameters each one consumes.

Artifacts are held in a bounded :class:`TraceArtifactCache` (LRU); the
module-level :func:`artifact_for` uses a process-wide cache shared by
``Simulator.run_many`` and ``CompositePlatform``.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import obs
from repro.isa.columns import BRANCH_ID, LOAD_ID, STORE_ID, ProgramColumns
from repro.isa.instructions import InstrClass
from repro.isa.program import Program
from repro.sim import events
from repro.sim.config import CoreConfig
from repro.sim.depgraph import critical_path_per_iteration
from repro.sim.trace import BRANCH_DRAWS, ExpandedTrace, expand

#: Upper bound on the adaptive warmup (loop iterations), keeping
#: worst-case evaluation cost bounded.  Streams that cannot wrap within
#: this many iterations behave identically cold or warm (they stream
#: through caches far smaller than their footprint).
MAX_WARMUP_ITERATIONS = 400
#: Measured-window bounds (loop iterations).  The generated loops are
#: periodic, so a short steady-state window yields exact rates.
MIN_MEASURE_ITERATIONS = 24
MAX_MEASURE_ITERATIONS = 160

#: Identity of the trace-expansion / artifact semantics.  Bump when a
#: change makes artifacts (and therefore metrics) non-bit-identical to
#: earlier versions; persistent result caches record it per entry and
#: treat a mismatch as a miss.
#:
#: v2: warmup-accounting fixes in :mod:`repro.sim.events` (clamped
#: warmup boundaries, warmup prefetch-hit leakage) changed event counts,
#: and memoized stage-2 results are now keyed by the engine that
#: produced them — v1 artifacts and result-cache entries must not be
#: reused.
#:
#: v3: artifacts carry their program's :class:`ProgramColumns`, and
#: :func:`program_fingerprint` hashes those columns instead of a
#: ``repr`` of every instruction, so every fingerprint changed.  Traces
#: and metrics are bit-identical to v2; the bump keeps v2 pickles (which
#: lack the columns) from ever loading.
TRACE_SCHEMA = "trace-artifact-v3"


def trace_schema_fingerprint() -> str:
    """Short stable hash of the active trace schema."""
    return hashlib.sha256(TRACE_SCHEMA.encode()).hexdigest()[:12]


def program_fingerprint(program: Program | ProgramColumns) -> str:
    """Stable content hash of everything the simulator reads.

    Two programs with equal fingerprints expand to bit-identical traces
    and dependency graphs, so they can share one
    :class:`TraceArtifact`.  The hash is :meth:`ProgramColumns.digest`:
    one sha256 over every column (mnemonics, classes, latencies,
    registers, immediates, PCs, the memory and branch parameter tables,
    the base patterns) plus the metadata scalars the timing model reads
    (entry address, code bytes, dependency distance, stream count).
    """
    columns = (program if isinstance(program, ProgramColumns)
               else ProgramColumns.lower(program))
    return columns.digest()[:32]


@dataclass
class TraceArtifact:
    """Everything one (program, instruction budget) pair shares.

    Build with :meth:`TraceArtifact.build` (which validates the program
    once) or fetch from a :class:`TraceArtifactCache`.  The accessor
    methods memoize per core-parameter key, so calling them for many
    core configs only pays for the distinct parameter combinations.
    """

    program: Program
    columns: ProgramColumns
    fingerprint: str
    instructions: int
    loop_size: int
    budget_iters: int
    mem_per_iter: int
    br_per_iter: int
    static_counts: dict[InstrClass, int]
    group_fractions: dict[str, float]
    code_bytes: int
    dependency_distance: float
    parallel_streams: int
    _traces: dict[tuple, ExpandedTrace] = field(
        default_factory=dict, repr=False
    )
    _wrap: dict[tuple, int] = field(default_factory=dict, repr=False)
    _dep: dict[tuple, float] = field(default_factory=dict, repr=False)
    _schedules: dict[tuple, tuple[int, int]] = field(
        default_factory=dict, repr=False
    )
    _memory: dict[tuple, events.MemoryEvents] = field(
        default_factory=dict, repr=False
    )
    _branches: dict[tuple, tuple[int, int]] = field(
        default_factory=dict, repr=False
    )
    _icache: dict[tuple, tuple[int, int, int]] = field(
        default_factory=dict, repr=False
    )

    @classmethod
    def build(
        cls,
        program: Program,
        instructions: int,
        fingerprint: str | None = None,
        columns: ProgramColumns | None = None,
    ) -> "TraceArtifact":
        """Characterize ``program`` once for the given budget.

        ``columns`` and ``fingerprint`` let a caller that already lowered
        and hashed the program (:meth:`TraceArtifactCache.get_or_build`)
        pass them in instead of recomputing them.
        """
        with obs.span("trace.build"):
            return cls._build(program, instructions, fingerprint, columns)

    @classmethod
    def _build(
        cls,
        program: Program,
        instructions: int,
        fingerprint: str | None,
        columns: ProgramColumns | None,
    ) -> "TraceArtifact":
        if columns is None:
            columns = ProgramColumns.lower(program)
        columns.validate()
        loop = len(columns)
        histogram = columns.class_histogram()
        static_counts = columns.class_counts(histogram)
        return cls(
            program=program,
            columns=columns,
            fingerprint=fingerprint or program_fingerprint(columns),
            instructions=instructions,
            loop_size=loop,
            budget_iters=max(2, round(instructions / loop)),
            mem_per_iter=int(histogram[LOAD_ID] + histogram[STORE_ID]),
            br_per_iter=int(histogram[BRANCH_ID]),
            static_counts=static_counts,
            group_fractions=columns.group_fractions(static_counts),
            code_bytes=columns.code_bytes,
            dependency_distance=columns.dependency_distance,
            parallel_streams=max(1, columns.stream_count),
        )

    # -- stage 1: program-derived, core-parameter-keyed ------------------

    def trace(self, iterations: int, line_bytes: int) -> ExpandedTrace:
        """The expanded dynamic trace, shared across equal windows."""
        key = (iterations, line_bytes)
        trace = self._traces.get(key)
        if trace is None:
            with obs.span("trace.expand"):
                trace = expand(self.columns, iterations,
                               line_bytes=line_bytes)
            self._traces[key] = trace
        return trace

    def wrap_iterations(self, core: CoreConfig) -> int:
        """Iterations until the slowest relevant stream wraps once."""
        key = (core.l2.size_bytes,)
        wrap = self._wrap.get(key)
        if wrap is None:
            _, stream = self.columns.memory_streams()
            # Footprints beyond ~1.2x the L2 stream cold or warm.
            keep = (stream["step"] > 0) & (
                stream["footprint"] <= 1.2 * core.l2.size_bytes
            )
            kept = {name: column[keep] for name, column in stream.items()}
            distinct_per_sweep = np.maximum(
                1, kept["footprint"] // kept["stride"])
            distinct_per_iter = np.maximum(
                1, kept["step"] // kept["reuse_period"])
            wraps = (distinct_per_sweep / distinct_per_iter).astype(np.int64)
            wrap = int(wraps.max()) + 1 if len(wraps) else 0
            self._wrap[key] = wrap
        return wrap

    def schedule(
        self, core: CoreConfig, warmup_fraction: float
    ) -> tuple[int, int]:
        """(warmup iterations, measured iterations) for one core.

        Mid-sized footprints (bigger than L1, not much bigger than L2)
        only reach cache steady state after the streams wrap; the warmup
        extends so they wrap once, then a short periodic window is
        measured.  Footprints far beyond the L2 behave identically cold
        or warm (both stream), so the budget is not wasted on them.
        """
        key = (core.l2.size_bytes, warmup_fraction)
        cached = self._schedules.get(key)
        if cached is not None:
            return cached
        wrap = self.wrap_iterations(core)
        if wrap:
            warmup_iters = min(
                max(int(1.05 * wrap) + 1,
                    int(self.budget_iters * warmup_fraction)),
                MAX_WARMUP_ITERATIONS,
            )
        else:
            warmup_iters = max(1, int(self.budget_iters * warmup_fraction))
        measure_iters = min(
            max(MIN_MEASURE_ITERATIONS, self.budget_iters - warmup_iters),
            MAX_MEASURE_ITERATIONS,
        )
        self._schedules[key] = (warmup_iters, measure_iters)
        return warmup_iters, measure_iters

    def dep_cycles(self, core: CoreConfig) -> float:
        """Steady-state critical-path cycles added per loop iteration."""
        key = (core.l1d.latency,)
        dep = self._dep.get(key)
        if dep is None:
            with obs.span("trace.depgraph"):
                dep = critical_path_per_iteration(self.columns, core)
            self._dep[key] = dep
        return dep

    # -- stage 2: per-core event simulations, memoized -------------------

    def memory_events(
        self,
        core: CoreConfig,
        warmup_iters: int,
        iterations: int,
        engine: str | None = None,
    ) -> events.MemoryEvents:
        """Cache/TLB/prefetch events; shared across equal hierarchies.

        Memo keys carry the resolved engine stamp: engines are
        bit-identical, but keeping their entries distinct means a
        persisted artifact can never satisfy a lookup with a result
        produced under different engine semantics (and lets property
        tests hold both engines' results side by side).
        """
        engine = events.resolve_engine(engine)
        key = (
            (engine,) + events.memory_event_key(core)
            + (warmup_iters, iterations)
        )
        res = self._memory.get(key)
        if res is None:
            trace = self.trace(iterations, core.l1d.line_bytes)
            with obs.span("events.memory"):
                res = events.simulate_memory(
                    core, trace, warmup_iters * self.mem_per_iter,
                    engine=engine,
                )
            self._memory[key] = res
        return res

    def branch_events(
        self,
        core: CoreConfig,
        warmup_iters: int,
        iterations: int,
        engine: str | None = None,
    ) -> tuple[int, int]:
        """(mispredicts, lookups); shared across equal predictors."""
        engine = events.resolve_engine(engine)
        key = (
            (engine,) + events.branch_event_key(core)
            + (warmup_iters, iterations)
        )
        res = self._branches.get(key)
        if res is None:
            # Branch outcomes are independent of the cache line size, so
            # any trace with the right window length serves.
            trace = self.trace(iterations, core.l1d.line_bytes)
            with obs.span("events.branch"):
                res = events.simulate_branches(
                    core, trace, warmup_iters * self.br_per_iter,
                    engine=engine,
                )
            self._branches[key] = res
        return res

    def memory_events_batch(
        self,
        cores: list[CoreConfig],
        warmup_iters_list: list[int],
        iterations_list: list[int],
        engine: str | None = None,
    ) -> list[events.MemoryEvents]:
        """Config-batched :meth:`memory_events`: one call fills the memo
        for a whole core sweep.

        Cores still missing from the memo are grouped per trace window
        (iterations, line size) and handed to
        :func:`repro.sim.events.simulate_memory_batch`, which dedupes by
        event key and shares precomputed trace columns (set indices,
        LRU recency ranks, ...) across the group.  Memo contents end up
        identical to per-core calls — batching only changes when the
        work happens, never what is stored.
        """
        engine = events.resolve_engine(engine)
        keys = [
            (engine,) + events.memory_event_key(core) + (warmup, iters)
            for core, warmup, iters in zip(
                cores, warmup_iters_list, iterations_list
            )
        ]
        groups: dict[tuple, list[int]] = {}
        for i, (core, key) in enumerate(zip(cores, keys)):
            if key not in self._memory:
                groups.setdefault(
                    (iterations_list[i], core.l1d.line_bytes), []
                ).append(i)
        for (iterations, line_bytes), slots in groups.items():
            trace = self.trace(iterations, line_bytes)
            with obs.span("events.memory.batch"):
                batch = events.simulate_memory_batch(
                    [cores[i] for i in slots],
                    trace,
                    [warmup_iters_list[i] * self.mem_per_iter
                     for i in slots],
                    engine=engine,
                )
            for i, res in zip(slots, batch):
                self._memory[keys[i]] = res
        return [self._memory[key] for key in keys]

    def branch_events_batch(
        self,
        cores: list[CoreConfig],
        warmup_iters_list: list[int],
        iterations_list: list[int],
        engine: str | None = None,
    ) -> list[tuple[int, int]]:
        """Config-batched :meth:`branch_events` (same contract as
        :meth:`memory_events_batch`): distinct predictors in the batch
        share packed histories and ride stacked counter scans."""
        engine = events.resolve_engine(engine)
        keys = [
            (engine,) + events.branch_event_key(core) + (warmup, iters)
            for core, warmup, iters in zip(
                cores, warmup_iters_list, iterations_list
            )
        ]
        groups: dict[tuple, list[int]] = {}
        for i, (core, key) in enumerate(zip(cores, keys)):
            if key not in self._branches:
                groups.setdefault(
                    (iterations_list[i], core.l1d.line_bytes), []
                ).append(i)
        for (iterations, line_bytes), slots in groups.items():
            trace = self.trace(iterations, line_bytes)
            with obs.span("events.branch.batch"):
                batch = events.simulate_branches_batch(
                    [cores[i] for i in slots],
                    trace,
                    [warmup_iters_list[i] * self.br_per_iter
                     for i in slots],
                    engine=engine,
                )
            for i, res in zip(slots, batch):
                self._branches[keys[i]] = res
        return [self._branches[key] for key in keys]

    def icache_events(
        self, core: CoreConfig, measure_iters: int,
        engine: str | None = None,
    ) -> tuple[int, int, int]:
        """(l1i hits, l1i misses, l2-side code misses) for the window.

        Memo keys carry the resolved engine stamp like the memory and
        branch memos do — the engines are bit-identical, the stamp just
        keeps their entries distinct in persisted artifacts.
        """
        engine = events.resolve_engine(engine)
        key = (engine,) + events.icache_event_key(core) + (measure_iters,)
        res = self._icache.get(key)
        if res is None:
            with obs.span("events.icache"):
                res = events.simulate_icache(
                    core, self.code_bytes, measure_iters, engine=engine
                )
            self._icache[key] = res
        return res

    def icache_events_batch(
        self,
        cores: list[CoreConfig],
        measure_iters_list: list[int],
        engine: str | None = None,
    ) -> list[tuple[int, int, int]]:
        """Config-batched :meth:`icache_events` (same contract as
        :meth:`memory_events_batch`).  The icache model reads only the
        code footprint — no trace window — so all memo misses go to
        :func:`repro.sim.events.simulate_icache_batch` in one group."""
        engine = events.resolve_engine(engine)
        keys = [
            (engine,) + events.icache_event_key(core) + (iters,)
            for core, iters in zip(cores, measure_iters_list)
        ]
        slots = [i for i, key in enumerate(keys) if key not in self._icache]
        if slots:
            with obs.span("events.icache.batch"):
                batch = events.simulate_icache_batch(
                    [cores[i] for i in slots],
                    self.code_bytes,
                    [measure_iters_list[i] for i in slots],
                    engine=engine,
                )
            for i, res in zip(slots, batch):
                self._icache[keys[i]] = res
        return [self._icache[key] for key in keys]

    def memo_count(self) -> int:
        """Total memoized stage results (cheap dirty check for stores)."""
        return (
            len(self._traces) + len(self._wrap) + len(self._dep)
            + len(self._schedules) + len(self._memory)
            + len(self._branches) + len(self._icache)
        )


class DiskArtifactStore:
    """Shared on-disk store of :class:`TraceArtifact` pickles.

    Worker processes (process pools, distributed workers, repeated CLI
    runs) each used to rebuild every trace artifact from scratch; a
    store shared through a common directory makes the cluster compute
    each artifact — including its memoized event-simulation stages —
    **once**, with everyone else loading the pickle.

    Layout: ``root/<schema fingerprint>/<program fingerprint>-<budget>.pkl``.
    The schema directory stamps every entry with the trace-artifact
    semantics that produced it; after a semantics bump, old entries are
    simply never looked at (and compaction of the active schema keeps
    the store bounded).  Writes are atomic (temp + rename), so two
    processes racing to store the same fingerprint can only ever publish
    equivalent bytes — last writer wins, both entries are valid.

    Args:
        root: store directory (created if missing).
        max_entries: optional cap on entries *within the active schema*;
            least-recently-used pickles (by file mtime — hits re-touch)
            are compacted away once exceeded.
        schema: trace-semantics stamp; defaults to the fingerprint of
            the running :data:`TRACE_SCHEMA`.
    """

    def __init__(
        self,
        root: str | Path,
        max_entries: int | None = None,
        schema: str | None = None,
    ):
        self.root = Path(root)
        self.schema = schema or trace_schema_fingerprint()
        self.dir = self.root / self.schema
        try:
            self.dir.mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError) as exc:
            raise ValueError(
                f"artifact store root {str(self.root)!r} is not usable"
            ) from exc
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._puts_since_compact = 0
        self.set_max_entries(max_entries)

    def set_max_entries(self, max_entries: int | None) -> None:
        """(Re)apply an entry cap, compacting immediately if needed."""
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1 (or None)")
        self.max_entries = max_entries
        # Same amortization as DiskResultCache: a glob per put is
        # O(entries), so compact every few writes.
        self._compact_interval = (
            min(64, max(1, max_entries // 8)) if max_entries else 0
        )
        if max_entries is not None:
            self.compact()

    def _path(self, fingerprint: str, instructions: int) -> Path:
        return self.dir / f"{fingerprint}-{instructions}.pkl"

    def get(self, fingerprint: str, instructions: int) -> TraceArtifact | None:
        """Load the stored artifact for a key; ``None`` on any miss.

        Unreadable or truncated pickles (a concurrent writer mid-publish
        cannot cause this — renames are atomic — but a copied or damaged
        store can) count as misses rather than errors.
        """
        path = self._path(fingerprint, instructions)
        try:
            artifact = pickle.loads(path.read_bytes())
        except Exception:
            self.misses += 1
            obs.inc("cache.artifact.misses")
            return None
        if (
            not isinstance(artifact, TraceArtifact)
            or artifact.fingerprint != fingerprint
            or artifact.instructions != instructions
        ):
            self.misses += 1
            obs.inc("cache.artifact.misses")
            return None
        try:
            # Hit: refresh recency so LRU compaction spares it.
            os.utime(path)
        except OSError:
            pass
        self.hits += 1
        obs.inc("cache.artifact.hits")
        return artifact

    def put(self, artifact: TraceArtifact) -> None:
        """Persist one artifact (atomic; best-effort on full disks)."""
        path = self._path(artifact.fingerprint, artifact.instructions)
        try:
            fd, tmp = tempfile.mkstemp(dir=self.dir, suffix=".tmp")
        except OSError:
            return
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(artifact, handle,
                            protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except Exception:
            # Best-effort by design: full disks, unpicklable injected
            # state, or a thread memoizing into the artifact mid-dump
            # (dict-changed-size) must never fail the evaluation itself.
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return
        if self.max_entries is not None:
            self._puts_since_compact += 1
            if self._puts_since_compact >= self._compact_interval:
                self._puts_since_compact = 0
                self.compact()

    def compact(self) -> int:
        """Evict least-recently-used entries beyond ``max_entries``."""
        if self.max_entries is None:
            return 0
        entries = []
        for path in self.dir.glob("*.pkl"):
            try:
                entries.append((path.stat().st_mtime, path))
            except OSError:
                continue
        excess = len(entries) - self.max_entries
        if excess <= 0:
            return 0
        entries.sort(key=lambda pair: pair[0])
        removed = 0
        for _, path in entries[:excess]:
            try:
                path.unlink()
            except OSError:
                continue
            removed += 1
        self.evictions += removed
        obs.inc("cache.artifact.evictions", removed)
        return removed

    def recent(self, limit: int = 8) -> list[TraceArtifact]:
        """The newest stored artifacts, most recent first.

        This is the prefetch seed: a client session opening against a
        persistent cluster pushes these to the coordinator before its
        first dispatch, so the sweep's working set is warm on every
        worker before any of them traces a program.  Unreadable pickles
        are skipped, like :meth:`get` misses.
        """
        if limit < 1:
            return []
        entries = []
        for path in self.dir.glob("*.pkl"):
            try:
                entries.append((path.stat().st_mtime, path))
            except OSError:
                continue
        entries.sort(key=lambda pair: pair[0], reverse=True)
        artifacts: list[TraceArtifact] = []
        for _, path in entries:
            if len(artifacts) >= limit:
                break
            try:
                artifact = pickle.loads(path.read_bytes())
            except Exception:
                continue
            if isinstance(artifact, TraceArtifact):
                artifacts.append(artifact)
        return artifacts

    def __len__(self) -> int:
        return sum(1 for _ in self.dir.glob("*.pkl"))


#: Process-wide store attached by :func:`attach_artifact_store`; every
#: ``TraceArtifactCache`` built without an explicit ``store=`` consults
#: it, so one call wires instance caches and the global cache alike.
_ACTIVE_STORE: DiskArtifactStore | None = None

#: Sentinel: "use whatever store is attached process-wide".
_INHERIT = object()


def attach_artifact_store(
    root: str | Path, max_entries: int | None = None
) -> DiskArtifactStore:
    """Attach a process-wide on-disk artifact store rooted at ``root``.

    Idempotent per root: re-attaching the same directory keeps the
    existing store (and its hit/miss counters), though an explicit
    ``max_entries`` is re-applied so a newly requested cap takes effect.
    Execution backends call this in every worker when a ``cache_dir`` is
    configured, and the ``repro.cli worker`` subcommand calls it at
    startup, so one ``cache_dir=`` setting wires the whole cluster.
    """
    global _ACTIVE_STORE
    root = Path(root)
    if _ACTIVE_STORE is not None and _ACTIVE_STORE.root == root:
        if max_entries is not None \
                and max_entries != _ACTIVE_STORE.max_entries:
            _ACTIVE_STORE.set_max_entries(max_entries)
        return _ACTIVE_STORE
    _ACTIVE_STORE = DiskArtifactStore(root, max_entries=max_entries)
    return _ACTIVE_STORE


def detach_artifact_store() -> None:
    """Detach the process-wide store (tests, teardown)."""
    global _ACTIVE_STORE
    _ACTIVE_STORE = None


def active_artifact_store() -> DiskArtifactStore | None:
    """The store attached by :func:`attach_artifact_store`, if any."""
    return _ACTIVE_STORE


class TraceArtifactCache:
    """Bounded LRU cache of artifacts keyed by (fingerprint, budget).

    Thread-safe: ``ThreadBackend`` workers share platform simulators
    (and the process-wide cache), so lookup, LRU bookkeeping and
    eviction are serialized under a lock.  Artifacts are built under
    the lock too — a build is a one-time cost per (program, budget) and
    racing duplicate builds would waste exactly the work this cache
    exists to share.
    """

    #: Lock discipline, enforced by the ``lock-discipline`` checker of
    #: :mod:`repro.analysis`.  ``hits``/``misses`` are deliberately
    #: unguarded: they are only *written* under the lock, and external
    #: readers tolerate a stale count (they are statistics, not state).
    GUARDED_BY = {
        "_entries": "_lock",
        "_persisted": "_lock",
    }

    def __init__(self, maxsize: int = 16, store=_INHERIT):
        if maxsize < 1:
            raise ValueError("artifact cache needs maxsize >= 1")
        self.maxsize = maxsize
        self._store = store
        self._entries: OrderedDict[tuple, TraceArtifact] = OrderedDict()
        self._persisted: dict[tuple, int] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    @property
    def store(self) -> DiskArtifactStore | None:
        """This cache's on-disk store (process-wide one by default)."""
        if self._store is _INHERIT:
            return _ACTIVE_STORE
        return self._store

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        """Drop every cached artifact, and the process-wide branch draw
        memo (:data:`repro.sim.trace.BRANCH_DRAWS`) with them, so the
        next campaign starts with cold stage-1 state."""
        with self._lock:
            self._entries.clear()
            self._persisted.clear()
        BRANCH_DRAWS.clear()

    def get_or_build(
        self, program: Program, instructions: int
    ) -> TraceArtifact:
        """Fetch the artifact for (program content, budget), building on miss.

        Misses consult the attached :class:`DiskArtifactStore` (when one
        is configured) before building, so sibling processes sharing a
        store directory build each artifact once between them.  The
        program is lowered to :class:`ProgramColumns` once here: the
        fingerprint hashes the columns, and a built artifact keeps them.
        """
        columns = ProgramColumns.lower(program)
        key = (program_fingerprint(columns), instructions)
        with self._lock:
            artifact = self._entries.get(key)
            if artifact is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return artifact
            self.misses += 1
            store = self.store
            if store is not None:
                artifact = store.get(*key)
                if artifact is not None:
                    self._persisted[key] = artifact.memo_count()
            if artifact is None:
                artifact = TraceArtifact.build(
                    program, instructions, fingerprint=key[0],
                    columns=columns,
                )
            self._entries[key] = artifact
            while len(self._entries) > self.maxsize:
                dropped_key, _ = self._entries.popitem(last=False)
                self._persisted.pop(dropped_key, None)
            return artifact

    def persist(self, artifact: TraceArtifact) -> bool:
        """Write ``artifact`` (with its memoized stages) to the store.

        Called after an evaluation pass so the store captures the event
        simulations memoized during it, not just the freshly built
        shell.  No-op without a store or when nothing new was memoized
        since the last persist.  Returns whether a write happened.
        """
        store = self.store
        if store is None:
            return False
        key = (artifact.fingerprint, artifact.instructions)
        with self._lock:
            memos = artifact.memo_count()
            if self._persisted.get(key) == memos:
                return False
            self._persisted[key] = memos
        store.put(artifact)
        return True


#: Process-wide artifact cache: ``Simulator.run_many`` and
#: ``CompositePlatform`` share trace work through it by default.
GLOBAL_ARTIFACT_CACHE = TraceArtifactCache(maxsize=32)


def artifact_for(
    program: Program,
    instructions: int,
    cache: TraceArtifactCache | None = None,
) -> TraceArtifact:
    """The shared artifact for (program, budget), via ``cache`` or the
    process-wide default."""
    # Explicit None check: an *empty* cache is falsy (``__len__``), and
    # ``cache or GLOBAL`` would silently bypass a fresh instance cache.
    if cache is None:
        cache = GLOBAL_ARTIFACT_CACHE
    return cache.get_or_build(program, instructions)
