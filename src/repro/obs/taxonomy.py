"""The documented metric-name table: every recordable signal, declared.

This module is the single source of truth for observability names.  The
README/DESIGN metric tables render from the same vocabulary, and the
``metric-name`` checker of :mod:`repro.analysis` statically proves that
every ``obs.inc("...")`` / ``obs.span("...")`` literal in the tree names
an entry declared here — so the documentation cannot drift from the
code, and a typo in a metric name fails lint instead of silently
splitting a counter in two.

Adding an instrumentation point is a two-line change: record it, and
declare it here with a one-line description.  Families of dynamically
composed names (the engine-path counters) are declared as *prefixes*
rather than enumerating every member.
"""

from __future__ import annotations

#: Monotonic counters (merge: sum across workers).
COUNTERS: dict[str, str] = {
    "cache.result.hits": "persistent result-cache hits",
    "cache.result.misses": "persistent result-cache misses",
    "cache.result.evictions": "result-cache entries LRU-compacted away",
    "cache.artifact.hits": "on-disk trace-artifact store hits",
    "cache.artifact.misses": "on-disk trace-artifact store misses",
    "cache.artifact.evictions": "artifact-store entries LRU-compacted away",
    "evaluator.requested": "configurations requested per batch (pre-dedup)",
    "evaluator.unique": "configurations actually dispatched (post-dedup)",
    "codegen.programs": "test-case programs generated",
    "worker.jobs_executed": "jobs a dist worker completed (incl. raising)",
    "tuner.epochs": "tuning epochs finished",
    "session.opened": "client sessions opened against a shared cluster",
    "session.closed": "client sessions closed (local count)",
    "session.jobs_submitted": "jobs submitted through a client session",
    "session.results_received": "batch results landed on a client session",
    "session.cancels": "cancel frames sent by a client session",
    "prefetch.pushed": "trace artifacts a client pushed to the cluster",
    "prefetch.received": "prefetch frames a worker received",
    "prefetch.stored": "prefetched artifacts a worker stored locally",
}

#: Counter-name *families* whose members are composed at runtime; any
#: literal or dynamic name under one of these prefixes is declared.
COUNTER_PREFIXES: dict[str, str] = {
    "engine_path.": "event-engine path selections "
                    "(see repro.sim.events.record_engine_path)",
}

#: Last/max-value gauges (merge: max across workers).  None yet.
GAUGES: dict[str, str] = {}

#: Stage-timing spans / timers (merge: counts and totals fold).
SPANS: dict[str, str] = {
    "run": "one whole MicroGrad.run() (wall clock of the run scope)",
    "codegen": "knob configuration -> assembled program",
    "trace.build": "TraceArtifact build: validation + static class "
                   "counts (+ lowering when no columns are passed in); "
                   "no expansion, no dependency analysis",
    "trace.expand": "dynamic trace expansion at an artifact memo miss",
    "trace.depgraph": "dependency critical path at an artifact memo miss",
    "sim.run_many": "one multi-config simulation sweep",
    "events.memory": "per-config memory event simulation",
    "events.branch": "per-config branch event simulation",
    "events.icache": "per-config icache event simulation",
    "events.memory.batch": "config-batched shared memory event pass",
    "events.branch.batch": "config-batched shared branch event pass",
    "events.icache.batch": "config-batched shared icache event pass",
    "interval.batch": "batched interval-model cycle computation",
    "exec.chunk": "one evaluation chunk in whichever process ran it",
    "cache.result.probe": "result-cache disk probe (scandir pass)",
    "tuner.epoch": "one tuning epoch end to end",
}


def is_declared(kind: str, name: str) -> bool:
    """True when ``name`` is a declared metric of ``kind``.

    ``kind`` is ``"counter"``, ``"gauge"`` or ``"span"``.  Counters
    additionally match the declared prefix families.
    """
    if kind == "counter":
        return name in COUNTERS or any(
            name.startswith(prefix) for prefix in COUNTER_PREFIXES
        )
    if kind == "gauge":
        return name in GAUGES
    if kind == "span":
        return name in SPANS
    raise ValueError(f"unknown metric kind {kind!r}")
