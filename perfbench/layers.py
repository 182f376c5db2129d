"""Which functions make up each layer, and the per-layer metrics.

A layer is named after the module it lives in.  Each site is a public
function or method, patched where its callers look it up: a function
imported by name into another module is patched in that module too
(``generate_test_case`` is reached through four import sites and
``generation_fingerprint`` through two).
"""

from __future__ import annotations

#: ``(module, "func" | "Class.method", span name)`` for every traced call.
SITES = (
    # repro.codegen
    ("repro.core.framework", "generate_test_case", "codegen"),
    ("repro.exec.jobs", "generate_test_case", "codegen"),
    ("repro.workloads.spec", "generate_test_case", "codegen"),
    ("repro.codegen.wrapper", "generate_test_case", "codegen"),
    ("repro.exec.jobs", "generation_fingerprint", "codegen.group_key"),
    ("repro.codegen.wrapper", "generation_fingerprint", "codegen.group_key"),
    # repro.sim.artifact, repro.sim.trace, repro.sim.depgraph
    ("repro.sim.artifact", "program_fingerprint", "artifact.fingerprint"),
    ("repro.sim.simulator", "program_fingerprint", "artifact.fingerprint"),
    ("repro.sim.artifact", "TraceArtifact.build", "artifact.build"),
    ("repro.sim.artifact", "TraceArtifactCache.get_or_build",
     "artifact.lookup"),
    ("repro.sim.artifact", "expand", "trace.expand"),
    ("repro.sim.artifact", "critical_path_per_iteration", "depgraph"),
    # repro.sim.events
    ("repro.sim.events", "simulate_memory", "events.memory"),
    ("repro.sim.events", "simulate_memory_batch", "events.memory"),
    ("repro.sim.events", "simulate_branches", "events.branch"),
    ("repro.sim.events", "simulate_branches_batch", "events.branch"),
    ("repro.sim.events", "simulate_icache", "events.icache"),
    ("repro.sim.events", "simulate_icache_batch", "events.icache"),
    # repro.sim.interval, repro.sim.simulator, repro.core.platform
    ("repro.sim.simulator", "compute_cycles_batch", "interval"),
    ("repro.sim.simulator", "Simulator.run_many", "sim"),
    ("repro.core.platform", "SimulationPlatformMixin.evaluate", "platform"),
    ("repro.core.platform", "SimulationPlatformMixin.evaluate_group",
     "platform"),
    ("repro.core.platform", "BatchEvaluationMixin.evaluate_many",
     "platform"),
    # repro.tuning
    ("repro.tuning.evaluator", "Evaluator.evaluate_batch", "evaluator"),
    ("repro.tuning.evaluator", "Evaluator.evaluate_raw_batch", "evaluator"),
    ("repro.tuning.gradient", "GradientDescentTuner.run", "tuner"),
    ("repro.tuning.genetic", "GeneticTuner.run", "tuner"),
    # repro.core.usecases
    ("repro.core.usecases.cloning", "CloningUseCase.resolve_targets",
     "usecase.targets"),
    ("repro.core.usecases.cloning", "CloningUseCase.loss", "usecase"),
    ("repro.core.usecases.cloning", "CloningUseCase.initial_vector",
     "usecase"),
    ("repro.core.usecases.stress", "StressTestingUseCase.loss", "usecase"),
    # repro.exec (the parent side; on dist this is where it waits)
    ("repro.core.framework", "evaluate_configs", "exec"),
    ("repro.core.framework", "evaluate_configs_stream", "exec"),
)

#: The benchmark's own span around each campaign.  ``MicroGrad.__init__``
#: and ``MicroGrad.run`` are deliberately not layers: they enclose every
#: other span, so wrapping them would turn all uncovered time into their
#: self time.  The root's self time is the wall time no layer accounts
#: for.
ROOT = "campaign"
#: The benchmark's span around starting the dist cluster (a call into
#: repro.dist made from the benchmark, not from a layer).
DIST_STARTUP = "dist.startup"

#: Engine paths of repro.sim.events and repro.exec.jobs, reported from
#: the run report's ``engine_path.*`` counters (0 when not taken).
ENGINE_PATHS = (
    "memory.reference", "memory.vectorized.periodic",
    "memory.vectorized.aperiodic", "memory.vectorized.straight",
    "memory.batch", "branch.reference", "branch.vectorized.scan",
    "branch.batch", "icache.reference", "icache.vectorized",
    "icache.batch", "evaluate.single", "evaluate.batch", "evaluate.group",
)

#: Per-layer self time: metric name -> the span names it sums.
SELF_TIME_METRICS = {
    "codegen.self_s": ("codegen", "codegen.group_key"),
    "artifact.fingerprint_s": ("artifact.fingerprint",),
    "artifact.build_s": ("artifact.build", "artifact.lookup"),
    "trace.expand_s": ("trace.expand",),
    "depgraph.self_s": ("depgraph",),
    "events.memory_s": ("events.memory",),
    "events.branch_s": ("events.branch",),
    "events.icache_s": ("events.icache",),
    "interval.self_s": ("interval",),
    "sim.self_s": ("sim",),
    "platform.self_s": ("platform",),
    "tuner.self_s": ("tuner",),
    "evaluator.self_s": ("evaluator",),
    "usecase.self_s": ("usecase", "usecase.targets"),
    "exec.dispatch_s": ("exec",),
    "dist.startup_s": (DIST_STARTUP,),
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(attribution: dict, calls, inclusive_targets_s: float,
                  counters: dict, stages: dict, campaigns: int,
                  workers: int) -> dict[str, float]:
    """Per-campaign per-layer metrics of one traced phase.

    Args:
        attribution: :func:`perfbench.tracer.attribute` over the phase.
        calls: the tracer's call counts per span name.
        inclusive_targets_s: summed duration of the target
            characterization spans (``usecase.targets_s`` is inclusive:
            it is the set-up cost cloning adds, whichever layer runs it).
        counters / stages: the campaigns' merged run-report counters
            and stage timers (``exec.chunk`` totals include the time
            dist workers spent, merged home by the run report).
        campaigns: traced campaigns.  Times and counts are means per
            campaign; ratios are taken over all of them.
        workers: dist workers (0 on the serial workloads).
    """
    self_s = attribution["self_s"]
    wall = attribution["wall_s"]
    unknown = set(self_s) - {
        name for names in SELF_TIME_METRICS.values() for name in names
    }
    if unknown:
        raise ValueError(f"spans with no layer metric: {sorted(unknown)}")
    requested = counters.get("evaluator.requested", 0)
    unique = counters.get("evaluator.unique", 0)
    lookups = calls.get("artifact.lookup", 0)
    builds = calls.get("artifact.build", 0)
    chunk = stages.get("exec.chunk", {})
    busy = chunk.get("total_s", 0.0) if workers else 0.0
    result_hits = counters.get("cache.result.hits", 0)
    result_misses = counters.get("cache.result.misses", 0)
    store_hits = counters.get("cache.artifact.hits", 0)
    store_misses = counters.get("cache.artifact.misses", 0)
    totals = {
        metric: sum(self_s.get(name, 0.0) for name in names)
        for metric, names in SELF_TIME_METRICS.items()
    }
    totals.update({
        "codegen.calls": calls.get("codegen", 0),
        "codegen.group_key_calls": calls.get("codegen.group_key", 0),
        "artifact.builds": builds,
        "trace.expand_calls": calls.get("trace.expand", 0),
        "events.calls": sum(calls.get(name, 0) for name in (
            "events.memory", "events.branch", "events.icache")),
        "evaluator.requested": requested,
        "evaluator.unique": unique,
        "usecase.targets_s": inclusive_targets_s,
        "exec.chunks": chunk.get("count", 0),
        "dist.worker_busy_s": busy,
        "unattributed_s": attribution["unattributed_s"],
        "traced_wall_s": wall,
    })
    for path in ENGINE_PATHS:
        totals[f"engine_path.{path}"] = counters.get(f"engine_path.{path}", 0)
    out = {name: value / campaigns for name, value in totals.items()}
    out.update({
        "codegen.group_key_per_unique": _ratio(
            calls.get("codegen.group_key", 0), unique),
        "artifact.cache_hit_ratio": _ratio(lookups - builds, lookups),
        "evaluator.unique_ratio": _ratio(unique, requested),
        "exec.result_cache.hit_ratio": _ratio(
            result_hits, result_hits + result_misses),
        "exec.artifact_store.hit_ratio": _ratio(
            store_hits, store_hits + store_misses),
        "dist.worker_util": _ratio(busy, workers * wall),
    })
    return out
