"""Golden determinism tests for the staged simulator pipeline.

The three-stage refactor (trace artifact -> event simulation -> batched
interval model) must be invisible in the numbers: one ``run`` matches
the straight-line reference computation bit for bit, ``run_many`` over a
batch of cores matches independent runs bit for bit, and a fixed
program/core pair still produces the exact statistics recorded from the
pre-pipeline simulator.
"""

import pickle
from dataclasses import replace

import pytest

from repro.codegen import generate_test_case
from repro.sim import (
    LARGE_CORE,
    SMALL_CORE,
    Simulator,
    TraceArtifactCache,
    program_fingerprint,
)
from repro.sim.artifact import TraceArtifact
from repro.sim.config import CacheGeometry
from repro.sim.events import (
    simulate_branches,
    simulate_icache,
    simulate_memory,
)
from repro.sim.interval import MissProfile, compute_cycles
from tests.sim.stage1_reference import (
    reference_class_counts,
    reference_critical_path,
    reference_expand,
)

KNOBS = dict(ADD=5, MUL=1, FADDD=1, FMULD=1, BEQ=1, BNE=1,
             LD=3, LW=1, SD=1, SW=1,
             REG_DIST=4, MEM_SIZE=512, MEM_STRIDE=64,
             MEM_TEMP1=2, MEM_TEMP2=1, B_PATTERN=0.3)

#: Exact statistics recorded from the pre-pipeline simulator (commit
#: ecb292a) for ``generate_test_case(KNOBS)`` at a 12k budget.  Bitwise
#: equality here proves the staged pipeline changed nothing numerically.
#:
#: One deliberate update: the large core's ``prefetch_hits`` was 4536
#: when recorded, every one of which came from the warmup-leakage bug —
#: a line prefetched *and first used* during warmup stayed in the
#: prefetched set, so its next measured L2 hit was miscounted as a
#: prefetch hit.  With the fix (first use consumes the mark regardless
#: of the warmup boundary) this workload's prefetch first-uses all land
#: in its 47-iteration warmup, so the measured count is 0.  Cycles/IPC
#: are untouched: prefetch accounting never fed the timing model.
PRE_REFACTOR_GOLDEN = {
    "small": {
        "cycles": 229363.42857142858,
        "ipc": 0.0523187156502718,
        "mispredict_rate": 0.34341397849462363,
        "dtlb_miss_rate": 0.015652557319223985,
        "load_l2_misses": 3000,
        "prefetch_hits": 0,
        "iterations": 24,
        "warmup_iterations": 4,
    },
    "large": {
        "cycles": 23699.14285714286,
        "ipc": 0.5063474266700423,
        "mispredict_rate": 0.3165322580645161,
        "dtlb_miss_rate": 0.0,
        "load_l2_misses": 0,
        "prefetch_hits": 0,
        "iterations": 24,
        "warmup_iterations": 47,
    },
}


@pytest.fixture(scope="module")
def program():
    return generate_test_case(KNOBS)


def straightline_reference(core, program, instructions, warmup_fraction=0.2):
    """The pre-pipeline ``Simulator.run`` data path, stage by stage,
    with no artifact, no memoization and no batching — pinned to the
    ``reference`` event engine so it stays the oracle for the default
    (vectorized) engine, and to the per-instruction stage-1 references
    so it stays independent of the columnar trace and depgraph."""
    program.validate()
    loop = len(program)
    artifact = TraceArtifact.build(program, instructions)
    warmup_iters, measure_iters = artifact.schedule(core, warmup_fraction)
    iterations = warmup_iters + measure_iters

    trace = reference_expand(
        program, iterations, line_bytes=core.l1d.line_bytes
    )
    mem = simulate_memory(
        core, trace, warmup_iters * len(program.memory_instructions()),
        engine="reference",
    )
    mispredicts, lookups = simulate_branches(
        core, trace, warmup_iters * len(program.branch_instructions()),
        engine="reference",
    )
    code_bytes = program.metadata.get("code_bytes", loop * 4)
    i_hits, i_misses, i_l2 = simulate_icache(core, code_bytes, measure_iters)

    total = loop * measure_iters
    class_counts = {
        c: n * measure_iters
        for c, n in reference_class_counts(program).items()
    }
    cycles = compute_cycles(
        core,
        total,
        class_counts,
        reference_critical_path(program, core),
        loop,
        MissProfile(
            branch_mispredicts=mispredicts,
            icache_l1_misses=i_misses,
            icache_l2_misses=i_l2,
            load_l1_misses=mem.load_l1_misses,
            load_l2_misses=mem.load_l2_misses,
            store_l1_misses=mem.store_l1_misses,
            store_l2_misses=mem.store_l2_misses,
            dtlb_misses=mem.dtlb_misses,
        ),
        dependency_distance=float(
            program.metadata.get("dependency_distance", 4)
        ),
        parallel_streams=max(
            1, len(program.metadata.get("memory_streams") or [])
        ),
    ).cycles
    return {
        "cycles": cycles,
        "ipc": total / cycles,
        "mispredicts": mispredicts,
        "lookups": lookups,
        "load_l2_misses": mem.load_l2_misses,
        "dtlb_misses": mem.dtlb_misses,
    }


def _sweep_cores():
    """A batch mixing back-end-only variants with distinct hierarchies
    and a different predictor/TLB sizing (the small core)."""
    return [
        LARGE_CORE,
        replace(LARGE_CORE, rob=80, lsq=32),
        replace(LARGE_CORE, front_end_width=4, alu_units=3),
        replace(LARGE_CORE, mispredict_penalty=20, memory_latency=240),
        replace(LARGE_CORE, l1d=CacheGeometry(16 * 1024, 4, latency=4)),
        replace(LARGE_CORE, l2=CacheGeometry(256 * 1024, 8, latency=12)),
        SMALL_CORE,
        replace(SMALL_CORE, mem_ports=1),
    ]


class TestGoldenDeterminism:
    @pytest.mark.parametrize("core_name", ["small", "large"])
    def test_bit_identical_to_pre_refactor(self, program, core_name):
        core = SMALL_CORE if core_name == "small" else LARGE_CORE
        stats = Simulator(core).run(program, instructions=12_000)
        golden = PRE_REFACTOR_GOLDEN[core_name]
        assert stats.cycles == golden["cycles"]
        assert stats.ipc == golden["ipc"]
        assert stats.mispredict_rate == golden["mispredict_rate"]
        assert stats.dtlb_miss_rate == golden["dtlb_miss_rate"]
        assert stats.extra["load_l2_misses"] == golden["load_l2_misses"]
        assert stats.extra["prefetch_hits"] == golden["prefetch_hits"]
        assert stats.extra["iterations"] == golden["iterations"]
        assert (
            stats.extra["warmup_iterations"] == golden["warmup_iterations"]
        )

    @pytest.mark.parametrize("core", _sweep_cores()[:4] + [SMALL_CORE])
    def test_run_matches_straightline_reference(self, program, core):
        stats = Simulator(core).run(program, instructions=10_000)
        ref = straightline_reference(core, program, 10_000)
        assert stats.cycles == ref["cycles"]
        assert stats.ipc == ref["ipc"]
        assert stats.extra["branch_lookups"] == ref["lookups"]
        assert stats.extra["load_l2_misses"] == ref["load_l2_misses"]

    def test_run_many_equals_independent_runs(self, program):
        cores = _sweep_cores()
        batched = Simulator.run_many(
            cores,
            program,
            instructions=10_000,
            artifact_cache=TraceArtifactCache(maxsize=2),
        )
        independent = [
            Simulator(core).run(program, instructions=10_000)
            for core in cores
        ]
        assert batched == independent  # full SimStats equality

    def test_run_many_preserves_input_order(self, program):
        cores = [SMALL_CORE, LARGE_CORE]
        stats = Simulator.run_many(cores, program, instructions=6_000)
        assert [s.core for s in stats] == ["small", "large"]


class TestArtifactSharing:
    def test_fingerprint_is_content_addressed(self, program):
        assert program_fingerprint(program) == program_fingerprint(program)
        other = generate_test_case(dict(KNOBS, ADD=6))
        assert program_fingerprint(program) != program_fingerprint(other)

    def test_cache_hits_for_same_program_and_budget(self, program):
        cache = TraceArtifactCache(maxsize=4)
        first = cache.get_or_build(program, 8_000)
        second = cache.get_or_build(program, 8_000)
        assert first is second
        assert (cache.hits, cache.misses) == (1, 1)

    def test_cache_distinguishes_budgets(self, program):
        cache = TraceArtifactCache(maxsize=4)
        assert cache.get_or_build(program, 8_000) is not cache.get_or_build(
            program, 16_000
        )

    def test_cache_is_lru_bounded(self, program):
        cache = TraceArtifactCache(maxsize=2)
        for budget in (4_000, 8_000, 16_000):
            cache.get_or_build(program, budget)
        assert len(cache) == 2
        # 4k was evicted; 8k and 16k still hit.
        cache.get_or_build(program, 8_000)
        cache.get_or_build(program, 16_000)
        assert cache.hits == 2
        cache.get_or_build(program, 4_000)
        assert cache.misses == 4

    def test_backend_only_variants_share_event_simulations(self, program):
        artifact = TraceArtifact.build(program, 8_000)
        wide = replace(LARGE_CORE, front_end_width=4, rob=320)
        Simulator.run_many([LARGE_CORE, wide], program,
                           instructions=8_000, artifact=artifact)
        # One memory sim, one branch sim, one trace: the variants differ
        # only in parameters the event simulations never read.
        assert len(artifact._memory) == 1
        assert len(artifact._branches) == 1
        assert len(artifact._traces) == 1

    def test_distinct_hierarchies_do_not_alias(self, program):
        artifact = TraceArtifact.build(program, 8_000)
        small_l1 = replace(LARGE_CORE, l1d=CacheGeometry(8 * 1024, 4,
                                                         latency=3))
        Simulator.run_many([LARGE_CORE, small_l1], program,
                           instructions=8_000, artifact=artifact)
        assert len(artifact._memory) == 2

    def test_mismatched_artifact_budget_rejected(self, program):
        artifact = TraceArtifact.build(program, 8_000)
        with pytest.raises(ValueError, match="budget"):
            Simulator(SMALL_CORE).run(
                program, instructions=16_000, artifact=artifact
            )

    def test_mismatched_artifact_program_rejected(self, program):
        artifact = TraceArtifact.build(program, 8_000)
        other = generate_test_case(dict(KNOBS, ADD=7))
        with pytest.raises(ValueError, match="different program"):
            Simulator(SMALL_CORE).run(
                other, instructions=8_000, artifact=artifact
            )

    def test_equal_content_program_copy_is_accepted(self, program):
        artifact = TraceArtifact.build(program, 8_000)
        copy = generate_test_case(KNOBS)
        stats = Simulator(SMALL_CORE).run(
            copy, instructions=8_000, artifact=artifact
        )
        assert stats == Simulator(SMALL_CORE).run(copy, instructions=8_000)

    def test_cache_is_thread_safe_under_churn(self, program):
        # ThreadBackend workers share simulators and hence caches; LRU
        # bookkeeping must survive concurrent hit/evict churn.
        from concurrent.futures import ThreadPoolExecutor

        cache = TraceArtifactCache(maxsize=2)
        budgets = [4_000, 6_000, 8_000, 10_000]

        def hammer(i):
            for budget in budgets:
                cache.get_or_build(program, budget)
            return i

        with ThreadPoolExecutor(max_workers=8) as pool:
            assert sorted(pool.map(hammer, range(16))) == list(range(16))
        assert len(cache) <= 2


class TestPickleStability:
    def test_pickled_state_is_core_only(self):
        sim = Simulator(SMALL_CORE)
        assert sim.__getstate__() == {"core": SMALL_CORE}

    def test_roundtrip_rebuilds_working_simulator(self, program):
        sim = pickle.loads(pickle.dumps(Simulator(SMALL_CORE)))
        stats = sim.run(program, instructions=6_000)
        assert stats.core == "small"

    def test_platform_identity_survives_the_refactor(self):
        # Disk-cache contexts hash the pickled platform; this digest was
        # recorded before the pipeline refactor and must never drift, or
        # every persistent cache entry silently misses.
        import hashlib

        from repro.core.platform import PerformancePlatform

        platform = PerformancePlatform(SMALL_CORE, instructions=8_000)
        digest = hashlib.sha256(pickle.dumps(platform)).hexdigest()[:16]
        assert digest == "933ca47ebf2dad61"
