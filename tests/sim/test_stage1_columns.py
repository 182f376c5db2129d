"""Columnar stage 1: ProgramColumns against the per-instruction oracles.

The columnar ``expand``, ``critical_path_per_iteration`` and validation
must be bit-identical to the object-walking references in
:mod:`tests.sim.stage1_reference`; the columnar fingerprint must still
separate programs on every field the old ``repr`` hash covered; and the
process-wide branch draw memo must stay a pure cache (bounded, cleared
with the artifact cache, invisible to results under threads).
"""

import copy
import hashlib
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codegen.wrapper import (
    GenerationOptions,
    generate_test_case,
    generation_fingerprint,
)
from repro.isa.columns import ProgramColumns
from repro.isa.instructions import InstrClass, instruction_def
from repro.isa.program import Instruction, MemoryAccess, Program
from repro.isa.registers import Register, RegisterKind
from repro.sim import LARGE_CORE, SMALL_CORE
from repro.sim.artifact import (
    GLOBAL_ARTIFACT_CACHE,
    DiskArtifactStore,
    TraceArtifact,
    TraceArtifactCache,
    program_fingerprint,
)
from repro.sim.depgraph import critical_path_per_iteration
from repro.sim.trace import BRANCH_DRAWS, BranchDrawMemo, expand
from repro.tuning.knobs import (
    B_PATTERN_VALUES,
    INSTRUCTION_FRACTIONS,
    MEM_SIZE_VALUES,
    MEM_STRIDE_VALUES,
    MEM_TEMP1_VALUES,
    MEM_TEMP2_VALUES,
    MIX_KNOB_NAMES,
    REG_DIST_VALUES,
)
from tests.sim.stage1_reference import (
    reference_class_counts,
    reference_critical_path,
    reference_expand,
    reference_wrap_iterations,
)

TRACE_FIELDS = ("mem_lines", "mem_pcs", "mem_is_store", "branch_pcs",
                "branch_outcomes")

KNOBS = dict(ADD=5, MUL=1, FADDD=1, FMULD=1, BEQ=1, BNE=1,
             LD=3, LW=1, SD=1, SW=1,
             REG_DIST=4, MEM_SIZE=512, MEM_STRIDE=64,
             MEM_TEMP1=2, MEM_TEMP2=1, B_PATTERN=0.3)

lattice_config = st.fixed_dictionaries(
    {
        **{name: st.sampled_from(INSTRUCTION_FRACTIONS)
           for name in MIX_KNOB_NAMES},
        "REG_DIST": st.sampled_from(REG_DIST_VALUES),
        "MEM_SIZE": st.sampled_from(MEM_SIZE_VALUES),
        "MEM_STRIDE": st.sampled_from(MEM_STRIDE_VALUES),
        "MEM_TEMP1": st.sampled_from(MEM_TEMP1_VALUES),
        "MEM_TEMP2": st.sampled_from(MEM_TEMP2_VALUES),
        "B_PATTERN": st.sampled_from(B_PATTERN_VALUES),
    }
)

streams = st.lists(
    st.tuples(
        st.integers(1, 4),                        # stream id
        st.sampled_from([256, 4096, 65536]),      # size (bytes)
        st.sampled_from([0.25, 0.5, 1.0]),        # ratio
        st.sampled_from([8, 16, 64, 192]),        # stride
        st.integers(1, 4),                        # reuse count
        st.integers(1, 3),                        # reuse period
    ),
    min_size=2, max_size=3, unique_by=lambda s: s[0],
)

patterns = st.lists(st.booleans(), min_size=1, max_size=7).map(tuple)


def assert_matches_reference(program, iterations):
    """Columnar stage 1 equals the references on both cores."""
    columns = ProgramColumns.lower(program)
    artifact = TraceArtifact.build(program, 4_000, columns=columns)
    for core in (SMALL_CORE, LARGE_CORE):
        assert artifact.wrap_iterations(core) == \
            reference_wrap_iterations(program, core)
        line = core.l1d.line_bytes
        fast = expand(columns, iterations, line_bytes=line)
        slow = reference_expand(program, iterations, line_bytes=line)
        for name in TRACE_FIELDS:
            a, b = getattr(fast, name), getattr(slow, name)
            assert a.dtype == b.dtype, name
            assert np.array_equal(a, b), name
        assert list(fast.class_counts.items()) == \
            list(slow.class_counts.items())
        dep = critical_path_per_iteration(columns, core)
        ref = reference_critical_path(program, core)
        assert dep == ref and type(dep) is type(ref)


class TestColumnarMatchesReference:
    @given(lattice_config, st.sampled_from([40, 120, 300]),
           st.integers(1, 70), patterns, st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_lattice_programs(self, knobs, loop_size, iterations,
                              base_pattern, seed):
        program = generate_test_case(knobs, GenerationOptions(
            loop_size=loop_size, base_pattern=base_pattern, seed=seed))
        assert_matches_reference(program, iterations)

    @given(streams, st.integers(1, 50))
    @settings(max_examples=15, deadline=None)
    def test_multi_stream_programs(self, specs, iterations):
        program = generate_test_case(
            dict(KNOBS, STREAMS=[list(s) for s in specs]),
            GenerationOptions(loop_size=120),
        )
        assert len({i.memory.stream_id
                    for i in program.memory_instructions()}) > 1
        assert_matches_reference(program, iterations)

    def test_no_memory(self):
        program = generate_test_case(
            dict(KNOBS, LD=0, LW=0, SD=0, SW=0), GenerationOptions(loop_size=80))
        assert not program.memory_instructions()
        assert_matches_reference(program, 17)

    def test_no_branches(self):
        program = generate_test_case(
            dict(KNOBS, BEQ=0, BNE=0), GenerationOptions(loop_size=80))
        assert not program.branch_instructions()
        assert_matches_reference(program, 17)

    @pytest.mark.parametrize("b_pattern", [0.0, 1.0])
    def test_b_pattern_extremes(self, b_pattern):
        program = generate_test_case(
            dict(KNOBS, B_PATTERN=b_pattern), GenerationOptions(loop_size=80))
        assert_matches_reference(program, 23)

    def test_one_seed_grows_then_shrinks_its_window(self):
        # K=30 stores 60 draws; K=38 must regenerate (76 > 60); K=29
        # slices the stored 76.  Each window must equal a fresh rng.
        program = generate_test_case(KNOBS, GenerationOptions(loop_size=80))
        BRANCH_DRAWS.clear()
        for iterations in (30, 38, 29):
            assert_matches_reference(program, iterations)
        seed = program.branch_instructions()[0].branch.seed
        assert np.array_equal(
            BRANCH_DRAWS.stacked([seed], 58)[0],
            np.random.default_rng(seed).random(58),
        )

    def test_empty_program(self):
        assert critical_path_per_iteration(Program(), SMALL_CORE) == 0.0
        assert len(ProgramColumns.lower(Program())) == 0

    def test_static_summaries_match_program_order(self):
        program = generate_test_case(KNOBS, GenerationOptions(loop_size=120))
        artifact = TraceArtifact.build(program, 4_000)
        counts = reference_class_counts(program)
        assert list(artifact.static_counts.items()) == list(counts.items())
        assert artifact.mem_per_iter == len(program.memory_instructions())
        assert artifact.br_per_iter == len(program.branch_instructions())

    def test_columns_are_read_only(self):
        program = generate_test_case(KNOBS, GenerationOptions(loop_size=40))
        columns = ProgramColumns.lower(program)
        with pytest.raises(ValueError):
            columns.class_ids[0] = 0
        with pytest.raises(ValueError):
            columns.mem_table[0, 0] = 0

    def test_wide_operands_rejected_by_dependency_walk(self):
        wide = replace(instruction_def("FMADD.D"), num_src=4)
        regs = [Register(RegisterKind.FP, i) for i in range(5)]
        program = Program(body=[Instruction(idef=wide, dests=regs[:1],
                                            srcs=regs[1:])])
        with pytest.raises(ValueError, match="at most 3 operands"):
            critical_path_per_iteration(program, SMALL_CORE)

    def test_out_of_range_register_rejected(self):
        instr = Instruction(
            idef=instruction_def("ADD"),
            dests=[Register(RegisterKind.INT, 40)],
            srcs=[Register(RegisterKind.INT, 1), Register(RegisterKind.INT, 2)],
        )
        with pytest.raises(ValueError, match="out of range"):
            ProgramColumns.lower(Program(body=[instr]))


def _add():
    return Instruction(
        idef=instruction_def("ADD"),
        dests=[Register(RegisterKind.INT, 1)],
        srcs=[Register(RegisterKind.INT, 2), Register(RegisterKind.INT, 3)],
    )


def _malformed():
    """(expected message, malformed program) pairs."""
    load = Instruction(idef=instruction_def("LD"),
                       dests=[Register(RegisterKind.INT, 4)],
                       srcs=[Register(RegisterKind.INT, 5)])
    no_srcs = _add()
    no_srcs.srcs = []
    yield ("LD: memory instruction lacks a stream",
           Program(body=[_add(), load, no_srcs]))
    bare = _add()
    bare.dests, bare.srcs = [], []
    yield "ADD: expected 1 dests, got 0", Program(body=[bare])
    yield "ADD: expected 2 srcs, got 0", Program(body=[_add(), no_srcs])
    streamed = _add()
    streamed.memory = MemoryAccess(stream_id=1, base=0, footprint=64,
                                   stride=8)
    yield "ADD: non-memory instruction has a stream", Program(body=[streamed])
    branch = Instruction(idef=instruction_def("BNE"),
                         srcs=[Register(RegisterKind.INT, 1)] * 2)
    yield "BNE: branch lacks a behaviour", Program(body=[_add(), branch])
    yield "program body is empty", Program()


class TestValidationTexts:
    """Both entry points to the structural checks name the *first* bad
    instruction, in the per-instruction check order."""

    @pytest.mark.parametrize("message, program", list(_malformed()))
    def test_program_validate(self, message, program):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            program.validate()

    @pytest.mark.parametrize("message, program", list(_malformed()))
    def test_lowered_columns_validate(self, message, program):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            TraceArtifact.build(program, 1_000)


def _mutants(program):
    """(field, mutated deep copy) pairs, each differing in one field the
    pre-columnar ``repr`` fingerprint covered."""

    def mutant(edit):
        copied = copy.deepcopy(program)
        edit(copied)
        return copied

    body = program.body
    alu = next(i for i, x in enumerate(body) if x.mnemonic == "ADD")
    mem = next(i for i, x in enumerate(body) if x.memory is not None)
    br = next(i for i, x in enumerate(body) if x.branch is not None)

    def set_idef(**changes):
        def edit(p):
            p.body[alu].idef = replace(p.body[alu].idef, **changes)
        return edit

    def set_attr(row, name, value):
        def edit(p):
            setattr(p.body[row], name, value)
        return edit

    def set_memory(name, delta):
        def edit(p):
            m = p.body[mem].memory
            setattr(m, name, getattr(m, name) + delta)
        return edit

    def set_branch(**changes):
        def edit(p):
            p.body[br].branch = replace(p.body[br].branch, **changes)
        return edit

    def set_meta(key, value):
        def edit(p):
            p.metadata[key] = value
        return edit

    old_pattern = body[br].branch.pattern
    yield "entry_address", mutant(
        lambda p: setattr(p, "entry_address", p.entry_address + 4))
    yield "code_bytes", mutant(
        set_meta("code_bytes", program.metadata["code_bytes"] + 4))
    yield "dependency_distance", mutant(set_meta("dependency_distance", 99))
    yield "stream_count", mutant(set_meta(
        "memory_streams", list(program.metadata["memory_streams"]) + ["x"]))
    yield "mnemonic", mutant(set_idef(mnemonic="SUB"))
    yield "latency", mutant(set_idef(latency=7))
    yield "class", mutant(set_idef(iclass=InstrClass.INT_MUL))
    yield "dest register", mutant(set_attr(
        alu, "dests", [Register(RegisterKind.INT, 31)]))
    yield "src register", mutant(set_attr(
        alu, "srcs", [Register(RegisterKind.INT, 30)]
        + body[alu].srcs[1:]))
    yield "register file", mutant(set_attr(
        alu, "dests", [Register(RegisterKind.FP, body[alu].dests[0].index)]))
    yield "immediate", mutant(set_attr(alu, "immediate", 12))
    yield "address", mutant(set_attr(alu, "address", 0xdead0))
    for name in ("stream_id", "base", "footprint", "stride", "reuse_count",
                 "reuse_period", "phase", "step"):
        yield f"memory.{name}", mutant(set_memory(name, 1))
    yield "branch.pattern", mutant(set_branch(
        pattern=tuple(not b for b in old_pattern)))
    yield "branch.pattern length", mutant(set_branch(
        pattern=old_pattern + old_pattern))
    yield "branch.random_ratio", mutant(set_branch(random_ratio=0.77))
    yield "branch.seed", mutant(set_branch(seed=body[br].branch.seed + 1))
    yield "branch.taken_bias", mutant(set_branch(taken_bias=0.25))


class TestFingerprintSafety:
    def test_every_covered_field_separates_programs(self):
        program = generate_test_case(KNOBS, GenerationOptions(loop_size=80))
        base = program_fingerprint(program)
        seen = {base: "base"}
        mutants = list(_mutants(program))
        for field_name, mutant in mutants:
            fp = program_fingerprint(mutant)
            assert fp not in seen, (field_name, seen.get(fp))
            seen[fp] = field_name
        assert len(mutants) == 25

    def test_equal_content_equal_fingerprint(self):
        a = generate_test_case(KNOBS, GenerationOptions(loop_size=80))
        b = generate_test_case(KNOBS, GenerationOptions(loop_size=80))
        assert a is not b
        assert program_fingerprint(a) == program_fingerprint(b)
        assert program_fingerprint(a) == \
            program_fingerprint(ProgramColumns.lower(a))

    def test_v2_store_entries_are_never_loaded(self, tmp_path):
        v2 = hashlib.sha256(b"trace-artifact-v2").hexdigest()[:12]
        program = generate_test_case(KNOBS, GenerationOptions(loop_size=60))
        artifact = TraceArtifact.build(program, 2_000)
        DiskArtifactStore(tmp_path, schema=v2).put(artifact)
        store = DiskArtifactStore(tmp_path)
        assert store.schema != v2
        assert store.get(artifact.fingerprint, artifact.instructions) is None
        cache = TraceArtifactCache(maxsize=2, store=store)
        assert cache.get_or_build(program, 2_000) is not artifact
        assert store.misses == 2 and store.hits == 0

    @given(lattice_config, st.integers(2, 4))
    @settings(max_examples=20, deadline=None)
    def test_generation_fingerprint_contract(self, knobs, factor):
        """Equal generation keys generate equal program fingerprints."""
        from repro.codegen.wrapper import KNOB_INSTRUCTIONS

        scaled = {k: v * factor if k in KNOB_INSTRUCTIONS else v
                  for k, v in knobs.items()}
        options = GenerationOptions(loop_size=60)
        assert generation_fingerprint(knobs, options) == \
            generation_fingerprint(scaled, options)
        assert program_fingerprint(generate_test_case(knobs, options)) == \
            program_fingerprint(generate_test_case(scaled, options))


class TestBranchDrawMemo:
    def test_memo_is_bounded_in_draws(self):
        memo = BranchDrawMemo(max_draws=24)
        for seed in range(10):
            memo.stacked([seed], 8)
        assert (len(memo), memo.size) == (3, 24)
        memo.stacked([0], 20)  # evicts LRU seeds until 20 draws fit
        assert (len(memo), memo.size) == (1, 20)
        oversized = memo.stacked([5], 25)  # served, never stored
        assert np.array_equal(oversized[0],
                              np.random.default_rng(5).random(25))
        assert (len(memo), memo.size) == (1, 20)

    def test_rows_equal_fresh_generators(self):
        memo = BranchDrawMemo()
        rows = memo.stacked([5, 9, 5], 12)
        for row, seed in zip(rows, [5, 9, 5]):
            assert np.array_equal(row, np.random.default_rng(seed).random(12))

    def test_threads_hammering_a_small_memo(self):
        """More threads than cores, fast switching, constant eviction and
        window growth: every row still equals a fresh generator's."""
        import sys
        import threading

        memo = BranchDrawMemo(max_draws=40)
        expected = {(seed, count): np.random.default_rng(seed).random(count)
                    for seed in range(8) for count in (6, 10, 14)}
        failures = []

        def hammer(worker):
            for step in range(150):
                seeds = [(worker + step + k) % 8 for k in range(3)]
                count = (6, 10, 14)[(worker * 7 + step) % 3]
                rows = memo.stacked(seeds, count)
                for seed, row in zip(seeds, rows):
                    if not np.array_equal(row, expected[seed, count]):
                        failures.append((seed, count))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(w,))
                       for w in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert memo.size <= 40
        assert memo.size == sum(len(memo._draws[s]) for s in memo._draws)

    def test_global_cache_clear_empties_the_memo(self):
        program = generate_test_case(KNOBS, GenerationOptions(loop_size=60))
        expand(program, 10)
        assert len(BRANCH_DRAWS) > 0
        GLOBAL_ARTIFACT_CACHE.clear()
        assert len(BRANCH_DRAWS) == 0

    def test_thread_campaign_bit_identical_to_serial(self):
        """Two evaluation threads share the draw memo and the global
        artifact cache; the tuner trajectory must not notice."""
        from repro.core.config import MicroGradConfig
        from repro.core.framework import MicroGrad
        from repro.tuning.brute import CLASS_KNOB_NAMES

        def campaign(backend, jobs):
            GLOBAL_ARTIFACT_CACHE.clear()
            config = MicroGradConfig(
                use_case="stress", metrics=("ipc",), maximize=False,
                core="small", tuner="gd", knobs=CLASS_KNOB_NAMES,
                fixed_knobs=dict(REG_DIST=4, MEM_SIZE=64, MEM_STRIDE=64,
                                 MEM_TEMP1=1, MEM_TEMP2=1, B_PATTERN=0.5),
                max_epochs=3, loop_size=120, instructions=3_000, seed=7,
                backend=backend, jobs=jobs,
            )
            return MicroGrad(config).run()

        serial = campaign("serial", 1)
        threaded = campaign("thread", 2)
        assert threaded.knobs == serial.knobs
        assert threaded.metrics == serial.metrics
        assert threaded.tuning.best_loss == serial.tuning.best_loss
        assert [repr(h) for h in threaded.tuning.history] == \
            [repr(h) for h in serial.tuning.history]


class TestStageOneSpans:
    def test_expansion_and_depgraph_have_their_own_spans(self, monkeypatch):
        """Lazy expansion is timed as ``trace.expand``, not inside
        ``events.memory``; the critical path as ``trace.depgraph``."""
        import time

        from repro import obs
        from repro.sim import Simulator, artifact as artifact_module

        real_expand = artifact_module.expand

        def slow_expand(*args, **kwargs):
            time.sleep(0.05)
            return real_expand(*args, **kwargs)

        monkeypatch.setattr(artifact_module, "expand", slow_expand)
        program = generate_test_case(KNOBS, GenerationOptions(loop_size=60))
        artifact = TraceArtifact.build(program, 3_000)
        with obs.collect() as scope:
            Simulator(SMALL_CORE).run(program, instructions=3_000,
                                      artifact=artifact)
        timers = scope.snapshot().timers
        assert timers["trace.expand"].count == 1
        assert timers["trace.expand"].total_s >= 0.05
        assert timers["trace.depgraph"].count == 1
        assert timers["events.memory"].total_s < 0.05
        assert timers["events.branch"].total_s < 0.05
