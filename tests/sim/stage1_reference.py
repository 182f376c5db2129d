"""Per-instruction reference implementations of stage-1 analyses.

These are the object-walking forms of :func:`repro.sim.trace.expand` and
:func:`repro.sim.depgraph.critical_path_per_iteration` that the
columnar versions replaced, kept test-only as independent oracles: they
read ``Instruction`` objects and the declarative
:class:`~repro.isa.program.MemoryAccess` / ``BranchBehavior`` methods
directly, never :class:`~repro.isa.columns.ProgramColumns`.
"""

from __future__ import annotations

import numpy as np

from repro.isa.instructions import InstrClass
from repro.isa.program import Program
from repro.sim.config import CoreConfig
from repro.sim.depgraph import instruction_latency
from repro.sim.trace import ExpandedTrace


def reference_class_counts(program: Program) -> dict[InstrClass, int]:
    """Static count per class, in order of first appearance."""
    counts: dict[InstrClass, int] = {}
    for instr in program.body:
        counts[instr.iclass] = counts.get(instr.iclass, 0) + 1
    return counts


def reference_expand(
    program: Program, iterations: int, line_bytes: int = 64
) -> ExpandedTrace:
    """One ``addresses()`` / ``outcomes()`` call per static instruction."""
    if iterations < 1:
        raise ValueError("iterations must be >= 1")

    mem_instrs = program.memory_instructions()
    if mem_instrs:
        # Shape (M, K) per-instruction address streams -> (K, M) -> flat.
        addr_rows = [i.memory.addresses(iterations) for i in mem_instrs]
        addrs = np.stack(addr_rows).T.reshape(-1)
        pcs = np.tile(
            np.asarray([i.address or 0 for i in mem_instrs], dtype=np.int64),
            iterations,
        )
        stores = np.tile(
            np.asarray(
                [i.iclass is InstrClass.STORE for i in mem_instrs], dtype=bool
            ),
            iterations,
        )
        lines = addrs // line_bytes
    else:
        pcs = np.empty(0, dtype=np.int64)
        lines = np.empty(0, dtype=np.int64)
        stores = np.empty(0, dtype=bool)

    br_instrs = program.branch_instructions()
    if br_instrs:
        outcome_rows = [i.branch.outcomes(iterations) for i in br_instrs]
        outcomes = np.stack(outcome_rows).T.reshape(-1)
        br_pcs = np.tile(
            np.asarray([i.address or 0 for i in br_instrs], dtype=np.int64),
            iterations,
        )
    else:
        outcomes = np.empty(0, dtype=bool)
        br_pcs = np.empty(0, dtype=np.int64)

    class_counts = {
        c: n * iterations for c, n in reference_class_counts(program).items()
    }

    return ExpandedTrace(
        iterations=iterations,
        loop_size=len(program),
        line_bytes=line_bytes,
        mem_pcs=pcs,
        mem_lines=lines,
        mem_is_store=stores,
        branch_pcs=br_pcs,
        branch_outcomes=outcomes,
        class_counts=class_counts,
    )


def reference_critical_path(
    program: Program, core: CoreConfig, unroll: int = 6
) -> float:
    """Float longest-path DP keyed by ``Register`` objects."""
    if not program.body:
        return 0.0
    last_write: dict = {}
    totals: list[float] = []
    finish_max = 0.0
    for _ in range(unroll):
        for instr in program.body:
            ready = 0.0
            for src in instr.srcs:
                ready = max(ready, last_write.get(src, 0.0))
            finish = ready + instruction_latency(
                instr.idef.latency, instr.iclass, core
            )
            for dst in instr.dests:
                last_write[dst] = finish
            if finish > finish_max:
                finish_max = finish
        totals.append(finish_max)
    if len(totals) < 2:
        return totals[0]
    return max(0.0, totals[-1] - totals[-2])


def reference_wrap_iterations(program: Program, core: CoreConfig) -> int:
    """Iterations until the slowest relevant stream wraps once."""
    wrap = 0
    for instr in program.memory_instructions():
        mem = instr.memory
        if mem is None or mem.step <= 0:
            continue
        if mem.footprint > 1.2 * core.l2.size_bytes:
            continue
        distinct_per_sweep = max(1, mem.footprint // mem.stride)
        distinct_per_iter = max(1, mem.step // mem.reuse_period)
        wrap = max(wrap, int(distinct_per_sweep / distinct_per_iter) + 1)
    return wrap
