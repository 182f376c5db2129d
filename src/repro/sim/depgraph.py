"""Register dependency-graph analysis of the loop body.

The timing model needs the data-dependency throughput bound: the critical
path length added per loop iteration in steady state, including loop-carried
dependencies.  Unrolling the body a few iterations and taking the increment
of the longest finish time converges to that bound because the dependence
structure is periodic.
"""

from __future__ import annotations

import numpy as np

from repro.isa.columns import CLASSES, NUM_REGISTER_IDS, ProgramColumns
from repro.isa.instructions import InstrClass
from repro.isa.program import Program
from repro.sim.config import CoreConfig

#: Operand shape the dependency walk is unrolled for: the widest
#: definitions of the instruction set (``FMADD.D``: three sources; at
#: most one destination).
MAX_SOURCES = 3
MAX_DESTINATIONS = 1
#: Scratch register slots of the walk: padding sources read a slot that
#: always holds 0, padding destinations write one that is never read.
_ZERO_SLOT = NUM_REGISTER_IDS
_SINK_SLOT = NUM_REGISTER_IDS + 1


def _padded(matrix: np.ndarray, width: int, pad: int) -> np.ndarray:
    """``matrix`` widened to exactly ``width`` columns of slot ids."""
    if matrix.shape[1] > width:
        raise ValueError(
            f"dependency walk supports at most {width} operands per "
            f"side, got {matrix.shape[1]}"
        )
    out = np.full((len(matrix), width), pad, dtype=np.int64)
    out[:, :matrix.shape[1]] = np.where(matrix < 0, pad, matrix)
    return out


def instruction_latency(iclass_latency: int, iclass: InstrClass,
                        core: CoreConfig) -> float:
    """Effective dataflow latency of one instruction.

    Loads use the L1D hit latency (miss stalls are charged separately by
    the interval model); everything else uses its definition latency.
    """
    if iclass is InstrClass.LOAD:
        return float(core.l1d.latency)
    if iclass is InstrClass.STORE:
        return 1.0
    return float(iclass_latency)


def critical_path_per_iteration(
    program: Program | ProgramColumns, core: CoreConfig, unroll: int = 6
) -> float:
    """Steady-state critical path cycles added per loop iteration.

    Performs longest-path dynamic programming over ``unroll`` copies of the
    body, honouring register dependencies (including loop-carried ones),
    and returns the increment between the last two iterations' completion
    times.  The walk runs over plain register-id lists, with no
    ``Register`` or ``Enum`` hashing; every latency is integral, so every
    sum is exact.
    """
    columns = (program if isinstance(program, ProgramColumns)
               else ProgramColumns.lower(program))
    if not len(columns):
        return 0.0
    # instruction_latency once per distinct (class, latency) pair.
    pairs, inverse = np.unique(
        np.column_stack([columns.class_ids, columns.latencies]),
        axis=0, return_inverse=True,
    )
    per_pair = [instruction_latency(latency, CLASSES[class_id], core)
                for class_id, latency in pairs.tolist()]
    latencies = [per_pair[i] for i in inverse.reshape(-1).tolist()]
    srcs = _padded(columns.srcs, MAX_SOURCES, _ZERO_SLOT)
    dests = _padded(columns.dests, MAX_DESTINATIONS, _SINK_SLOT)
    body = list(zip(latencies, *srcs.T.tolist(), dests[:, 0].tolist()))
    last_write = [0.0] * (NUM_REGISTER_IDS + 2)
    totals: list[float] = []
    finish_max = 0.0
    for _ in range(unroll):
        for latency, src0, src1, src2, dst in body:
            ready = last_write[src0]
            other = last_write[src1]
            if other > ready:
                ready = other
            other = last_write[src2]
            if other > ready:
                ready = other
            finish = ready + latency
            last_write[dst] = finish
            if finish > finish_max:
                finish_max = finish
        totals.append(finish_max)
    if len(totals) < 2:
        return totals[0]
    return max(0.0, totals[-1] - totals[-2])
