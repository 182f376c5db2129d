"""Program representation shared by the code generator and the simulator.

A :class:`Program` is a straight-line body of ~500 static instructions wrapped
in an endless loop (the paper's test-case shape, Section IV-A1).  Dynamic
behaviour that varies per loop iteration is attached declaratively:

* memory instructions carry a :class:`MemoryAccess` describing the stream
  they belong to (base, footprint, stride, temporal-locality window), from
  which the simulator expands the exact address of every dynamic instance;
* conditional branches carry a :class:`BranchBehavior` mixing a fully
  predictable periodic pattern with per-iteration random outcomes at the
  knob-controlled randomization ratio.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.isa.columns import ProgramColumns, validate_program
from repro.isa.instructions import InstrClass, InstructionDef, class_of_group
from repro.isa.registers import Register


@dataclass
class MemoryAccess:
    """Declarative address generator for one memory instruction.

    The dynamic instance ``t`` (0-based loop iteration) of the owning
    instruction accesses::

        base + (index(t) * stride) % footprint

    where ``index`` walks the stream honouring temporal locality: addresses
    are revisited in windows of ``reuse_count`` distinct elements, each
    window being swept ``reuse_period`` times before the stream moves on.
    ``reuse_period == 1`` degenerates to a pure strided stream.

    Attributes:
        stream_id: identifier of the generating memory stream.
        base: starting virtual address of the stream.
        footprint: stream footprint in bytes (wraps around).
        stride: bytes between consecutive distinct accesses.
        reuse_count: distinct addresses per temporal-reuse window (>= 1).
        reuse_period: sweeps of each window before advancing (>= 1).
        phase: position of this instruction within the stream's collective
            walk (its order among the stream's instructions).
        step: stream positions consumed per loop iteration — the number of
            instructions sharing the stream, so the stream advances
            collectively instead of once per instruction.
    """

    stream_id: int
    base: int
    footprint: int
    stride: int
    reuse_count: int = 1
    reuse_period: int = 1
    phase: int = 0
    step: int = 1

    def __post_init__(self) -> None:
        if self.footprint <= 0:
            raise ValueError("footprint must be positive")
        if self.stride <= 0:
            raise ValueError("stride must be positive")
        if self.reuse_count < 1 or self.reuse_period < 1:
            raise ValueError("temporal locality parameters must be >= 1")
        if self.step < 1:
            raise ValueError("step must be >= 1")

    def indices(self, iterations: int) -> np.ndarray:
        """Distinct-address index for iterations ``0..iterations-1``."""
        t = self.phase + self.step * np.arange(iterations, dtype=np.int64)
        window = self.reuse_count * self.reuse_period
        window_id = t // window
        offset = t % window
        return window_id * self.reuse_count + offset % self.reuse_count

    def addresses(self, iterations: int) -> np.ndarray:
        """Virtual address of each dynamic instance of the instruction."""
        idx = self.indices(iterations)
        return self.base + (idx * self.stride) % self.footprint


@dataclass
class BranchBehavior:
    """Per-iteration outcome generator for one conditional branch.

    Outcomes follow a fully predictable periodic base pattern; each
    iteration is independently replaced by a random outcome with
    probability ``random_ratio`` (the paper's ``B_PATTERN`` knob).

    Attributes:
        pattern: base taken/not-taken pattern, repeated cyclically.
        random_ratio: fraction of outcomes drawn at random (0..1).
        seed: RNG seed so expansion is deterministic per instruction.
        taken_bias: probability a randomized outcome is taken.
    """

    pattern: tuple[bool, ...] = (True, False)
    random_ratio: float = 0.0
    seed: int = 0
    taken_bias: float = 0.5

    def __post_init__(self) -> None:
        if not self.pattern:
            raise ValueError("pattern must be non-empty")
        if not 0.0 <= self.random_ratio <= 1.0:
            raise ValueError("random_ratio must be within [0, 1]")

    def outcomes(self, iterations: int) -> np.ndarray:
        """Boolean taken/not-taken outcome per loop iteration."""
        base = np.resize(np.asarray(self.pattern, dtype=bool), iterations)
        if self.random_ratio == 0.0:
            return base
        rng = np.random.default_rng(self.seed)
        randomized = rng.random(iterations) < self.random_ratio
        random_outcome = rng.random(iterations) < self.taken_bias
        return np.where(randomized, random_outcome, base)


@dataclass
class Instruction:
    """One static instruction of the generated loop body.

    Attributes:
        idef: static definition (mnemonic, class, latency, ...).
        dests: destination registers (possibly empty).
        srcs: source registers.
        immediate: immediate operand when the encoding carries one.
        address: byte address (PC) assigned by the address-update pass.
        memory: address generator, for loads/stores only.
        branch: outcome generator, for conditional branches only.
        label: optional label preceding the instruction.
        comment: free-form annotation carried into the assembly dump.
    """

    idef: InstructionDef
    dests: list[Register] = field(default_factory=list)
    srcs: list[Register] = field(default_factory=list)
    immediate: int | None = None
    address: int | None = None
    memory: MemoryAccess | None = None
    branch: BranchBehavior | None = None
    label: str | None = None
    comment: str | None = None

    @property
    def mnemonic(self) -> str:
        return self.idef.mnemonic

    @property
    def iclass(self) -> InstrClass:
        return self.idef.iclass

    @property
    def group(self) -> str:
        """Reporting group (integer / float / branch / load / store)."""
        return class_of_group(self.idef.iclass)

    def validate(self) -> None:
        """Check operand counts and per-class attachments.

        Raises:
            ValueError: if the instruction is malformed (see
                :func:`~repro.isa.columns.validate_program`).
        """
        Program(body=[self]).validate()


@dataclass
class Program:
    """A generated test case: a loop body plus metadata.

    The body executes as an endless loop (a final always-taken back edge is
    implicit; the generator materializes it as the last instruction).  The
    ``metadata`` dict records provenance, e.g. the knob configuration the
    generator was invoked with.
    """

    body: list[Instruction] = field(default_factory=list)
    entry_address: int = 0x10000
    metadata: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.body)

    def __iter__(self):
        return iter(self.body)

    def validate(self) -> None:
        """Validate every instruction in the body.

        Raises:
            ValueError: on an empty body, or naming the first malformed
                instruction (see :func:`~repro.isa.columns.validate_program`).
        """
        validate_program(self)

    def class_counts(self) -> dict[InstrClass, int]:
        """Static instruction count per microarchitectural class."""
        return ProgramColumns.lower(self).class_counts()

    def group_fractions(self) -> dict[str, float]:
        """Static distribution over reporting groups (sums to 1)."""
        return ProgramColumns.lower(self).group_fractions()

    def memory_instructions(self) -> list[Instruction]:
        """All loads and stores, in program order."""
        return [i for i in self.body if i.idef.is_memory]

    def branch_instructions(self) -> list[Instruction]:
        """All conditional branches, in program order."""
        return [i for i in self.body if i.idef.is_branch]
