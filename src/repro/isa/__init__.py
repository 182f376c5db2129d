"""ISA substrate: a RISC-V-like instruction set for synthetic test cases.

The paper generates RISC-V test cases with Microprobe and runs them on Gem5.
This package provides the in-memory equivalent: register files, instruction
definitions grouped into microarchitectural classes, an ``Instruction`` /
``Program`` representation that the code generator builds and the simulator
consumes directly, and a textual assembly writer for inspection.
"""

from repro.isa.registers import Register, RegisterFile, RegisterKind
from repro.isa.instructions import (
    InstrClass,
    InstructionDef,
    INSTRUCTION_SET,
    instruction_def,
    defs_by_class,
    CLASS_GROUPS,
    class_of_group,
)
from repro.isa.columns import ProgramColumns
from repro.isa.program import (
    BranchBehavior,
    Instruction,
    MemoryAccess,
    Program,
)
from repro.isa.assembler import program_to_asm

__all__ = [
    "Register",
    "RegisterFile",
    "RegisterKind",
    "InstrClass",
    "InstructionDef",
    "INSTRUCTION_SET",
    "instruction_def",
    "defs_by_class",
    "CLASS_GROUPS",
    "class_of_group",
    "BranchBehavior",
    "Instruction",
    "MemoryAccess",
    "Program",
    "ProgramColumns",
    "program_to_asm",
]
