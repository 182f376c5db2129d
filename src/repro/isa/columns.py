"""Struct-of-arrays lowering of a :class:`~repro.isa.program.Program`.

The code generator builds programs as lists of :class:`Instruction`
objects, but everything the simulator's stage 1 derives from a program —
its content fingerprint, structural validation, static class counts,
the expanded dynamic trace and the dependency critical path — is
array-shaped.  :meth:`ProgramColumns.lower` walks the body once and
packs it into read-only numpy columns, so those consumers run as a few
vectorized operations instead of per-instruction object walks.

Column layout (``N`` instructions, ``M`` memory rows, ``B`` branch rows):

* ``mnemonics``, ``class_ids`` (index into :data:`CLASSES`),
  ``latencies``, ``pcs`` / ``has_pc`` and ``immediates`` /
  ``has_immediate`` — one entry per instruction;
* ``srcs`` / ``dests`` — (N, width) register-id matrices, ``-1`` padded;
  register ids are ``x0..x31 -> 0..31`` and ``f0..f31 -> 32..63``;
* ``expected_srcs`` / ``expected_dests`` (from the definition) and
  ``src_counts`` / ``dest_counts`` (actual operands);
* ``mem_table`` — (M, 8) :data:`MEM_FIELDS` parameters of every attached
  :class:`MemoryAccess`, with ``mem_rows`` their instruction indices;
* ``br_pattern_ids`` / ``br_random_ratio`` / ``br_taken_bias`` /
  ``br_seeds`` — one entry per attached :class:`BranchBehavior`, with
  ``br_rows`` their instruction indices; distinct base patterns are
  stored once, concatenated in ``pattern_bits`` and delimited by
  ``pattern_offsets``;
* the metadata scalars the timing model reads: ``entry_address``,
  ``code_bytes``, ``dependency_distance`` and ``stream_count``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from itertools import chain, repeat
from operator import attrgetter, is_not

import numpy as np

from repro.isa.instructions import InstrClass, class_of_group
from repro.isa.registers import RegisterKind

#: Class ids index this tuple.
CLASSES: tuple[InstrClass, ...] = tuple(InstrClass)
CLASS_IDS: dict[InstrClass, int] = {c: i for i, c in enumerate(CLASSES)}
LOAD_ID = CLASS_IDS[InstrClass.LOAD]
STORE_ID = CLASS_IDS[InstrClass.STORE]
BRANCH_ID = CLASS_IDS[InstrClass.BRANCH]
#: Reporting group of each class id ("other" for nop).
CLASS_GROUP_NAMES: tuple[str, ...] = tuple(map(class_of_group, CLASSES))

#: Register ids span both 32-entry files.
NUM_REGISTER_IDS = 64
_FP = RegisterKind.FP

#: Columns of ``mem_table``, in :class:`MemoryAccess` field order.
MEM_FIELDS = ("stream_id", "base", "footprint", "stride", "reuse_count",
              "reuse_period", "phase", "step")
_mem_params = attrgetter(*MEM_FIELDS)
_instruction_fields = attrgetter("idef", "srcs", "dests", "address",
                                 "immediate", "memory", "branch")
_structure_fields = attrgetter("idef", "srcs", "dests", "memory", "branch")
_random_ratio = attrgetter("random_ratio")
_taken_bias = attrgetter("taken_bias")
_seed = attrgetter("seed")


def _lengths(rows) -> np.ndarray:
    return np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))


def _present(values) -> np.ndarray:
    return np.fromiter(map(is_not, values, repeat(None)), dtype=bool,
                       count=len(values))


def _register_id(reg) -> int:
    if not 0 <= reg.index < 32:
        raise ValueError(f"register index out of range: {reg!r}")
    return reg.index + 32 if reg.kind is _FP else reg.index


def _distinct(objects) -> tuple[list, np.ndarray]:
    """The distinct objects (by identity) of a sequence, and the index of
    each element's object among them."""
    ids = np.fromiter(map(id, objects), dtype=np.uint64, count=len(objects))
    _, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    return [objects[i] for i in first.tolist()], inverse.reshape(-1)


def _register_matrix(rows) -> tuple[np.ndarray, np.ndarray]:
    """(len(rows), widest row) int8 register-id matrix, ``-1`` padded,
    and the operand count of each row.

    Codegen draws operands from a few dozen shared ``Register`` objects,
    so each distinct object is converted once, then gathered.
    """
    counts = _lengths(rows)
    flat = list(chain.from_iterable(rows))
    registers, inverse = _distinct(flat)
    ids = np.array([_register_id(r) for r in registers], dtype=np.int8)
    width = int(counts.max()) if len(rows) else 0
    matrix = np.full((len(rows), width), -1, dtype=np.int8)
    if len(flat):
        owner = np.repeat(np.arange(len(rows)), counts)
        starts = np.cumsum(counts) - counts
        matrix[owner, np.arange(len(flat)) - starts[owner]] = ids[inverse]
    return matrix, counts.astype(np.int8)


def _definition_columns(idefs) -> tuple[np.ndarray, np.ndarray]:
    """Mnemonic column and (N, 4) ``(class id, latency, num_src, num_dst)``
    table of a sequence of instruction definitions.

    Each distinct definition object is read once, then gathered.
    """
    distinct, inverse = _distinct(idefs)
    table = np.array(
        [(CLASS_IDS[d.iclass], d.latency, d.num_src, d.num_dst)
         for d in distinct],
        dtype=np.int64,
    ).reshape(len(distinct), 4)
    names = np.array([d.mnemonic for d in distinct], dtype=str)
    return names[inverse], table[inverse]


def _optional_ints(values) -> tuple[np.ndarray, np.ndarray]:
    """int64 column of possibly-``None`` ints (``None`` -> 0) and its
    presence mask."""
    present = _present(values)
    column = np.array(values, dtype=object)
    column[~present] = 0
    return column.astype(np.int64), present


def _check_structure(mnemonics, class_ids, expected_dests, dest_counts,
                     expected_srcs, src_counts, has_memory,
                     has_branch) -> None:
    """The structural checks, as five vectorized masks; raises naming the
    first bad instruction, its checks in the order dests, srcs, memory
    stream present / absent, branch behaviour present."""
    if not len(class_ids):
        raise ValueError("program body is empty")
    is_memory = (class_ids == LOAD_ID) | (class_ids == STORE_ID)
    checks = np.stack([
        dest_counts != expected_dests,
        src_counts != expected_srcs,
        is_memory & ~has_memory,
        ~is_memory & has_memory,
        (class_ids == BRANCH_ID) & ~has_branch,
    ])
    bad = checks.any(axis=0)
    if not bad.any():
        return
    row = int(np.argmax(bad))
    check = int(np.argmax(checks[:, row]))
    name = str(mnemonics[row])
    if check == 0:
        raise ValueError(f"{name}: expected {expected_dests[row]} dests, "
                         f"got {dest_counts[row]}")
    if check == 1:
        raise ValueError(f"{name}: expected {expected_srcs[row]} srcs, "
                         f"got {src_counts[row]}")
    raise ValueError(f"{name}: " + (
        "memory instruction lacks a stream",
        "non-memory instruction has a stream",
        "branch lacks a behaviour",
    )[check - 2])


def validate_program(program) -> None:
    """Structurally validate ``program`` (a
    :class:`~repro.isa.program.Program`).

    Runs the same checks as :meth:`ProgramColumns.validate` over only the
    columns they read, without lowering registers, addresses or the
    memory/branch parameter tables: codegen's verify pass runs this on
    every generated program, and the artifact later lowers the program
    in full anyway.

    Raises:
        ValueError: on an empty body, or naming the first malformed
            instruction's mnemonic.
    """
    body = program.body
    if not body:
        raise ValueError("program body is empty")
    idefs, srcs, dests, mems, brs = zip(*map(_structure_fields, body))
    mnemonics, definitions = _definition_columns(idefs)
    _check_structure(
        mnemonics, definitions[:, 0], definitions[:, 3], _lengths(dests),
        definitions[:, 2], _lengths(srcs), _present(mems), _present(brs),
    )


@dataclass(frozen=True, eq=False)
class ProgramColumns:
    """Read-only columnar view of one program (see the module docstring).

    Build with :meth:`lower`.  The view is a snapshot: mutating the
    source program afterwards does not update it.
    """

    mnemonics: np.ndarray
    class_ids: np.ndarray
    latencies: np.ndarray
    pcs: np.ndarray
    has_pc: np.ndarray
    immediates: np.ndarray
    has_immediate: np.ndarray
    srcs: np.ndarray
    dests: np.ndarray
    expected_srcs: np.ndarray
    expected_dests: np.ndarray
    src_counts: np.ndarray
    dest_counts: np.ndarray
    mem_table: np.ndarray
    mem_rows: np.ndarray
    br_pattern_ids: np.ndarray
    br_random_ratio: np.ndarray
    br_taken_bias: np.ndarray
    br_seeds: np.ndarray
    br_rows: np.ndarray
    pattern_bits: np.ndarray
    pattern_offsets: np.ndarray
    entry_address: int
    code_bytes: int
    dependency_distance: float
    stream_count: int

    @classmethod
    def lower(cls, program) -> "ProgramColumns":
        """Pack ``program`` (a :class:`~repro.isa.program.Program`).

        The walk is a handful of C-level ``map`` passes over the body
        rather than a Python loop per instruction.
        """
        body = program.body
        n = len(body)
        idefs, srcs, dests, pcs, imms, mems, brs = (
            zip(*map(_instruction_fields, body)) if n else ((),) * 7
        )
        mnemonics, definitions = _definition_columns(idefs)
        mem_rows = [row for row, m in enumerate(mems) if m is not None]
        br_rows = [row for row, b in enumerate(brs) if b is not None]
        mem_objs = [mems[row] for row in mem_rows]
        br_objs = [brs[row] for row in br_rows]
        patterns: dict[tuple, int] = {}
        pattern_ids = [
            patterns.setdefault(tuple(b.pattern), len(patterns))
            for b in br_objs
        ]
        pattern_lengths = np.fromiter(map(len, patterns), dtype=np.int64,
                                      count=len(patterns))
        src_matrix, src_counts = _register_matrix(srcs)
        dest_matrix, dest_counts = _register_matrix(dests)
        pc_values, has_pc = _optional_ints(pcs)
        imm_values, has_imm = _optional_ints(imms)
        meta = program.metadata
        return cls(
            mnemonics=mnemonics,
            class_ids=definitions[:, 0].astype(np.int8),
            latencies=definitions[:, 1].copy(),
            pcs=pc_values,
            has_pc=has_pc,
            immediates=imm_values,
            has_immediate=has_imm,
            srcs=src_matrix,
            dests=dest_matrix,
            expected_srcs=definitions[:, 2].astype(np.int8),
            expected_dests=definitions[:, 3].astype(np.int8),
            src_counts=src_counts,
            dest_counts=dest_counts,
            mem_table=np.fromiter(
                chain.from_iterable(map(_mem_params, mem_objs)),
                dtype=np.int64, count=len(mem_objs) * len(MEM_FIELDS),
            ).reshape(len(mem_objs), len(MEM_FIELDS)),
            mem_rows=np.array(mem_rows, dtype=np.int64),
            br_pattern_ids=np.array(pattern_ids, dtype=np.int64),
            br_random_ratio=np.fromiter(map(_random_ratio, br_objs),
                                        dtype=np.float64, count=len(br_objs)),
            br_taken_bias=np.fromiter(map(_taken_bias, br_objs),
                                      dtype=np.float64, count=len(br_objs)),
            br_seeds=np.fromiter(map(_seed, br_objs), dtype=np.int64,
                                 count=len(br_objs)),
            br_rows=np.array(br_rows, dtype=np.int64),
            pattern_bits=np.fromiter(
                chain.from_iterable(patterns), dtype=bool,
                count=int(pattern_lengths.sum())),
            pattern_offsets=np.concatenate(
                ([0], np.cumsum(pattern_lengths))).astype(np.int64),
            entry_address=int(program.entry_address),
            code_bytes=int(meta.get("code_bytes", n * 4)),
            dependency_distance=float(meta.get("dependency_distance", 4)),
            stream_count=len(meta.get("memory_streams") or []),
        )

    def __post_init__(self) -> None:
        for value in self.__dict__.values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    def __setstate__(self, state: dict) -> None:
        # Unpickled arrays come back writeable; keep the view read-only.
        self.__dict__.update(state)
        self.__post_init__()

    def __len__(self) -> int:
        return len(self.class_ids)

    # -- identity ----------------------------------------------------------

    def digest(self) -> str:
        """sha256 over every column's name, dtype, shape and bytes.

        Every field is covered, so equal digests mean equal columns and
        therefore bit-identical traces and dependency graphs.
        """
        hasher = hashlib.sha256()
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, np.ndarray):
                hasher.update(
                    f"{f.name}:{value.dtype.str}:{value.shape};".encode()
                )
                hasher.update(np.ascontiguousarray(value).data)
            else:
                hasher.update(f"{f.name}={value!r};".encode())
        return hasher.hexdigest()

    # -- validation ----------------------------------------------------------

    def validate(self) -> None:
        """Check operand counts and per-class attachments.

        Raises:
            ValueError: on an empty program, or naming the first malformed
                instruction (see :func:`validate_program`).
        """
        has_memory = np.zeros(len(self), dtype=bool)
        has_memory[self.mem_rows] = True
        has_branch = np.zeros(len(self), dtype=bool)
        has_branch[self.br_rows] = True
        _check_structure(
            self.mnemonics, self.class_ids, self.expected_dests,
            self.dest_counts, self.expected_srcs, self.src_counts,
            has_memory, has_branch,
        )

    # -- static summaries ----------------------------------------------------

    def class_histogram(self) -> np.ndarray:
        """Static instruction count per class id."""
        return np.bincount(self.class_ids, minlength=len(CLASSES))

    def class_counts(self, histogram: np.ndarray | None = None
                     ) -> dict[InstrClass, int]:
        """Static count per class, in order of first appearance."""
        if histogram is None:
            histogram = self.class_histogram()
        _, first = np.unique(self.class_ids, return_index=True)
        order = self.class_ids[np.sort(first)].tolist()
        return {CLASSES[c]: int(histogram[c]) for c in order}

    def group_fractions(self, counts: dict[InstrClass, int] | None = None
                        ) -> dict[str, float]:
        """Static distribution over reporting groups (sums to 1)."""
        if counts is None:
            counts = self.class_counts()
        groups: dict[str, int] = {}
        for iclass, count in counts.items():
            group = CLASS_GROUP_NAMES[CLASS_IDS[iclass]]
            groups[group] = groups.get(group, 0) + count
        total = len(self)
        return {g: float(c) / total for g, c in groups.items()}

    def memory_streams(self) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """Instruction rows of the loads/stores, and their
        :data:`MEM_FIELDS` parameters as one column per field."""
        owners = self.class_ids[self.mem_rows]
        selected = (owners == LOAD_ID) | (owners == STORE_ID)
        table = self.mem_table[selected]
        return self.mem_rows[selected], dict(zip(MEM_FIELDS, table.T))

    def branch_selection(self) -> np.ndarray:
        """Row mask of branch-table entries owned by conditional branches."""
        return self.class_ids[self.br_rows] == BRANCH_ID

    def pattern(self, pattern_id: int) -> np.ndarray:
        """Base taken/not-taken pattern ``pattern_id``."""
        lo, hi = self.pattern_offsets[pattern_id:pattern_id + 2]
        return self.pattern_bits[lo:hi]
