"""Dynamic trace expansion.

Generated test cases are fixed loop bodies, so the dynamic trace is the
static body repeated ``K`` iterations with per-iteration memory addresses
and branch outcomes expanded from each instruction's declarative
:class:`~repro.isa.program.MemoryAccess` / ``BranchBehavior``.  Expansion
runs on the program's :class:`~repro.isa.columns.ProgramColumns`: every
memory address is one broadcast over the (M, K) stream-parameter table,
and every branch outcome one ``where`` over stacked (B, K) rows, then
both are interleaved into program order.

Randomized branch outcomes replay ``default_rng(seed)``: a branch's ``K``
outcomes read the stream's first ``2K`` uniform draws.  Codegen derives
every branch seed of a campaign from one base seed, so a few hundred
seeds serve thousands of branch rows; :data:`BRANCH_DRAWS` memoizes each
seed's draw prefix instead of constructing a generator per row.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.isa.columns import STORE_ID, ProgramColumns
from repro.isa.instructions import InstrClass
from repro.isa.program import Program

#: Draws :data:`BRANCH_DRAWS` holds in total: 8 MiB of float64.  The
#: artifact's windows are at most 560 iterations (1120 draws per seed),
#: so the memo holds at least ~900 seeds, and a campaign uses a few
#: hundred.  Least recently used seeds are evicted first.
DRAW_MEMO_DRAWS = 1 << 20


class BranchDrawMemo:
    """Per-seed prefixes of ``np.random.default_rng(seed).random``.

    A stored entry of ``N`` draws serves any request for ``count <= N``
    draws by slicing; a longer request regenerates (and replaces) the
    entry.  Generation happens outside the lock: two threads missing the
    same seed both draw, and either result is the same bytes.
    """

    GUARDED_BY = {"_draws": "_lock", "_size": "_lock"}

    def __init__(self, max_draws: int = DRAW_MEMO_DRAWS):
        if max_draws < 1:
            raise ValueError("draw memo needs max_draws >= 1")
        self.max_draws = max_draws
        self._draws: OrderedDict[int, np.ndarray] = OrderedDict()
        self._size = 0
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._draws)

    @property
    def size(self) -> int:
        """Draws currently held (at most ``max_draws``)."""
        with self._lock:
            return self._size

    def clear(self) -> None:
        with self._lock:
            self._draws.clear()
            self._size = 0

    def stacked(self, seeds: list[int], count: int) -> np.ndarray:
        """(len(seeds), count) matrix: row ``i`` is the first ``count``
        draws of ``default_rng(seeds[i]).random``."""
        rows: dict[int, np.ndarray] = {}
        with self._lock:
            for seed in seeds:
                stored = self._draws.get(seed)
                if stored is not None and len(stored) >= count:
                    self._draws.move_to_end(seed)
                    rows[seed] = stored
        fresh = {
            seed: np.random.default_rng(seed).random(count)
            for seed in seeds if seed not in rows
        }
        if fresh and count <= self.max_draws:
            with self._lock:
                for seed, draws in fresh.items():
                    draws.flags.writeable = False
                    replaced = self._draws.pop(seed, None)
                    if replaced is not None:
                        self._size -= len(replaced)
                    self._draws[seed] = draws
                    self._size += count
                while self._size > self.max_draws:
                    _, evicted = self._draws.popitem(last=False)
                    self._size -= len(evicted)
        rows.update(fresh)
        return np.stack([rows[seed][:count] for seed in seeds])


#: Process-wide draw memo shared by every :func:`expand` call (cleared
#: with :meth:`repro.sim.artifact.TraceArtifactCache.clear`).
BRANCH_DRAWS = BranchDrawMemo()


@dataclass
class ExpandedTrace:
    """The dynamic trace of ``iterations`` runs of a loop body.

    Memory and branch event arrays are flattened in dynamic order
    (iteration-major, program order within an iteration).

    Attributes:
        iterations: number of loop iterations expanded.
        loop_size: static instructions per iteration.
        mem_pcs / mem_lines / mem_is_store: one entry per dynamic memory
            access (line addresses use the given line size).
        branch_pcs / branch_outcomes: one entry per dynamic conditional
            branch instance.
        class_counts: dynamic instruction count per class.
    """

    iterations: int
    loop_size: int
    line_bytes: int
    mem_pcs: np.ndarray
    mem_lines: np.ndarray
    mem_is_store: np.ndarray
    branch_pcs: np.ndarray
    branch_outcomes: np.ndarray
    class_counts: dict[InstrClass, int]
    #: Memoized minimal iteration period of the memory access pattern
    #: (see repro.sim.events._trace_period); None until first computed.
    #: Core-independent, so one detection serves a whole config sweep.
    min_period: int | None = field(default=None, repr=False)
    #: Config-batched kernel scratch (repro.sim.events): precomputed
    #: trace columns (set indices, pages, LRU recency ranks, packed
    #: branch histories) shared across the core configs of a batch.
    #: Derived data only — excluded from pickles so persisted artifacts
    #: stay small and loadable across schema versions.
    _kernel_cache: dict = field(
        default_factory=dict, repr=False, compare=False
    )

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_kernel_cache", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        # Traces pickled before the config-batched engine (or by
        # __getstate__ above) carry no scratch; rebuild lazily.
        self.__dict__.setdefault("_kernel_cache", {})

    @property
    def total_instructions(self) -> int:
        return self.iterations * self.loop_size


def expand(
    program: Program | ProgramColumns, iterations: int, line_bytes: int = 64
) -> ExpandedTrace:
    """Expand ``iterations`` loop iterations of ``program`` into a trace.

    Args:
        program: a generated (validated) test case, or its columns.
        iterations: loop iterations to expand (>= 1).
        line_bytes: cache line size used for line-address conversion.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    columns = (program if isinstance(program, ProgramColumns)
               else ProgramColumns.lower(program))

    mem_rows, stream = columns.memory_streams()
    # (M, 1) parameter columns broadcast against the (1, K) iterations.
    p = {name: column[:, None] for name, column in stream.items()}
    t = p["phase"] + p["step"] * np.arange(iterations, dtype=np.int64)
    window = p["reuse_count"] * p["reuse_period"]
    index = t // window * p["reuse_count"] + t % window % p["reuse_count"]
    addrs = p["base"] + (index * p["stride"]) % p["footprint"]
    lines = addrs.T.reshape(-1) // line_bytes
    pcs = np.tile(columns.pcs[mem_rows], iterations)
    stores = np.tile(columns.class_ids[mem_rows] == STORE_ID, iterations)

    selected = columns.branch_selection()
    ratio = columns.br_random_ratio[selected]
    # Each distinct base pattern is tiled once, then gathered per row.
    tiled = np.zeros((len(columns.pattern_offsets) - 1, iterations),
                     dtype=bool)
    for pattern_id in range(len(tiled)):
        tiled[pattern_id] = np.resize(columns.pattern(pattern_id), iterations)
    outcomes = tiled[columns.br_pattern_ids[selected]]
    randomized = np.flatnonzero(ratio != 0.0)
    if len(randomized):
        draws = BRANCH_DRAWS.stacked(
            columns.br_seeds[selected][randomized].tolist(), 2 * iterations
        )
        bias = columns.br_taken_bias[selected][randomized, None]
        outcomes[randomized] = np.where(
            draws[:, :iterations] < ratio[randomized, None],
            draws[:, iterations:] < bias,
            outcomes[randomized],
        )
    br_pcs = np.tile(columns.pcs[columns.br_rows[selected]], iterations)

    return ExpandedTrace(
        iterations=iterations,
        loop_size=len(columns),
        line_bytes=line_bytes,
        mem_pcs=pcs,
        mem_lines=lines,
        mem_is_store=stores,
        branch_pcs=br_pcs,
        branch_outcomes=outcomes.T.reshape(-1),
        class_counts={
            c: n * iterations for c, n in columns.class_counts().items()
        },
    )
