"""How fast the host runs right now, from a fixed reference kernel.

A shared host's speed drifts by tens of percent over seconds to
minutes, with the load of its other tenants, and often by more than the
change a benchmark is meant to see.  The benchmark therefore times this
kernel between campaigns and reports every time in *reference
seconds*: host seconds scaled by the host's speed at the time, so that
a slow spell of the host does not read as a slow program.

The kernel uses nothing from the program under test, only Python and
numpy, so a change to the program cannot move it.  It mixes what a
campaign spends its time on: interpreter work on dicts, lists and
tuples, and numpy passes over arrays that overflow the private caches.
It allocates almost nothing, so the state of the heap a campaign leaves
behind does not change its time.
"""

from __future__ import annotations

import time

import numpy as np

#: Seconds a probe runs the kernel for, at least.
PROBE_S = 0.1
#: Seconds one kernel call takes on the reference host (a 2-vCPU Xeon
#: VM with numpy 2.4, Python 3.11), so reference seconds stay near host
#: seconds there.
REFERENCE_CALL_S = 0.0028

_N = 1 << 19
_ARRAY = np.random.default_rng(7).random(_N)
_INDEX = np.random.default_rng(8).integers(0, _N, _N // 4)
_GATHERED = np.empty(_N // 4)
_SORTED = np.empty(_N // 4)
_PAIRS = [(i * 7919 % 1009, i % 13) for i in range(8000)]
_TABLE = {k: k * 3 + 1 for k in range(1009)}


def _kernel() -> float:
    total = 0
    for key, step in _PAIRS:
        total += _TABLE[key] if step & 1 else step
    np.take(_ARRAY, _INDEX, out=_GATHERED)
    np.copyto(_SORTED, _GATHERED)
    _SORTED.sort()
    return total + float(_SORTED[0])


def probe(seconds: float = PROBE_S) -> float:
    """The host's speed now: reference kernel time over measured time.

    Runs the kernel for ``seconds``.  1.0 is the reference host; 0.5
    means the host runs at half its speed, so one host second is half a
    reference second.  The kernel's data is warmed before the clock
    starts.
    """
    _kernel()
    calls = 0
    start = now = time.perf_counter()
    while now - start < seconds:
        _kernel()
        calls += 1
        now = time.perf_counter()
    return calls * REFERENCE_CALL_S / (now - start)
