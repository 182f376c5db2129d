"""Summary statistics and the trajectory digest of the benchmark.

Pure functions only, so the unit tests can pin every rule the printed
numbers follow: the median and quartile spread, the tail-percentile
rule, and the digest that gates correctness.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import statistics
from typing import Sequence

#: Percentiles a tail may be reported at, lowest first.
TAIL_LADDER = (50.0, 60.0, 70.0, 75.0, 80.0, 90.0, 95.0, 98.0, 99.0,
               99.5, 99.9)
#: A tail percentile needs at least this many samples above it.
MIN_BEYOND = 10
#: Significant digits floats keep in the digest.  Twelve digits is far
#: below any difference a real change makes, and far above the last-bit
#: drift a different numpy build could cause in a summed float.
DIGEST_DIGITS = 12


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sample."""
    return float(statistics.median(values))


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, the run-to-run spread of a set of runs.

    Quartiles are ``statistics.quantiles(values, n=4)`` (the exclusive
    method), the same rule a comparison of two sets of runs uses.
    """
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf


def _rank(percentile: float, n: int) -> int:
    """1-based nearest rank of ``percentile`` in ``n`` sorted samples."""
    return max(1, math.ceil(percentile / 100.0 * n - 1e-9))


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with ``MIN_BEYOND`` samples above it.

    The sample at nearest rank ``r`` has ``n - r`` samples beyond it.
    Below ``2 * MIN_BEYOND`` samples no percentile qualifies and the
    median (50) is returned; :func:`tail` reports how many samples
    were actually beyond it, so the shortfall is visible.
    """
    best = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if n - _rank(p, n) >= MIN_BEYOND:
            best = p
    return best


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    return float(ordered[_rank(p, len(ordered)) - 1])


def tail(values: Sequence[float]) -> dict:
    """The tail of a pooled sample: percentile, value and counts.

    Returns ``{"percentile", "value", "samples", "beyond"}``; the value
    is the nearest-rank sample at the percentile that
    :func:`tail_percentile` picks for this sample count.
    """
    n = len(values)
    p = tail_percentile(n)
    return {"percentile": p, "value": percentile(values, p),
            "samples": n, "beyond": n - _rank(p, n)}


def _canon(value):
    """JSON-stable form of a config or metric value."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, numbers.Integral):
        return int(value)
    number = float(value)
    if not math.isfinite(number):
        return repr(number)
    return float(f"{number:.{DIGEST_DIGITS}g}")


def trajectory_digest(best_config: dict, best_metrics: dict,
                      epoch_best_losses: Sequence[float]) -> str:
    """Digest of a tuning trajectory: what the correctness gate compares.

    Covers the best configuration, its metrics and the best loss after
    every epoch, so a change that alters any step of the search, not
    just where it ends, changes the digest.
    """
    payload = {
        "best_config": {str(k): _canon(v) for k, v in best_config.items()},
        "best_metrics": {str(k): _canon(v)
                         for k, v in best_metrics.items()},
        "epoch_best_loss": [_canon(v) for v in epoch_best_losses],
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def check_digest(goldens: dict, key: str, seed: int, digest: str) -> bool:
    """True when ``digest`` equals the recorded one for (key, seed).

    A missing record is a failure, not a pass: an unrecorded seed has
    no reference to be correct against.
    """
    return goldens.get(key, {}).get(str(seed)) == digest
