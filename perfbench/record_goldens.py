#!/usr/bin/env python3
"""Record the trajectory digests that gate the benchmark's correctness.

Usage (from the repository root)::

    python3 perfbench/record_goldens.py

Runs one untraced serial campaign per golden seed for each digest key
(``stress`` from stress_gd, which stress_dist must also match, and
``clone`` from clone_ga), one worker process per CPU, and writes
``perfbench/goldens.json``.
Re-record only for a change that is meant to alter tuner trajectories,
and say so with the change: the digests are the reference every later
run is judged against.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

ROOT_DIR = Path(__file__).resolve().parent.parent
GOLDEN_FILE = ROOT_DIR / "perfbench" / "goldens.json"
#: The workload whose campaigns define each digest key.
KEYS = {"stress": "stress_gd", "clone": "clone_ga"}


def _setup_path() -> None:
    for path in (str(ROOT_DIR), str(ROOT_DIR / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)


def _digest(job: tuple[str, int]) -> str:
    _setup_path()
    from perfbench.workloads import WORKLOADS, EpochClock, run_campaign

    name, seed = job
    clock = EpochClock()
    clock.install()
    try:
        return run_campaign(WORKLOADS[name], seed, clock, ROOT_DIR).digest
    finally:
        clock.uninstall()


def main() -> int:
    _setup_path()
    from perfbench import workloads

    goldens = {"shape": workloads.shape()}
    seeds = range(workloads.GOLDEN_SEEDS)
    with ProcessPoolExecutor(
            max_workers=os.cpu_count(),
            mp_context=multiprocessing.get_context("spawn")) as pool:
        for key, name in KEYS.items():
            digests = pool.map(_digest, [(name, s) for s in seeds])
            goldens[key] = {str(s): d for s, d in zip(seeds, digests)}
            print(f"{key}: {len(seeds)} digests from {name}", flush=True)
    GOLDEN_FILE.write_text(json.dumps(goldens, indent=1, sort_keys=True)
                           + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
