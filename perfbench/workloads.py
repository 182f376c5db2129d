"""The three workloads and the closed-loop campaign that runs them.

A campaign is one whole ``MicroGrad(config).run()``: one tuner client
that waits for each epoch's results before it submits the next.  Every
campaign starts with cold in-process caches, because a user pays those
caches on every campaign.  README.md says why each workload was chosen.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import shutil
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Callable

from perfbench.layers import DIST_STARTUP, ROOT
from perfbench.stats import trajectory_digest

#: Campaign seeds with a recorded digest; a run's ``--seed`` picks where
#: its window of consecutive campaign seeds starts.
GOLDEN_SEEDS = 64
#: The quick budget of ``benchmarks/harness.py``, pinned here so the
#: benchmark of record does not move with ``MICROGRAD_BENCH_MODE``.
LOOP_SIZE = 300
INSTRUCTIONS = 8_000
STRESS_EPOCHS = 10
CLONE_EPOCHS = 4
DIST_WORKERS = 2
#: Seconds a dist cluster may take to connect all its workers.
CLUSTER_START_TIMEOUT_S = 60.0


def _stress_config(seed: int, cache_dir: str | None):
    """Fig 5 performance virus: GD minimizing IPC on the small core."""
    from benchmarks.harness import stress_config

    config = stress_config("ipc", maximize=False, core="small", tuner="gd",
                           seed=seed)
    config = dataclasses.replace(
        config, max_epochs=STRESS_EPOCHS, loop_size=LOOP_SIZE,
        instructions=INSTRUCTIONS, backend="serial",
    )
    if cache_dir is None:
        return config
    return dataclasses.replace(
        config, backend="dist", jobs=DIST_WORKERS,
        dist_workers=DIST_WORKERS, cache_dir=cache_dir,
    )


def _clone_config(seed: int, cache_dir: str | None):
    """Fig 4 GA cloning of mcf on the large core, nine radar metrics."""
    from benchmarks.harness import RADAR_METRICS
    from repro.core.config import MicroGradConfig

    return MicroGradConfig(
        use_case="cloning", application="mcf", core="large", tuner="ga",
        metrics=RADAR_METRICS, max_epochs=CLONE_EPOCHS, loop_size=LOOP_SIZE,
        instructions=INSTRUCTIONS, seed=seed, backend="serial",
    )


@dataclasses.dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``golden`` names the recorded digests the campaigns must match:
    stress_dist shares stress_gd's, because dist results must be
    bit-identical to serial ones.
    """

    name: str
    golden: str
    make_config: Callable[[int, str | None], object]
    dist_workers: int = 0


WORKLOADS = {
    w.name: w for w in (
        Workload("stress_gd", "stress", _stress_config),
        Workload("clone_ga", "clone", _clone_config),
        Workload("stress_dist", "stress", _stress_config,
                 dist_workers=DIST_WORKERS),
    )
}


@dataclasses.dataclass
class Campaign:
    """What one campaign measured.

    Times are host seconds; ``speed`` is the host's speed around the
    campaign (see hostspeed.py), by which they scale to reference
    seconds.
    """

    seed: int
    requested: int = 0
    setup_s: float = 0.0
    wall_s: float = 0.0
    epoch_s: list = dataclasses.field(default_factory=list)
    best_loss: float = 0.0
    digest: str = ""
    report: dict = dataclasses.field(default_factory=dict)
    children_peak_kb: int = 0
    speed: float = 1.0
    error: str | None = None


class EpochClock:
    """Times every ``Evaluator.evaluate_batch`` call: one tuner epoch.

    Installed for the whole process, traced or not; it also counts the
    evaluations requested, so a campaign that fails part-way still
    reports what it attempted.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.requested = 0
        self._original = None

    def reset(self) -> None:
        self.starts, self.durations, self.requested = [], [], 0

    def install(self) -> None:
        from repro.tuning.evaluator import Evaluator

        original = self._original = vars(Evaluator)["evaluate_batch"]

        @functools.wraps(original)
        def evaluate_batch(evaluator, positions_batch, *args, **kwargs):
            self.requested += len(positions_batch)
            start = time.perf_counter()
            try:
                return original(evaluator, positions_batch, *args, **kwargs)
            finally:
                self.durations.append(time.perf_counter() - start)
                self.starts.append(start)

        Evaluator.evaluate_batch = evaluate_batch

    def uninstall(self) -> None:
        from repro.tuning.evaluator import Evaluator

        if self._original is not None:
            Evaluator.evaluate_batch = self._original
            self._original = None


def children_peak_kb() -> int:
    """Summed peak resident set (VmHWM) of this process's live children."""
    me = str(os.getpid())
    total = 0
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                # Field 4 (after the parenthesized command) is the ppid.
                ppid = f.read().rsplit(")", 1)[1].split()[1]
            if ppid != me:
                continue
            with open(f"/proc/{entry}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1])
        except (OSError, IndexError, ValueError):
            continue  # the process exited while being read
    return total


def start_cluster(mg, workers: int) -> None:
    """Bring the dist cluster up before the first epoch.

    ``map`` starts the coordinator and the worker pool and returns once
    a worker has run a job; the poll then waits for every worker, so
    the start-up cost lands in set-up time instead of in epoch 1.
    """
    mg.backend.map(abs, [0])
    deadline = time.monotonic() + CLUSTER_START_TIMEOUT_S
    while mg.backend.coordinator.worker_count() < workers:
        if time.monotonic() > deadline:
            raise RuntimeError(f"dist cluster did not reach {workers} "
                               f"workers in {CLUSTER_START_TIMEOUT_S}s")
        time.sleep(0.002)


def run_campaign(workload: Workload, seed: int, clock: EpochClock,
                 scratch: Path, tracer=None) -> Campaign:
    """Run one cold campaign; raises whatever the campaign raises."""
    from repro.core.framework import MicroGrad
    from repro.sim.artifact import GLOBAL_ARTIFACT_CACHE

    GLOBAL_ARTIFACT_CACHE.clear()
    cache_dir = (tempfile.mkdtemp(prefix="cache-", dir=scratch)
                 if workload.dist_workers else None)
    config = workload.make_config(seed, cache_dir)
    clock.reset()
    campaign = Campaign(seed=seed)
    mg = None
    try:
        start = time.perf_counter()
        with tracer.span(ROOT) if tracer else nullcontext():
            mg = MicroGrad(config)
            if workload.dist_workers:
                with tracer.span(DIST_STARTUP) if tracer else nullcontext():
                    start_cluster(mg, workload.dist_workers)
            result = mg.run()
        end = time.perf_counter()
        campaign.children_peak_kb = children_peak_kb()
    finally:
        campaign.requested = clock.requested
        if mg is not None:
            mg.close()
        if cache_dir is not None:
            shutil.rmtree(cache_dir, ignore_errors=True)
    tuning = result.tuning
    campaign.setup_s = clock.starts[0] - start
    campaign.wall_s = end - clock.starts[0]
    campaign.epoch_s = list(clock.durations)
    campaign.best_loss = tuning.best_loss
    campaign.digest = trajectory_digest(
        tuning.best_config, tuning.best_metrics, tuning.loss_curve())
    campaign.report = result.run_report
    return campaign


def shape() -> dict:
    """The campaign shape the recorded digests belong to."""
    return {"loop_size": LOOP_SIZE, "instructions": INSTRUCTIONS,
            "stress_epochs": STRESS_EPOCHS, "clone_epochs": CLONE_EPOCHS}
