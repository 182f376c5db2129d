"""Chaos test: a worker dies mid-batch; the run must not notice.

One of the two spawned workers executes a poisoned job that kills its
process outright (``os._exit``, no cleanup — as close to an OOM kill as
a test can get).  The coordinator must detect the dead connection,
reschedule the leased job onto the surviving worker, and deliver final
:class:`~repro.sim.stats.SimStats` bit-identical to a serial run.

The kill is deterministic: the poisoned job touches a sentinel file
before dying, and only dies if the sentinel does not exist yet — so
exactly one worker dies, and the rescheduled attempt succeeds.
"""

import os
from pathlib import Path

from repro.codegen.wrapper import GenerationOptions, generate_test_case
from repro.dist.backend import DistributedBackend
from repro.sim.config import core_by_name
from repro.sim.simulator import Simulator


def _simulate(config: dict):
    """One deterministic evaluation returning the full SimStats."""
    program = generate_test_case(config, GenerationOptions(loop_size=80))
    return Simulator(core_by_name("small")).run(program, instructions=2_000)


def _simulate_or_die(item):
    """Die hard on the poisoned item — but only the first time ever."""
    sentinel, config, poisoned = item
    if poisoned and not os.path.exists(sentinel):
        Path(sentinel).touch()
        os._exit(1)  # crash the worker process mid-batch, no goodbyes
    return _simulate(config)


def _die_always(_item):
    os._exit(1)


CONFIGS = [
    {"ADD": n % 4 + 1, "LD": n % 3, "BEQ": n % 2, "REG_DIST": 2 + n % 3}
    for n in range(8)
]
POISONED_INDEX = 3


class TestWorkerDeathMidBatch:
    def test_leased_jobs_reschedule_and_stats_stay_bit_identical(
        self, tmp_path
    ):
        sentinel = str(tmp_path / "died-once")
        items = [
            (sentinel, config, index == POISONED_INDEX)
            for index, config in enumerate(CONFIGS)
        ]
        serial_stats = [_simulate(config) for config in CONFIGS]

        with DistributedBackend(spawn_workers=2) as backend:
            dist_stats = backend.map(_simulate_or_die, items)
            coordinator = backend.coordinator
            assert coordinator is not None
            reschedules = coordinator.reschedules

        assert os.path.exists(sentinel), "the poisoned job never ran"
        assert reschedules >= 1, "worker death did not trigger a reschedule"
        assert dist_stats == serial_stats  # bit-identical, SimStats and all

    def test_poison_job_that_kills_every_worker_surfaces_as_error(self):
        # A job that kills *every* worker it touches must not cycle
        # forever: after max_attempts dead workers it becomes an error.
        # The elastic pool keeps respawning workers, which is exactly
        # why the attempts cap (not an empty cluster) must end it.
        import pytest

        with DistributedBackend(spawn_workers=2) as backend:
            assert backend._ensure_session() is not None
            coordinator = backend.coordinator
            coordinator.max_attempts = 2
            with pytest.raises(RuntimeError, match="lost 2 workers"):
                backend.map(_die_always, [0])


class TestElasticPool:
    def test_dead_local_worker_is_respawned_and_run_completes(self, tmp_path):
        # One local worker, and the first job kills it.  Without the
        # elastic pool the cluster would stay empty forever and the run
        # would die on the worker_grace timer; the respawned worker
        # must pick the rescheduled job up and finish the batch.
        sentinel = str(tmp_path / "died-once")
        items = [
            (sentinel, config, index == 0)
            for index, config in enumerate(CONFIGS[:3])
        ]
        serial_stats = [_simulate(config) for config in CONFIGS[:3]]
        with DistributedBackend(spawn_workers=1, worker_grace=30.0) as backend:
            dist_stats = backend.map(_simulate_or_die, items)
            assert backend.pool is not None
            respawns = backend.pool.respawns
            reschedules = backend.coordinator.reschedules
        assert os.path.exists(sentinel), "the poisoned job never ran"
        assert respawns >= 1, "the dead worker was never respawned"
        assert reschedules >= 1
        assert dist_stats == serial_stats

    def test_respawn_budget_zero_disables_respawning(self, tmp_path):
        import pytest

        sentinel = str(tmp_path / "died-once")
        backend = DistributedBackend(spawn_workers=1, respawn_budget=0,
                                     worker_grace=1.0)
        try:
            with pytest.raises(RuntimeError, match="worker"):
                backend.map(_simulate_or_die,
                            [(sentinel, CONFIGS[0], True)])
            assert backend.pool.respawns == 0
        finally:
            backend.close()
