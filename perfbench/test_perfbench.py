"""Unit tests of the benchmark's own rules: statistics, spans, digests."""

import json
import threading
import types
from pathlib import Path

import numpy as np
import pytest

from perfbench import layers, stats, tracer

ROOT_DIR = Path(__file__).resolve().parent.parent


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# -- median, spread and the tail rule ----------------------------------------


def test_median_and_quartile_spread():
    assert stats.median([3.0, 1.0, 2.0]) == 2.0
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    q1, q2, q3 = 2.75, 5.5, 8.25  # statistics.quantiles, exclusive method
    assert stats.quartile_spread(values) == pytest.approx((q3 - q1) / q2)


@pytest.mark.parametrize("n, percentile", [
    (19, 50.0),    # too few for any percentile: falls back to the median
    (20, 50.0),    # rank 10, 10 beyond
    (30, 60.0),    # rank 18, 12 beyond; p70 would leave 9
    (99, 80.0),    # p90 is rank 90, only 9 beyond
    (100, 90.0),   # rank 90, exactly 10 beyond
    (1000, 99.0),  # p99.5 would leave 5
])
def test_tail_percentile_keeps_ten_samples_beyond(n, percentile):
    assert stats.tail_percentile(n) == percentile


def test_tail_reports_value_and_sample_counts():
    values = list(range(100, 0, -1))  # order must not matter
    result = stats.tail(values)
    assert result == {"percentile": 90.0, "value": 90.0, "samples": 100,
                      "beyond": 10}


def test_tail_states_a_shortfall_below_twenty_samples():
    result = stats.tail([5.0] * 12)
    assert result["percentile"] == 50.0
    assert result["samples"] == 12
    assert result["beyond"] == 6


def test_percentile_is_nearest_rank():
    assert stats.percentile([4.0, 1.0, 3.0, 2.0], 50.0) == 2.0
    assert stats.percentile([4.0, 1.0, 3.0, 2.0], 75.0) == 3.0
    assert stats.percentile([7.0], 99.9) == 7.0


def test_tail_of_nothing_is_an_error():
    with pytest.raises(ValueError):
        stats.tail([])


# -- self time from nested spans ---------------------------------------------


def _synthetic_spans():
    # campaign [0, 10] > a [1, 4] > b [2, 3];  campaign > c [5, 9]
    return [
        ["campaign", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 2.0, 3.0, 1],
        ["c", 5.0, 9.0, 0],
    ]


def test_self_time_subtracts_children():
    assert tracer.self_times(_synthetic_spans()) == {
        "campaign": 3.0, "a": 2.0, "b": 1.0, "c": 4.0}


def test_attribution_sums_to_wall_time():
    spans = _synthetic_spans() + [["campaign", 20.0, 22.0, -1],
                                  ["a", 20.5, 21.5, 4]]
    result = tracer.attribute(spans, "campaign")
    assert result["wall_s"] == 12.0
    assert result["unattributed_s"] == 4.0
    assert result["self_s"] == {"a": 3.0, "b": 1.0, "c": 4.0}
    assert result["residual_s"] == 0.0


@pytest.mark.parametrize("spans, message", [
    ([["campaign", 0.0, None, -1]], "never closed"),
    ([["a", 0.0, 1.0, -1]], "outside"),
    ([["campaign", 0.0, 1.0, -1], ["a", 0.0, 2.0, 0]], "outlast"),
])
def test_attribution_rejects_spans_that_are_not_a_tree(spans, message):
    with pytest.raises(ValueError, match=message):
        tracer.attribute(spans, "campaign")


def _fake_module():
    module = types.ModuleType("fake_layer")

    def leaf():
        clock.now += 1.0

    def outer():
        clock.now += 2.0
        module.leaf()

    def stream():
        clock.now += 1.0
        yield 1
        clock.now += 1.0
        yield 2

    clock = FakeClock()
    module.leaf, module.outer, module.stream = leaf, outer, stream
    return module, clock


def test_wrapped_calls_nest_and_count_once():
    module, clock = _fake_module()
    t = tracer.Tracer(clock=clock)
    t.patch(module, "leaf", "leaf")
    t.patch(module, "outer", "outer")
    # Patching an already wrapped site (a second import site of one
    # function object, or a repeated install) must not wrap it twice.
    t.patch(module, "leaf", "leaf")
    with t.span("campaign"):
        module.outer()
        module.leaf()
    assert t.calls == {"campaign": 1, "outer": 1, "leaf": 2}
    result = tracer.attribute(t.spans, "campaign")
    assert result["self_s"] == {"outer": 2.0, "leaf": 2.0}
    assert result["unattributed_s"] == 0.0


def test_reentering_the_same_span_counts_one_call():
    module, clock = _fake_module()
    t = tracer.Tracer(clock=clock)
    t.patch(module, "leaf", "layer")
    t.patch(module, "outer", "layer")
    with t.span("campaign"):
        module.outer()
    assert t.calls["layer"] == 1
    assert tracer.self_times(t.spans)["layer"] == 3.0


def test_generator_resumes_are_spans_and_uninstall_restores():
    module, clock = _fake_module()
    original = module.stream
    t = tracer.Tracer(clock=clock)
    t.patch(module, "stream", "stream")
    with t.span("campaign"):
        assert list(module.stream()) == [1, 2]
    assert t.calls["stream"] == 1
    assert tracer.self_times(t.spans)["stream"] == 2.0
    t.uninstall()
    assert module.stream is original


def test_other_threads_are_not_recorded():
    module, clock = _fake_module()
    t = tracer.Tracer(clock=clock)
    t.patch(module, "leaf", "leaf")
    worker = threading.Thread(target=module.leaf)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    assert t.spans == [] and t.calls == {}


def test_classmethods_stay_classmethods():
    class Engine:
        @classmethod
        def run(cls, x):
            return (cls.__name__, x)

    t = tracer.Tracer()
    t.patch(Engine, "run", "engine")
    with t.span("campaign"):
        assert Engine.run(3) == ("Engine", 3)
    assert t.calls["engine"] == 1


# -- the trajectory digest ---------------------------------------------------


def test_digest_ignores_order_and_numpy_types():
    a = stats.trajectory_digest({"ADD": 4, "B": 0.5}, {"ipc": 0.61},
                                [0.9, 0.61])
    b = stats.trajectory_digest({"B": np.float64(0.5), "ADD": np.int64(4)},
                                {"ipc": np.float64(0.61)}, [0.9, 0.61])
    assert a == b


def test_digest_tolerates_last_bit_drift_only():
    base = stats.trajectory_digest({"ADD": 4}, {"ipc": 0.61}, [0.9, 0.61])
    drift = stats.trajectory_digest({"ADD": 4}, {"ipc": 0.61 + 1e-16},
                                    [0.9, 0.61])
    assert drift == base
    for changed in (
        ({"ADD": 5}, {"ipc": 0.61}, [0.9, 0.61]),
        ({"ADD": 4}, {"ipc": 0.611}, [0.9, 0.61]),
        ({"ADD": 4}, {"ipc": 0.61}, [0.8, 0.61]),
        ({"ADD": 4}, {"ipc": 0.61}, [0.9, 0.61, 0.61]),
    ):
        assert stats.trajectory_digest(*changed) != base


def test_check_digest_needs_a_recorded_match():
    goldens = {"stress": {"3": "abc"}}
    assert stats.check_digest(goldens, "stress", 3, "abc")
    assert not stats.check_digest(goldens, "stress", 3, "abd")
    assert not stats.check_digest(goldens, "stress", 4, "abc")
    assert not stats.check_digest(goldens, "clone", 3, "abc")


# -- host speed and reference seconds ----------------------------------------


def test_probe_reads_a_positive_speed():
    from perfbench import hostspeed

    assert 0.0 < hostspeed.probe(0.01) < float("inf")


def test_end_to_end_times_are_reference_seconds():
    from perfbench.run import end_to_end_metrics
    from perfbench.workloads import Campaign

    def campaign(slowdown):
        return Campaign(seed=0, requested=100, setup_s=0.2 * slowdown,
                        wall_s=2.0 * slowdown, epoch_s=[0.1 * slowdown] * 10,
                        speed=1.0 / slowdown)

    # The same work on a host running at half speed takes twice the host
    # time, and reads the same in reference seconds.
    normal, _ = end_to_end_metrics([campaign(1.0)], [0.5])
    slow, details = end_to_end_metrics([campaign(2.0)], [0.5])
    for name in ("evals_per_s", "epoch_p50_ms", "epoch_tail_ms", "setup_s"):
        assert slow[name] == pytest.approx(normal[name])
    assert normal["evals_per_s"] == pytest.approx(50.0)
    assert normal["epoch_p50_ms"] == pytest.approx(100.0)
    assert normal["setup_s"] == pytest.approx(0.7)
    assert details["host_evals_per_s"] == pytest.approx(25.0)


# -- the metric list stays in step with BENCHMARK.json -----------------------


def test_per_layer_metrics_match_benchmark_json():
    spec = json.loads((ROOT_DIR / "BENCHMARK.json").read_text())
    spans = [["campaign", 0.0, 2.0, -1], ["codegen", 0.5, 1.5, 0]]
    computed = layers.layer_metrics(
        tracer.attribute(spans, layers.ROOT), {"codegen": 1}, 0.0,
        {}, {}, campaigns=1, workers=0)
    # run.py adds these three from the campaigns themselves.
    names = set(computed) | {"trace_overhead", "best_loss", "failed_ratio"}
    assert names == {m["name"] for m in spec["per_layer"]}
    assert computed["codegen.self_s"] == 1.0
    assert computed["unattributed_s"] == 1.0


def test_spans_without_a_layer_metric_are_refused():
    spans = [["campaign", 0.0, 2.0, -1], ["mystery", 0.5, 1.5, 0]]
    with pytest.raises(ValueError, match="mystery"):
        layers.layer_metrics(tracer.attribute(spans, layers.ROOT), {}, 0.0,
                             {}, {}, campaigns=1, workers=0)


def test_every_site_span_has_a_layer_metric():
    covered = {n for names in layers.SELF_TIME_METRICS.values()
               for n in names}
    assert {name for _, _, name in layers.SITES} <= covered


def test_no_site_encloses_the_whole_campaign():
    # A span around MicroGrad.run or __init__ would take every uncovered
    # second as its self time, and unattributed_s could never grow.
    paths = {(module, path) for module, path, _ in layers.SITES}
    assert ("repro.core.framework", "MicroGrad.run") not in paths
    assert ("repro.core.framework", "MicroGrad.__init__") not in paths


# -- set summaries -----------------------------------------------------------


def _run(seed, correct=True, evals=10.0, epoch_ms=(1.0,)):
    if not correct:  # what run.py records when every campaign failed
        return {"stamp": {"seed": seed}, "correct": False, "metrics": {},
                "details": {}}
    return {"stamp": {"seed": seed}, "correct": True,
            "metrics": {"evals_per_s": evals},
            "details": {"epoch_ms": list(epoch_ms)}}


def test_summary_skips_incorrect_runs():
    from perfbench.summarize import summarize_set

    spec = [{"name": "evals_per_s"}]
    runs = [_run(s, evals=float(s), epoch_ms=[float(s)] * 5)
            for s in range(1, 6)]
    runs.insert(2, _run(99, correct=False))
    runs.insert(4, _run(98, correct=True, evals=1e9))
    runs[4]["correct"] = False  # a part-failed run keeps its metrics
    summary = summarize_set(runs, spec)
    assert summary["seeds"] == [1, 2, 3, 4, 5]
    assert summary["failed_seeds"] == [99, 98]
    assert summary["metrics"]["evals_per_s"]["median"] == 3.0
    assert summary["tail"]["samples"] == 25


def test_summary_needs_enough_correct_runs():
    from perfbench.summarize import summarize_set

    runs = [_run(1), _run(2), _run(3), _run(4, correct=False)]
    summary = summarize_set(runs, [{"name": "evals_per_s"}])
    assert summary["metrics"] == {}
    assert summary["tail"] is None
    assert summary["failed_seeds"] == [4]
