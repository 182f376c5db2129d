#!/usr/bin/env python3
"""MicroGrad's benchmark of record: the paper's tuning loop.

Usage (from the repository root)::

    python3 perfbench/run.py --workload stress_gd --seed 1 --seconds 50 --trace 0

``--trace 0`` runs untraced campaigns for ``--seconds`` and reports the
end-to-end metrics of BENCHMARK.json.  ``--trace 1`` runs every
campaign seed twice, untraced and then with every layer's public
functions wrapped, and reports the per-layer metrics (self times,
counts, ratios and the tracing overhead).  Either way every campaign's
tuner trajectory must match its recorded digest; the last line of
standard output is the JSON result, and the exit code is 0 only when
every check passed.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT_DIR = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    # Run as a script: import the benchmark as a package of the repo,
    # and the framework from its source tree.
    sys.path[0:1] = [str(ROOT_DIR / "src"), str(ROOT_DIR)]

from perfbench import hostspeed  # noqa: E402
from perfbench.layers import ROOT, SITES, layer_metrics  # noqa: E402
from perfbench.stats import (  # noqa: E402
    check_digest, median, percentile, tail,
)
from perfbench.tracer import Tracer, attribute  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    GOLDEN_SEEDS, WORKLOADS, Campaign, EpochClock, run_campaign, shape,
)

#: Where runs append their stamped records and keep dist cache dirs.
OUT_DIR = ROOT_DIR / ".perfbench_out"
#: Fresh interpreters timed importing the framework, per run.
IMPORT_SAMPLES = 7
#: Share of a campaign's time the host-speed probe after it runs for.
PROBE_SHARE = 0.05
#: The traced run fails when more than this share of its wall time is
#: in no layer's span.
MAX_UNATTRIBUTED = 0.05
IMPORT_PROBE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import repro.core.framework\n"
    "print(time.perf_counter() - t)\n"
)


def _stderr(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def import_times(samples: int) -> list[float]:
    """Reference seconds a fresh interpreter takes to import the framework.

    Each sample is scaled by a host-speed probe taken right after it.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT_DIR / "src")] + env.get("PYTHONPATH", "").split(os.pathsep)
    ).rstrip(os.pathsep)
    times = []
    for _ in range(samples):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT_DIR,
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.split()[-1]) * hostspeed.probe())
    return times


def environment_stamp(seed: int) -> dict:
    """Commit, host and interpreter facts every recorded result carries."""
    import numpy

    commit = None
    if (ROOT_DIR / ".git").exists():  # a plain source checkout has none
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT_DIR,
                capture_output=True, text=True, timeout=30,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    for path in sorted((ROOT_DIR / "src").rglob("*.py")):
        source.update(str(path.relative_to(ROOT_DIR)).encode())
        source.update(path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": source.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "seed": seed,
        "loadavg_start": list(os.getloadavg()),
        "started_unix": time.time(),
    }


def checked_campaign(workload, seed: int, clock, goldens, tracer=None):
    """One campaign, marked failed if it raises or misses its digest."""
    try:
        campaign = run_campaign(workload, seed, clock, OUT_DIR, tracer)
    except Exception:
        _stderr(f"campaign seed {seed} raised:\n{traceback.format_exc()}")
        return Campaign(seed=seed, requested=max(1, clock.requested),
                        error="raised")
    if not check_digest(goldens, workload.golden, seed, campaign.digest):
        _stderr(f"campaign seed {seed}: digest {campaign.digest} does not "
                "match the recorded one")
        campaign.error = "digest mismatch"
    return campaign


def run_campaigns(workload, base_seed: int, seconds: float, clock, goldens,
                  tracer=None) -> tuple[list, list]:
    """Campaigns on consecutive golden seeds until ``seconds`` are spent.

    The host's speed is probed before the first campaign and after
    each one, for ``PROBE_SHARE`` of the campaign's time or at least
    ``hostspeed.PROBE_S``; a campaign's ``speed`` is the mean of the
    probes on either side of it.  With a tracer, every seed runs twice,
    untraced and then traced, so the tracing overhead is a paired ratio
    that slow drift of the host's speed cannot bias.  A seed starts only
    if the median seed so far would still end inside the budget; at
    least one always runs.
    Returns ``(untraced, traced)`` campaigns.
    """
    OUT_DIR.mkdir(exist_ok=True)
    untraced, traced, durations = [], [], []
    start = time.perf_counter()
    speed = hostspeed.probe()

    def probed(campaign):
        nonlocal speed
        before = speed
        speed = hostspeed.probe(max(hostspeed.PROBE_S,
                                    PROBE_SHARE * campaign.wall_s))
        campaign.speed = (before + speed) / 2.0
        return campaign

    while True:
        began = time.perf_counter()
        seed = (base_seed + len(untraced)) % GOLDEN_SEEDS
        untraced.append(probed(checked_campaign(workload, seed, clock,
                                                goldens)))
        if tracer is not None:
            tracer.install(SITES)
            try:
                traced.append(probed(checked_campaign(
                    workload, seed, clock, goldens, tracer)))
            finally:
                tracer.uninstall()
        durations.append(time.perf_counter() - began)
        if time.perf_counter() - start + median(durations) > seconds:
            return untraced, traced


def failure_counts(campaigns) -> tuple[int, int]:
    """(attempted, failed) evaluations; a failed campaign fails them all."""
    attempted = sum(c.requested for c in campaigns)
    failed = sum(c.requested for c in campaigns if c.error is not None)
    return attempted, failed


def end_to_end_metrics(campaigns, import_s: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics of the untraced campaigns, plus their details.

    Times are reference seconds: each campaign's host times scaled by
    the host speed probed around it (see hostspeed.py).
    """
    ok = [c for c in campaigns if c.error is None]
    epochs = [s * c.speed * 1000.0 for c in ok for s in c.epoch_s]
    epoch_tail = tail(epochs)
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = max(c.children_peak_kb for c in campaigns)
    attempted, failed = failure_counts(campaigns)
    metrics = {
        "evals_per_s": sum(c.requested for c in ok)
        / sum(c.wall_s * c.speed for c in ok),
        "epoch_p50_ms": percentile(epochs, 50.0),
        "epoch_tail_ms": epoch_tail["value"],
        "setup_s": median(import_s)
        + median([c.setup_s * c.speed for c in ok]),
        "peak_rss_mb": (self_kb + children_kb) / 1024.0,
        "success_ratio": 1.0 - failed / attempted,
    }
    details = {
        "epoch_tail": epoch_tail,
        "epoch_ms": epochs,
        "import_s": import_s,
        "campaign_setup_s": [c.setup_s for c in ok],
        "campaign_wall_s": [c.wall_s for c in ok],
        "campaign_speed": [c.speed for c in ok],
        "host_evals_per_s": sum(c.requested for c in ok)
        / sum(c.wall_s for c in ok),
        "host_epoch_p50_ms": percentile(
            [s * 1000.0 for c in ok for s in c.epoch_s], 50.0),
    }
    return metrics, details


def _merge_reports(campaigns) -> tuple[dict, dict]:
    """Summed run-report counters and stage timers of the campaigns."""
    counters: dict = {}
    stages: dict = {}
    for campaign in campaigns:
        for name, value in campaign.report.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
        for name, stat in campaign.report.get("stages", {}).items():
            merged = stages.setdefault(name, {"count": 0, "total_s": 0.0})
            merged["count"] += stat["count"]
            merged["total_s"] += stat["total_s"]
    return counters, stages


def per_layer_metrics(workload, untraced, traced,
                      tracer) -> tuple[dict, list[str]]:
    """Per-layer metrics of the traced campaigns, and attribution problems."""
    try:
        attribution = attribute(tracer.spans, ROOT)
    except ValueError as exc:
        return {}, [f"spans do not attribute: {exc}"]
    problems = []
    wall = attribution["wall_s"]
    if attribution["unattributed_s"] > MAX_UNATTRIBUTED * wall:
        problems.append(
            f"unattributed {attribution['unattributed_s']:.3f}s is more "
            f"than {MAX_UNATTRIBUTED:.0%} of traced wall {wall:.3f}s")
    if abs(attribution["residual_s"]) > 1e-6 * max(wall, 1.0):
        problems.append(f"self times miss {attribution['residual_s']}s "
                        "of the traced wall time")
    targets_s = sum(end - start for name, start, end, _ in tracer.spans
                    if name == "usecase.targets")
    counters, stages = _merge_reports(traced)
    metrics = layer_metrics(attribution, tracer.calls, targets_s, counters,
                            stages, len(traced), workload.dist_workers)
    # Times in reference seconds, like the end-to-end ones; one factor
    # for all keeps the self times summing to the traced wall time.
    speed = median([c.speed for c in traced])
    for name in metrics:
        if name.endswith("_s"):
            metrics[name] *= speed
    pairs = [(t.wall_s * t.speed) / (u.wall_s * u.speed)
             for u, t in zip(untraced, traced)
             if u.error is None and t.error is None]
    metrics["trace_overhead"] = median(pairs) - 1.0 if pairs else 0.0
    ok = [c for c in untraced + traced if c.error is None]
    metrics["best_loss"] = median([c.best_loss for c in ok]) if ok else 0.0
    attempted, failed = failure_counts(untraced + traced)
    metrics["failed_ratio"] = failed / attempted
    return metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT_DIR / "src" / "repro").is_dir() \
            or not (ROOT_DIR / "benchmarks" / "harness.py").is_file():
        _stderr(f"perfbench: no MicroGrad source tree under {ROOT_DIR}")
        return 2
    workload = WORKLOADS[args.workload]
    spec = json.loads((ROOT_DIR / "BENCHMARK.json").read_text())
    goldens = json.loads(
        (ROOT_DIR / "perfbench" / "goldens.json").read_text())
    if goldens.get("shape") != shape():
        _stderr("perfbench: goldens.json was recorded for another campaign "
                "shape; re-record it with perfbench/record_goldens.py")
        return 2

    stamp = environment_stamp(args.seed)
    import_s = import_times(IMPORT_SAMPLES)
    clock = EpochClock()
    clock.install()
    tracer = Tracer() if args.trace else None
    try:
        untraced, traced = run_campaigns(workload, args.seed, args.seconds,
                                         clock, goldens, tracer)
    finally:
        clock.uninstall()

    campaigns = untraced + traced
    attempted, failed = failure_counts(campaigns)
    computed: dict = {}
    details: dict = {}
    problems: list[str] = []
    if any(c.error is None for c in untraced):
        computed, details = end_to_end_metrics(untraced, import_s)
    if traced:
        layer, problems = per_layer_metrics(workload, untraced, traced,
                                            tracer)
        computed.update(layer)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {
        m["name"]: {"value": computed[m["name"]], "unit": m["unit"]}
        for m in wanted if m["name"] in computed
    }
    missing = [m["name"] for m in wanted if m["name"] not in computed]
    if missing and not failed:
        problems.append(f"metrics not computed: {missing}")
    correct = failed == 0 and not problems

    record = {
        "workload": workload.name,
        "trace": args.trace,
        "seconds": args.seconds,
        "stamp": stamp,
        "campaigns": [
            {"seed": c.seed, "digest": c.digest, "error": c.error,
             "requested": c.requested, "wall_s": c.wall_s,
             "traced": i >= len(untraced)}
            for i, c in enumerate(campaigns)
        ],
        "metrics": computed,
        "details": details,
        "problems": problems,
        "correct": correct,
    }
    with open(OUT_DIR / "history.jsonl", "a") as history:
        history.write(json.dumps(record, sort_keys=True) + "\n")
    for name, value in computed.items():
        print(f"{name:<36} {value:.6g}")
    if "epoch_tail" in details:
        t = details["epoch_tail"]
        print(f"epoch_tail_ms is p{t['percentile']:g} of {t['samples']} "
              f"epochs ({t['beyond']} beyond it)")
    print(f"campaigns {len(campaigns)} "
          f"(seeds {[c.seed for c in campaigns]}), "
          f"median import {median(import_s):.3f}s")
    for problem in problems:
        _stderr(f"perfbench: {problem}")
    print(json.dumps({"correct": correct, "attempted": max(1, attempted),
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
