#!/usr/bin/env python3
"""Summarize sets of benchmark runs recorded in .perfbench_out/history.jsonl.

Usage (from the repository root)::

    python3 perfbench/summarize.py [--last 10] [--compare]

For each workload, takes its last ``--last`` untraced runs as one set
and prints every end-to-end metric's median and quartile spread
((Q3 - Q1) / median) against the bound BENCHMARK.json fixes, plus the
epoch latency tail pooled over the set.  ``--compare`` also takes the
``--last`` runs before those as a first set and prints how far the
second set's median moved, in the metric's worse direction, as a share
of the first set's median.  Only correct runs enter the figures; the
seeds of incorrect runs are listed on their own.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT_DIR = Path(__file__).resolve().parent.parent
#: Correct runs a set needs before its quartiles mean anything.
MIN_RUNS = 4


def summarize_set(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Medians, spreads and pooled tail of the correct runs of one set.

    Returns ``{"seeds", "failed_seeds", "metrics", "tail"}``: ``metrics``
    maps each end-to-end metric name to ``{"median", "spread"}`` and
    ``tail`` is :func:`perfbench.stats.tail` over every epoch the
    correct runs timed.  ``metrics`` is empty and ``tail`` is None when
    fewer than ``MIN_RUNS`` runs were correct.
    """
    from perfbench.stats import median, quartile_spread, tail

    ok = [r for r in runs if r["correct"]]
    out = {
        "seeds": [r["stamp"]["seed"] for r in ok],
        "failed_seeds": [r["stamp"]["seed"] for r in runs
                         if not r["correct"]],
        "metrics": {},
        "tail": None,
    }
    if len(ok) < MIN_RUNS:
        return out
    for metric in end_to_end:
        values = [r["metrics"][metric["name"]] for r in ok]
        out["metrics"][metric["name"]] = {
            "median": median(values), "spread": quartile_spread(values)}
    out["tail"] = tail([ms for r in ok for ms in r["details"]["epoch_ms"]])
    return out


def main(argv=None) -> int:
    sys.path[0:1] = [str(ROOT_DIR)]

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--last", type=int, default=10)
    parser.add_argument("--compare", action="store_true")
    parser.add_argument("--history", type=Path,
                        default=ROOT_DIR / ".perfbench_out" / "history.jsonl")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT_DIR / "BENCHMARK.json").read_text())
    records = [json.loads(line) for line in args.history.read_text()
               .splitlines() if line.strip()]
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = [r for r in records
                if r["workload"] == workload and r["trace"] == 0]
        second = summarize_set(runs[-args.last:], spec["end_to_end"])
        first = (summarize_set(runs[-2 * args.last:-args.last],
                               spec["end_to_end"])
                 if args.compare else None)
        print(f"{workload}: {len(second['seeds'])} correct runs, seeds "
              f"{second['seeds']}"
              + (f", INCORRECT on seeds {second['failed_seeds']}"
                 if second["failed_seeds"] else ""))
        if not second["metrics"]:
            print(f"  need {MIN_RUNS} correct runs")
            continue
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            now = second["metrics"][name]
            line = (f"  {name:<14} median {now['median']:<12.6g} "
                    f"spread {now['spread']:6.3f} "
                    f"(bound {bound}, {bound / 3:.3f} is a third)")
            if first and first["metrics"]:
                before = first["metrics"][name]["median"]
                shift = (now["median"] - before) / before
                worse = shift if metric["better"] == "lower" else -shift
                line += f"  worse by {worse:+.3f} vs the set before"
            print(line)
        pooled = second["tail"]
        print(f"  pooled epoch tail p{pooled['percentile']:g} "
              f"{pooled['value']:.6g} ms over {pooled['samples']} epochs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
