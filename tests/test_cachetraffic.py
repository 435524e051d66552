"""tools/cachetraffic.py: the cache table of canned traced perfbench output."""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import cachetraffic  # noqa: E402


def _output(counts: dict, absent: list[str], failed=0, attempted=12) -> str:
    """run.py's output with --trace 1: log lines, then its report and its result."""
    metrics = {"cache.x.hit_ratio": {"value": 0.5, "unit": "ratio"}}
    for name, (hits, misses) in counts.items():
        metrics[f"cache.{name}.hits"] = {"value": hits, "unit": "count"}
        metrics[f"cache.{name}.misses"] = {"value": misses, "unit": "count"}
    metrics["classify.signature.s"] = {"value": 0.001, "unit": "s"}
    report = {"report": {"caches_absent": absent, "failed": failed}}
    result = {"correct": not failed, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return "a log line\n" + json.dumps(report) + "\n" + json.dumps(result) + "\n"


def test_traffic_reads_hits_misses_and_absent_caches():
    out = _output({"build_preset": (9, 22), "induce_2d": (0, 0), "catalog": (0, 11)},
                  absent=["induce_2d"])
    assert cachetraffic.traffic(out) == {
        "build_preset": "9/22", "induce_2d": "absent", "catalog": "0/11",
        "failed/attempted": "0/12",
    }


def test_the_table_has_a_column_per_workload():
    by_workload = {
        "crystal-cli": cachetraffic.traffic(_output({"build_preset": (9, 22)}, [], 1, 60)),
        "warm-session": cachetraffic.traffic(_output({"build_preset": (11, 0), "survey": (9, 0)},
                                                     [])),
    }
    assert cachetraffic.table(by_workload) == [
        "| cache | crystal-cli | warm-session |",
        "|---|---|---|",
        "| build_preset | 9/22 | 11/0 |",
        "| survey | - | 9/0 |",
        "| failed/attempted | 1/60 | 0/12 |",
    ]
