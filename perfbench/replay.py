"""Traced replay: one fresh process runs a workload's inputs layer by layer.

Cold workloads replay every CLI step twice from cold caches: once as its
layer calls (each public function in its own span; build_preset and
induce_4d are timed as real calls and then once more step by step, as a
breakdown) and once through `rootspin.cli.main` in process.  The warm
session replays the same request stream through the same loop as the server.
Spans stay in memory; one JSON summary is printed when the replay ends.

    python perfbench/replay.py --workload icosian-cold --seed 1 --seconds 30 --tmp DIR
"""

from __future__ import annotations

import argparse
import json
import time

_T0 = time.perf_counter()
import rootspin  # noqa: E402  (import time is one of the layers measured)

IMPORT_S = time.perf_counter() - _T0

import ops  # noqa: E402
from inputs import (  # noqa: E402
    WarmStream,
    check_cli,
    check_warm,
    cli_argv,
    cold_unit,
    parse_cli,
    unit_count,
)

MICRO_BUDGET_S = 0.3


def _add_counters(total: dict, got: dict) -> None:
    for name, hm in got.items():
        prev = total.get(name) or [0, 0]
        total[name] = None if hm is None else [prev[0] + hm[0], prev[1] + hm[1]]


def replay_cold(workload: str, seed: int, seconds: float, tmp: str, tr: ops.Tracer) -> dict:
    checked: list[tuple[list[str], bool]] = []  # a cold failure is never the known defect
    caches: dict = {}
    jobs = 0
    units = unit_count(workload, seconds)
    for index in range(units):
        for job in cold_unit(workload, seed, index, tmp):
            tr.request = jobs
            for step in job:
                checked.append((check_cli(step, ops.replay_layered(step, tr)), False))
            for step in job:
                code, out, err, text = ops.replay_cli_main(step, cli_argv(step), tr)
                checked.append((check_cli(step, parse_cli(step, code, out, err, text)), False))
                _add_counters(caches, ops.cache_counters())
            jobs += 1
    return {"jobs": jobs, "units": units, "checked": checked, "caches": caches}


def replay_warm(seed: int, seconds: float, tr: ops.Tracer) -> dict:
    stream = WarmStream(seed)
    warmup = stream.warmup()
    units = unit_count("warm-session", seconds)
    marks: dict = {}

    def requests():
        yield from warmup
        marks["before"] = ops.cache_counters()
        for _ in range(units):
            yield from stream.round()

    checked = [check_warm(req, got) for req, got in ops.serve(requests(), tr)]
    before, after = marks["before"], ops.cache_counters()
    # steady state only: the warm-up requests fill the caches
    caches = {n: None if after[n] is None else [after[n][0] - before[n][0], after[n][1] - before[n][1]]
              for n in after}
    return {"jobs": len(checked) - len(warmup), "warmup_requests": len(warmup),
            "units": units, "checked": checked, "caches": caches}


def summarize(tr: ops.Tracer, first_request: int) -> dict:
    """Per span name: calls, busy and self seconds, largest sizes; per request sums."""
    spans = tr.spans
    child_time = [0.0] * len(spans)
    for name, t0, t1, parent, req, sizes in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    by_name: dict = {}
    per_request: dict = {}
    cli_per_request: dict = {}
    for i, (name, t0, t1, parent, req, sizes) in enumerate(spans):
        if req is None or req < first_request:
            continue
        agg = by_name.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "sizes": {}})
        agg["calls"] += 1
        agg["busy_s"] += t1 - t0
        agg["self_s"] += t1 - t0 - child_time[i]
        for k, v in sizes.items():
            agg["sizes"][k] = max(agg["sizes"].get(k, v), v)
        # a job's layer sum counts the real calls; the `.steps` breakdowns and
        # the cli.main replay time the same work again
        if parent < 0 and not name.endswith(".steps"):
            target = cli_per_request if name == "cli.main" else per_request
            target[req] = target.get(req, 0.0) + (t1 - t0)
    return {"spans": by_name, "request_span_s": list(per_request.values()),
            "request_cli_s": list(cli_per_request.values()), "n_spans": len(spans)}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--tmp", required=True)
    args = ap.parse_args()

    tr = ops.Tracer()
    if args.workload == "warm-session":
        res = replay_warm(args.seed, args.seconds, tr)
        # per-layer figures describe the steady state, after the warm-up
        res.update(summarize(tr, res["warmup_requests"]))
    else:
        res = replay_cold(args.workload, args.seed, args.seconds, args.tmp, tr)
        res.update(summarize(tr, 0))
    micro, micro_checks = ops.micro_kernels(MICRO_BUDGET_S)
    checked = res.pop("checked") + [(f, False) for f in micro_checks]  # one entry per operation
    failed = [(f, known) for f, known in checked if f]
    res.update(attempted=len(checked), failed=len(failed),
               known_defect=sum(known for _, known in failed),
               failures=[m for f, _ in failed for m in f][:20])
    res.update(import_s=IMPORT_S, micro=micro, span_ns=ops.span_cost_ns(),
               rootspin_version=getattr(rootspin, "__version__", None))
    print(json.dumps(res))


if __name__ == "__main__":
    main()
