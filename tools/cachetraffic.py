"""Cache traffic: the hits and misses of each lru cache on each benchmark workload.

    python tools/cachetraffic.py [--rev HEAD] [--seed 4242] [--seconds 30] \\
        [--workloads crystal-cli ...]

The tree of --rev (a commit-ish, or "worktree" for the working tree as it
stands) is unpacked from `git archive` as tools/abbench.py does it, and
perfbench/run.py runs there once per workload with `--trace 1`.  The traced
result line carries a `cache.<name>.hits` and `.misses` metric per cached
entry point; the report line names the caches the tree does not have
(`caches_absent`).  The table has one row per cache and one column per
workload, each cell "hits/misses" or "absent", and a last row with the
run's failed/attempted operations.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from abbench import ROOT, tree_of, unpack

_OPS = "failed/attempted"


def traffic(stdout: str) -> dict[str, str]:
    """Cache name -> "hits/misses" or "absent", and "failed/attempted", from a
    traced run.py's output, whose last two lines are its report and its result."""
    report_line, result_line = stdout.strip().splitlines()[-2:]
    absent = json.loads(report_line)["report"]["caches_absent"]
    result = json.loads(result_line)
    metrics = result["metrics"]
    out = {}
    for key in metrics:
        if key.startswith("cache.") and key.endswith(".hits"):
            name = key[len("cache."):-len(".hits")]
            hits, misses = (int(metrics[f"cache.{name}.{k}"]["value"]) for k in ("hits", "misses"))
            out[name] = "absent" if name in absent else f"{hits}/{misses}"
    out[_OPS] = f"{result['failed']}/{result['attempted']}"
    return out


def table(by_workload: dict[str, dict[str, str]]) -> list[str]:
    """The markdown table of traffic() per workload: caches down, workloads across."""
    rows = list(dict.fromkeys(name for cells in by_workload.values() for name in cells))
    rows.sort(key=lambda name: name == _OPS)  # stable: the operations row goes last
    out = ["| cache | " + " | ".join(by_workload) + " |", "|---" * (len(by_workload) + 1) + "|"]
    for name in rows:
        cells = (by_workload[w].get(name, "-") for w in by_workload)
        out.append(f"| {name} | " + " | ".join(cells) + " |")
    return out


def run_traced(side: Path, workload: str, seed: int, seconds: float) -> str:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        cwd=side, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return proc.stdout


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rev", default="HEAD", help="commit-ish to run, or 'worktree'")
    ap.add_argument("--seed", type=int, default=4242)
    ap.add_argument("--seconds", type=float, help="run length (default: BENCHMARK.json's)")
    ap.add_argument("--workloads", nargs="+", help="workload names (default: BENCHMARK.json's)")
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    with tempfile.TemporaryDirectory(prefix="cachetraffic-") as tmp:
        unpack(tree_of(args.rev), Path(tmp))
        by_workload = {w: traffic(run_traced(Path(tmp), w, args.seed, seconds))
                       for w in workloads}
    print("\n".join(table(by_workload)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
