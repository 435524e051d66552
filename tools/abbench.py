"""A/B benchmark: perfbench/run.py on alternating parent/change pairs.

    python tools/abbench.py --parent HEAD~1 --change HEAD --seeds 2201-2210 \\
        --results ab.jsonl [--workloads crystal-cli ...] [--seconds 30]
    python tools/abbench.py --summarize ab.jsonl

Each side is a `git archive` of its commit or tree, unpacked in a temporary
directory, and benchmarked there with its own perfbench/.  `--change worktree`
takes the working tree as it stands, through a throwaway index, so the real
index is left alone.  Runs are untraced (`--trace 0`) and cover BENCHMARK.json's
workloads for its `run_seconds`, unless --workloads or --seconds say otherwise.
Pair i runs both sides with seed i, on every workload; the parent goes first
in even pairs and the change in odd ones, so a slow phase of the host does
not always fall on one side.

Every run appends one JSON line to the results file as soon as it ends.  At
the end (or with --summarize) the lines are summarized as the table the
change log carries: per workload and end-to-end metric of BENCHMARK.json,
each side's median [quartiles], change/parent of the medians, the pairs the
change won (ties count for neither) and the metric's bound.  The verdict is
"gain" when there are at least 10 pairs, the change won at least 9 in 10 of
them, its median beats the parent's by more than the parent's quartile
spread, and change/parent is past the bound (below 1 - bound where lower is
better, above 1 + bound otherwise), as "worse" asks of a loss; "gain<bound"
when all of that holds but the last; "worse" when its median is worse by
more than the bound;
"unresolved" when neither, the parent's quartile distance is more than the
bound times its median, and not every change run beats every parent run, so
the runs are too noisy to tell the metric within its bound; and "-" otherwise.  A last line gives the src/ lines added and removed between the
two trees the records carry, from `git diff --numstat`, and beside them each
tree's code lines: the lines of src/**/*.py that hold a token other than a
comment or a docstring, so a change to docs alone nets 0 there.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
import tokenize
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def git(*args: str, env: dict | None = None, cwd: Path = ROOT) -> bytes:
    return subprocess.run(["git", *args], cwd=cwd, env=env, check=True,
                          capture_output=True).stdout


def tree_of(rev: str) -> str:
    """The tree id of a commit-ish, or of the working tree for "worktree"."""
    if rev != "worktree":
        return git("rev-parse", "--verify", f"{rev}^{{tree}}").decode().strip()
    with tempfile.TemporaryDirectory() as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": str(Path(tmp) / "index")}
        git("read-tree", "HEAD", env=env)
        git("add", "-A", env=env)
        return git("write-tree", env=env).decode().strip()


def unpack(tree: str, dest: Path) -> None:
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", tree))) as tar:
        tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))


def run_once(side: Path, workload: str, seed: int, seconds: float) -> dict:
    """perfbench/run.py's result object for one run, or {"error": ...} if it failed."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=side, capture_output=True, text=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def parse_seeds(text: str) -> list[int]:
    """"2201-2210" or "7,9,11" as a list of ints."""
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def _fmt(x: float) -> str:
    return f"{x:.4g}"


def _spread(xs: list[float]) -> tuple[float, float]:
    """The quartiles of xs (statistics.quantiles, exclusive method)."""
    if len(xs) < 2:
        return xs[0], xs[0]
    q1, _, q3 = quantiles(xs, n=4)
    return q1, q3


def summarize(records: list[dict], end_to_end: list[dict]) -> list[str]:
    """The markdown table of the records (one dict per run, as run() writes them)."""
    runs: dict = {}
    for r in records:
        if "error" not in r["result"]:
            runs.setdefault(r["workload"], {}).setdefault(r["pair"], {})[r["side"]] = r["result"]
    out = ["| workload | metric | parent | change | change/parent | change better in "
           "| bound | verdict |", "|---|---|---|---|---|---|---|---|"]
    for workload, pairs in runs.items():
        both = [p for p in pairs.values() if len(p) == 2]
        for m in end_to_end if both else []:
            vals = {s: [p[s]["metrics"][m["name"]]["value"] for p in both] for s in SIDES}
            lower = m["better"] == "lower"
            wins = sum((c < p) if lower else (c > p) for p, c in zip(vals["parent"], vals["change"]))
            mp, mc = median(vals["parent"]), median(vals["change"])
            (p1, p3), (c1, c3) = _spread(vals["parent"]), _spread(vals["change"])
            ratio = mc / mp if mp else float("nan")
            gain = (mp - mc) if lower else (mc - mp)
            past = (ratio < 1 - m["bound"]) if lower else (ratio > 1 + m["bound"])
            if len(both) >= 10 and wins >= 0.9 * len(both) and gain > p3 - p1:
                verdict = "gain" if past else "gain<bound"
            elif (ratio > 1 + m["bound"]) if lower else (ratio < 1 - m["bound"]):
                verdict = "worse"
            elif p3 - p1 > m["bound"] * mp and not (
                    max(vals["change"]) < min(vals["parent"]) if lower
                    else min(vals["change"]) > max(vals["parent"])):
                verdict = "unresolved"
            else:
                verdict = "-"
            out.append(f"| {workload} | {m['name']} | {_fmt(mp)} [{_fmt(p1)}, {_fmt(p3)}] "
                       f"| {_fmt(mc)} [{_fmt(c1)}, {_fmt(c3)}] | {ratio:.3f} "
                       f"| {wins}/{len(both)} | {m['bound']} | {verdict} |")
    for workload, pairs in runs.items():
        for s in SIDES:
            res = [p[s] for p in pairs.values() if s in p]
            out.append(f"{workload} {s}: {len(res)} runs, failed/attempted "
                       f"{sum(r['failed'] for r in res)}/{sum(r['attempted'] for r in res)}, "
                       f"correct in {sum(bool(r['correct']) for r in res)}")
    out += [f"error: {r['workload']} pair {r['pair']} {r['side']}: {r['result']['error']}"
            for r in records if "error" in r["result"]]
    return out


def src_lines(records: list[dict], root: Path = ROOT) -> str:
    """The src/ lines added and removed from the parent's tree to the change's, and the net."""
    trees = {r["side"]: r["tree"] for r in records if "tree" in r}
    if set(trees) != set(SIDES):
        return "src/ lines: the records carry no tree for one side"
    try:
        stat = git("diff", "--numstat", trees["parent"], trees["change"], "--", "src", cwd=root)
    except subprocess.CalledProcessError:
        return f"src/ lines: trees {trees['parent']} and {trees['change']} are not in this repository"
    counts = [line.split("\t")[:2] for line in stat.decode().splitlines()]
    added, removed = (sum(int(c[k]) for c in counts if c[k] != "-") for k in (0, 1))  # "-": binary
    return f"src/ lines: +{added} -{removed}, net {added - removed:+d}"


def count_code_lines(text: str) -> int:
    """The lines of the Python source text with a token other than a comment or a docstring.

    Blank lines hold none; a string spanning lines counts on each of them.
    """
    docstrings = []  # the (start, end) positions of each docstring
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and (
                    isinstance(first.value.value, str)):
                docstrings.append(((first.lineno, first.col_offset),
                                   (first.end_lineno, first.end_col_offset)))
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER}
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in skip and not any(a <= tok.start and tok.end <= b for a, b in docstrings):
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def code_lines(records: list[dict], root: Path = ROOT) -> str | None:
    """Each recorded tree's code lines in src/**/*.py, and the net; None without both trees."""
    trees = {r["side"]: r["tree"] for r in records if "tree" in r}
    counts = []
    try:
        for side in SIDES:
            listing = git("ls-tree", "-r", "--name-only", trees[side], "--", "src", cwd=root)
            texts = (git("show", f"{trees[side]}:{name}", cwd=root).decode()
                     for name in listing.decode().splitlines() if name.endswith(".py"))
            counts.append(sum(map(count_code_lines, texts)))
    except (KeyError, subprocess.CalledProcessError):
        return None
    return f"code lines: {counts[0]} -> {counts[1]}, net {counts[1] - counts[0]:+d}"


def run(args, results: Path) -> None:
    trees = {"parent": tree_of(args.parent), "change": tree_of(args.change)}
    with tempfile.TemporaryDirectory(prefix="abbench-") as tmp:
        dirs = {s: Path(tmp) / s for s in SIDES}
        for s in SIDES:
            unpack(trees[s], dirs[s])
        for pair, seed in enumerate(parse_seeds(args.seeds)):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for workload in args.workloads:
                for s in order:
                    rec = {"workload": workload, "pair": pair, "seed": seed, "side": s,
                           "tree": trees[s], "first": order[0],
                           "result": run_once(dirs[s], workload, seed, args.seconds)}
                    with results.open("a") as f:
                        f.write(json.dumps(rec) + "\n")
                    print(f"pair {pair} seed {seed} {workload} {s}: "
                          f"{rec['result'].get('metrics', rec['result'])}", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", help="commit-ish of the parent side")
    ap.add_argument("--change", help="commit-ish of the change side, or 'worktree'")
    ap.add_argument("--seeds", help="seeds, one pair each: '2201-2210' or '7,9,11'")
    ap.add_argument("--workloads", nargs="+", help="workload names (default: BENCHMARK.json's)")
    ap.add_argument("--seconds", type=float, help="run length (default: BENCHMARK.json's)")
    ap.add_argument("--results", help="JSON-lines file the runs are appended to")
    ap.add_argument("--summarize", metavar="RESULTS", help="only print the table of a results file")
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    args.seconds = args.seconds or bench["run_seconds"]
    args.workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    if args.summarize:
        results = Path(args.summarize)
    elif not (args.parent and args.change and args.seeds and args.results):
        ap.error("--parent, --change, --seeds and --results are required unless --summarize")
    else:
        results = Path(args.results)
        run(args, results)
    records = [json.loads(line) for line in results.read_text().splitlines() if line.strip()]
    last = "; ".join(filter(None, (src_lines(records), code_lines(records))))
    print("\n".join(summarize(records, bench["end_to_end"]) + [last]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
