"""Seeded workload inputs and the checks on the answers they produce.

Every input is a plain dict, so the untraced runner, the warm-session server
and the traced replay all see the same stream for the same seed.  The checks
compare answers with `facts`; a mismatch becomes a failure message and never
stops the run.
"""

from __future__ import annotations

import json
import os
import random
import re

from facts import (
    INDUCED,
    NORM_NOT_IN_FIELD_N,
    SELF_DUAL_N,
    SYSTEMS,
    expected_survey_rows,
)

# -- cold workloads: one spec per CLI process --------------------------------

CRYSTAL_CLASSIFY = ("A1xA1xA1", "A3", "B3", "I2-3", "I2-4", "I2-6",
                    "A1xI2-4", "A1xI2-6", "D4", "F4")
CRYSTAL_INDUCE = ("A3", "B3", "A1xI2-6")
CRYSTAL_VERIFY = ("F4",)
CRYSTAL_SELFDUAL = (2, 3, 4, 6, 8)


def icosian_job(json_path: str) -> list[dict]:
    """The paper's headline path as a user runs it: two fresh processes."""
    return [
        {"verb": "induce", "preset": "H3", "format": "json", "output": json_path},
        {"verb": "classify", "input": json_path, "expect": "H4", "label": "induced(H3)"},
    ]


def crystal_cycle(seed: int, cycle: int) -> list[list[dict]]:
    """One seeded shuffle of every crystal-cli job; each job is one process."""
    jobs = [[{"verb": "classify", "preset": p}] for p in CRYSTAL_CLASSIFY]
    jobs += [[{"verb": "induce", "preset": p}] for p in CRYSTAL_INDUCE]
    jobs += [[{"verb": "verify", "preset": p}] for p in CRYSTAL_VERIFY]
    jobs += [[{"verb": "selfdual", "n": n}] for n in CRYSTAL_SELFDUAL]
    random.Random(f"crystal:{seed}:{cycle}").shuffle(jobs)
    return jobs


def cold_unit(workload: str, seed: int, index: int, tmp: str) -> list[list[dict]]:
    """The jobs of one unit: one icosian job, or one crystal cycle."""
    if workload == "icosian-cold":
        return [icosian_job(os.path.join(tmp, f"icosian-{index}.json"))]
    return crystal_cycle(seed, index)


def cli_argv(spec: dict) -> list[str]:
    argv = [spec["verb"]]
    if spec["verb"] == "selfdual":
        argv.append(str(spec["n"]))
    elif "preset" in spec:
        argv += ["--preset", spec["preset"]]
    else:
        argv += ["--input", spec["input"]]
    if "format" in spec:
        argv += ["--format", spec["format"]]
    if "output" in spec:
        argv += ["--output", spec["output"]]
    return argv


def _int(pattern: str, text: str):
    m = re.search(pattern, text, re.M)
    return int(m.group(1)) if m else None


def _str(pattern: str, text: str):
    m = re.search(pattern, text, re.M)
    return m.group(1) if m else None


def parse_cli(spec: dict, code: int, stdout: str, stderr: str, file_text: str | None) -> dict:
    """The facts a CLI process reported, in the form `check_cli` compares."""
    out = {"exit": code, "traceback": "Traceback (most recent call last)" in stderr}
    if code != 0:
        out["error"] = _str(r"^rootspin: (\w+):", stderr)
        return out
    verb = spec["verb"]
    if verb == "classify":
        out.update(label=_str(r"^label: (\S+)$", stdout),
                   roots=_int(r"^signature: dim \d+, (\d+) roots", stdout),
                   name=_str(r"^identified: (\S+)$", stdout),
                   order=_int(r"^coxeter order: (\d+)$", stdout))
    elif verb == "induce" and spec.get("format") == "json":
        try:
            doc = json.loads(file_text or "")
            out.update(label=doc.get("label"), roots=len(doc["roots"]), dim=doc.get("dim"),
                       induced_from=doc.get("provenance", {}).get("induced-from"))
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            out["unparsed"] = f"{type(exc).__name__}: {exc}"
    elif verb == "induce":
        header = re.match(r"# (\S+): (\d+) roots, dim (\d+)", stdout)
        if header:
            out.update(label=header.group(1), roots=int(header.group(2)), dim=int(header.group(3)),
                       lines=stdout.count("\n") - 1)
    elif verb == "verify":
        out.update(label=_str(r"^(\S+): axiom1", stdout),
                   ok=bool(re.search(r"axiom1 \(scalar multiples\): pass; "
                                     r"axiom2 \(reflection closure\): pass$", stdout, re.M)))
    elif verb == "selfdual":
        m = re.match(r"I2-(\d+): (self-dual|NOT self-dual) \((\d+) roots <-> (\d+) spinors\)", stdout)
        if m:
            out.update(self_dual=m.group(2) == "self-dual", roots=int(m.group(3)),
                       spinors=int(m.group(4)))
    return out


def check_cli(spec: dict, got: dict) -> list[str]:
    """Failure messages for one CLI step; empty when every fact matches."""
    verb = spec["verb"]
    want: dict = {"exit": 0, "traceback": False}
    if verb == "classify":
        key = spec.get("expect") or spec["preset"]
        sysm = SYSTEMS[key]
        want.update(label=spec.get("label") or spec["preset"], roots=sysm.roots,
                    name=sysm.name, order=sysm.order)
    elif verb == "induce":
        src = spec["preset"]
        want.update(label=f"induced({src})", roots=SYSTEMS[INDUCED[src]].roots, dim=4)
        if spec.get("format") == "json":
            want["induced_from"] = src
        else:
            want["lines"] = want["roots"]
    elif verb == "verify":
        want.update(label=spec["preset"], ok=True)
    elif verb == "selfdual":
        n = spec["n"]
        if n in SELF_DUAL_N:
            want.update(self_dual=True, roots=2 * n, spinors=2 * n)
        elif n in NORM_NOT_IN_FIELD_N:
            want.update(exit=2, error="NormNotInField")
    return [f"{verb} {json.dumps(spec, sort_keys=True)}: {k} is {got.get(k)!r}, expected {v!r}"
            for k, v in want.items() if got.get(k) != v]


# -- warm-session: a closed-loop stream of library requests ------------------

# The request mix is synthetic: no observed usage fixes it, so every share
# follows from a stated rule rather than from measured traffic.
#   * The four request kinds (induce, classify, verify, survey) get equal
#     shares, since nothing says one is more common than another.
#   * induce, classify and verify split their share evenly between `repeat`
#     (resend an earlier input of the same kind: a hit where the call is
#     cached), `relabel` (an earlier input's roots under a new label:
#     content-equal, so cached calls hit) and `fresh` (a rescaled copy no
#     request has used: a miss).
#   * survey() takes no input, so every survey request is a repeat.
#   * The working set is the paper's three rank-3 inputs A3, B3 and H3, one
#     request per preset for each kind and mode.
# Every round holds exactly these entries, in a seeded order, so each round
# does the same work and a run's figures do not depend on what the seed drew.
WARM_PRESETS = ("A3", "B3", "H3")
WARM_ROUND = tuple(
    (op, preset, mode)
    for op in ("induce", "classify", "verify")
    for mode in ("repeat", "relabel", "fresh")
    for preset in WARM_PRESETS
) + (("survey", None, "repeat"),) * (3 * len(WARM_PRESETS))


class WarmStream:
    """Generates warm-session requests round by round from one seed.

    An input is `{"key", "preset", "scale", "label"}`, or `{"key",
    "relabel_of", "label"}` for a relabelled copy, where `relabel_of` is the
    earlier input itself.  Scaling every root by an integer keeps all
    invariants, so a fresh input has the same expected answers as its preset
    while its content, and so its cache key, is new.
    """

    def __init__(self, seed: int):
        self.rng = random.Random(f"warm:{seed}")
        self.next_key = 0
        self.used: dict[tuple, list[dict]] = {}  # (op, preset) -> inputs sent
        self.scales: dict[str, set] = {}

    def _input(self, **fields) -> dict:
        self.next_key += 1
        return {"key": self.next_key, **fields}

    def _request(self, op: str, preset, inp) -> dict:
        if inp is not None:
            self.used.setdefault((op, preset), []).append(inp)
        return {"op": op, "preset": preset, "input": inp}

    def warmup(self) -> list[dict]:
        """Fill the caches: each request kind a round repeats or relabels, once, unscaled.

        Verification is not cached, so its first inputs are registered for
        later repeats without being sent.
        """
        reqs = []
        for op, preset, mode in WARM_ROUND:
            if op == "survey" or mode == "fresh" or (op, preset) in self.used:
                continue
            req = self._request(op, preset, self._input(preset=preset, scale=1, label=preset))
            if op != "verify":
                reqs.append(req)
        reqs.append(self._request("survey", None, None))
        return reqs

    def round(self) -> list[dict]:
        entries = list(WARM_ROUND)
        self.rng.shuffle(entries)
        reqs = []
        for op, preset, mode in entries:
            if op == "survey":
                reqs.append(self._request(op, None, None))
            elif mode == "repeat":
                reqs.append(self._request(op, preset, self.rng.choice(self.used[(op, preset)])))
            elif mode == "relabel":
                base = self.rng.choice(self.used[(op, preset)])
                inp = self._input(relabel_of=base, label=f"{preset}-r{self.next_key + 1}")
                reqs.append(self._request(op, preset, inp))
            else:
                taken = self.scales.setdefault(preset, set())
                scale = self.rng.choice([s for s in range(2, 400) if s not in taken])
                taken.add(scale)
                reqs.append(self._request(op, preset, self._input(preset=preset, scale=scale, label=preset)))
        return reqs


def _warm_want(req: dict) -> dict:
    op, preset, inp = req["op"], req["preset"], req["input"]
    want: dict = {"error": None}
    if op == "induce":
        label = inp["label"]
        want.update(roots=SYSTEMS[INDUCED[preset]].roots, dim=4,
                    label=f"induced({label})", induced_from=label)
    elif op == "classify":
        sysm = SYSTEMS[preset]
        want.update(roots=sysm.roots, name=sysm.name, order=sysm.order)
    elif op == "verify":
        want.update(ok=True)
    elif op == "survey":
        want.update(rows=expected_survey_rows(), counterexample_absent=True)
    return want


def check_warm(req: dict, got: dict) -> tuple[list[str], bool]:
    """Failure messages for one warm request, and whether they are the known defect.

    An induced system must name exactly the label its input carries, whatever
    the cache holds.  The known defect (ROADMAP item 4) is an induce_4d cache
    keyed by content alone: an induce request on a relabelled input, or a
    repeat of one, gets the label of the content-equal input cached first.
    Only a label or provenance mismatch on such a request counts as that
    defect; every other failure counts against `correct`.
    """
    want = _warm_want(req)
    wrong = [k for k, v in want.items() if got.get(k) != v]
    inp = req["input"]
    known = (bool(wrong) and req["op"] == "induce" and "relabel_of" in inp
             and set(wrong) <= {"label", "induced_from"})
    msgs = [f"{req['op']} {req['preset']} input {inp and inp['key']}: "
            f"{k} is {got.get(k)!r}, expected {want[k]!r}" for k in wrong]
    return msgs, known


# Reference seconds (see hostspeed.py) one unit of each workload takes: an
# icosian job, a crystal cycle of 19 jobs, a warm round of 36 requests.
# Measured on the machine the benchmark was written on.
UNIT_S = {"icosian-cold": 7.5, "crystal-cli": 21.0, "warm-session": 3.75}


def unit_count(workload: str, seconds: float) -> int:
    """Whole units (job, cycle or round) a run of `seconds` does, at least one.

    Runs are made of whole units, so that every run does the same mix of
    work, and the count depends on nothing measured, so that a run's
    attempted and failed counts depend only on its seed.
    """
    return max(1, round(seconds / UNIT_S[workload]))
