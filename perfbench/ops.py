"""The benchmark's calls into rootspin, with optional spans around each one.

The warm-session server and the traced replay both answer requests through
`serve`, so the traced run makes the same library calls as the untraced
one.  Spans are recorded here, from outside the package, around public
functions; nothing inside rootspin is changed or patched.
"""

from __future__ import annotations

import io
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import rootspin
from rootspin import (
    Multivector,
    Provenance,
    QScalar,
    RootSystem,
    RootspinError,
    build_preset,
    catalog,
    check_self_dual,
    close_under_reflections,
    coxeter_order,
    generate_rotor_group,
    geometric_product,
    get_preset,
    identify,
    induce_4d,
    normalize_roots,
    reflect_euclid,
    root_system_from_json,
    root_system_to_json,
    signature,
    spinor_to_vec4,
    survey,
    to_text,
    verify_root_axioms,
)
from rootspin import cli

# the lru_cache entry points; a later version may drop some of them
CACHED = ("build_preset", "induce_4d", "induce_2d", "coxeter_order", "catalog", "survey")


class Tracer:
    """In-memory spans: [name, start, end, parent index, request id, sizes]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.request = None

    def span(self, name: str, **sizes):
        return _Span(self, name, sizes)


class _Span:
    __slots__ = ("tracer", "rec")

    def __init__(self, tracer: Tracer, name: str, sizes: dict):
        parent = tracer._stack[-1] if tracer._stack else -1
        self.tracer = tracer
        self.rec = [name, 0.0, 0.0, parent, tracer.request, sizes]

    def __enter__(self) -> dict:
        t = self.tracer
        t._stack.append(len(t.spans))
        t.spans.append(self.rec)
        self.rec[1] = time.perf_counter()
        return self.rec[5]

    def __exit__(self, *exc) -> None:
        self.rec[2] = time.perf_counter()
        self.tracer._stack.pop()


class _NoSpan:
    def __enter__(self) -> dict:
        return {}

    def __exit__(self, *exc) -> None:
        pass


class NullTracer:
    """Stands in for Tracer in untraced runs; a span costs one call."""

    request = None
    _span = _NoSpan()

    def span(self, name: str, **sizes):
        return self._span


# -- cache counters, read from outside --------------------------------------


def cache_counters() -> dict:
    """(hits, misses) per cached entry point, or None where there is no cache."""
    out = {}
    for name in CACHED:
        info = getattr(getattr(rootspin, name, None), "cache_info", None)
        out[name] = None if info is None else list(info()[:2])
    return out


def clear_caches() -> None:
    """Start from the state of a fresh process, as every CLI job does."""
    for name in CACHED:
        clear = getattr(getattr(rootspin, name, None), "cache_clear", None)
        if clear is not None:
            clear()


# -- warm-session requests ----------------------------------------------------


def make_input(inp: dict, inputs: dict) -> RootSystem:
    """Build (or reuse) the root system a warm request names."""
    rs = inputs.get(inp["key"])
    if rs is not None:
        return rs
    if "relabel_of" in inp:
        base = make_input(inp["relabel_of"], inputs)
        rs = RootSystem(base.roots, base.disc, label=inp["label"])
    elif inp["scale"] == 1:
        rs = build_preset(inp["preset"])
    else:
        base = build_preset(inp["preset"])
        s = Fraction(inp["scale"])
        rs = RootSystem([r.scale(s) for r in base.roots], base.disc, label=inp["label"])
    inputs[inp["key"]] = rs
    return rs


def warm_request(req: dict, inputs: dict, tr) -> dict:
    """Execute one warm-session request and report the facts it produced."""
    op = req["op"]
    if op == "survey":
        with tr.span("classify.survey"):
            table = survey()
        rows = [{"input": r.input, "root_count": r.root_count, "spinor_order": r.spinor_order,
                 "induced_name": r.induced_name, "axioms_ok": r.axioms_ok} for r in table.rows]
        return {"error": None, "rows": rows, "counterexample_absent": table.counterexample_absent}
    rs = make_input(req["input"], inputs)
    if op == "induce":
        with tr.span("induction.induce_4d", roots_in=len(rs)) as sz:
            out = induce_4d(rs)
            sz["roots_out"] = len(out)
        return {"error": None, "roots": len(out), "dim": out.dim, "label": out.label,
                "induced_from": out.provenance.induced_from}
    if op == "classify":
        with tr.span("classify.signature", roots_in=len(rs)):
            sig = signature(rs)
        with tr.span("classify.identify"):
            name = identify(sig)
        with tr.span("classify.coxeter_order", roots_in=len(rs)) as sz:
            order = coxeter_order(rs)
            sz["order"] = order
        return {"error": None, "roots": sig.count, "name": name, "order": order}
    with tr.span("roots.verify_root_axioms", roots_in=len(rs)):
        report = verify_root_axioms(rs)
    return {"error": None, "ok": report.ok}


def serve(requests, tr):
    """Answer warm requests in order, yielding (request, answer) pairs.

    Requests are pulled one at a time, so a client can send the next one
    after reading an answer.  An exception becomes an error answer and the
    loop goes on; the caller checks the answers.
    """
    inputs: dict = {}
    for i, req in enumerate(requests):
        tr.request = i
        try:
            answer = warm_request(req, inputs, tr)
        except Exception as exc:
            answer = {"error": f"{type(exc).__name__}: {exc}", "traceback": traceback.format_exc()}
        yield req, answer


# -- cold CLI jobs, replayed one layer at a time -------------------------------


def _build(name: str, tr) -> RootSystem:
    """build_preset from a cold cache, then its steps as a breakdown.

    The answer comes from the real call.  The steps repeat its body one call
    per span, so the gap between the two spans shows when the library's body
    has moved away from this copy.
    """
    with tr.span("presets.build_preset") as sz:
        rs = build_preset(name)
        sz["roots_out"] = len(rs)
    with tr.span("presets.build_preset.steps"):
        preset = get_preset(name)
        provenance = Provenance(preset=preset.name)
        if preset.enumerate_roots is not None:
            RootSystem(preset.enumerate_roots(), disc=preset.disc,
                       label=preset.name, provenance=provenance)
        else:
            with tr.span("roots.close_under_reflections", simple=len(preset.simple_roots)) as csz:
                steps = close_under_reflections(preset.simple_roots, disc=preset.disc,
                                                label=preset.name, provenance=provenance)
                csz["roots_out"] = len(steps)
    return rs


def _induce(rs: RootSystem, tr) -> RootSystem:
    """induce_4d from a cold cache, then its steps as a breakdown, as in `_build`."""
    with tr.span("induction.induce_4d", roots_in=len(rs)) as sz:
        out = induce_4d(rs)
        sz["roots_out"] = len(out)
    with tr.span("induction.induce_4d.steps", roots_in=len(rs)):
        with tr.span("roots.normalize_roots", roots_in=len(rs)):
            units = normalize_roots(rs)
        with tr.span("induction.generate_rotor_group", roots_in=len(units)) as gsz:
            group = generate_rotor_group(units)
            gsz["order"] = group.order
        with tr.span("clifford.spinor_to_vec4", calls=group.order):
            vecs = [spinor_to_vec4(r) for r in group]
        source = rs.label or "rank-3 input"
        with tr.span("roots.RootSystem", roots_in=len(vecs)):
            steps = RootSystem(vecs, disc=rs.disc, label=f"induced({source})",
                               provenance=Provenance(induced_from=source))
        with tr.span("roots.verify_root_axioms", roots_in=len(steps)):
            verify_root_axioms(steps)
    return out


def replay_layered(spec: dict, tr) -> dict:
    """One CLI step as its layer calls, in the form `inputs.check_cli` reads."""
    clear_caches()
    verb = spec["verb"]
    try:
        if verb == "selfdual":
            rs = _build(f"I2-{spec['n']}", tr)
            with tr.span("induction.check_self_dual", roots_in=len(rs)):
                rep = check_self_dual(rs)
            return {"exit": 0, "traceback": False, "self_dual": rep.self_dual,
                    "roots": rep.input_count, "spinors": rep.induced_count}
        if "preset" in spec:
            rs = _build(spec["preset"], tr)
        else:
            text = Path(spec["input"]).read_text(encoding="utf-8")
            with tr.span("serialize.root_system_from_json", bytes=len(text)):
                rs = root_system_from_json(text)
        got = {"exit": 0, "traceback": False}
        if verb == "induce":
            out = _induce(rs, tr)
            if spec.get("format") == "json":
                with tr.span("serialize.root_system_to_json", roots_in=len(out)):
                    text = root_system_to_json(out)
                Path(spec["output"]).write_text(text, encoding="utf-8")
                got.update(label=out.label, roots=len(out), dim=out.dim,
                           induced_from=out.provenance.induced_from)
            else:
                with tr.span("serialize.to_text", roots_in=len(out)):
                    text = to_text(out)
                got.update(label=out.label, roots=len(out), dim=out.dim, lines=text.count("\n") - 1)
        elif verb == "classify":
            with tr.span("classify.signature", roots_in=len(rs)):
                sig = signature(rs)
            with tr.span("classify.catalog") as sz:
                sz["entries"] = len(catalog())
            with tr.span("classify.identify"):
                name = identify(sig)
            with tr.span("classify.coxeter_order", roots_in=len(rs)) as sz:
                order = coxeter_order(rs)
                sz["order"] = order
            got.update(label=rs.label, roots=sig.count, name=name, order=order)
        elif verb == "verify":
            with tr.span("roots.verify_root_axioms", roots_in=len(rs)):
                report = verify_root_axioms(rs)
            got.update(label=rs.label, ok=report.ok)
        return got
    except RootspinError as exc:
        return {"exit": 2, "traceback": False, "error": type(exc).__name__}


def replay_cli_main(spec: dict, argv: list[str], tr) -> tuple[int, str, str, str | None]:
    """The same step through `rootspin.cli.main`, in process and from cold caches."""
    clear_caches()
    out, err = io.StringIO(), io.StringIO()
    with tr.span("cli.main"), redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    path = spec.get("output")
    file_text = Path(path).read_text(encoding="utf-8") if path and code == 0 else None
    return code, out.getvalue(), err.getvalue(), file_text


# -- fixed-operand micro-kernels ----------------------------------------------


def _time_kernel(fn, budget_s: float, batch: int) -> tuple[float, int]:
    """Median ns per call over batches run for budget_s, and the calls made."""
    per_op, ops = [], 0
    end = time.perf_counter() + budget_s
    while True:
        t0 = time.perf_counter()
        for _ in range(batch):
            fn()
        per_op.append((time.perf_counter() - t0) / batch * 1e9)
        ops += batch
        if time.perf_counter() >= end:
            break
    per_op.sort()
    return per_op[len(per_op) // 2], ops


def micro_kernels(budget_s: float) -> tuple[dict, list[list[str]]]:
    """A Q(sqrt5) multiply, an even Cl(3) product of two H3 rotors, one H4 reflection.

    Returns (ns per call, calls timed) per kernel, and one list of failure
    messages per kernel from checking its answer.
    """
    failures: list[list[str]] = [[], [], []]
    out = {}

    phi = QScalar(Fraction(1, 2), Fraction(1, 2), 5)
    y = QScalar(Fraction(3, 4), Fraction(-1, 4), 5)
    # (1/2 + sqrt5/2)(3/4 - sqrt5/4) = -1/4 + sqrt5/4
    if phi * y != QScalar(Fraction(-1, 4), Fraction(1, 4), 5):
        failures[0].append("micro qfield.mul: wrong product")
    out["qfield.mul"] = _time_kernel(lambda: phi * y, budget_s, 2000)

    units = normalize_roots(build_preset("H3"))
    mvs = [Multivector.from_vector(u) for u in units]
    r1, r2 = mvs[0] * mvs[7], mvs[3] * mvs[11]
    prod = geometric_product(r1, r2)
    if not prod.is_even() or prod * prod.reverse() != Multivector.scalar(1, 3):
        failures[1].append("micro clifford.geometric_product: product is not a unit rotor")
    out["clifford.geometric_product"] = _time_kernel(lambda: geometric_product(r1, r2), budget_s, 200)

    h4 = build_preset("H4")
    alpha = h4.roots[0]
    lam = next(r for r in h4.roots if r != alpha and r != -alpha and not r.dot(alpha).is_zero())
    if reflect_euclid(lam, alpha) not in h4:
        failures[2].append("micro roots.reflect_euclid: H4 is not closed under the reflection")
    out["roots.reflect_euclid"] = _time_kernel(lambda: reflect_euclid(lam, alpha), budget_s, 200)
    return out, failures


def span_cost_ns(n: int = 20000) -> float:
    """Cost of recording one empty span, the tracing overhead per span."""
    tr = Tracer()
    t0 = time.perf_counter()
    for _ in range(n):
        with tr.span("x"):
            pass
    return (time.perf_counter() - t0) / n * 1e9
