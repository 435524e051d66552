"""Command-line front end.

Verbs: roots, induce, verify, classify, selfdual, survey, export.  Each verb
takes only the options its handler reads.  A root-system source (roots,
export, induce, verify, classify) is either --preset <name> or --input
<file.json>.  roots, export and induce write --format json (exact), text,
csv or off (floats), survey text or csv.  Every verb takes --output; no
option sets a closure cap, as the caps are constants (caps.py).  Exit codes:
0 success (negative verdicts like failed axioms are results, not errors),
1 usage error, 2 domain error.

Only the parser's needs are imported up front; each verb imports the modules
it runs, so a fresh process compiles no more of rootspin than its verb uses.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .caps import ascii_digits
from .errors import RootspinError
from .presets import build_preset, i2_simple_roots, preset_names

if TYPE_CHECKING:
    from .roots import RootSystem

_FORMATS = ("json", "csv", "off", "text")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we use 1
        self.exit(1, f"{self.prog}: error: {message}\n")


class UsageError(Exception):
    pass


def integer(text: str) -> int:
    """text as an int: ASCII digits after an optional '-', surrounding whitespace aside."""
    digits = text.strip()
    if not ascii_digits(digits.removeprefix("-")):
        raise ValueError(f"not an integer: {text!r}")
    return int(digits)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="rootspin",
        description="Exact root systems, rotor groups, and the 3D->4D induction.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_options(p, source=True, formats=_FORMATS):
        # only the options the verb's handler reads
        if source:
            p.add_argument("--preset", help=f"preset name, one of {preset_names()}")
            p.add_argument("--input", help="path to a root-system JSON file")
        if formats:
            p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--output", help="output path (default: stdout)")

    add_options(sub.add_parser("roots", help="generate/load a root system"))
    add_options(sub.add_parser("export", help="re-emit a root system in another format"))
    add_options(sub.add_parser("induce", help="run the spinor induction (3D->4D or 2D->2D)"))
    add_options(sub.add_parser("verify", help="check the two root-system axioms"), formats=())
    add_options(sub.add_parser("classify", help="signature, catalog name and group order"),
                formats=())

    p_self = sub.add_parser("selfdual", help="self-duality check for I2(n)")
    p_self.add_argument("n", type=integer, help="dihedral index n >= 2")
    add_options(p_self, source=False, formats=())

    add_options(sub.add_parser("survey", help="full induction survey table"), source=False,
                formats=("text", "csv"))
    return parser


def _resolve_source(args) -> RootSystem:
    if bool(args.preset) == bool(args.input):
        raise UsageError("exactly one of --preset or --input is required")
    if args.preset:
        try:
            return build_preset(args.preset)
        except KeyError as exc:
            raise UsageError(exc.args[0]) from exc
    from .serialize import load_root_system

    return load_root_system(args.input)


def _emit(text: str, args) -> None:
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _render(rs: RootSystem, fmt: str) -> str:
    from .serialize import root_system_to_json, to_csv, to_off, to_text

    if fmt == "json":
        return root_system_to_json(rs)
    if fmt == "csv":
        return to_csv(rs)
    if fmt == "off":
        return to_off(rs)
    return to_text(rs)


def _cmd_roots(args) -> int:
    _emit(_render(_resolve_source(args), args.format), args)
    return 0


def _cmd_induce(args) -> int:
    from .induction import induce_2d, induce_4d

    rs = _resolve_source(args)
    if rs.dim == 3:
        induced = induce_4d(rs)
    elif rs.dim == 2:
        induced = induce_2d(rs)
    else:
        raise RootspinError(f"induction needs a 2D or 3D system, got dim {rs.dim}")
    _emit(_render(induced, args.format), args)
    return 0


def _cmd_verify(args) -> int:
    from .roots import verify_root_axioms

    rs = _resolve_source(args)
    report = verify_root_axioms(rs)
    name = rs.label or "input"
    _emit(f"{name}: {report.summary()}\n", args)
    return 0


def _cmd_classify(args) -> int:
    from .classify import coxeter_order, identify, signature

    rs = _resolve_source(args)
    sig = signature(rs)
    lines = [f"label: {rs.label or 'input'}", f"signature: {sig}", f"identified: {identify(sig)}"]
    try:  # a set that is not reflection-closed has no order: its other lines still go out
        lines.append(f"coxeter order: {coxeter_order(rs)}")
    finally:
        _emit("\n".join(lines) + "\n", args)
    return 0


def _cmd_selfdual(args) -> int:
    from .induction import check_self_dual

    i2_simple_roots(args.n)  # the family's n >= 2 check: "I2--3" is no preset name
    rs = build_preset(f"I2-{args.n}")
    _emit(check_self_dual(rs).summary() + "\n", args)
    return 0


def _cmd_survey(args) -> int:
    from .classify import survey

    table = survey()
    _emit(table.to_csv() if args.format == "csv" else table.to_text(), args)
    return 0


_COMMANDS = {
    "roots": _cmd_roots,
    "export": _cmd_roots,
    "induce": _cmd_induce,
    "verify": _cmd_verify,
    "classify": _cmd_classify,
    "selfdual": _cmd_selfdual,
    "survey": _cmd_survey,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.verb](args)
    except UsageError as exc:
        print(f"rootspin: error: {exc}", file=sys.stderr)
        return 1
    except (RootspinError, OSError, OverflowError) as exc:
        print(f"rootspin: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
