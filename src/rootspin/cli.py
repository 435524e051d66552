"""Command-line front end.

Verbs: roots, induce, verify, classify, selfdual, survey, export.
A root-system source is either --preset <name> or --input <file.json>;
output format is json (exact), text, csv or off (floats).  Exit codes:
0 success (negative verdicts like failed axioms are results, not errors),
1 usage error, 2 domain error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .caps import positive_int
from .classify import coxeter_order, identify, signature, survey
from .errors import RootspinError
from .induction import check_self_dual, induce_2d, induce_4d
from .presets import build_preset, preset_names
from .roots import RootSystem, verify_root_axioms
from .serialize import load_root_system, root_system_to_json, to_csv, to_off, to_text

_FORMATS = ("json", "csv", "off", "text")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we use 1
        self.exit(1, f"{self.prog}: error: {message}\n")


class UsageError(Exception):
    pass


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="rootspin",
        description="Exact root systems, rotor groups, and the 3D->4D induction.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_common(p, source=True):
        if source:
            p.add_argument("--preset", help=f"preset name, one of {preset_names()}")
            p.add_argument("--input", help="path to a root-system JSON file")
        p.add_argument("--format", choices=_FORMATS, default="text")
        p.add_argument("--output", help="output path (default: stdout)")
        p.add_argument("--cap", type=positive_int, help="closure element cap override")

    add_common(sub.add_parser("roots", help="generate/load a root system"))
    add_common(sub.add_parser("export", help="re-emit a root system in another format"))
    add_common(sub.add_parser("induce", help="run the spinor induction (3D->4D or 2D->2D)"))
    add_common(sub.add_parser("verify", help="check the two root-system axioms"))
    add_common(sub.add_parser("classify", help="signature, catalog name and group order"))

    p_self = sub.add_parser("selfdual", help="self-duality check for I2(n)")
    p_self.add_argument("n", type=int, help="dihedral index n >= 2")
    add_common(p_self, source=False)

    add_common(sub.add_parser("survey", help="full induction survey table"), source=False)
    return parser


def _resolve_source(args) -> RootSystem:
    if bool(args.preset) == bool(args.input):
        raise UsageError("exactly one of --preset or --input is required")
    if args.preset:
        try:
            return build_preset(args.preset, cap=args.cap)
        except KeyError as exc:
            raise UsageError(str(exc)) from exc
    return load_root_system(args.input)


def _emit(text: str, args) -> None:
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _render(rs: RootSystem, fmt: str) -> str:
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
    rs = _resolve_source(args)
    if rs.dim == 3:
        induced = induce_4d(rs, cap=args.cap)
    elif rs.dim == 2:
        induced = induce_2d(rs)
    else:
        raise RootspinError(f"induction needs a 2D or 3D system, got dim {rs.dim}")
    _emit(_render(induced, args.format), args)
    return 0


def _cmd_verify(args) -> int:
    rs = _resolve_source(args)
    report = verify_root_axioms(rs)
    name = rs.label or "input"
    _emit(f"{name}: {report.summary()}\n", args)
    return 0


def _cmd_classify(args) -> int:
    rs = _resolve_source(args)
    sig = signature(rs)
    lines = [
        f"label: {rs.label or 'input'}",
        f"signature: {sig}",
        f"identified: {identify(sig)}",
        f"coxeter order: {coxeter_order(rs)}",
    ]
    _emit("\n".join(lines) + "\n", args)
    return 0


def _cmd_selfdual(args) -> int:
    rs = build_preset(f"I2-{args.n}", cap=args.cap)
    _emit(check_self_dual(rs).summary() + "\n", args)
    return 0


def _cmd_survey(args) -> int:
    table = survey()
    if args.format == "csv":
        _emit(table.to_csv(), args)
    elif args.format == "text":
        _emit(table.to_text(), args)
    else:
        raise UsageError("survey supports --format text or csv")
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
    except (
        RootspinError,
        OverflowError,
        ZeroDivisionError,
        OSError,
        ValueError,  # malformed JSON and friends
        KeyError,
    ) as exc:
        print(f"rootspin: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
