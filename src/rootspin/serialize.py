"""Persistence and export formats.

JSON is the only exact format: every coordinate is stored as the four
integers [a_num, a_den, b_num, b_den] of a + b*sqrt(d), with d stated once
per file.  Serialisation is canonical (sorted roots, fixed key order,
compact separators), so dump -> load -> dump is byte-identical.

OFF and CSV are lossy float views for inspection; OFF carries vertices only
(header "OFF", then "V 0 0").
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

from .errors import RootspinError
from .qfield import _is_square_free, check_row
from .roots import Provenance, RootSystem, row_vector

FORMAT_VERSION = 1


def _coord_quads(x: tuple[int, ...]) -> list[list[int]]:
    """The quads of a row (p_1, q_1, ..., D): coordinate (p + q sqrt(d)) / D in lowest terms."""
    den = x[-1]
    out = []
    for p, q in zip(x[:-1:2], x[1:-1:2]):
        g, h = math.gcd(p, den), math.gcd(q, den)
        out.append([p // g, den // g, q // h, den // h])
    return out


def root_system_to_json(rs: RootSystem) -> str:
    doc: dict = {"version": FORMAT_VERSION, "dim": rs.dim, "disc": rs.disc}
    if rs.label:
        doc["label"] = rs.label
    prov = rs.provenance.as_dict()
    if prov:
        doc["provenance"] = prov
    doc["roots"] = [_coord_quads(x) for x in rs.rows]
    return json.dumps(doc, separators=(",", ":")) + "\n"


def _is_int(x) -> bool:
    return type(x) is int  # bool is an int subclass, but not a valid entry


def _cut(text: str) -> str:
    """text for an error message: its first 60 characters and "..." when longer."""
    return text if len(text) <= 60 else text[:60] + "..."


def _check_schema(doc) -> None:
    """Raise RootspinError unless doc has the shape root_system_to_json writes."""
    if not isinstance(doc, dict):
        raise RootspinError("a root-system file must hold a JSON object")
    version = doc.get("version")
    if version != FORMAT_VERSION:
        raise RootspinError(f"unsupported root-system file version {_cut(repr(version))}")
    dim, disc, roots = doc.get("dim"), doc.get("disc"), doc.get("roots")
    if not (_is_int(dim) and 1 <= dim <= 4):
        raise RootspinError(f"dim must be an integer in 1..4, got {_cut(repr(dim))}")
    # the bound keeps the trial division of the square-free test short
    if not (_is_int(disc) and disc <= 2**32 and _is_square_free(disc)):
        raise RootspinError(
            f"disc must be a square-free integer in 1..2**32, got {_cut(repr(disc))}"
        )
    if not isinstance(roots, list):
        raise RootspinError(f"roots must be a list, got {_cut(repr(roots))}")
    for coords in roots:
        if not (isinstance(coords, list) and len(coords) == dim):
            raise RootspinError(f"root {_cut(repr(coords))} does not have {dim} coordinates")
        for quad in coords:
            if not (isinstance(quad, list) and len(quad) == 4 and all(map(_is_int, quad))):
                raise RootspinError(f"coordinate {_cut(repr(quad))} is not four integers "
                                    "[a_num, a_den, b_num, b_den]")
            if quad[1] == 0 or quad[3] == 0:
                raise RootspinError(f"coordinate {_cut(repr(quad))} has a zero denominator")
    prov = doc.get("provenance", {})
    if not isinstance(prov, dict):
        raise RootspinError("provenance must be a JSON object")
    for key, value in [("label", doc.get("label", "")), *prov.items()]:
        if not isinstance(value, str):
            raise RootspinError(f"{_cut(key)} must be a string, got {_cut(repr(value))}")


def _quads_row(coords: list[list[int]], disc: int) -> tuple[int, ...]:
    """The row of the QScalars that the quads [a_num, a_den, b_num, b_den] give, over Q(sqrt(disc)).

    OverflowError, from qfield.check_row, for a component past the 64-bit bound.
    """
    parts = []
    for an, ad, bn, bd in coords:
        if disc == 1:  # QScalar folds b*sqrt(1) into the rational part
            an, ad, bn, bd = an * bd + bn * ad, ad * bd, 0, 1
        for n, d in ((an, ad), (bn, bd)):
            g = math.gcd(n, d) if d > 0 else -math.gcd(n, d)
            parts.append((n // g, d // g))
    den = math.lcm(*(d for _, d in parts))
    row = tuple(n * (den // d) for n, d in parts) + (den,)
    check_row(row)
    return row


def root_system_from_json(text: str) -> RootSystem:
    try:
        doc = json.loads(text)
    except RecursionError:
        raise RootspinError("root-system file is nested too deeply to parse") from None
    except json.JSONDecodeError as exc:
        raise RootspinError(f"root-system file is not valid JSON: {_cut(str(exc))}") from None
    except ValueError:  # int() refuses a literal longer than sys.get_int_max_str_digits()
        raise RootspinError(
            f"root-system file has an integer of more than {sys.get_int_max_str_digits()} digits"
        ) from None
    _check_schema(doc)
    disc = doc["disc"]
    prov = doc.get("provenance", {})
    return RootSystem(
        [row_vector(_quads_row(coords, disc), disc) for coords in doc["roots"]],
        disc=disc,
        label=doc.get("label"),
        provenance=Provenance(
            preset=prov.get("preset"),
            file=prov.get("file"),
            induced_from=prov.get("induced-from"),
        ),
    )


def save_root_system(rs: RootSystem, path: str | Path) -> None:
    Path(path).write_text(root_system_to_json(rs), encoding="utf-8")


def load_root_system(path: str | Path) -> RootSystem:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise RootspinError(
            f"root-system file is not UTF-8 text ({_cut(exc.reason)} at offset {exc.start})"
        ) from None
    return root_system_from_json(text)


def to_off(rs: RootSystem) -> str:
    """Vertex-only OFF point cloud (faces are out of scope for polytopes here)."""
    lines = ["OFF", f"{len(rs)} 0 0"]
    for r in rs.roots:
        lines.append(" ".join(repr(float(c)) for c in r.coords))
    return "\n".join(lines) + "\n"


def to_csv(rs: RootSystem) -> str:
    """Coordinates as binary64 with 17 significant digits."""
    header = ",".join(f"x{i + 1}" for i in range(rs.dim))
    lines = [header]
    for r in rs.roots:
        lines.append(",".join(f"{float(c):.17g}" for c in r.coords))
    return "\n".join(lines) + "\n"


def to_text(rs: RootSystem) -> str:
    name = rs.label or "root system"
    lines = [f"# {name}: {len(rs)} roots, dim {rs.dim}, disc {rs.disc}"]
    for r in rs.roots:
        lines.append(str(r))
    return "\n".join(lines) + "\n"
