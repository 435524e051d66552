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
from fractions import Fraction
from pathlib import Path

from .errors import RootspinError
from .qfield import QScalar, _is_square_free
from .roots import Provenance, RootSystem, Vector

FORMAT_VERSION = 1


def _coord_quad(q: QScalar) -> list[int]:
    return [q.rat.numerator, q.rat.denominator, q.surd.numerator, q.surd.denominator]


def root_system_to_json(rs: RootSystem) -> str:
    doc: dict = {"version": FORMAT_VERSION, "dim": rs.dim, "disc": rs.disc}
    if rs.label:
        doc["label"] = rs.label
    prov = rs.provenance.as_dict()
    if prov:
        doc["provenance"] = prov
    doc["roots"] = [[_coord_quad(c) for c in r.coords] for r in rs.roots]
    return json.dumps(doc, separators=(",", ":")) + "\n"


def _is_int(x) -> bool:
    return type(x) is int  # bool is an int subclass, but not a valid entry


def _check_schema(doc) -> None:
    """Raise RootspinError unless doc has the shape root_system_to_json writes."""
    if not isinstance(doc, dict):
        raise RootspinError("a root-system file must hold a JSON object")
    version = doc.get("version")
    if version != FORMAT_VERSION:
        raise RootspinError(f"unsupported root-system file version {version!r}")
    dim, disc, roots = doc.get("dim"), doc.get("disc"), doc.get("roots")
    if not (_is_int(dim) and 1 <= dim <= 4):
        raise RootspinError(f"dim must be an integer in 1..4, got {dim!r}")
    # the bound keeps the trial division of the square-free test short
    if not (_is_int(disc) and disc <= 2**32 and _is_square_free(disc)):
        raise RootspinError(f"disc must be a square-free integer in 1..2**32, got {disc!r}")
    if not isinstance(roots, list):
        raise RootspinError(f"roots must be a list, got {roots!r}")
    for coords in roots:
        if not (isinstance(coords, list) and len(coords) == dim):
            raise RootspinError(f"root {coords!r} does not have {dim} coordinates")
        for quad in coords:
            if not (isinstance(quad, list) and len(quad) == 4 and all(map(_is_int, quad))):
                raise RootspinError(
                    f"coordinate {quad!r} is not four integers [a_num, a_den, b_num, b_den]"
                )
            if quad[1] == 0 or quad[3] == 0:
                raise RootspinError(f"coordinate {quad!r} has a zero denominator")
    if not isinstance(doc.get("provenance", {}), dict):
        raise RootspinError("provenance must be a JSON object")


def root_system_from_json(text: str) -> RootSystem:
    doc = json.loads(text)
    _check_schema(doc)
    disc = doc["disc"]
    roots = [
        Vector(
            [QScalar(Fraction(an, ad), Fraction(bn, bd), disc) for an, ad, bn, bd in coords],
            disc=disc,
        )
        for coords in doc["roots"]
    ]
    prov = doc.get("provenance", {})
    return RootSystem(
        roots,
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
    return root_system_from_json(Path(path).read_text(encoding="utf-8"))


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
