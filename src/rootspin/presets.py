"""Built-in root-system generators and direct sums.

Each preset carries explicit simple roots over its quadratic field; building
a preset closes them under reflections.  Dihedral presets I2(n) exist only
for the n whose plane rotation by 2*pi/n has exact coordinates in a
quadratic field: n in {2, 3, 4, 6, 8, 12}.  For every other n the preset
raises NotRepresentable instead of approximating.

The C3 preset is deliberately absent: after unit normalisation its roots
coincide with B3's, so it would add nothing downstream.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .caps import ascii_digits
from .errors import DimensionMismatch, FieldMismatch, NotRepresentable, RootspinError
from .qfield import QScalar
from .roots import Provenance, RootSystem, Vector, close_under_reflections, vec

HALF = Fraction(1, 2)

# exact entries over Q(sqrt(5)): the golden ratio and its inverse
PHI = QScalar(HALF, HALF, 5)
PHI_INV = QScalar(-HALF, HALF, 5)  # phi - 1 = 1/phi

_SQRT2 = QScalar.sqrt_disc(2)
_SQRT3 = QScalar.sqrt_disc(3)
_HALF_SQRT3 = QScalar(0, HALF, 3)


class Preset(NamedTuple):
    """Named generator: simple roots plus the documented closure size."""

    name: str
    dim: int
    disc: int
    simple_roots: tuple[Vector, ...]
    expected_count: int

    @property
    def enumerate_roots(self) -> None:
        # read by perfbench/ops.py::_build, which branches on it; no preset enumerates
        return None


def i2_simple_roots(n: int) -> tuple[int, tuple[Vector, Vector]]:
    """Disc and simple roots of the dihedral system I2(n), when exact."""
    if n < 2:
        raise NotRepresentable(f"I2({n}) needs n >= 2")
    if n == 2:
        return 1, (vec(1, 0), vec(0, 1))
    if n == 3:
        return 3, (vec(1, 0), vec(Fraction(-1, 2), _HALF_SQRT3))
    if n == 4:
        return 2, (vec(1, 0), vec(-1, 1))
    if n == 6:
        return 3, (vec(1, 0), vec(-_HALF_SQRT3, HALF))
    if n == 8:
        return 2, (vec(1, 0), vec(-1, _SQRT2 - 1))
    if n == 12:
        return 3, (vec(1, 0), vec(-1, 2 - _SQRT3))
    raise NotRepresentable(
        f"I2({n}) has no exact realization over a quadratic field: the plane "
        f"rotation by 2*pi/{n} needs cos and sin of degree > 2 over the rationals"
    )


def _h3_simple_roots() -> tuple[Vector, Vector, Vector]:
    # icosahedral triple with pairwise inner products -phi/2, -1/2, 0
    a1 = Vector((HALF, PHI * HALF, PHI_INV * HALF), disc=5)
    a2 = Vector((-PHI_INV * HALF, QScalar(-HALF), -PHI * HALF), disc=5)
    a3 = Vector((PHI_INV * HALF, QScalar(-HALF), PHI * HALF), disc=5)
    return a1, a2, a3


def _h4_simple_roots() -> tuple[Vector, Vector, Vector, Vector]:
    # 600-cell vertices in a Coxeter chain with labels 3, 3, 5
    zero, half, p, q = QScalar(0), QScalar(HALF), PHI * HALF, PHI_INV * HALF
    return (
        Vector((-p, half, q, zero), disc=5),
        Vector((p, zero, half, -q), disc=5),
        Vector((zero, half, -p, q), disc=5),
        Vector((-q, -p, half, zero), disc=5),
    )


@lru_cache(maxsize=1)
def _presets() -> dict[str, Preset]:
    e1, e2, e3 = vec(1, 0, 0), vec(0, 1, 0), vec(0, 0, 1)
    table = {
        "A1xA1xA1": Preset("A1xA1xA1", 3, 1, (e1, e2, e3), 6),
        # A3 realized as D3 so the standard 12 roots come out directly
        "A3": Preset(
            "A3", 3, 2,
            (vec(1, -1, 0, disc=2), vec(0, 1, -1, disc=2), vec(0, 1, 1, disc=2)),
            12,
        ),
        "B3": Preset(
            "B3", 3, 2,
            (vec(1, -1, 0, disc=2), vec(0, 1, -1, disc=2), vec(0, 0, 1, disc=2)),
            18,
        ),
        "H3": Preset("H3", 3, 5, _h3_simple_roots(), 30),
        "D4": Preset(
            "D4", 4, 2,
            (
                vec(1, -1, 0, 0, disc=2),
                vec(0, 1, -1, 0, disc=2),
                vec(0, 0, 1, -1, disc=2),
                vec(0, 0, 1, 1, disc=2),
            ),
            24,
        ),
        "F4": Preset(
            "F4", 4, 2,
            (
                vec(0, 1, -1, 0, disc=2),
                vec(0, 0, 1, -1, disc=2),
                vec(0, 0, 0, 1, disc=2),
                vec(HALF, -HALF, -HALF, -HALF, disc=2),
            ),
            48,
        ),
        "H4": Preset("H4", 4, 5, _h4_simple_roots(), 120),
    }
    return table


def _canonical_name(name: str) -> str:
    key = name.strip().lower().replace("(", "-").replace(")", "")
    if key in ("a1xa1xa1", "a1^3", "a13"):
        return "A1xA1xA1"
    if key in ("a3", "d3"):
        return "A3"
    if key == "b3":
        return "B3"
    if key == "h3":
        return "H3"
    if key in ("d4", "f4", "h4"):
        return key.upper()
    for prefix, canon in (("i2-", "I2-"), ("a1xi2-", "A1xI2-")):
        if key.startswith(prefix):
            n = key[len(prefix):]
            if ascii_digits(n):
                return f"{canon}{int(n)}"
            break
    raise KeyError(f"unknown preset {name!r}")


def preset_names() -> list[str]:
    """Canonical spellings accepted by get_preset (I2 families take any n)."""
    return ["A1xA1xA1", "A3", "B3", "H3", "I2-<n>", "A1xI2-<n>", "D4", "F4", "H4"]


def get_preset(name: str) -> Preset:
    canon = _canonical_name(name)
    if canon.startswith("I2-"):
        n = int(canon[3:])
        disc, simple = i2_simple_roots(n)
        return Preset(canon, 2, disc, simple, 2 * n)
    if canon.startswith("A1xI2-"):
        n = int(canon[6:])
        disc, planar = i2_simple_roots(n)
        simple = (vec(1, 0, 0, disc=disc),) + tuple(
            Vector((QScalar(0),) + p.coords, disc=disc) for p in planar
        )
        return Preset(canon, 3, disc, simple, 2 + 2 * n)
    return _presets()[canon]


@lru_cache(maxsize=128)
def _built_preset(name: str) -> RootSystem:
    preset = get_preset(name)
    provenance = Provenance(preset=preset.name)
    rs = close_under_reflections(
        preset.simple_roots, disc=preset.disc, label=preset.name, provenance=provenance,
    )
    if len(rs) != preset.expected_count:
        raise RootspinError(
            f"preset {preset.name} built {len(rs)} roots, "
            f"expected {preset.expected_count}"
        )
    return rs


def build_preset(name: str) -> RootSystem:
    """The named preset's root system, cached on its canonical name."""
    return _built_preset(_canonical_name(name))


build_preset.cache_info = _built_preset.cache_info
build_preset.cache_clear = _built_preset.cache_clear
build_preset.__wrapped__ = _built_preset.__wrapped__  # the uncached body


def a1_system() -> RootSystem:
    """The rank-1 system {+1, -1}, as a building block for direct sums."""
    return RootSystem([vec(1), vec(-1)], disc=1, label="A1")


def direct_sum(*systems: RootSystem, label: str | None = None) -> RootSystem:
    """Orthogonal juxtaposition of root systems in block coordinates."""
    total = sum(s.dim for s in systems)
    if not 1 <= total <= 4:
        raise DimensionMismatch(f"direct sum dimension {total} outside 1..4")
    discs = {s.disc for s in systems if s.disc != 1}
    if len(discs) > 1:
        raise FieldMismatch(f"cannot mix fields {sorted(discs)} in a direct sum")
    disc = discs.pop() if discs else 1
    # zero coordinates (0, 0) around each block keep every row reduced
    rows = []
    offset = 0
    for s in systems:
        before, after = (0, 0) * offset, (0, 0) * (total - offset - s.dim)
        rows += [before + x[:-1] + after + x[-1:] for x in s.rows]
        offset += s.dim
    if label is None:
        label = "x".join(s.label or "?" for s in systems)
    return RootSystem._from_rows(rows, disc, label)
