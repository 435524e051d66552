"""Expected answers, derived from the mathematics rather than from program output.

Root counts and Coxeter group orders are the standard ones (Humphreys,
*Reflection Groups and Coxeter Groups*, 1990, section 2.11): |W(A1^3)| = 8,
|W(A3)| = 24, |W(B3)| = 48, |W(H3)| = 120, |W(I2(n))| = 2n, |W(D4)| = 192,
|W(F4)| = 1152, |W(H4)| = 14400, and the order of a direct sum is the product
of the orders.  The induction table is the one of arXiv:1207.7339: the spinor
group of a rank-3 system has |W| elements, and A1^3 -> A1^4, A3 -> D4,
B3 -> F4, H3 -> H4, A1 x I2(n) -> I2(n) x I2(n).

The names are the spellings `rootspin.catalog` uses for these systems.
Nothing here imports rootspin, so the checks stay independent of the code
they check.
"""

from __future__ import annotations


class System:
    """Invariants of one root system: dimension, root count, name, |W|."""

    def __init__(self, dim: int, roots: int, name: str, order: int):
        self.dim, self.roots, self.name, self.order = dim, roots, name, order


def _dihedral(n: int) -> System:
    return System(2, 2 * n, f"I2-{n}", 2 * n)


def _a1_dihedral(n: int) -> System:
    return System(3, 2 + 2 * n, f"I2-{n}xA1", 2 * 2 * n)


def _dihedral_square(n: int) -> System:
    return System(4, 4 * n, f"I2-{n}xI2-{n}", (2 * n) ** 2)


SYSTEMS = {
    "A1xA1xA1": System(3, 6, "A1xA1xA1", 8),
    "A3": System(3, 12, "A3", 24),
    "B3": System(3, 18, "B3", 48),
    "H3": System(3, 30, "H3", 120),
    "D4": System(4, 24, "D4", 192),
    "F4": System(4, 48, "F4", 1152),
    "H4": System(4, 120, "H4", 14400),
    "A1xA1xA1xA1": System(4, 8, "A1xA1xA1xA1", 16),
}
for _n in (3, 4, 6):
    SYSTEMS[f"I2-{_n}"] = _dihedral(_n)
    SYSTEMS[f"A1xI2-{_n}"] = _a1_dihedral(_n)
    SYSTEMS[f"I2-{_n}xI2-{_n}"] = _dihedral_square(_n)

# rank-3 input -> catalog key of the 4D system its spinor group reads out as
INDUCED = {
    "A1xA1xA1": "A1xA1xA1xA1",
    "A3": "D4",
    "B3": "F4",
    "H3": "H4",
    **{f"A1xI2-{n}": f"I2-{n}xI2-{n}" for n in (3, 4, 6)},
}

# I2(n) is its own spinor image; it has an exact unit realization over a
# quadratic field only for n in {2, 3, 4, 6}.  For n = 8 and 12 the second
# root orbit has a squared norm that is not a square in its field.
SELF_DUAL_N = (2, 3, 4, 6)
NORM_NOT_IN_FIELD_N = (8, 12)

# rows of rootspin.survey(): A1 x I2(5) has no exact quadratic realization
SURVEY_INPUTS = ("A1xA1xA1", "A1xI2-3", "A1xI2-4", "A1xI2-5", "A1xI2-6", "A3", "B3", "H3")
UNREALIZABLE = {"A1xI2-5"}


def expected_survey_rows() -> list[dict]:
    rows = []
    for name in SURVEY_INPUTS:
        if name in UNREALIZABLE:
            rows.append({"input": name, "root_count": None, "spinor_order": None,
                         "induced_name": "unrealizable", "axioms_ok": None})
            continue
        src = SYSTEMS[name]
        rows.append({"input": name, "root_count": src.roots, "spinor_order": src.order,
                     "induced_name": SYSTEMS[INDUCED[name]].name, "axioms_ok": True})
    return rows
