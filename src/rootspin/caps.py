"""Closure-size guards.

Every fixpoint loop in the package carries an element cap so that an input
generating an infinite reflection group fails loudly instead of spinning.
The caps are constants: 10^4 roots for the reflection closure and 10^5
elements for the rotor group, the pair products of the roots.  Both add each
new row through `admit`, the one place that checks the cap, and which
calls lattice.check_row, the one place the 64-bit bound is compared, on
each row it admits.
"""

from __future__ import annotations

from .errors import ClosureCapExceeded
from .lattice import check_row

ROOT_CLOSURE_CAP = 10_000
GROUP_CLOSURE_CAP = 100_000


def ascii_digits(text: str) -> bool:
    """Whether text is all ASCII digits: int() also reads '+', '_' and other scripts' digits."""
    return text.isascii() and text.isdigit()


def admit(x: tuple[int, ...], met: set, cap: int, what: str, unit: str) -> None:
    """Add the new row x to a set of met rows, which must stay within cap.

    OverflowError, chained from lattice.check_row's, if a reduced component
    p_i/D or q_i/D of x leaves the 64-bit bound; ClosureCapExceeded once met
    holds more than cap rows.  what and unit name the set and what it counts.
    """
    try:
        check_row(x)
    except OverflowError as exc:
        raise OverflowError(f"{what} overflowed at {len(met)} {unit}; "
                            "the input likely generates an infinite group") from exc
    met.add(x)
    if len(met) > cap:
        raise ClosureCapExceeded(f"{what} exceeded cap of {cap} {unit}")
