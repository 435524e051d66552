"""Exact arithmetic in real quadratic fields Q(sqrt(d)): QScalar, the public scalar.

A scalar is a + b*sqrt(d) with rational a, b and a fixed square-free
positive integer d (the field discriminant); d = 1 means plain rationals
and the surd part is absorbed on construction.  A QScalar is a
lattice.Exact of one coordinate: its row (p, q, D), reduced with D > 0, is
the value (p + q sqrt(d)) / D, and `rat`, `surd` and `disc` are read-only
views of that row and its field.  Its `+`, `-`, negation, `==` and `<` are
Exact's, its `*` is Exact.scale, its `<=`, `>` and `>=` are `<` and `==`
combined by functools.total_ordering, and its sign, like Exact's `<`, is
lattice.field_cmp on the row, so the package has one arithmetic, on ints:
QScalar adds to it only the step that turns an int or a Fraction operand
into a QScalar (`_operand`).  Each part is bounded to 64-bit numerator and
denominator: a new row whose reduced part leaves the bound raises
OverflowError loudly (lattice.check_row) instead of growing silently.  A
comparison takes an int or a Fraction as it is, with no bound.  The bound is
a contract on roots and new rows, not on derived values: an angle key
(lattice.AngleKey), a squared norm or an inner product on the way to a unit
root is a row of ints and never a QScalar.

This module also holds the field's integer square root `field_sqrt`, of
values (x + y sqrt(d)) / z, which QScalar.sqrt and roots.unit_rows call;
`from_numerators`, which decodes a row into its QScalars when a Vector's or
a Multivector's values are first read; and `format_value`, the one text of a
value: QScalar's `str`, and `scalar_or_text`'s for the squared norm that
roots.unit_rows names in NormNotInField, printed the same past the bound.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import total_ordering
from itertools import product
from typing import Optional, Union

from .errors import DomainError
from .lattice import Exact, Numerators, check_row, coordinates, field_cmp

_SQUARE_FREE_CACHE: dict[int, bool] = {}


def _is_square_free(d: int) -> bool:
    if d in _SQUARE_FREE_CACHE:
        return _SQUARE_FREE_CACHE[d]
    ok = d >= 1
    k = 2
    n = d
    while ok and k * k <= n:
        if n % (k * k) == 0:
            ok = False
        k += 1
    _SQUARE_FREE_CACHE[d] = ok
    return ok


def checked_disc(disc: int) -> int:
    """disc, or DomainError unless it is a positive square-free integer: a field's disc."""
    if not _is_square_free(disc):
        raise DomainError(f"discriminant {disc} must be a positive square-free integer")
    return disc


def field_sqrt(x: int, y: int, z: int, disc: int) -> Optional[tuple[int, int, int]]:
    """The non-negative square root (a + b sqrt(d)) / c of (x + y sqrt(d)) / z, as
    reduced ints with c > 0, or None when the value is negative or is not a square
    in Q(sqrt(d)).  Ints, with no bound.

    The root of (x + y sqrt(d)) / z is that of X + Y sqrt(d) = (x + y sqrt(d)) z,
    over z.  (p + q sqrt(d))^2 = X + Y sqrt(d) says p^2 + d q^2 = X and 2pq = Y,
    so 4 p^2 and 4 d q^2 are 2 (X +- S), where S^2 = X^2 - d Y^2 is the square of
    p^2 - d q^2.  Where 2 (X +- S) is m^2, p = m / 2 and q = Y / m; where it is
    d m^2, q = m / 2 and p = Y / m.  2 (X + S), the larger, is read first, so the
    part read off it is the larger in size, and positive: the root is not negative.
    """
    if disc == 1:
        x, y = x + y, 0
    if z < 0:
        x, y, z = -x, -y, -z
    x, y = x * z, y * z
    if not x and not y:
        return 0, 0, 1
    n = x * x - disc * y * y
    s = math.isqrt(max(n, 0))
    if x < 0 or s * s != n:  # with X^2 >= d Y^2, X + Y sqrt(d) has the sign of X
        return None
    for t, k in product((2 * (x + s), 2 * (x - s)), (1, disc)):
        m = math.isqrt(t // k)
        if m and k * m * m == t:
            a, b, c = (m * m, 2 * y, 2 * m * z) if k == 1 else (2 * y, m * m, 2 * m * z)
            g = math.gcd(a, b, c)
            return a // g, b // g, c // g
    return None


def format_value(rat: Fraction, surd: Fraction, disc: int) -> str:
    """The text of rat + surd sqrt(disc), as QScalar prints it, for Fractions of any size."""
    if surd == 0:
        return str(rat)
    text = f"sqrt({disc})" if abs(surd) == 1 else f"{abs(surd)}*sqrt({disc})"
    if rat == 0:
        return text if surd > 0 else f"-{text}"
    return f"{rat}{'+' if surd > 0 else '-'}{text}"


def scalar_or_text(rat: Fraction, surd: Fraction, disc: int) -> Union[QScalar, str]:
    """The QScalar rat + surd sqrt(disc) where both parts are within the 64-bit bound, else
    its text by format_value: a derived value that an error names, printed the same either way."""
    try:
        return QScalar(rat, surd, disc)
    except OverflowError:
        return format_value(rat, surd, disc)


def from_numerators(x: Numerators, disc: int) -> tuple[QScalar, ...]:
    """The QScalars of the row x's coordinates, over Q(sqrt(disc)): coordinate i is the
    QScalar whose row is (p_i, q_i, D), reduced."""
    out = []
    for c in coordinates(x):
        g = math.gcd(*c)
        out.append(QScalar._from_row((c[0] // g, c[1] // g, c[2] // g), disc))
    return tuple(out)


@total_ordering
class QScalar(Exact):
    """An exact element a + b*sqrt(d) of the quadratic field Q(sqrt(d)): the lattice.Exact
    whose row is the one coordinate (p, q, D), the value (p + q sqrt(d)) / D.

    >>> phi = QScalar(Fraction(1, 2), Fraction(1, 2), 5)
    >>> phi.row
    (1, 1, 2)
    >>> phi * phi == phi + 1
    True
    >>> float(phi)
    1.618033988749895
    >>> phi.inverse() + 1 == phi
    True
    """

    __slots__ = ()
    _scalar = True  # a factor of Exact.scale

    def __init__(self, rat, surd=0, disc: int = 1):
        rat, surd = Fraction(rat), Fraction(surd)
        if checked_disc(disc) == 1:
            rat, surd = rat + surd, Fraction(0)
        den = math.lcm(rat.denominator, surd.denominator)
        row = (rat.numerator * (den // rat.denominator),
               surd.numerator * (den // surd.denominator), den)
        check_row(row)
        super().__init__(row, disc)

    @property
    def rat(self) -> Fraction:
        """The rational part a."""
        return Fraction(self.row[0], self.row[2])

    @property
    def surd(self) -> Fraction:
        """The coefficient b of sqrt(d)."""
        return Fraction(self.row[1], self.row[2])

    @classmethod
    def sqrt_disc(cls, disc: int) -> "QScalar":
        """The element sqrt(d) itself.

        >>> QScalar.sqrt_disc(2) * QScalar.sqrt_disc(2)
        QScalar('2', disc=2)
        """
        return cls(0, 1, disc)

    # -- ring operations: Exact's, on the row ---------------------------------

    def _operand(self, other) -> "QScalar":
        # an int or a Fraction becomes a QScalar, 64-bit-checked, as an operand of Exact's
        # arithmetic; anything else but a QScalar is refused
        if isinstance(other, (int, Fraction)):
            return QScalar._from_row((other.numerator, 0, other.denominator), 1)
        if not isinstance(other, QScalar):
            raise TypeError(f"cannot interpret {other!r} as a QScalar")
        return other

    __radd__ = Exact.__add__
    __mul__ = __rmul__ = Exact.scale

    def __rsub__(self, other) -> "QScalar":
        return self._operand(other) - self

    def __truediv__(self, other) -> "QScalar":
        return self * self._operand(other).inverse()

    def __rtruediv__(self, other) -> "QScalar":
        return self._operand(other) * self.inverse()

    def conjugate(self) -> "QScalar":
        """Galois conjugate a - b*sqrt(d)."""
        p, q, den = self.row
        return QScalar._from_row((p, -q, den), self.disc)

    def inverse(self) -> "QScalar":
        """Exact multiplicative inverse via the conjugate.

        >>> QScalar.sqrt_disc(2).inverse()
        QScalar('1/2*sqrt(2)', disc=2)
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        p, q, den = self.row
        # D / (p + q sqrt(d)) = D (p - q sqrt(d)) / n, n = p^2 - d q^2 nonzero (d square-free)
        n = p * p - self.disc * q * q
        s = 1 if n > 0 else -1
        g = math.gcd(den * p, den * q, n)
        return QScalar._from_row((s * den * p // g, -s * den * q // g, s * n // g), self.disc)

    # -- exact order -------------------------------------------------------

    def sign(self) -> int:
        """Sign of the real value a + b*sqrt(d): -1, 0 or +1, decided exactly."""
        return field_cmp(self.row, (0, 0, 1), self.disc)

    def __hash__(self):
        # a rational value hashes as its Fraction, so it agrees with == on ints,
        # Fractions and the same value under any disc tag
        p, q, den = self.row
        return hash(self.row) if q else hash(Fraction(p, den))

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- roots and export ----------------------------------------------------

    def sqrt(self) -> Optional["QScalar"]:
        """The non-negative square root within the field, field_sqrt's, or None if
        none exists there; DomainError for a negative value.

        >>> QScalar(2, 0, 2).sqrt()
        QScalar('sqrt(2)', disc=2)
        >>> QScalar(3, 0, 2).sqrt() is None
        True
        """
        if self.sign() < 0:
            raise DomainError(f"sqrt of negative value {self}")
        root = field_sqrt(*self.row, self.disc)
        return None if root is None else QScalar._from_row(root, self.disc)

    def __float__(self) -> float:
        return float(self.rat) + float(self.surd) * math.sqrt(self.disc)

    def __repr__(self) -> str:
        return f"QScalar({str(self)!r}, disc={self.disc})"

    def __str__(self) -> str:
        return format_value(self.rat, self.surd, self.disc)


def phi() -> QScalar:
    """The golden ratio (1 + sqrt(5))/2 in Q(sqrt(5))."""
    return QScalar(Fraction(1, 2), Fraction(1, 2), 5)
