"""Exact arithmetic in real quadratic fields Q(sqrt(d)).

A scalar is a + b*sqrt(d) with rational a, b and a fixed square-free
positive integer d (the field discriminant); d = 1 means plain rationals
and the surd part is absorbed on construction.  All operations are exact,
canonically reduced and hashable, so closures and comparisons elsewhere in
the package are decidable with no floating-point tolerance.

Rational components ride on fractions.Fraction but are bounded to 64-bit
numerator/denominator; exceeding the bound raises OverflowError loudly
instead of growing silently.  QScalar is the public scalar; the loops over
roots run on Python ints in lattice.py's kernels: the angle counts and the
reflection table of a root set, and the numerator tuples on which the
reflection closure and (with lattice.py's geometric product) the rotor group's
pair products work.  The closure and the pair products keep this module's
64-bit bound on every root or element they add, through caps.admit.  The
bound is a contract on roots and new rows, not on derived values: an angle
key (lattice.AngleKey) is a row of ints and is never a QScalar, and a squared
norm or an inner product on the way to a unit root is one too.  So is a
comparison: `field_cmp`, the sign of a difference on ints, is the package's
one exact order, of QScalar's `sign`, `<`, `<=`, `>` and `>=`, of
lattice.Exact's `<`, of lattice.sorted_numerators and of classify's Coxeter
labels, and no difference becomes a QScalar.  And so is the squared norm
that roots.unit_rows names in NormNotInField: `format_value` is the one
text of a value, QScalar's `str` and `scalar_or_text`'s, which gives a norm
past the bound as that text.  This module holds the package's one field
rule (`common_disc`), its one 64-bit check of a new row (`check_row`), and
the integer sign, order and square root of values (x + y sqrt(d)) / z,
`field_sign`, `field_cmp` and `field_sqrt`, which QScalar wraps and the
row kernels call directly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product
from typing import Iterable, Optional, Union

from .errors import DomainError, FieldMismatch

_INT64_MAX = 2**63 - 1

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


def _check_range(fr: Fraction) -> Fraction:
    if abs(fr.numerator) > _INT64_MAX or fr.denominator > _INT64_MAX:
        raise OverflowError(
            f"rational component {fr.numerator}/{fr.denominator} exceeds 64-bit range"
        )
    return fr


def field_sign(x: int, y: int, disc: int) -> int:
    """Sign of x + y sqrt(d), from x^2 against d y^2 when the signs differ."""
    if x >= 0 and y >= 0:
        return 1 if x or y else 0
    if x <= 0 and y <= 0:
        return -1
    bigger = x if x * x > disc * y * y else y  # never equal: d is square-free and y != 0
    return 1 if bigger > 0 else -1


def field_cmp(s: tuple[int, int, int], t: tuple[int, int, int], disc: int) -> int:
    """Sign of s - t for s = (p_s, q_s, D_s), the value (p_s + q_s sqrt(d)) / D_s with D_s > 0,
    and t alike: that of (p_s D_t - p_t D_s) + (q_s D_t - q_t D_s) sqrt(d), on ints with no
    bound.  The package's one exact order: QScalar's sign and comparisons, Exact's `<`,
    lattice.sorted_numerators and classify's Coxeter labels call it."""
    return field_sign(s[0] * t[2] - t[0] * s[2], s[1] * t[2] - t[1] * s[2], disc)


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


def common_disc(tags: Iterable[tuple[int, object]]) -> int:
    """The field of values tagged (disc, surd part), by the package's one field rule: a
    surd's field wins, a rational fits any field, and otherwise the largest tag (1 for none).
    FieldMismatch when surd parts from two fields meet."""
    surd, top = None, 1
    for disc, irrational in tags:
        if not irrational:
            top = max(top, disc)
        elif surd is None:
            surd = disc
        elif disc != surd:
            raise FieldMismatch(f"cannot combine Q(sqrt({surd})) with Q(sqrt({disc}))")
    return top if surd is None else surd


def check_row(x: tuple[int, ...]) -> None:
    """OverflowError, as QScalar raises it, if a reduced component p_i / D of the new
    row (p_1, q_1, ..., D) leaves the 64-bit bound: the one check of a new row."""
    if max(map(abs, x)) > _INT64_MAX:
        for p in x[:-1]:
            _check_range(Fraction(p, x[-1]))


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


_F_ZERO = Fraction(0)


class QScalar:
    """An exact element a + b*sqrt(d) of the quadratic field Q(sqrt(d)).

    >>> phi = QScalar(Fraction(1, 2), Fraction(1, 2), 5)
    >>> phi * phi == phi + QScalar.rational(1, disc=5)
    True
    >>> float(phi)
    1.618033988749895
    >>> (phi.inverse() + QScalar.rational(1, disc=5)) == phi
    True
    """

    __slots__ = ("rat", "surd", "disc")

    def __init__(self, rat, surd=0, disc: int = 1):
        if type(rat) is not Fraction:
            rat = Fraction(rat)
        if type(surd) is not Fraction:
            surd = Fraction(surd)
        if not _is_square_free(disc):
            raise DomainError(f"discriminant {disc} must be a positive square-free integer")
        if disc == 1 and surd:
            rat, surd = rat + surd, _F_ZERO
        object.__setattr__(self, "rat", _check_range(rat))
        object.__setattr__(self, "surd", _check_range(surd))
        object.__setattr__(self, "disc", disc)

    def __setattr__(self, name, value):
        raise AttributeError("QScalar is immutable")

    @classmethod
    def rational(cls, num, den=1, disc: int = 1) -> "QScalar":
        return cls(Fraction(num, den), 0, disc)

    @classmethod
    def sqrt_disc(cls, disc: int) -> "QScalar":
        """The element sqrt(d) itself.

        >>> QScalar.sqrt_disc(2) * QScalar.sqrt_disc(2)
        QScalar('2', disc=2)
        """
        return cls(0, 1, disc)

    # -- field bookkeeping ------------------------------------------------

    def is_rational(self) -> bool:
        return not self.surd

    def is_zero(self) -> bool:
        return not self.rat and not self.surd

    def _common_disc(self, other: "QScalar") -> int:
        return common_disc(((self.disc, self.surd), (other.disc, other.surd)))

    def promote(self, disc: int) -> "QScalar":
        """Retag a rational value into Q(sqrt(disc))."""
        if self.disc == disc:
            return self
        if self.surd != 0:
            raise FieldMismatch(
                f"cannot move {self} from Q(sqrt({self.disc})) to Q(sqrt({disc}))"
            )
        return QScalar(self.rat, 0, disc)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "QScalar":
        other = _coerce(other)
        d = self.disc if self.disc == other.disc else self._common_disc(other)
        return QScalar(self.rat + other.rat, self.surd + other.surd, d)

    __radd__ = __add__

    def __sub__(self, other) -> "QScalar":
        other = _coerce(other)
        d = self.disc if self.disc == other.disc else self._common_disc(other)
        return QScalar(self.rat - other.rat, self.surd - other.surd, d)

    def __rsub__(self, other) -> "QScalar":
        return _coerce(other).__sub__(self)

    def __mul__(self, other) -> "QScalar":
        other = _coerce(other)
        d = self.disc if self.disc == other.disc else self._common_disc(other)
        b, e = self.surd, other.surd
        if not b and not e:
            return QScalar(self.rat * other.rat, _F_ZERO, d)
        if not b:
            return QScalar(self.rat * other.rat, self.rat * e, d)
        if not e:
            return QScalar(self.rat * other.rat, b * other.rat, d)
        return QScalar(
            self.rat * other.rat + b * e * d,
            self.rat * e + b * other.rat,
            d,
        )

    __rmul__ = __mul__

    def __neg__(self) -> "QScalar":
        return QScalar(-self.rat, -self.surd, self.disc)

    def __truediv__(self, other) -> "QScalar":
        return self * _coerce(other).inverse()

    def __rtruediv__(self, other) -> "QScalar":
        return _coerce(other) * self.inverse()

    def conjugate(self) -> "QScalar":
        """Galois conjugate a - b*sqrt(d)."""
        return QScalar(self.rat, -self.surd, self.disc)

    def inverse(self) -> "QScalar":
        """Exact multiplicative inverse via the conjugate.

        >>> QScalar.sqrt_disc(2).inverse()
        QScalar('1/2*sqrt(2)', disc=2)
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        norm = self.rat * self.rat - self.surd * self.surd * self.disc
        # norm = x * conj(x) is a nonzero rational for nonzero x (d square-free).
        return QScalar(self.rat / norm, -self.surd / norm, self.disc)

    # -- exact order -------------------------------------------------------

    def _row(self) -> tuple[int, int, int]:
        # (x, y, z), the value (x + y sqrt(d)) / z with z > 0, as the int kernels take it
        a, b = self.rat, self.surd
        return (a.numerator * b.denominator, b.numerator * a.denominator,
                a.denominator * b.denominator)

    def sign(self) -> int:
        """Sign of the real value a + b*sqrt(d): -1, 0 or +1, decided exactly."""
        return field_cmp(self._row(), (0, 0, 1), self.disc)

    def __eq__(self, other) -> bool:
        # equal parts, in one field or with no surd part: a rational is equal under any tag
        if type(other) is QScalar:
            return self.rat == other.rat and self.surd == other.surd and (
                self.disc == other.disc or not self.surd)
        if isinstance(other, (int, Fraction)):
            return not self.surd and self.rat == other
        return NotImplemented

    def _cmp(self, other) -> int:
        # the sign of self - other by field_cmp, on ints: no QScalar is built, so no bound
        if isinstance(other, (int, Fraction)):  # a rational fits any field
            return field_cmp(self._row(), (other.numerator, 0, other.denominator), self.disc)
        other = _coerce(other)  # TypeError for anything but a QScalar
        return field_cmp(self._row(), other._row(), self._common_disc(other))

    def __lt__(self, other) -> bool:
        return self._cmp(other) < 0

    def __le__(self, other) -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other) -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other) -> bool:
        return self._cmp(other) >= 0

    def __hash__(self):
        # a rational value hashes as its Fraction, so it agrees with == on ints,
        # Fractions and the same value under any disc tag
        r, s = self.rat, self.surd
        if not s:
            return hash(r)
        return hash(
            (r.numerator, r.denominator, s.numerator, s.denominator, self.disc)
        )

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
        root = field_sqrt(*self._row(), self.disc)
        if root is None:
            return None
        return QScalar(Fraction(root[0], root[2]), Fraction(root[1], root[2]), self.disc)

    def __float__(self) -> float:
        return float(self.rat) + float(self.surd) * math.sqrt(self.disc)

    def __repr__(self) -> str:
        return f"QScalar({str(self)!r}, disc={self.disc})"

    def __str__(self) -> str:
        return format_value(self.rat, self.surd, self.disc)


def _coerce(value: Union[QScalar, int, Fraction]) -> QScalar:
    if isinstance(value, QScalar):
        return value
    if isinstance(value, (int, Fraction)):
        return QScalar(value)
    raise TypeError(f"cannot interpret {value!r} as a QScalar")


def phi() -> QScalar:
    """The golden ratio (1 + sqrt(5))/2 in Q(sqrt(5))."""
    return QScalar(Fraction(1, 2), Fraction(1, 2), 5)
