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
key (lattice.AngleKey) is a row of ints and is never a QScalar.  This module
holds the package's one field rule (`common_disc`) and its one 64-bit check
of a new row (`check_row`).
"""

from __future__ import annotations

import math
from fractions import Fraction
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


def _sqrt_fraction(fr: Fraction) -> Optional[Fraction]:
    """Exact square root of a nonnegative rational, or None."""
    if fr < 0:
        return None
    n, d = fr.numerator, fr.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def field_sign(x: int, y: int, disc: int) -> int:
    """Sign of x + y sqrt(d), from x^2 against d y^2 when the signs differ."""
    if x >= 0 and y >= 0:
        return 1 if x or y else 0
    if x <= 0 and y <= 0:
        return -1
    bigger = x if x * x > disc * y * y else y  # never equal: d is square-free and y != 0
    return 1 if bigger > 0 else -1


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

    def sign(self) -> int:
        """Sign of the real value a + b*sqrt(d): -1, 0 or +1, decided exactly."""
        a, b = self.rat, self.surd
        return field_sign(a.numerator * b.denominator, b.numerator * a.denominator, self.disc)

    def __eq__(self, other) -> bool:
        if type(other) is QScalar:
            if self.disc == other.disc:
                return self.rat == other.rat and self.surd == other.surd
            return not self.surd and not other.surd and self.rat == other.rat
        if not isinstance(other, (QScalar, int, Fraction)):
            return NotImplemented
        other = _coerce(other)
        if self.surd == 0 and other.surd == 0:
            return self.rat == other.rat
        return (
            self.disc == other.disc
            and self.rat == other.rat
            and self.surd == other.surd
        )

    def __lt__(self, other) -> bool:
        return (self - _coerce(other)).sign() < 0

    def __le__(self, other) -> bool:
        return (self - _coerce(other)).sign() <= 0

    def __gt__(self, other) -> bool:
        return (self - _coerce(other)).sign() > 0

    def __ge__(self, other) -> bool:
        return (self - _coerce(other)).sign() >= 0

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
        """Exact square root within the field, or None if none exists there.

        Solves (p + q*sqrt(d))^2 = a + b*sqrt(d) over the rationals:
        p^2 + q^2 d = a and 2pq = b.

        >>> QScalar(2, 0, 2).sqrt()
        QScalar('sqrt(2)', disc=2)
        >>> QScalar(3, 0, 2).sqrt() is None
        True
        """
        if self.sign() < 0:
            raise DomainError(f"sqrt of negative value {self}")
        a, b, d = self.rat, self.surd, self.disc
        if b == 0:
            p = _sqrt_fraction(a)
            if p is not None:
                return QScalar(p, 0, self.disc)
            q2 = a / d
            q = _sqrt_fraction(q2)
            if q is not None:
                return QScalar(0, q, self.disc)
            return None
        # coupled branch: q = b/(2p) with 4p^4 - 4ap^2 + b^2 d = 0
        s = _sqrt_fraction(a * a - b * b * d)
        if s is None:
            return None
        for p2 in ((a + s) / 2, (a - s) / 2):
            p = _sqrt_fraction(p2)
            if p is not None and p != 0:
                q = b / (2 * p)
                root = QScalar(p, q, self.disc)
                if root.sign() < 0:
                    root = -root
                if root * root == self:
                    return root
        return None

    def __float__(self) -> float:
        return float(self.rat) + float(self.surd) * math.sqrt(self.disc)

    def __repr__(self) -> str:
        return f"QScalar({str(self)!r}, disc={self.disc})"

    def __str__(self) -> str:
        a, b = self.rat, self.surd
        if b == 0:
            return str(a)
        surd = f"sqrt({self.disc})" if abs(b) == 1 else f"{abs(b)}*sqrt({self.disc})"
        if a == 0:
            return surd if b > 0 else f"-{surd}"
        return f"{a}{'+' if b > 0 else '-'}{surd}"


def _coerce(value: Union[QScalar, int, Fraction]) -> QScalar:
    if type(value) is QScalar:
        return value
    if isinstance(value, QScalar):
        return value
    if isinstance(value, (int, Fraction)):
        return QScalar(value)
    raise TypeError(f"cannot interpret {value!r} as a QScalar")


def phi() -> QScalar:
    """The golden ratio (1 + sqrt(5))/2 in Q(sqrt(5))."""
    return QScalar(Fraction(1, 2), Fraction(1, 2), 5)
