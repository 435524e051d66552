"""
Exact arithmetic in quadratic fields
====================================

Every number in this package is a + b*sqrt(d) with exact rational a, b.
That is what lets reflection closures, group orders and classifications be
decided with equality tests instead of tolerances.
"""

from fractions import Fraction

from rootspin import QScalar, phi

# the golden ratio lives in Q(sqrt(5))
p = phi()
print("phi                =", p)
print("phi^2              =", p * p, " (equals phi + 1:", p * p == p + 1, ")")
print("1/phi              =", p.inverse(), " (equals phi - 1:", p.inverse() == p - 1, ")")

# conjugation flips the sign of the surd part; the norm is rational
print("conjugate(phi)     =", p.conjugate())
print("phi * conj(phi)    =", p * p.conjugate())

# signs are decided exactly, no matter how close the value is to zero
tight = QScalar(Fraction(985, 696), 0, 2) - QScalar.sqrt_disc(2)
print("985/696 - sqrt(2)  =", tight, "-> sign", tight.sign(), "(float says", float(tight), ")")

# square roots stay in the field or are reported as unrepresentable
print("sqrt(phi + 1)      =", (p + 1).sqrt())
print("sqrt(2) in Q(s5)   =", QScalar(2, 0, 5).sqrt())

# arithmetic is overflow-checked: 64-bit components, loud failure
big = QScalar(2**62)
try:
    big * big
except OverflowError as exc:
    print("overflow guard     ->", exc)
